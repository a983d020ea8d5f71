// Differential partial reconfiguration under faults: per-region CRC
// retry, region scrubbing that preserves live design state, the
// self-reconfiguration protocol through the driver, and a fuzzer that
// checks the differential switch path is bit-identical (every wire,
// every RAM word) to the full-configure path.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "chdl/builder.hpp"
#include "chdl/design.hpp"
#include "core/driver.hpp"
#include "core/system.hpp"
#include "core/taskswitch.hpp"
#include "hw/fpga.hpp"
#include "sim/fault.hpp"
#include "util/units.hpp"

namespace atlantis::core {
namespace {

hw::Bitstream make_task(const std::string& name, const std::string& tag,
                        int regions) {
  hw::Bitstream bs;
  bs.name = name;
  bs.stats.gate_equivalents = 50'000;
  bs.region_sigs = hw::make_region_signatures(tag, regions);
  return bs;
}

/// Counter-addressed RAM design: variants differ only in the constant
/// added to the write data, so every variant has the same port layout
/// and the same wire numbering.
chdl::Design make_ram_design(const std::string& name, std::uint64_t k) {
  chdl::Design d(name);
  const chdl::Wire en = d.input("en", 1);
  const chdl::Wire din = d.input("din", 8);
  const chdl::Wire c = chdl::counter(d, "c", 5, en);
  const int ram = d.add_ram("m", 32, 8);
  d.ram_write(ram, c, d.add(din, d.constant(8, k)), en);
  d.output("q", d.ram_read(ram, c));
  d.output("count", c);
  return d;
}

/// FSM that requests a self-reconfiguration of `region` until acked:
/// reconfig_req starts high and clears on the reconfig_ack pulse.
chdl::Design make_self_reconfig_design(const std::string& name, int region) {
  chdl::Design d(name);
  const chdl::Wire ack = d.input("reconfig_ack", 1);
  chdl::RegOpts opts;
  opts.init = chdl::BitVec(1, 1);
  const chdl::Wire req = d.reg_forward("req", 1, opts);
  d.reg_connect(req, d.band(req, d.bnot(ack)));
  d.output("reconfig_req", req);
  d.output("reconfig_region", d.constant(8, static_cast<std::uint64_t>(region)));
  d.output("count", chdl::counter(d, "c", 8));
  return d;
}

TEST(PartialReconfig, RegionSignatureHelpers) {
  const auto a = hw::make_region_signatures("base", 32);
  EXPECT_EQ(a.size(), 32u);
  EXPECT_EQ(a, hw::make_region_signatures("base", 32));  // deterministic
  EXPECT_NE(a, hw::make_region_signatures("other", 32));

  auto b = a;
  hw::stamp_regions(b, "variant", 8, 12);
  for (int r = 0; r < 32; ++r) {
    const bool stamped = r >= 8 && r < 12;
    EXPECT_EQ(a[static_cast<std::size_t>(r)] != b[static_cast<std::size_t>(r)],
              stamped)
        << "region " << r;
  }
  EXPECT_EQ(hw::region_diff_count(a, a), 0);
  EXPECT_EQ(hw::region_diff_count(a, b), 4);
  EXPECT_EQ(hw::region_diff_count({}, a), -1);  // incomparable: empty
  EXPECT_EQ(hw::region_diff_count(a, hw::make_region_signatures("base", 16)),
            -1);  // incomparable: different region counts
}

TEST(PartialReconfig, DiffLoadsOnlyChangedRegions) {
  hw::FpgaDevice dev("d0", hw::orca_3t125());
  const int n = dev.region_count();
  ASSERT_GT(n, 1);
  const hw::Bitstream base = make_task("base", "base", n);
  hw::Bitstream variant = make_task("variant", "base", n);
  hw::stamp_regions(variant.region_sigs, "variant", 8, 12);

  dev.configure(base);
  EXPECT_EQ(dev.resident_regions(), base.region_sigs);

  const hw::ReconfigOutcome oc = dev.reconfigure_diff(variant);
  EXPECT_TRUE(oc.ok);
  EXPECT_TRUE(oc.differential);
  EXPECT_EQ(oc.regions_total, n);
  EXPECT_EQ(oc.regions_loaded, 4);
  EXPECT_EQ(oc.region_retries, 0);
  EXPECT_EQ(oc.time, 4 * dev.region_time());
  EXPECT_LT(oc.time, dev.config_time(dev.family().config_bits));
  EXPECT_EQ(dev.design_name(), "variant");
  EXPECT_EQ(dev.resident_regions(), variant.region_sigs);
}

TEST(PartialReconfig, IncomparableResidentLoadsEveryRegion) {
  hw::FpgaDevice dev("d0", hw::orca_3t125());
  const int n = dev.region_count();
  hw::Bitstream legacy;  // no region signatures
  legacy.name = "legacy";
  legacy.stats.gate_equivalents = 50'000;
  dev.configure(legacy);
  EXPECT_TRUE(dev.resident_regions().empty());

  const hw::ReconfigOutcome oc =
      dev.reconfigure_diff(make_task("base", "base", n));
  EXPECT_TRUE(oc.ok);
  EXPECT_FALSE(oc.differential);  // resident config was opaque
  EXPECT_EQ(oc.regions_loaded, n);
  EXPECT_EQ(oc.time, n * dev.region_time());
}

TEST(PartialReconfig, PerRegionCrcRetryRetriesOnlyThatFrame) {
  hw::FpgaDevice dev("d0", hw::orca_3t125());
  const int n = dev.region_count();
  const hw::Bitstream base = make_task("base", "base", n);
  hw::Bitstream variant = make_task("variant", "base", n);
  hw::stamp_regions(variant.region_sigs, "variant", 8, 12);

  // Opportunity 1 is the full configure; opportunity 2 is the first
  // frame of the differential load — fail exactly that one.
  sim::FaultPlan plan;
  plan.inject(sim::FaultKind::kConfigCrc, "fpga/d0", 2);
  sim::FaultInjector inj(plan);
  dev.set_fault_injector(&inj);

  dev.configure(base);
  ASSERT_TRUE(dev.config_crc_ok());

  const hw::ReconfigOutcome oc = dev.reconfigure_diff(variant, 2);
  EXPECT_TRUE(oc.ok);
  EXPECT_EQ(oc.regions_loaded, 4);
  EXPECT_EQ(oc.region_retries, 1);
  // Four frames plus one re-shift of the failed frame — not a full
  // bitstream retry.
  EXPECT_EQ(oc.time, 5 * dev.region_time());
  EXPECT_TRUE(dev.configured());
  EXPECT_TRUE(dev.config_crc_ok());
  EXPECT_EQ(dev.crc_failures(), 1u);
  EXPECT_EQ(dev.resident_regions(), variant.region_sigs);
}

TEST(PartialReconfig, RegionRetryExhaustionClearsDevice) {
  hw::FpgaDevice dev("d0", hw::orca_3t125());
  const int n = dev.region_count();
  dev.configure(make_task("base", "base", n));

  sim::FaultPlan plan;
  plan.with_rate(sim::FaultKind::kConfigCrc, 1.0);  // every frame fails
  sim::FaultInjector inj(plan);
  dev.set_fault_injector(&inj);

  hw::Bitstream variant = make_task("variant", "base", n);
  hw::stamp_regions(variant.region_sigs, "variant", 0, 1);
  const hw::ReconfigOutcome oc = dev.reconfigure_diff(variant, 3);
  EXPECT_FALSE(oc.ok);
  EXPECT_EQ(oc.regions_loaded, 0);
  EXPECT_EQ(oc.time, 3 * dev.region_time());  // every attempt was paid for
  EXPECT_FALSE(dev.configured());
  EXPECT_FALSE(dev.config_crc_ok());
  EXPECT_TRUE(dev.resident_regions().empty());
}

TEST(PartialReconfig, SwitcherPaysOnlyTheDelta) {
  hw::FpgaDevice dev("d0", hw::orca_3t125());
  const int n = dev.region_count();
  TaskSwitcher sw(dev);
  hw::Bitstream a = make_task("a", "base", n);
  hw::Bitstream b = make_task("b", "base", n);
  hw::stamp_regions(b.region_sigs, "b", 8, 12);
  sw.add_task(a);
  sw.add_task(b);

  const util::Picoseconds full = dev.config_time(dev.family().config_bits);
  EXPECT_EQ(sw.switch_to("a").value(), full);

  const util::Picoseconds t = sw.switch_to("b").value();
  EXPECT_EQ(t, 4 * dev.region_time());
  EXPECT_EQ(sw.partial_switches(), 1u);
  EXPECT_EQ(sw.regions_loaded(), 4u);
  EXPECT_EQ(sw.counters().partial_time, t);

  // A signature-less copy of "a" is opaque: switching to it pays the
  // full load instead of the region delta.
  hw::Bitstream opaque = a;
  opaque.name = "a_opaque";
  opaque.region_sigs.clear();
  sw.add_task(opaque);
  const util::Picoseconds t2 = sw.switch_to("a_opaque").value();
  EXPECT_EQ(t2, full);
  EXPECT_EQ(sw.partial_switches(), 1u);  // no new differential switch
}

TEST(PartialReconfig, SwitcherFallsBackToFullConfigureAfterDiffFailure) {
  hw::FpgaDevice dev("d0", hw::orca_3t125());
  const int n = dev.region_count();
  TaskSwitcher sw(dev);
  sim::RetryPolicy policy;
  policy.max_attempts = 2;
  sw.set_retry_policy(policy);
  hw::Bitstream a = make_task("a", "base", n);
  hw::Bitstream b = make_task("b", "base", n);
  hw::stamp_regions(b.region_sigs, "b", 0, 1);
  sw.add_task(a);
  sw.add_task(b);

  // Opportunity 1: full configure of "a" (clean). Opportunities 2 and 3:
  // both attempts at the single differing frame of "b" — the region
  // budget exhausts, the device drops unconfigured, and the switcher's
  // outer retry takes the full-configure path (opportunity 4, clean).
  sim::FaultPlan plan;
  plan.inject(sim::FaultKind::kConfigCrc, "fpga/d0", 2);
  plan.inject(sim::FaultKind::kConfigCrc, "fpga/d0", 3);
  sim::FaultInjector inj(plan);
  dev.set_fault_injector(&inj);

  sw.switch_to("a").value();
  const util::Result<util::Picoseconds> r = sw.switch_to("b");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(dev.configured());
  EXPECT_EQ(sw.current(), "b");
  EXPECT_EQ(dev.design_name(), "b");
  // 2 failed frame shifts + the recovery full configuration.
  EXPECT_EQ(r.value(),
            2 * dev.region_time() + dev.config_time(dev.family().config_bits));
  // One per-region retry inside the diff load, one outer full-configure
  // retry after it exhausted.
  EXPECT_EQ(sw.reconfig_retries(), 2u);
  EXPECT_EQ(sw.partial_switches(), 0u);  // the diff attempt never succeeded
  EXPECT_EQ(dev.resident_regions(), b.region_sigs);
}

TEST(PartialReconfig, RegionScrubPreservesLiveSimState) {
  const chdl::Design design = make_ram_design("ram_task", 1);
  hw::Bitstream bs = hw::Bitstream::from_design(design);
  bs.region_sigs = hw::make_region_signatures("ram_task", 32);

  // Reference device: no faults, same stimulus, never scrubbed.
  hw::FpgaDevice ref("ref", hw::orca_3t125());
  ref.configure(bs);

  hw::FpgaDevice dev("d0", hw::orca_3t125());
  TaskSwitcher sw(dev);
  sw.add_task(bs);
  sim::FaultPlan plan;
  plan.inject(sim::FaultKind::kSeuConfig, "fpga/d0", 1, /*param=*/7);
  sim::FaultInjector inj(plan);
  dev.set_fault_injector(&inj);
  sw.switch_to("ram_task").value();

  auto drive = [](chdl::Simulator& s, int steps) {
    s.poke("en", 1);
    for (int i = 0; i < steps; ++i) {
      s.poke("din", static_cast<std::uint64_t>(0x40 + i));
      s.step();
    }
  };
  ASSERT_NE(dev.sim(), nullptr);
  drive(*dev.sim(), 10);
  drive(*ref.sim(), 10);
  chdl::Simulator* before = dev.sim();

  // The scrub window draws the scheduled upset (pinned to region 7) and
  // repairs it by re-shifting that one frame; the live simulator — its
  // flip-flops and RAM contents — must survive.
  EXPECT_TRUE(sw.scrub());
  EXPECT_FALSE(dev.upset_pending());
  EXPECT_EQ(dev.sim(), before);  // same simulator object, not a rebuild

  drive(*dev.sim(), 10);
  drive(*ref.sim(), 10);
  for (std::int32_t w = 0; w < design.wire_count(); ++w) {
    const chdl::Wire wire{w, design.wire_width(w)};
    if (wire.width <= 0) continue;
    EXPECT_EQ(dev.sim()->peek(wire), ref.sim()->peek(wire)) << "wire " << w;
  }
  for (std::int64_t addr = 0; addr < 32; ++addr) {
    EXPECT_EQ(dev.sim()->read_ram(0, addr), ref.sim()->read_ram(0, addr))
        << "ram word " << addr;
  }
}

TEST(PartialReconfig, DifferentialFuzzerMatchesFullConfigurePath) {
  // Three variants of the RAM design sharing most configuration regions.
  std::vector<chdl::Design> designs;
  designs.reserve(3);
  for (int v = 0; v < 3; ++v) {
    designs.push_back(
        make_ram_design("v" + std::to_string(v), static_cast<std::uint64_t>(v)));
  }
  std::vector<hw::Bitstream> tasks;
  for (int v = 0; v < 3; ++v) {
    hw::Bitstream bs = hw::Bitstream::from_design(designs[static_cast<std::size_t>(v)]);
    bs.region_sigs = hw::make_region_signatures("shared_base", 32);
    hw::stamp_regions(bs.region_sigs, bs.name, 4 * v, 4 * v + 4);
    tasks.push_back(bs);
  }

  // The reference switcher gets signature-less copies, so every one of
  // its switches is a full configuration.
  hw::FpgaDevice dev_diff("diff", hw::orca_3t125());
  hw::FpgaDevice dev_full("full", hw::orca_3t125());
  TaskSwitcher sw_diff(dev_diff);
  TaskSwitcher sw_full(dev_full);
  for (const hw::Bitstream& bs : tasks) {
    sw_diff.add_task(bs);
    hw::Bitstream opaque = bs;
    opaque.region_sigs.clear();
    sw_full.add_task(opaque);
  }

  std::mt19937_64 rng(12345);
  for (int round = 0; round < 40; ++round) {
    const std::size_t pick = rng() % tasks.size();
    const chdl::Design& design = designs[pick];
    sw_diff.switch_to(tasks[pick].name).value();
    sw_full.switch_to(tasks[pick].name).value();

    chdl::Simulator* a = dev_diff.sim();
    chdl::Simulator* b = dev_full.sim();
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    const int steps = 1 + static_cast<int>(rng() % 6);
    for (int s = 0; s < steps; ++s) {
      const std::uint64_t en = rng() % 2;
      const std::uint64_t din = rng() % 256;
      a->poke("en", en);
      a->poke("din", din);
      b->poke("en", en);
      b->poke("din", din);
      a->step();
      b->step();
    }
    // Partial-then-run must equal full-configure-then-run on every wire
    // and every RAM word.
    for (std::int32_t w = 0; w < design.wire_count(); ++w) {
      const chdl::Wire wire{w, design.wire_width(w)};
      if (wire.width <= 0) continue;
      ASSERT_EQ(a->peek(wire), b->peek(wire))
          << "round " << round << " wire " << w;
    }
    for (std::int64_t addr = 0; addr < 32; ++addr) {
      ASSERT_EQ(a->read_ram(0, addr), b->read_ram(0, addr))
          << "round " << round << " ram word " << addr;
    }
  }
  // Same functional results, but the differential path moved far less
  // configuration data.
  EXPECT_GT(sw_diff.partial_switches(), 0u);
  EXPECT_EQ(sw_full.partial_switches(), 0u);
  EXPECT_LT(sw_diff.total_switch_time(), sw_full.total_switch_time());
}

TEST(PartialReconfig, SelfReconfigProtocolThroughDriver) {
  AtlantisSystem sys("crate");
  AtlantisDriver drv(sys, sys.add_acb("acb0"));
  const chdl::Design design = make_self_reconfig_design("selfrc", 5);
  hw::Bitstream bs = hw::Bitstream::from_design(design);
  bs.region_sigs = hw::make_region_signatures("selfrc", 32);
  ASSERT_TRUE(drv.configure(0, bs).ok());

  hw::FpgaDevice& dev = drv.board().fpga(0);
  ASSERT_NE(dev.sim(), nullptr);
  EXPECT_EQ(dev.sim()->peek_u64("reconfig_req"), 1u);
  const std::uint64_t count_before = dev.sim()->peek_u64("count");

  const util::Result<util::Picoseconds> r = drv.poll_self_reconfig(0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), dev.region_time());  // one frame re-shifted
  // The ack pulse stepped the design once; its state survived the
  // frame reload.
  EXPECT_EQ(dev.sim()->peek_u64("count"), count_before + 1);
  EXPECT_EQ(dev.sim()->peek_u64("reconfig_req"), 0u);  // FSM deasserted

  // With the request deasserted, polling is free and does nothing.
  const util::Result<util::Picoseconds> r2 = drv.poll_self_reconfig(0);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.value(), 0);

  // The one reload is visible on the timeline as a kReconfig transaction.
  int reloads = 0;
  for (const sim::Transaction& txn : sys.timeline().transactions()) {
    if (txn.label == "self-reconfig region 5") {
      EXPECT_EQ(txn.regions, 1u);
      ++reloads;
    }
  }
  EXPECT_EQ(reloads, 1);
}

TEST(PartialReconfig, SelfReconfigCrcFailureDropsDevice) {
  AtlantisSystem sys("crate");
  sim::FaultPlan plan;
  // Opportunity 1 is the driver's configure(); the poll's frame loads
  // are opportunities 2..5 — fail every attempt of the polled frame.
  plan.inject(sim::FaultKind::kConfigCrc, "fpga/acb0/fpga0", 2);
  plan.inject(sim::FaultKind::kConfigCrc, "fpga/acb0/fpga0", 3);
  plan.inject(sim::FaultKind::kConfigCrc, "fpga/acb0/fpga0", 4);
  plan.inject(sim::FaultKind::kConfigCrc, "fpga/acb0/fpga0", 5);
  sim::FaultInjector inj(plan);
  sys.set_fault_injector(&inj);
  AtlantisDriver drv(sys, sys.add_acb("acb0"));
  const chdl::Design design = make_self_reconfig_design("selfrc", 3);
  hw::Bitstream bs = hw::Bitstream::from_design(design);
  bs.region_sigs = hw::make_region_signatures("selfrc", 32);
  ASSERT_TRUE(drv.configure(0, bs).ok());

  const util::Result<util::Picoseconds> r = drv.poll_self_reconfig(0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), util::ErrorCode::kConfigCrc);
  EXPECT_FALSE(drv.board().fpga(0).configured());
}

}  // namespace
}  // namespace atlantis::core

#include "core/driver.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "chdl/builder.hpp"
#include "core/taskswitch.hpp"
#include "sim/fault.hpp"
#include "util/json.hpp"

namespace atlantis::core {
namespace {

// A host-accessible design: register 0 echoes, register 1 counts writes.
chdl::Design& echo_design() {
  static chdl::Design d = [] {
    chdl::Design dd("echo");
    chdl::HostRegFile hrf(dd);
    hrf.write_reg("r0", 0, 32);
    hrf.map_read(1, chdl::counter(dd, "writes", 16, hrf.we()));
    hrf.finish();
    return dd;
  }();
  return d;
}

// A host-port design with a read-only id register at address 2.
chdl::Design id_design(const std::string& name, std::uint64_t id) {
  chdl::Design d(name);
  chdl::HostRegFile hrf(d);
  hrf.write_reg("r0", 0, 32);
  hrf.map_read(2, d.constant(32, id));
  hrf.finish();
  return d;
}

int crc_fail_configures(const sim::Timeline& tl) {
  int n = 0;
  for (const sim::Transaction& t : tl.transactions()) {
    if (t.kind == sim::TxnKind::kReconfig &&
        t.label.ends_with(" (crc fail)")) {
      ++n;
    }
  }
  return n;
}

TEST(Driver, TimeLedgerStartsAtZero) {
  AtlantisSystem sys("crate");
  AtlantisDriver drv(sys, sys.add_acb("acb0"));
  EXPECT_EQ(drv.now(), 0);
}

TEST(Driver, ConfigureAdvancesLedger) {
  AtlantisSystem sys("crate");
  AtlantisDriver drv(sys, sys.add_acb("acb0"));
  ASSERT_TRUE(
      drv.configure(0, hw::Bitstream::from_design(echo_design())).ok());
  // An ORCA full configuration is ~18.75 ms at 8 bit / 10 MHz.
  EXPECT_NEAR(util::ps_to_ms(drv.now()), 18.75, 0.1);
  EXPECT_TRUE(drv.board().fpga(0).configured());
}

TEST(Driver, RegisterAccessReachesSimulatedDesign) {
  AtlantisSystem sys("crate");
  AtlantisDriver drv(sys, sys.add_acb("acb0"));
  ASSERT_TRUE(
      drv.configure(0, hw::Bitstream::from_design(echo_design())).ok());
  const util::Picoseconds t0 = drv.now();
  drv.reg_write(0, 0, 0xBEEF);
  EXPECT_EQ(drv.reg_read(0, 0), 0xBEEFu);
  EXPECT_EQ(drv.reg_read(0, 1), 1u);  // one write seen by the fabric
  EXPECT_GT(drv.now() - t0, 0);       // target-mode accesses cost time
}

TEST(Driver, RegisterAccessWithoutSimStillCostsTime) {
  AtlantisSystem sys("crate");
  AtlantisDriver drv(sys, sys.add_acb("acb0"));
  EXPECT_EQ(drv.reg_read(0, 0), 0u);
  EXPECT_GT(drv.now(), 0);
  EXPECT_EQ(drv.host_if(0), nullptr);
}

TEST(Driver, DmaAdvancesLedgerAndPciCounters) {
  AtlantisSystem sys("crate");
  AtlantisDriver drv(sys, sys.add_acb("acb0"));
  const hw::DmaTransfer w =
      drv.dma(hw::DmaDirection::kWrite, 64 * util::kKiB).value();
  const hw::DmaTransfer r =
      drv.dma(hw::DmaDirection::kRead, 64 * util::kKiB).value();
  EXPECT_EQ(drv.now(), w.duration + r.duration);
  const sim::ResourceStats seg = sys.timeline().stats(sys.pci_segment());
  EXPECT_EQ(seg.bytes, 128 * util::kKiB);
  EXPECT_EQ(seg.busy, w.duration + r.duration);
  EXPECT_GT(w.mbps(), r.mbps());
}

TEST(Driver, DesignClockProgrammable) {
  AtlantisSystem sys("crate");
  AtlantisDriver drv(sys, sys.add_acb("acb0"));
  drv.set_design_clock(40.0);
  EXPECT_DOUBLE_EQ(drv.design_clock_mhz(), 40.0);
  const util::Picoseconds t0 = drv.now();
  drv.advance_cycles(1'000'000);  // 1M cycles @ 40 MHz = 25 ms
  EXPECT_NEAR(util::ps_to_ms(drv.now() - t0), 25.0, 0.01);
}

TEST(Driver, DmaToSimDeliversPayload) {
  AtlantisSystem sys("crate");
  AtlantisDriver drv(sys, sys.add_acb("acb0"));
  ASSERT_TRUE(
      drv.configure(0, hw::Bitstream::from_design(echo_design())).ok());
  const std::vector<std::uint64_t> words = {1, 2, 3, 4, 5, 6, 7};
  drv.dma_write_to_sim(0, 0, words);
  // Register 0 holds the last word; the write counter saw all of them.
  EXPECT_EQ(drv.reg_read(0, 0), 7u);
  EXPECT_EQ(drv.reg_read(0, 1), static_cast<std::uint64_t>(words.size()));
}

TEST(Driver, DmaToSimRequiresHostPort) {
  AtlantisSystem sys("crate");
  AtlantisDriver drv(sys, sys.add_acb("acb0"));
  const std::vector<std::uint64_t> words = {1};
  EXPECT_THROW(drv.dma_write_to_sim(0, 0, words), util::Error);
}

TEST(Driver, PartialSwitchFasterThanFull) {
  AtlantisSystem sys("crate");
  AtlantisDriver drv(sys, sys.add_acb("acb0"));
  TaskSwitcher sw(drv.board().fpga(0));
  hw::Bitstream full = hw::Bitstream::from_design(echo_design());
  full.region_sigs = hw::make_region_signatures("echo", 32);
  hw::Bitstream partial = full;  // differs from "echo" in 3 of 32 frames
  partial.name = "echo_partial";
  hw::stamp_regions(partial.region_sigs, "echo_partial", 0, 3);
  sw.add_task(full);
  sw.add_task(partial);
  ASSERT_TRUE(drv.switch_task(sw, "echo").ok());
  const util::Picoseconds after_full = drv.now();
  ASSERT_TRUE(drv.switch_task(sw, "echo_partial").ok());
  EXPECT_LT(drv.now() - after_full, after_full / 2);
}

TEST(Driver, SwitchTaskPostsAtTheDriverCursor) {
  AtlantisSystem sys("crate");
  AtlantisDriver drv(sys, sys.add_acb("acb0"));
  TaskSwitcher sw(sys.acb(0).fpga(0));
  sw.add_task(hw::Bitstream{"alpha", {}, nullptr, {}});

  const util::Picoseconds before = drv.now();
  const util::Result<util::Picoseconds> r = drv.switch_task(sw, "alpha");
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r.value(), 0);
  EXPECT_EQ(drv.now(), before + r.value());
  bool posted = false;
  for (const sim::Transaction& t : sys.timeline().transactions()) {
    posted = posted || (t.kind == sim::TxnKind::kReconfig &&
                        t.label == "switch to alpha");
  }
  EXPECT_TRUE(posted);
}

TEST(Driver, SwitchPostsTheRegionsItLoaded) {
  // Every kReconfig a switch posts carries the configuration regions
  // that switch loaded: the switcher's region count moves by exactly
  // that much across the call.
  AtlantisSystem sys("crate");
  sim::FaultPlan plan;
  // CRC opportunities on FPGA 0: 1 is the full load of "a", 2-4 the
  // three frames of "b"; 5 and 6 fail both attempts at the one frame of
  // "c", and 7 is the full load that recovers it.
  plan.inject(sim::FaultKind::kConfigCrc, "fpga/acb0/fpga0", 5);
  plan.inject(sim::FaultKind::kConfigCrc, "fpga/acb0/fpga0", 6);
  sim::FaultInjector inj(plan);
  sys.set_fault_injector(&inj);
  AtlantisDriver drv(sys, sys.add_acb("acb0"));
  TaskSwitcher sw(drv.board().fpga(0));
  sim::RetryPolicy policy;
  policy.max_attempts = 2;
  sw.set_retry_policy(policy);
  sw.enable_cache(4);
  const auto task = [](const std::string& name, int from, int to) {
    hw::Bitstream bs;
    bs.name = name;
    bs.region_sigs = hw::make_region_signatures("base", 32);
    if (to > from) hw::stamp_regions(bs.region_sigs, name, from, to);
    return bs;
  };
  sw.add_task(task("a", 0, 0));
  sw.add_task(task("b", 8, 11));
  sw.add_task(task("c", 0, 1));

  struct Posted {
    int posts = 0;
    std::uint32_t regions = 0;  // of the last kReconfig posted
    std::uint64_t loaded = 0;   // the switcher's region-count delta
  };
  const auto switch_to = [&](const std::string& name) {
    Posted p;
    const std::uint64_t regions_before = sw.counters().regions;
    const std::uint64_t first = sys.timeline().posted();
    EXPECT_TRUE(drv.switch_task(sw, name).ok()) << name;
    for (std::uint64_t id = first; id < sys.timeline().posted(); ++id) {
      const sim::Transaction& t = sys.timeline().txn(id);
      if (t.kind != sim::TxnKind::kReconfig) continue;
      ++p.posts;
      p.regions = t.regions;
    }
    p.loaded = sw.counters().regions - regions_before;
    EXPECT_EQ(p.regions, p.loaded) << name;
    return p;
  };

  const Posted first_load = switch_to("a");
  EXPECT_EQ(first_load.posts, 1);
  EXPECT_EQ(first_load.regions, 0u);
  const Posted differential = switch_to("b");
  EXPECT_EQ(differential.posts, 1);
  EXPECT_EQ(differential.regions, 3u);
  const Posted resident = switch_to("b");
  EXPECT_EQ(resident.posts, 0);
  EXPECT_EQ(resident.loaded, 0u);
  const Posted cache_hit = switch_to("a");
  EXPECT_EQ(cache_hit.posts, 1);
  EXPECT_EQ(cache_hit.regions, 0u);
  EXPECT_EQ(sw.cache_hits(), 1u);
  const Posted fallback = switch_to("c");
  EXPECT_EQ(fallback.posts, 1);
  EXPECT_EQ(fallback.regions, 0u);
  EXPECT_EQ(sw.current(), "c");
  // One per-region retry inside the differential load, one full load
  // after it exhausted; only "b" loaded differentially.
  EXPECT_EQ(sw.reconfig_retries(), 2u);
  EXPECT_EQ(sw.partial_switches(), 1u);
  EXPECT_EQ(drv.board().fpga(0).crc_failures(), 2u);
  sys.set_fault_injector(nullptr);
}

TEST(Driver, RegisterAccessFollowsTaskSwitches) {
  // Every switch replaces the device's simulator; a register access
  // after it must reach the new design, never the freed one.
  const chdl::Design a = id_design("echo_a", 0xA);
  const chdl::Design b = id_design("echo_b", 0xB);
  AtlantisSystem sys("crate");
  AtlantisDriver drv(sys, sys.add_acb("acb0"));
  TaskSwitcher sw(drv.board().fpga(0));
  sw.add_task(hw::Bitstream::from_design(a));
  sw.add_task(hw::Bitstream::from_design(b));
  ASSERT_TRUE(drv.switch_task(sw, "echo_a").ok());
  drv.reg_write(0, 0, 0xBEEF);
  EXPECT_EQ(drv.reg_read(0, 2), 0xAu);
  ASSERT_TRUE(drv.switch_task(sw, "echo_b").ok());
  EXPECT_EQ(drv.reg_read(0, 2), 0xBu);
  EXPECT_EQ(drv.reg_read(0, 0), 0u);  // a fresh design, out of reset
}

TEST(Driver, ConfigureRetriesCrcFailures) {
  // One "(crc fail)" transaction and one retry per failed attempt.
  const hw::Bitstream bs = hw::Bitstream::from_design(echo_design());
  {
    AtlantisSystem sys("crate");
    sim::FaultPlan plan;
    plan.inject(sim::FaultKind::kConfigCrc, "fpga/acb0/fpga0", 1)
        .inject(sim::FaultKind::kConfigCrc, "fpga/acb0/fpga0", 2);
    sim::FaultInjector inj(plan);
    sys.set_fault_injector(&inj);
    AtlantisDriver drv(sys, sys.add_acb("acb0"));
    const hw::FpgaDevice& dev = drv.board().fpga(0);
    const util::Picoseconds full = dev.config_time(dev.family().config_bits);
    const util::Result<util::Picoseconds> r = drv.configure(0, bs);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), 3 * full);  // every attempt, the failed ones too
    EXPECT_EQ(drv.now(), 3 * full);
    EXPECT_EQ(crc_fail_configures(sys.timeline()), 2);
    EXPECT_EQ(drv.config_retries(), 2u);
    EXPECT_EQ(drv.recovery_time(), 2 * full);
    EXPECT_TRUE(dev.configured());
  }
  {
    AtlantisSystem sys("crate");
    sim::FaultPlan plan;
    plan.with_rate(sim::FaultKind::kConfigCrc, 1.0);
    sim::FaultInjector inj(plan);
    sys.set_fault_injector(&inj);
    AtlantisDriver drv(sys, sys.add_acb("acb0"));
    const util::Result<util::Picoseconds> r = drv.configure(0, bs);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error(), util::ErrorCode::kConfigCrc);
    const int attempts = drv.retry_policy().max_attempts;
    EXPECT_EQ(crc_fail_configures(sys.timeline()), attempts);
    EXPECT_EQ(drv.config_retries(),
              static_cast<std::uint64_t>(attempts - 1));
    EXPECT_FALSE(drv.board().fpga(0).configured());
  }
}

TEST(Driver, FailedConfigureDropsHostInterface) {
  AtlantisSystem sys("crate");
  AtlantisDriver drv(sys, sys.add_acb("acb0"));
  const hw::Bitstream bs = hw::Bitstream::from_design(echo_design());
  ASSERT_TRUE(drv.configure(0, bs).ok());
  ASSERT_NE(drv.host_if(0), nullptr);
  sim::FaultPlan plan;
  plan.with_rate(sim::FaultKind::kConfigCrc, 1.0);
  sim::FaultInjector inj(plan);
  sys.set_fault_injector(&inj);
  EXPECT_EQ(drv.configure(0, bs).error(), util::ErrorCode::kConfigCrc);
  EXPECT_EQ(drv.host_if(0), nullptr);
  EXPECT_EQ(drv.reg_read(0, 0), 0u);
}

TEST(Driver, LedgerBitIdenticalToScalarSum) {
  // The compatibility contract of the timeline refactor: a single driver
  // with no contention produces exactly the pre-refactor ledger — the
  // picosecond-for-picosecond sum of the pure calculator durations.
  AtlantisSystem sys("crate");
  AtlantisDriver drv(sys, sys.add_acb("acb0"));
  hw::Plx9080 reference;  // pure calculator, identical default params
  util::Picoseconds expected = 0;
  for (const std::uint64_t kb : {1, 7, 64, 300}) {
    ASSERT_TRUE(drv.dma(hw::DmaDirection::kWrite, kb * util::kKiB).ok());
    ASSERT_TRUE(drv.dma(hw::DmaDirection::kRead, kb * util::kKiB).ok());
    expected +=
        reference.transfer(hw::DmaDirection::kWrite, kb * util::kKiB).duration;
    expected +=
        reference.transfer(hw::DmaDirection::kRead, kb * util::kKiB).duration;
  }
  drv.reg_read(0, 0);
  expected += reference.target_access();
  drv.advance_cycles(12345);
  expected += drv.board().local_clock().cycles(12345);
  EXPECT_EQ(drv.now(), expected);
  // Nothing queued anywhere on the crate.
  EXPECT_EQ(sys.timeline().stats(sys.pci_segment()).queue_delay, 0);
}

TEST(Driver, TwoBoardsContendOnPciSegment) {
  AtlantisSystem sys("crate");
  AtlantisDriver d0(sys, sys.add_acb("acb0"));
  AtlantisDriver d1(sys, sys.add_acb("acb1"));
  // Alone, a transfer takes its service time (pure calculator, so the
  // baseline itself does not occupy the shared segment)...
  const util::Picoseconds solo =
      d0.board().pci().transfer(hw::DmaDirection::kWrite, util::kMiB).duration;
  // ...but when both boards post at the same instant, the segment
  // serializes them: one of the two waits a full transfer.
  ASSERT_TRUE(d0.dma(hw::DmaDirection::kWrite, util::kMiB, true).ok());
  ASSERT_TRUE(d1.dma(hw::DmaDirection::kWrite, util::kMiB, true).ok());
  const util::Picoseconds e0 = d0.wait();
  const util::Picoseconds e1 = d1.wait();
  EXPECT_EQ(std::min(e0, e1), solo);
  EXPECT_EQ(std::max(e0, e1), 2 * solo);
  EXPECT_EQ(sys.timeline().stats(sys.pci_segment()).queue_delay, solo);
}

TEST(Driver, AsyncDmaOverlapsCompute) {
  AtlantisSystem sys("crate");
  AtlantisDriver drv(sys, sys.add_acb("acb0"));
  drv.set_design_clock(40.0);
  // Serial: transfer then compute.
  const util::Picoseconds io =
      drv.dma(hw::DmaDirection::kWrite, 256 * util::kKiB).value().duration;
  const util::Picoseconds serial_extra = drv.now();
  EXPECT_EQ(serial_extra, io);
  drv.advance_cycles(1'000'000);
  const util::Picoseconds serial = drv.now();
  // Overlapped: the transfer occupies the bus while the design clock
  // runs; the join is the max, strictly less than the sum.
  const hw::DmaTransfer posted =
      drv.dma(hw::DmaDirection::kWrite, 256 * util::kKiB, true).value();
  EXPECT_EQ(posted.duration, io);
  EXPECT_EQ(drv.pending_dma(), 1);
  drv.advance_cycles(1'000'000);
  drv.wait();
  EXPECT_EQ(drv.pending_dma(), 0);
  const util::Picoseconds overlapped = drv.now() - serial;
  EXPECT_LT(overlapped, serial);
  EXPECT_EQ(overlapped,
            std::max(io, drv.board().local_clock().cycles(1'000'000)));
}

TEST(Driver, CrateTraceExportsValidJson) {
  // A real crate schedule (configure + DMA + compute on two boards)
  // exports a parseable Chrome trace with one complete event per
  // transaction.
  AtlantisSystem sys("crate");
  AtlantisDriver d0(sys, sys.add_acb("acb0"));
  AtlantisDriver d1(sys, sys.add_acb("acb1"));
  ASSERT_TRUE(
      d0.configure(0, hw::Bitstream::from_design(echo_design())).ok());
  ASSERT_TRUE(d0.dma(hw::DmaDirection::kWrite, 16 * util::kKiB).ok());
  ASSERT_TRUE(d1.dma(hw::DmaDirection::kWrite, 16 * util::kKiB, true).ok());
  d1.advance_cycles(1000);
  d1.wait();
  std::ostringstream out;
  sys.timeline().export_chrome_trace(out);
  const util::JsonValue doc = util::json_parse(out.str());
  int complete = 0;
  for (const util::JsonValue& e : doc.at("traceEvents").as_array()) {
    if (e.at("ph").as_string() == "X") ++complete;
  }
  EXPECT_EQ(complete, static_cast<int>(sys.timeline().transactions().size()));
  EXPECT_GE(complete, 4);
}

}  // namespace
}  // namespace atlantis::core

#include "hw/fpga.hpp"

#include <gtest/gtest.h>

#include "chdl/builder.hpp"

namespace atlantis::hw {
namespace {

chdl::Design& small_design() {
  static chdl::Design d = [] {
    chdl::Design dd("blinky");
    const chdl::Wire en = dd.input("en", 1);
    dd.output("q", chdl::counter(dd, "c", 8, en));
    return dd;
  }();
  return d;
}

TEST(FpgaFamily, PaperFigures) {
  // ORCA 3T125: ~186k average gates; 4 of them sum to the 744k of §2.1.
  EXPECT_EQ(orca_3t125().gate_capacity * 4, 744'000);
  // "more than 100k gates and 400 I/O pins per chip".
  EXPECT_GT(orca_3t125().gate_capacity, 100'000);
  EXPECT_GE(orca_3t125().io_pins, 422);  // the ACB uses 422 signals
  // Partial reconfiguration is a multi-region configuration store.
  EXPECT_EQ(orca_3t125().config_regions, 32);
  EXPECT_TRUE(orca_3t125().readback);
  EXPECT_EQ(virtex_xcv600().config_regions, 1);
  EXPECT_GT(virtex_xcv600().gate_capacity, orca_3t125().gate_capacity);
}

TEST(FpgaDevice, ConfigureLoadsDesignAndSim) {
  FpgaDevice dev("fpga0", orca_3t125());
  EXPECT_FALSE(dev.configured());
  const Bitstream bs = Bitstream::from_design(small_design());
  const util::Picoseconds t = dev.configure(bs);
  EXPECT_GT(t, 0);
  EXPECT_TRUE(dev.configured());
  EXPECT_EQ(dev.design_name(), "blinky");
  ASSERT_NE(dev.sim(), nullptr);
  dev.sim()->poke("en", 1);
  dev.sim()->run(3);
  EXPECT_EQ(dev.sim()->peek_u64("q"), 3u);
}

TEST(FpgaDevice, ConfigTimeMatchesBitstreamRate) {
  FpgaDevice dev("fpga0", orca_3t125());
  // 1.5 Mbit over 8 bits @ 10 MHz = 187500 clocks x 100 ns = 18.75 ms.
  EXPECT_EQ(dev.config_time(orca_3t125().config_bits), 187'500ll * 100'000);
}

TEST(FpgaDevice, GateBudgetEnforced) {
  FpgaDevice dev("fpga0", orca_3t125());
  Bitstream bs;
  bs.name = "huge";
  bs.stats.design_name = "huge";
  bs.stats.gate_equivalents = 1'000'000;
  EXPECT_THROW(dev.configure(bs), util::CapacityError);
  EXPECT_FALSE(dev.configured());
}

TEST(FpgaDevice, PinBudgetEnforced) {
  FpgaDevice dev("fpga0", orca_3t125());
  Bitstream bs;
  bs.name = "pins";
  bs.stats.io_pins = 500;
  EXPECT_THROW(dev.configure(bs), util::CapacityError);
}

TEST(FpgaDevice, PartialReconfigurationRules) {
  FpgaDevice orca("orca", orca_3t125());
  FpgaDevice virtex("virtex", virtex_xcv600());
  Bitstream base = Bitstream::from_design(small_design());
  base.region_sigs = make_region_signatures("blinky", orca.region_count());
  Bitstream variant = base;
  stamp_regions(variant.region_sigs, "variant", 0, 8);

  // Must be configured first.
  EXPECT_THROW(orca.reconfigure_diff(variant), util::StateError);
  const util::Picoseconds full = orca.configure(base);
  const ReconfigOutcome partial = orca.reconfigure_diff(variant);
  ASSERT_TRUE(partial.ok);
  EXPECT_EQ(partial.regions_loaded, 8);
  EXPECT_EQ(partial.time, 8 * orca.region_time());
  // A quarter of the frames costs a quarter of the full load.
  EXPECT_NEAR(static_cast<double>(partial.time),
              static_cast<double>(full) * 0.25,
              static_cast<double>(full) * 0.01);

  // Virtex generation: a monolithic store, no partial reconfiguration.
  virtex.configure(base);
  EXPECT_THROW(virtex.reconfigure_diff(variant), util::Error);
}

TEST(FpgaDevice, BadRegionSignaturesRejected) {
  FpgaDevice dev("fpga0", orca_3t125());
  Bitstream bs = Bitstream::from_design(small_design());
  dev.configure(bs);
  // No signatures: no frames to compare.
  EXPECT_THROW(dev.reconfigure_diff(bs), util::Error);
  // Signed for another region count.
  bs.region_sigs = make_region_signatures("blinky", dev.region_count() / 2);
  EXPECT_THROW(dev.reconfigure_diff(bs), util::Error);
  EXPECT_TRUE(dev.configured());
}

TEST(FpgaDevice, ReadbackRequiresConfiguration) {
  FpgaDevice dev("fpga0", orca_3t125());
  EXPECT_THROW(dev.readback(), util::StateError);
  dev.configure(Bitstream::from_design(small_design()));
  EXPECT_GT(dev.readback(), 0);
}

TEST(FpgaDevice, DeconfigureClearsState) {
  FpgaDevice dev("fpga0", orca_3t125());
  dev.configure(Bitstream::from_design(small_design()));
  dev.deconfigure();
  EXPECT_FALSE(dev.configured());
  EXPECT_EQ(dev.sim(), nullptr);
}

TEST(Bitstream, FromDesignAnalyzes) {
  const Bitstream bs = Bitstream::from_design(small_design());
  EXPECT_EQ(bs.name, "blinky");
  EXPECT_GT(bs.stats.gate_equivalents, 0);
  EXPECT_EQ(bs.design, &small_design());
  // from_design never invents region signatures — the scalar model stays
  // the default until a caller attaches them.
  EXPECT_FALSE(bs.has_regions());
}

TEST(FpgaDevice, RegionGeometryMatchesTheFamily) {
  const FpgaDevice orca("fpga0", orca_3t125());
  const FpgaDevice virtex("fpga1", virtex_xcv600());
  EXPECT_GT(orca.region_count(), 1);
  EXPECT_EQ(virtex.region_count(), 1);  // monolithic configuration store
  // The frames tile the bitstream: region_count frame loads cost at
  // least a full configuration (rounding may add a few clocks).
  EXPECT_GE(orca.region_count() * orca.region_time(),
            orca.config_time(orca.family().config_bits));
}

TEST(FpgaDevice, ReconfigureDiffPreservesResidentSimulator) {
  FpgaDevice dev("fpga0", orca_3t125());
  Bitstream bs = Bitstream::from_design(small_design());
  bs.region_sigs = make_region_signatures("blinky_v1", dev.region_count());
  dev.configure(bs);
  chdl::Simulator* sim = dev.sim();
  ASSERT_NE(sim, nullptr);
  sim->poke("en", 1);
  for (int i = 0; i < 5; ++i) sim->step();
  const std::uint64_t q = sim->peek_u64("q");

  // Same design name, two regions' content changed (coefficient pages):
  // the frames move, the flip-flops do not.
  Bitstream v2 = bs;
  stamp_regions(v2.region_sigs, "blinky_v2", 3, 5);
  const ReconfigOutcome oc = dev.reconfigure_diff(v2);
  EXPECT_TRUE(oc.ok);
  EXPECT_EQ(oc.regions_loaded, 2);
  EXPECT_EQ(dev.sim(), sim);
  EXPECT_EQ(dev.sim()->peek_u64("q"), q);

  // A different design name rebuilds the simulator from scratch (the
  // allocator may reuse the address, so check the state, not the
  // pointer: the counter restarts at zero).
  Bitstream other = v2;
  other.name = "blinky2";
  stamp_regions(other.region_sigs, "blinky2", 0, 2);
  EXPECT_TRUE(dev.reconfigure_diff(other).ok);
  EXPECT_EQ(dev.design_name(), "blinky2");
  ASSERT_NE(dev.sim(), nullptr);
  EXPECT_EQ(dev.sim()->peek_u64("q"), 0u);
}

TEST(FpgaDevice, SelfReconfigureRepairsOnlyItsOwnRegion) {
  FpgaDevice dev("fpga0", orca_3t125());
  Bitstream bs = Bitstream::from_design(small_design());
  bs.region_sigs = make_region_signatures("blinky", dev.region_count());

  sim::FaultPlan plan;
  // param picks the upset frame: 40 % 32 = region 8.
  plan.inject(sim::FaultKind::kSeuConfig, "fpga/fpga0", 1, /*param=*/40);
  sim::FaultInjector inj(plan);
  dev.set_fault_injector(&inj);
  dev.configure(bs);
  ASSERT_TRUE(dev.draw_config_upset());
  EXPECT_EQ(dev.upset_region(), 8);

  // Reloading a different frame leaves the upset pending…
  EXPECT_TRUE(dev.self_reconfigure_region(3).ok);
  EXPECT_TRUE(dev.upset_pending());
  // …reloading the pinned frame repairs it.
  EXPECT_TRUE(dev.self_reconfigure_region(8).ok);
  EXPECT_FALSE(dev.upset_pending());
  EXPECT_EQ(dev.upset_region(), -1);
}

}  // namespace
}  // namespace atlantis::hw

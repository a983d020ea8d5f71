#include "core/taskswitch.hpp"

#include <gtest/gtest.h>

#include "chdl/builder.hpp"
#include "sim/fault.hpp"

namespace atlantis::core {
namespace {

hw::Bitstream make_task(const std::string& name) {
  hw::Bitstream bs;
  bs.name = name;
  bs.stats.design_name = name;
  bs.stats.gate_equivalents = 50'000;
  return bs;
}

/// A region-signed variant of a shared ORCA base that differs from it in
/// regions [0, frames).
hw::Bitstream make_variant(const std::string& name, int frames) {
  hw::Bitstream bs = make_task(name);
  bs.region_sigs = hw::make_region_signatures("base", 32);
  hw::stamp_regions(bs.region_sigs, name, 0, frames);
  return bs;
}

TEST(TaskSwitcher, FirstActivationIsFullConfiguration) {
  hw::FpgaDevice dev("orca", hw::orca_3t125());
  TaskSwitcher sw(dev);
  sw.add_task(make_variant("trt", 10));
  const util::Picoseconds t = sw.switch_to("trt").value();
  EXPECT_EQ(t, dev.config_time(dev.family().config_bits));
  EXPECT_EQ(sw.current(), "trt");
  EXPECT_EQ(sw.switch_count(), 1u);
}

TEST(TaskSwitcher, LaterSwitchesArePartialOnOrca) {
  hw::FpgaDevice dev("orca", hw::orca_3t125());
  TaskSwitcher sw(dev);
  sw.add_task(make_variant("trt", 10));
  sw.add_task(make_variant("conv", 10));
  const util::Picoseconds full = sw.switch_to("trt").value();
  const util::Picoseconds partial = sw.switch_to("conv").value();
  EXPECT_EQ(partial, 10 * dev.region_time());  // the 10 differing frames
  EXPECT_LT(partial, full / 2);
  EXPECT_EQ(sw.total_switch_time(), full + partial);
}

TEST(TaskSwitcher, VirtexAlwaysReconfiguresFully) {
  hw::FpgaDevice dev("virtex", hw::virtex_xcv600());
  TaskSwitcher sw(dev);
  sw.add_task(make_task("a"));
  sw.add_task(make_task("b"));
  const util::Picoseconds first = sw.switch_to("a").value();
  const util::Picoseconds second = sw.switch_to("b").value();
  EXPECT_EQ(first, second);  // no partial support: both are full loads
}

TEST(TaskSwitcher, SwitchToResidentTaskIsFree) {
  hw::FpgaDevice dev("orca", hw::orca_3t125());
  TaskSwitcher sw(dev);
  sw.add_task(make_task("trt"));
  sw.switch_to("trt").value();
  EXPECT_EQ(sw.switch_to("trt").value(), 0);
  EXPECT_EQ(sw.switch_count(), 1u);
}

TEST(TaskSwitcher, StagedTaskTheDeviceCannotActivateIsACacheMiss) {
  // The scrub finds an upset and its repair fails CRC, leaving the
  // device unconfigured. Switching back to the staged task then pays a
  // full configuration, so it counts as a miss, not a hit.
  hw::FpgaDevice dev("dev0", hw::orca_3t125());
  sim::FaultPlan plan;
  plan.inject(sim::FaultKind::kSeuConfig, "fpga/dev0", 1)
      .inject(sim::FaultKind::kConfigCrc, "fpga/dev0", 3);
  sim::FaultInjector inj(plan);
  dev.set_fault_injector(&inj);
  TaskSwitcher sw(dev);
  sw.enable_cache(4);
  sw.add_task(make_task("alpha"));
  sw.add_task(make_task("beta"));
  sw.switch_to("alpha").value();  // CRC opportunity 1
  sw.switch_to("beta").value();   // CRC opportunity 2
  EXPECT_FALSE(sw.scrub());       // the repair is CRC opportunity 3
  ASSERT_FALSE(dev.configured());

  const SwitchCounters before = sw.counters();
  const util::Picoseconds t = sw.switch_to("beta").value();
  EXPECT_EQ(t, dev.config_time(dev.family().config_bits));
  const SwitchCounters delta = sw.counters() - before;
  EXPECT_EQ(delta.hits, 0u);
  EXPECT_EQ(delta.misses, 1u);
  EXPECT_EQ(delta.full_reconfigs(), 1u);
  EXPECT_EQ(sw.cache().contents().front(), "beta");  // the reload staged it
}

TEST(TaskSwitcher, Validation) {
  hw::FpgaDevice dev("orca", hw::orca_3t125());
  TaskSwitcher sw(dev);
  EXPECT_THROW((void)sw.switch_to("ghost"), util::StateError);
  sw.add_task(make_task("trt"));
  EXPECT_THROW(sw.add_task(make_task("trt")), util::Error);
  hw::Bitstream unnamed;
  EXPECT_THROW(sw.add_task(unnamed), util::Error);
}

}  // namespace
}  // namespace atlantis::core

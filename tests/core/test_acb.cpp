#include "core/acb.hpp"

#include <gtest/gtest.h>

#include <string>

#include "chdl/builder.hpp"
#include "sim/fault.hpp"

namespace atlantis::core {
namespace {

TEST(Acb, PortBudgetMatchesPaper) {
  // 2x72 neighbour + 72 I/O + 206 memory = 422 signals per FPGA.
  EXPECT_EQ(2 * AcbPortSpec::kNeighborLines + AcbPortSpec::kIoLines +
                AcbPortSpec::kMemoryLines,
            AcbPortSpec::kTotalIoSignals);
}

TEST(Acb, FourOrcasTotal744kGates) {
  AcbBoard acb("acb0");
  EXPECT_EQ(acb.total_gate_capacity(), 744'000);
  for (int i = 0; i < AcbBoard::kFpgaCount; ++i) {
    EXPECT_EQ(acb.fpga(i).family().name, "ORCA 3T125");
  }
  EXPECT_THROW(acb.fpga(4), util::Error);
}

TEST(Acb, IoRolesAssignedByPosition) {
  AcbBoard acb("acb0");
  EXPECT_EQ(acb.io_role(0), AcbIoRole::kHostPci);
  EXPECT_EQ(acb.io_role(1), AcbIoRole::kBackplaneA);
  EXPECT_EQ(acb.io_role(2), AcbIoRole::kBackplaneB);
  EXPECT_EQ(acb.io_role(3), AcbIoRole::kExternalLvds);
}

TEST(Acb, FourTrtModulesFill) {
  AcbBoard acb("acb0");
  for (int i = 0; i < 4; ++i) {
    acb.attach_memory(i, MemModule::make_trt("trt" + std::to_string(i)));
  }
  EXPECT_EQ(acb.free_mezzanine_slots(), 0);
  EXPECT_EQ(acb.total_memory_width_bits(), 4 * 176);
  ASSERT_NE(acb.memory_at(2), nullptr);
  EXPECT_EQ(acb.memory_at(2)->data_width_bits(), 176);
}

TEST(Acb, TripleWidthModuleConsumesThreeSlots) {
  AcbBoard acb("acb0");
  acb.attach_memory(0, MemModule::make_volren("vr"));
  EXPECT_EQ(acb.free_mezzanine_slots(), 1);
  // Another triple-width module cannot fit.
  EXPECT_THROW(acb.attach_memory(1, MemModule::make_volren("vr2")),
               util::CapacityError);
  // But a single-width one can.
  EXPECT_NO_THROW(acb.attach_memory(1, MemModule::make_trt("t")));
  EXPECT_EQ(acb.free_mezzanine_slots(), 0);
}

TEST(Acb, OneModulePerFpgaPort) {
  AcbBoard acb("acb0");
  acb.attach_memory(0, MemModule::make_trt("a"));
  EXPECT_THROW(acb.attach_memory(0, MemModule::make_trt("b")), util::Error);
}

TEST(Acb, ConfigureAllIsSequential) {
  AcbBoard acb("acb0");
  chdl::Design d("noop");
  d.output("q", chdl::counter(d, "c", 4, d.input("en", 1)));
  const hw::Bitstream bs = hw::Bitstream::from_design(d);
  const util::Result<util::Picoseconds> total = acb.configure_all(bs);
  ASSERT_TRUE(total.ok());
  EXPECT_EQ(total.value(), 4 * acb.fpga(0).config_time(
                                   acb.fpga(0).family().config_bits));
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(acb.fpga(i).configured());
}

TEST(Acb, ConfigureAllReportsDeadBoardAndCrcFailure) {
  const hw::Bitstream bs{"blank", {}, nullptr, {}};
  AcbBoard dead("acb2");
  dead.set_alive(false);
  const util::Result<util::Picoseconds> d = dead.configure_all(bs);
  ASSERT_FALSE(d.ok());
  EXPECT_EQ(d.error(), util::ErrorCode::kBoardDead);

  // A CRC failure on the third chip names that chip; the chips before
  // it stay configured.
  AcbBoard acb("acb0");
  sim::FaultPlan plan;
  plan.inject(sim::FaultKind::kConfigCrc, "fpga/acb0/fpga2", 1);
  sim::FaultInjector inj(plan);
  acb.set_fault_injector(&inj);
  const util::Result<util::Picoseconds> r = acb.configure_all(bs);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), util::ErrorCode::kConfigCrc);
  EXPECT_NE(r.message().find("acb0/fpga2"), std::string::npos);
  EXPECT_TRUE(acb.fpga(1).configured());
  EXPECT_FALSE(acb.fpga(2).configured());
}

TEST(Acb, BackplaneBandwidthIsGigabytePerSecond) {
  AcbBoard acb("acb0");
  // 2 ports x 64 bit x 66 MHz = 1056 MB/s ("1 GB/s").
  EXPECT_NEAR(acb.backplane_mbps(), 1056.0, 1.0);
}

TEST(Acb, ClocksExistPerFpga) {
  AcbBoard acb("acb0");
  for (int i = 0; i < 4; ++i) {
    EXPECT_NO_THROW(acb.io_clock(i).set_mhz(66.0));
  }
  EXPECT_THROW(acb.io_clock(5), util::Error);
  acb.local_clock().set_mhz(40.0);
  EXPECT_DOUBLE_EQ(acb.local_clock().mhz(), 40.0);
}

}  // namespace
}  // namespace atlantis::core

#include "core/selftest.hpp"

#include <gtest/gtest.h>

namespace atlantis::core {
namespace {

TEST(SelfTest, CleanBoardPasses) {
  AcbBoard board("acb0");
  board.attach_memory(0, MemModule::make_trt("trt0"));
  board.attach_memory(1, MemModule::make_image("img0"));
  const SelfTestReport report = self_test_acb(board).value();
  EXPECT_TRUE(report.all_passed()) << report.to_string();
  // 4 FPGA steps + 1 TRT bank + 2 image banks + DMA loopback.
  EXPECT_EQ(report.steps.size(), 4u + 1u + 2u + 1u);
  EXPECT_GT(report.total_time(), 0);
  // Self test leaves the FPGAs free for the application.
  for (int i = 0; i < AcbBoard::kFpgaCount; ++i) {
    EXPECT_FALSE(board.fpga(i).configured());
  }
}

TEST(SelfTest, ReportListsEveryStep) {
  AcbBoard board("acb0");
  const SelfTestReport report = self_test_acb(board).value();
  const std::string text = report.to_string();
  EXPECT_NE(text.find("fpga0 configure/readback"), std::string::npos);
  EXPECT_NE(text.find("fpga3 configure/readback"), std::string::npos);
  EXPECT_NE(text.find("pci dma loopback"), std::string::npos);
  EXPECT_NE(text.find("board self-test PASSED"), std::string::npos);
}

TEST(SelfTest, DeadBoardReportsBoardDead) {
  AcbBoard dead("acb1");
  dead.set_alive(false);
  const util::Result<SelfTestReport> r = self_test_acb(dead);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), util::ErrorCode::kBoardDead);
}

TEST(SelfTest, MarchTestCoversPatterns) {
  hw::SyncSram sram("m", hw::SramConfig{256, 72, 2, 40.0});
  EXPECT_TRUE(march_test_sram(sram, 0));
  EXPECT_TRUE(march_test_sram(sram, 1));
  // The march leaves a checkerboard behind (deterministic final state).
  chdl::BitVec checker(72);
  for (int b = 0; b < 72; b += 2) checker.set_bit(b, true);
  EXPECT_EQ(sram.read(0, 0), checker);
}

TEST(SelfTest, MarchTestRespectsWordLimit) {
  hw::SyncSram sram("m", hw::SramConfig{1 << 20, 176, 1, 40.0});
  EXPECT_TRUE(march_test_sram(sram, 0, /*words_to_test=*/128));
  // Words beyond the limit stay untouched (zero).
  EXPECT_FALSE(sram.read(0, 200).any());
}

TEST(SelfTest, SlinkStepReportsPatternResult) {
  hw::SlinkChannel link("ext0");
  const SelfTestStep step = slink_test(link);
  EXPECT_TRUE(step.passed);
  EXPECT_EQ(step.name, "slink/ext0");
  EXPECT_GT(step.duration, 0);
}

TEST(SelfTest, EmptyReportIsNotAPass) {
  SelfTestReport report;
  EXPECT_FALSE(report.all_passed());
}

}  // namespace
}  // namespace atlantis::core

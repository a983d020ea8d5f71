// The unified API surface: the Result<T> duals (self test, board
// configure, S-Link fragment), try_switch_task, and the kOverloaded
// error code.
#include <gtest/gtest.h>

#include "core/driver.hpp"
#include "core/selftest.hpp"
#include "core/system.hpp"
#include "core/taskswitch.hpp"
#include "hw/slink.hpp"
#include "sim/fault.hpp"
#include "util/status.hpp"

namespace atlantis {
namespace {

TEST(ApiDuals, TrySelfTestMatchesThrowingVersion) {
  core::AcbBoard board("acb0");
  const util::Result<core::SelfTestReport> r = core::try_self_test_acb(board);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().all_passed());

  core::AcbBoard dead("acb1");
  dead.set_alive(false);
  const util::Result<core::SelfTestReport> d = core::try_self_test_acb(dead);
  ASSERT_FALSE(d.ok());
  EXPECT_EQ(d.error(), util::ErrorCode::kBoardDead);
  EXPECT_THROW((void)core::self_test_acb(dead), util::Error);
}

TEST(ApiDuals, TryConfigureAllMatchesThrowingVersion) {
  const hw::Bitstream bs{"blank", {}, nullptr, 1.0, {}};
  core::AcbBoard board("acb0");
  const util::Result<util::Picoseconds> r = board.try_configure_all(bs);
  ASSERT_TRUE(r.ok());
  core::AcbBoard twin("acb0");  // same name -> same timing model
  EXPECT_EQ(r.value(), twin.configure_all(bs));

  core::AcbBoard dead("acb2");
  dead.set_alive(false);
  const util::Result<util::Picoseconds> d = dead.try_configure_all(bs);
  ASSERT_FALSE(d.ok());
  EXPECT_EQ(d.error(), util::ErrorCode::kBoardDead);
}

TEST(ApiDuals, TrySendFragmentReportsOutcomeAsCode) {
  hw::SlinkChannel link("lvds");
  const std::vector<std::uint32_t> payload{1, 2, 3, 4};
  const util::Result<std::size_t> ok = link.try_send_fragment(7, payload);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), payload.size() + 2);  // begin + payload + end

  sim::FaultPlan plan;
  plan.inject(sim::FaultKind::kSlinkTruncation, "slink/lvds", /*nth=*/1);
  sim::FaultInjector inj(plan);
  link.set_fault_injector(&inj);
  const util::Result<std::size_t> bad = link.try_send_fragment(8, payload);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error(), util::ErrorCode::kTruncatedFrame);
  link.set_fault_injector(nullptr);
}

TEST(ApiDuals, TrySwitchTaskPostsAtTheDriverCursor) {
  core::AtlantisSystem sys("crate");
  core::AtlantisDriver drv(sys, sys.add_acb("acb0"));
  core::TaskSwitcher sw(sys.acb(0).fpga(0));
  sw.add_task(hw::Bitstream{"alpha", {}, nullptr, 1.0, {}});

  const util::Picoseconds before = drv.now();
  const util::Result<util::Picoseconds> r = drv.try_switch_task(sw, "alpha");
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

TEST(ErrorCodes, OverloadedHasStableName) {
  EXPECT_STREQ(util::error_code_name(util::ErrorCode::kOverloaded),
               "overloaded");
}

}  // namespace
}  // namespace atlantis

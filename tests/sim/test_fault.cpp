#include "sim/fault.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace atlantis::sim {
namespace {

TEST(FaultPlan, EmptyPlanNeverFires) {
  FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  FaultInjector inj(plan);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(inj.draw(FaultKind::kDmaStall, "pci/acb0").has_value());
  }
  EXPECT_EQ(inj.injected_total(), 0u);
  EXPECT_EQ(inj.opportunities(FaultKind::kDmaStall, "pci/acb0"), 1000u);
  EXPECT_TRUE(inj.log().empty());
}

TEST(FaultPlan, RateOneAlwaysFires) {
  FaultPlan plan;
  plan.with_rate(FaultKind::kSlinkError, 1.0);
  EXPECT_FALSE(plan.empty());
  FaultInjector inj(plan);
  for (int i = 0; i < 32; ++i) {
    EXPECT_TRUE(inj.draw(FaultKind::kSlinkError, "slink/x").has_value());
  }
  EXPECT_EQ(inj.injected(FaultKind::kSlinkError), 32u);
  EXPECT_EQ(inj.injected_total(), 32u);
}

TEST(FaultPlan, KindNamesAreStable) {
  EXPECT_STREQ(fault_kind_name(FaultKind::kDmaStall), "dma_stall");
  EXPECT_STREQ(fault_kind_name(FaultKind::kBoardDropout), "board_dropout");
  EXPECT_STREQ(fault_kind_name(FaultKind::kSeuConfig), "seu_config");
}

TEST(FaultInjector, SameSeedSamePlanReplaysIdentically) {
  FaultPlan plan;
  plan.seed = 99;
  plan.with_rate(FaultKind::kDmaAbort, 0.25)
      .with_rate(FaultKind::kSlinkError, 0.1);
  FaultInjector a(plan);
  FaultInjector b(plan);
  std::vector<bool> hits_a, hits_b;
  for (int i = 0; i < 500; ++i) {
    hits_a.push_back(a.draw(FaultKind::kDmaAbort, "pci/acb0").has_value());
    hits_a.push_back(a.draw(FaultKind::kSlinkError, "slink/l").has_value());
  }
  for (int i = 0; i < 500; ++i) {
    hits_b.push_back(b.draw(FaultKind::kDmaAbort, "pci/acb0").has_value());
    hits_b.push_back(b.draw(FaultKind::kSlinkError, "slink/l").has_value());
  }
  EXPECT_EQ(hits_a, hits_b);
  EXPECT_EQ(a.log(), b.log());
  EXPECT_GT(a.injected_total(), 0u);  // 0.25 over 500 draws must fire
}

TEST(FaultInjector, SiteStreamsAreIndependent) {
  // The draw sequence at one site must not depend on how opportunities
  // at other sites interleave with it — that is what makes replay
  // independent of scheduling order across boards.
  FaultPlan plan;
  plan.seed = 1234;
  plan.with_rate(FaultKind::kSlinkError, 0.2);
  FaultInjector solo(plan);
  std::vector<bool> solo_hits;
  for (int i = 0; i < 100; ++i) {
    solo_hits.push_back(
        solo.draw(FaultKind::kSlinkError, "slink/a").has_value());
  }
  FaultInjector mixed(plan);
  std::vector<bool> mixed_hits;
  for (int i = 0; i < 100; ++i) {
    // Interleave draws at an unrelated site and an unrelated kind.
    mixed.draw(FaultKind::kSlinkError, "slink/b");
    mixed.draw(FaultKind::kDmaStall, "pci/acb0");
    mixed_hits.push_back(
        mixed.draw(FaultKind::kSlinkError, "slink/a").has_value());
  }
  EXPECT_EQ(solo_hits, mixed_hits);
}

TEST(FaultInjector, ScheduledFaultFiresOnExactOpportunity) {
  FaultPlan plan;
  plan.inject(FaultKind::kConfigCrc, "fpga/acb0/fpga0", 3, 0xABCD);
  FaultInjector inj(plan);
  EXPECT_FALSE(inj.draw(FaultKind::kConfigCrc, "fpga/acb0/fpga0"));
  EXPECT_FALSE(inj.draw(FaultKind::kConfigCrc, "fpga/acb0/fpga0"));
  const auto hit = inj.draw(FaultKind::kConfigCrc, "fpga/acb0/fpga0");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->param, 0xABCDu);
  EXPECT_FALSE(inj.draw(FaultKind::kConfigCrc, "fpga/acb0/fpga0"));
  ASSERT_EQ(inj.log().size(), 1u);
  EXPECT_EQ(inj.log()[0].opportunity, 3u);
  EXPECT_EQ(inj.log()[0].site, "fpga/acb0/fpga0");
}

TEST(FaultInjector, ScheduledFaultIgnoresOtherSites) {
  FaultPlan plan;
  plan.inject(FaultKind::kBoardDropout, "board/acb1");
  FaultInjector inj(plan);
  EXPECT_FALSE(inj.draw(FaultKind::kBoardDropout, "board/acb0"));
  EXPECT_TRUE(inj.draw(FaultKind::kBoardDropout, "board/acb1"));
}

TEST(RetryPolicy, BackoffIsCappedExponential) {
  RetryPolicy policy;
  policy.initial_backoff = 10 * util::kMicrosecond;
  policy.multiplier = 2.0;
  policy.max_backoff = 50 * util::kMicrosecond;
  EXPECT_EQ(policy.backoff(1), 10 * util::kMicrosecond);
  EXPECT_EQ(policy.backoff(2), 20 * util::kMicrosecond);
  EXPECT_EQ(policy.backoff(3), 40 * util::kMicrosecond);
  EXPECT_EQ(policy.backoff(4), 50 * util::kMicrosecond);  // capped
  EXPECT_EQ(policy.backoff(10), 50 * util::kMicrosecond);
}

}  // namespace
}  // namespace atlantis::sim

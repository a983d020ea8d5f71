// End-to-end fault injection and recovery across the crate: driver DMA
// retry/backoff, task-switcher CRC retry and SEU scrub, self-test health
// counters, and the zero-cost-when-off contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/driver.hpp"
#include "core/selftest.hpp"
#include "core/taskswitch.hpp"
#include "sim/fault.hpp"

namespace atlantis::core {
namespace {

hw::Bitstream make_task(const std::string& name, double fraction) {
  hw::Bitstream bs;
  bs.name = name;
  bs.stats.design_name = name;
  bs.stats.gate_equivalents = 50'000;
  bs.fraction = fraction;
  return bs;
}

std::vector<std::string> txn_labels(const sim::Timeline& tl) {
  std::vector<std::string> labels;
  for (const auto& t : tl.transactions()) labels.emplace_back(t.label);
  return labels;
}

TEST(FaultRecovery, EmptyPlanIsBitIdenticalToNoInjector) {
  // The zero-cost-when-off contract: a bound injector whose plan can
  // never fire produces exactly the schedule of an unbound system —
  // same ledger, same transactions, same labels.
  auto run = [](sim::FaultInjector* inj) {
    AtlantisSystem sys("crate");
    AtlantisDriver drv(sys, sys.add_acb("acb0"));
    if (inj != nullptr) sys.set_fault_injector(inj);
    drv.dma_write(64 * util::kKiB);
    drv.dma_read(7 * util::kKiB);
    drv.advance_cycles(1000);
    return std::make_pair(drv.elapsed(), txn_labels(sys.timeline()));
  };
  const auto bare = run(nullptr);
  sim::FaultInjector idle{sim::FaultPlan{}};
  const auto bound = run(&idle);
  EXPECT_EQ(bare.first, bound.first);
  EXPECT_EQ(bare.second, bound.second);
  EXPECT_EQ(idle.injected_total(), 0u);
  EXPECT_GT(idle.opportunities(sim::FaultKind::kDmaStall, "pci/acb0"), 0u);
}

TEST(FaultRecovery, DriverRetriesStalledDma) {
  AtlantisSystem sys("crate");
  sim::FaultPlan plan;
  plan.inject(sim::FaultKind::kDmaStall, "pci/acb0", 1);
  sim::FaultInjector inj(plan);
  sys.set_fault_injector(&inj);
  AtlantisDriver drv(sys, sys.add_acb("acb0"));
  const util::Result<hw::DmaTransfer> r = drv.try_dma_write(64 * util::kKiB);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(drv.dma_faults(), 1u);
  EXPECT_EQ(drv.dma_retries(), 1u);
  // Recovery = the watchdog that reaped the stall plus the first backoff,
  // both visible in the ledger and the recovery account.
  const sim::RetryPolicy& p = drv.retry_policy();
  EXPECT_EQ(drv.recovery_time(), p.stall_watchdog + p.backoff(1));
  EXPECT_EQ(drv.elapsed(),
            p.stall_watchdog + p.backoff(1) + r.value().duration);
  // The faulted attempt and the backoff are on the timeline.
  const auto labels = txn_labels(sys.timeline());
  EXPECT_NE(std::find(labels.begin(), labels.end(), "dma_write (stall)"),
            labels.end());
  EXPECT_NE(std::find(labels.begin(), labels.end(), "dma_write backoff"),
            labels.end());
  // ...and in the per-resource stats.
  const sim::ResourceStats st = sys.timeline().stats(sys.pci_segment());
  EXPECT_EQ(st.faults, 1u);
  EXPECT_EQ(st.retries, 1u);
  EXPECT_EQ(st.retry_time, p.stall_watchdog + p.backoff(1));
  // The lifetime byte counter only saw the successful attempt.
  EXPECT_EQ(drv.board().pci().total_bytes(), 64 * util::kKiB);
}

TEST(FaultRecovery, DriverGivesUpAfterAttemptBudget) {
  AtlantisSystem sys("crate");
  sim::FaultPlan plan;
  plan.with_rate(sim::FaultKind::kDmaAbort, 1.0);  // every attempt aborts
  sim::FaultInjector inj(plan);
  sys.set_fault_injector(&inj);
  AtlantisDriver drv(sys, sys.add_acb("acb0"));
  const util::Result<hw::DmaTransfer> r = drv.try_dma_read(util::kKiB);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), util::ErrorCode::kRetriesExhausted);
  EXPECT_EQ(drv.dma_faults(),
            static_cast<std::uint64_t>(drv.retry_policy().max_attempts));
  // The exception surface reports the same failure.
  EXPECT_THROW(drv.dma_read(util::kKiB), util::Error);
}

TEST(FaultRecovery, DriverTimesOutWithinBudget) {
  AtlantisSystem sys("crate");
  sim::FaultPlan plan;
  plan.with_rate(sim::FaultKind::kDmaStall, 1.0);
  sim::FaultInjector inj(plan);
  sys.set_fault_injector(&inj);
  AtlantisDriver drv(sys, sys.add_acb("acb0"));
  sim::RetryPolicy tight;
  tight.max_attempts = 100;
  tight.timeout_budget = tight.stall_watchdog;  // one watchdog, no room
  drv.set_retry_policy(tight);
  const util::Result<hw::DmaTransfer> r = drv.try_dma_write(util::kKiB);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), util::ErrorCode::kTimeout);
}

TEST(FaultRecovery, TaskSwitcherRetriesCrcFailure) {
  hw::FpgaDevice dev("orca", hw::orca_3t125());
  sim::FaultPlan plan;
  plan.inject(sim::FaultKind::kConfigCrc, "fpga/orca", 1);
  sim::FaultInjector inj(plan);
  dev.set_fault_injector(&inj);
  TaskSwitcher sw(dev);
  sw.add_task(make_task("trt", 0.3));
  const util::Result<util::Picoseconds> r = sw.try_switch_to("trt");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(sw.current(), "trt");
  EXPECT_TRUE(dev.configured());
  EXPECT_EQ(sw.reconfig_retries(), 1u);
  EXPECT_EQ(dev.crc_failures(), 1u);
  // Two full configuration passes: the failed one and its repair.
  EXPECT_EQ(r.value(), 2 * dev.config_time(dev.family().config_bits));
}

TEST(FaultRecovery, TaskSwitcherGivesUpAfterAttemptBudget) {
  hw::FpgaDevice dev("orca", hw::orca_3t125());
  sim::FaultPlan plan;
  plan.with_rate(sim::FaultKind::kConfigCrc, 1.0);
  sim::FaultInjector inj(plan);
  dev.set_fault_injector(&inj);
  TaskSwitcher sw(dev);
  sw.add_task(make_task("trt", 0.3));
  const util::Result<util::Picoseconds> r = sw.try_switch_to("trt");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), util::ErrorCode::kConfigCrc);
  EXPECT_FALSE(dev.configured());
  EXPECT_TRUE(sw.current().empty());
  EXPECT_THROW(sw.switch_to("trt"), util::Error);
}

TEST(FaultRecovery, ScrubRepairsConfigurationUpset) {
  hw::FpgaDevice dev("orca", hw::orca_3t125());
  sim::FaultPlan plan;
  plan.inject(sim::FaultKind::kSeuConfig, "fpga/orca", 1);
  sim::FaultInjector inj(plan);
  dev.set_fault_injector(&inj);
  TaskSwitcher sw(dev);
  sw.add_task(make_task("trt", 0.3));
  sw.switch_to("trt");
  EXPECT_TRUE(sw.scrub());  // the scheduled upset, found and repaired
  EXPECT_EQ(sw.upsets_corrected(), 1u);
  EXPECT_EQ(dev.config_upsets(), 1u);
  EXPECT_FALSE(dev.upset_pending());
  EXPECT_FALSE(sw.scrub());  // clean window
  EXPECT_EQ(sw.scrub_count(), 2u);
  EXPECT_EQ(sw.current(), "trt");
}

TEST(FaultRecovery, SelfTestReportsHealthCounters) {
  AtlantisSystem sys("crate");
  sim::FaultPlan plan;
  plan.seed = 5;
  plan.with_rate(sim::FaultKind::kSeuMemory, 1.0);
  sim::FaultInjector inj(plan);
  sys.set_fault_injector(&inj);
  AcbBoard& board = sys.acb(sys.add_acb("acb0"));
  board.attach_memory(0, MemModule::make_trt("m0"));
  const SelfTestReport report = self_test_acb(board);
  EXPECT_TRUE(report.all_passed());  // every upset found and repaired
  EXPECT_GT(report.health.seu_flips, 0u);
  EXPECT_GT(report.health.total(), 0u);
  EXPECT_NE(report.to_string().find("health:"), std::string::npos);
  // A fault-free board reports a clean page (and no health line).
  AtlantisSystem clean_sys("crate2");
  AcbBoard& clean = clean_sys.acb(clean_sys.add_acb("acb0"));
  const SelfTestReport clean_report = self_test_acb(clean);
  EXPECT_EQ(clean_report.health.total(), 0u);
  EXPECT_EQ(clean_report.to_string().find("health:"), std::string::npos);
}

TEST(FaultRecovery, BackoffJitterIsDeterministicAndBounded) {
  sim::RetryPolicy p;
  // jitter = 0 (the default): the jittered overload is the plain one.
  EXPECT_EQ(p.backoff(2, sim::jitter_stream(1, "retry/acb0", 0)),
            p.backoff(2));
  p.jitter = 0.5;
  for (int retry = 1; retry <= 6; ++retry) {
    const util::Picoseconds base = p.backoff(retry);
    for (std::uint64_t ordinal = 0; ordinal < 8; ++ordinal) {
      const std::uint64_t s = sim::jitter_stream(42, "retry/acb0", ordinal);
      const util::Picoseconds wait = p.backoff(retry, s);
      EXPECT_LE(wait, base);
      EXPECT_GE(wait, base / 2);  // scale in (1 - jitter, 1]
      // Pure function of its inputs: replay is bit-identical.
      EXPECT_EQ(wait, p.backoff(retry, s));
    }
  }
  // Distinct seeds, sites and ordinals draw distinct words, so
  // concurrent retries desynchronize.
  EXPECT_NE(sim::jitter_stream(42, "retry/acb0", 3),
            sim::jitter_stream(42, "retry/acb1", 3));
  EXPECT_NE(sim::jitter_stream(42, "retry/acb0", 3),
            sim::jitter_stream(42, "retry/acb0", 4));
  EXPECT_NE(sim::jitter_stream(42, "retry/acb0", 3),
            sim::jitter_stream(43, "retry/acb0", 3));
}

TEST(FaultRecovery, JitteredDriverScheduleReplaysIdentically) {
  auto run = [](double jitter) {
    AtlantisSystem sys("crate");
    sim::FaultPlan plan;
    plan.seed = 42;
    plan.with_rate(sim::FaultKind::kDmaStall, 0.3)
        .with_rate(sim::FaultKind::kDmaAbort, 0.2);
    sim::FaultInjector inj(plan);
    sys.set_fault_injector(&inj);
    AtlantisDriver drv(sys, sys.add_acb("acb0"));
    sim::RetryPolicy p;
    p.jitter = jitter;
    drv.set_retry_policy(p);
    for (int i = 0; i < 20; ++i) {
      (void)drv.try_dma_write(util::kKiB * (1 + i % 4));
    }
    return std::make_tuple(drv.dma_faults(), drv.dma_retries(),
                           drv.recovery_time(), drv.elapsed(),
                           txn_labels(sys.timeline()));
  };
  const auto jittered = run(0.5);
  EXPECT_EQ(jittered, run(0.5));  // bit-identical replay, jitter and all
  const auto plain = run(0.0);
  // The jitter stream is separate from the fault streams: the same
  // faults fire either way, only the backoff waits shrink.
  EXPECT_EQ(std::get<0>(jittered), std::get<0>(plain));
  EXPECT_EQ(std::get<1>(jittered), std::get<1>(plain));
  EXPECT_GT(std::get<1>(jittered), 0u);
  EXPECT_LT(std::get<2>(jittered), std::get<2>(plain));
}

TEST(FaultRecovery, DeterministicReplayOfDriverSchedule) {
  // Same seed, same plan, same call sequence: the retry counters and the
  // complete transaction list replay bit-identically.
  auto run = [] {
    AtlantisSystem sys("crate");
    sim::FaultPlan plan;
    plan.seed = 42;
    plan.with_rate(sim::FaultKind::kDmaStall, 0.3)
        .with_rate(sim::FaultKind::kDmaAbort, 0.2);
    sim::FaultInjector inj(plan);
    sys.set_fault_injector(&inj);
    AtlantisDriver drv(sys, sys.add_acb("acb0"));
    for (int i = 0; i < 20; ++i) {
      (void)drv.try_dma_write(util::kKiB * (1 + i % 4));
    }
    return std::make_tuple(drv.dma_faults(), drv.dma_retries(),
                           drv.recovery_time(), drv.elapsed(),
                           txn_labels(sys.timeline()), inj.log());
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a, b);
  EXPECT_GT(std::get<0>(a), 0u);  // the rates actually fired
}

}  // namespace
}  // namespace atlantis::core

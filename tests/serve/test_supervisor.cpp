// Supervisor checkpoints across runs: a crash must always restore a
// checkpoint that holds every job the service has accepted, including
// jobs submitted between two Supervisor::run() calls. And a drain to a
// spare that refuses some jobs still resolves every one of them.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <string>

#include "core/system.hpp"
#include "serve/jobservice.hpp"
#include "serve/supervisor.hpp"
#include "sim/fault.hpp"
#include "util/status.hpp"
#include "util/units.hpp"

namespace atlantis {
namespace {

constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ull;
constexpr int kBatch = 40;

serve::JobSpec make_job(int index) {
  serve::JobSpec job;
  job.tenant = index % 2 == 0 ? "atlas" : "cms";
  job.kind = serve::JobKind::kCustom;
  job.config = index % 3 == 0 ? "alpha" : "beta";
  job.work = [index] {
    serve::JobOutcome out;
    out.checksum = kGolden * static_cast<std::uint64_t>(index + 1);
    out.compute_time = (index % 5 + 1) * util::kMicrosecond;
    out.dma_in_bytes = 2048;
    out.dma_out_bytes = 512;
    return out;
  };
  return job;
}

/// A two-board crate served under a Supervisor with default options.
struct SupervisedCrate {
  sim::FaultInjector injector;
  core::AtlantisSystem sys;
  std::unique_ptr<serve::JobService> service;
  std::unique_ptr<serve::Supervisor> supervisor;

  explicit SupervisedCrate(const sim::FaultPlan& plan)
      : injector(plan), sys("crate") {
    sys.add_acb("acb0");
    sys.add_acb("acb1");
    sys.set_fault_injector(&injector);
    service = std::make_unique<serve::JobService>(sys);
    service->register_config(hw::Bitstream{"alpha", {}, nullptr, 1.0, {}});
    service->register_config(hw::Bitstream{"beta", {}, nullptr, 1.0, {}});
    supervisor = std::make_unique<serve::Supervisor>(*service);
  }

  ~SupervisedCrate() {
    supervisor.reset();
    service.reset();
    sys.set_fault_injector(nullptr);
  }

  void submit(int first, int count) {
    for (int i = first; i < first + count; ++i) {
      (void)service->submit(make_job(i)).value();
    }
  }

  std::multiset<std::uint64_t> served_checksums() const {
    std::multiset<std::uint64_t> sums;
    for (const serve::JobRecord& rec : service->jobs()) {
      if (rec.error == util::ErrorCode::kOk) sums.insert(rec.outcome.checksum);
    }
    return sums;
  }
};

TEST(Supervisor, CrashAfterSubmitBetweenRunsRestoresEveryJob) {
  // Uncrashed reference: where the first run ends, and what the whole
  // stream serves.
  SupervisedCrate ref{sim::FaultPlan{}};
  ref.submit(0, kBatch);
  ref.supervisor->run();
  const std::uint64_t first_run_ticks = ref.supervisor->report().ticks;
  ASSERT_GT(first_run_ticks, 0u);
  ref.submit(kBatch, kBatch);
  ref.supervisor->run();
  const std::multiset<std::uint64_t> want = ref.served_checksums();
  ASSERT_EQ(want.size(), 2u * kBatch);

  // The same submissions with a service crash on the first tick of the
  // second run. Every tick draws one crash opportunity, so that tick
  // draws ordinal first_run_ticks + 1.
  sim::FaultPlan plan;
  plan.inject(sim::FaultKind::kServiceCrash, "serve/crate",
              first_run_ticks + 1);
  SupervisedCrate crashed{plan};
  crashed.submit(0, kBatch);
  crashed.supervisor->run();
  ASSERT_EQ(crashed.supervisor->report().ticks, first_run_ticks);
  ASSERT_EQ(crashed.supervisor->report().crashes, 0u);
  crashed.submit(kBatch, kBatch);
  crashed.supervisor->run();

  const serve::SupervisorReport& rep = crashed.supervisor->report();
  EXPECT_EQ(rep.crashes, 1u);
  EXPECT_EQ(rep.restores, 1u);
  EXPECT_EQ(crashed.service->pending(), 0u);
  for (const serve::JobRecord& rec : crashed.service->jobs()) {
    EXPECT_EQ(rec.error, util::ErrorCode::kOk) << "job " << rec.id;
  }
  EXPECT_EQ(crashed.served_checksums(), want);
}

TEST(Supervisor, DrainToASpareMissingAConfigurationResolvesEveryJob) {
  // A 1-board crate whose board drops out on its second dispatch drains
  // to a spare that never registered "beta": the spare takes the
  // "alpha" jobs, and the "beta" jobs fail as refused migrations instead
  // of vanishing from the ledger.
  sim::FaultPlan plan;
  plan.inject(sim::FaultKind::kBoardDropout, "board/acb0", 2);
  sim::FaultInjector injector(plan);
  core::AtlantisSystem sys("crate");
  sys.add_acb("acb0");
  sys.set_fault_injector(&injector);
  core::AtlantisSystem spare_sys("spare");
  spare_sys.add_acb("acb0");
  serve::JobService service(sys);
  service.register_config(hw::Bitstream{"alpha", {}, nullptr, 1.0, {}});
  service.register_config(hw::Bitstream{"beta", {}, nullptr, 1.0, {}});
  serve::JobService spare(spare_sys);
  spare.register_config(hw::Bitstream{"alpha", {}, nullptr, 1.0, {}});
  serve::Supervisor supervisor(service);
  supervisor.set_spare(&spare);
  constexpr int kJobs = 24;
  for (int i = 0; i < kJobs; ++i) {
    serve::JobSpec job = make_job(i);
    job.config = i % 2 == 0 ? "alpha" : "beta";
    (void)service.submit(std::move(job)).value();
  }
  supervisor.run();

  int served = 0;
  int failed = 0;
  int migrated = 0;
  for (const serve::JobRecord& rec : service.jobs()) {
    if (rec.migrated) {
      ++migrated;
    } else if (rec.error != util::ErrorCode::kOk) {
      ++failed;
      EXPECT_EQ(rec.config, "beta");
      EXPECT_EQ(rec.error, util::ErrorCode::kAdmissionReject);
    } else if (rec.board >= 0) {
      ++served;
    }
  }
  EXPECT_EQ(service.pending(), 0u);
  EXPECT_GT(served, 0);
  EXPECT_GT(failed, 0);
  EXPECT_GT(migrated, 0);
  EXPECT_EQ(served + failed + migrated, kJobs);
  EXPECT_EQ(spare.report().served, static_cast<std::uint64_t>(migrated));
}

}  // namespace
}  // namespace atlantis

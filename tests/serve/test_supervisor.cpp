// Supervisor checkpoints across runs: a crash must always restore a
// checkpoint that holds every job the service has accepted, including
// jobs submitted between two Supervisor::run() calls, and roll the
// timeline's log back with it. A drain to a spare that refuses some
// jobs still resolves every one of them. The report carries the
// breakers' open and half-open tallies, and every tally of a faulted,
// supervised crate is pinned exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/system.hpp"
#include "hw/fpga.hpp"
#include "serve/jobservice.hpp"
#include "serve/supervisor.hpp"
#include "sim/fault.hpp"
#include "sim/timeline.hpp"
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

/// A crate of `boards` ACBs (two by default) served under a Supervisor.
struct SupervisedCrate {
  sim::FaultInjector injector;
  core::AtlantisSystem sys;
  std::unique_ptr<serve::JobService> service;
  std::unique_ptr<serve::Supervisor> supervisor;

  explicit SupervisedCrate(const sim::FaultPlan& plan,
                           serve::ServeOptions serve_options = {},
                           serve::SupervisorOptions options = {},
                           int boards = 2)
      : injector(plan), sys("crate") {
    for (int i = 0; i < boards; ++i) sys.add_acb("acb" + std::to_string(i));
    sys.set_fault_injector(&injector);
    service = std::make_unique<serve::JobService>(sys, serve_options);
    service->register_config(hw::Bitstream{"alpha", {}, nullptr, {}});
    service->register_config(hw::Bitstream{"beta", {}, nullptr, {}});
    supervisor = std::make_unique<serve::Supervisor>(*service, options);
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

std::string serialize(const sim::Timeline& tl) {
  std::ostringstream os;
  for (const sim::Transaction& t : tl.transactions()) {
    os << t.id << '|' << sim::txn_kind_name(t.kind) << '|' << t.label << '|'
       << t.track.value << '|' << t.resource.value << '|' << t.post << '|'
       << t.start << '|' << t.end << '|' << t.bytes << '|' << t.regions
       << '\n';
  }
  return os.str();
}

TEST(Supervisor, CrashRestoreRollsTheLogBack) {
  // A crash restore loads the last checkpoint onto the timeline that
  // took it, so the log rolls back to the checkpoint's posted count and
  // the replay posts the same transactions again: the crashed run ends
  // with the log of the run that never crashed.
  constexpr int kJobs = 400;
  SupervisedCrate ref{sim::FaultPlan{}};
  ref.submit(0, kJobs);
  ref.supervisor->run();
  ASSERT_EQ(ref.supervisor->report().restores, 0u);

  sim::FaultPlan plan;
  for (const std::uint64_t tick : {7u, 19u, 31u}) {
    plan.inject(sim::FaultKind::kServiceCrash, "serve/crate", tick);
  }
  SupervisedCrate crashed{plan};
  crashed.submit(0, kJobs);
  crashed.supervisor->run();
  EXPECT_GE(crashed.supervisor->report().restores, 1u);
  EXPECT_EQ(crashed.served_checksums(), ref.served_checksums());

  const sim::Timeline& want = ref.sys.timeline();
  const sim::Timeline& got = crashed.sys.timeline();
  ASSERT_FALSE(want.transactions().empty());
  EXPECT_EQ(got.posted(), want.posted());
  EXPECT_EQ(serialize(got), serialize(want));
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
  service.register_config(hw::Bitstream{"alpha", {}, nullptr, {}});
  service.register_config(hw::Bitstream{"beta", {}, nullptr, {}});
  serve::JobService spare(spare_sys);
  spare.register_config(hw::Bitstream{"alpha", {}, nullptr, {}});
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

TEST(Supervisor, ReportCountsEveryBreakerOpenAndHalfOpen) {
  // The reconfigure-per-job baseline (no batching, no cache, submission
  // order) draws a CRC opportunity on every job, and the chaos bench's
  // twitchy reconfig breaker opens on two failures in a window.
  serve::ServeOptions serve_options;
  serve_options.max_batch = 1;
  serve_options.cache_capacity = 0;
  serve_options.fifo_order = true;
  serve::SupervisorOptions options;
  options.reconfig_breaker.failure_threshold = 2;
  options.reconfig_breaker.base_open_ticks = 4;
  sim::FaultPlan plan;
  plan.seed = 20260808;
  plan.with_rate(sim::FaultKind::kConfigCrc, 0.30);
  SupervisedCrate crate{plan, serve_options, options};
  crate.submit(0, kBatch);
  const serve::SupervisorReport& rep = crate.supervisor->run();

  EXPECT_GT(rep.breaker_opens, 0u);
  EXPECT_LE(rep.breaker_half_opens, rep.breaker_opens);
  EXPECT_EQ(crate.service->pending(), 0u);
}

TEST(Supervisor, MttrAndRecoveriesHoldAcrossRuns) {
  // Two boards drop out and are repaired during the first run; a second
  // run with no new outage leaves every outage figure where it was.
  sim::FaultPlan plan;
  plan.inject(sim::FaultKind::kBoardDropout, "board/acb0", 2);
  plan.inject(sim::FaultKind::kBoardDropout, "board/acb1", 3);
  SupervisedCrate crate{plan, {}, {}, /*boards=*/3};
  crate.submit(0, 120);
  const serve::SupervisorReport first = crate.supervisor->run();
  ASSERT_EQ(first.recoveries, 2u);
  ASSERT_GT(first.downtime, 0);
  EXPECT_EQ(first.mttr, first.downtime / 2);
  crate.submit(120, 2);
  const serve::SupervisorReport& second = crate.supervisor->run();
  EXPECT_EQ(second.recoveries, first.recoveries);
  EXPECT_EQ(second.downtime, first.downtime);
  EXPECT_EQ(second.mttr, first.mttr);

  // A board that never comes back is one outage, however many runs it
  // spans: it counts up to the end of the last run.
  serve::SupervisorOptions no_repair;
  no_repair.repair_after = 0;
  sim::FaultPlan dead_plan;
  dead_plan.inject(sim::FaultKind::kBoardDropout, "board/acb0", 2);
  SupervisedCrate dead{dead_plan, {}, no_repair, /*boards=*/3};
  dead.submit(0, 120);
  const serve::SupervisorReport once = dead.supervisor->run();
  ASSERT_EQ(once.recoveries, 1u);
  EXPECT_EQ(once.mttr, once.downtime);
  dead.submit(120, 2);
  const serve::SupervisorReport& twice = dead.supervisor->run();
  EXPECT_EQ(twice.recoveries, 1u);
  EXPECT_GT(twice.downtime, once.downtime);
  EXPECT_EQ(twice.mttr, twice.downtime);
}

TEST(Supervisor, FaultedCrateTalliesArePinned) {
  // Every tally of a supervised crate under DMA stalls, configuration
  // CRC failures and configuration upsets plus one service crash, pinned
  // exactly: a counter that changes owner must keep its value. Served
  // in submission order, the jobs cycle through three region-signed
  // configurations that share all but four frames each, and a two-entry
  // cache cannot stage all three, so most switches load regions.
  sim::FaultPlan plan;
  plan.seed = 20261019;
  plan.with_rate(sim::FaultKind::kDmaStall, 0.03)
      .with_rate(sim::FaultKind::kConfigCrc, 0.01)
      .with_rate(sim::FaultKind::kSeuConfig, 0.30);
  plan.inject(sim::FaultKind::kServiceCrash, "serve/crate", 40);
  sim::FaultInjector injector(plan);
  core::AtlantisSystem sys("crate");
  sys.add_acb("acb0");
  sys.add_acb("acb1");
  sys.set_fault_injector(&injector);
  {
    serve::ServeOptions serve_options;
    serve_options.max_batch = 1;
    serve_options.cache_capacity = 2;
    serve_options.fifo_order = true;
    serve::JobService service(sys, serve_options);
    const std::vector<std::uint64_t> shared =
        hw::make_region_signatures("shared", 32);
    const std::string configs[] = {"trt", "conv", "sobel"};
    for (int c = 0; c < 3; ++c) {
      hw::Bitstream bs{configs[c], {}, nullptr, shared};
      hw::stamp_regions(bs.region_sigs, configs[c], 4 * c, 4 * c + 4);
      service.register_config(bs);
    }
    serve::Supervisor supervisor(service);
    for (int i = 0; i < 300; ++i) {
      serve::JobSpec job = make_job(i);
      job.config = configs[i % 3];
      (void)service.submit(std::move(job)).value();
    }
    const serve::SupervisorReport& rep = supervisor.run();
    EXPECT_EQ(service.pending(), 0u);

    EXPECT_EQ(rep.ticks, 150u);
    EXPECT_EQ(rep.checkpoints, 19u);
    EXPECT_EQ(rep.crashes, 1u);
    EXPECT_EQ(rep.restores, 1u);
    EXPECT_EQ(rep.quarantines, 12u);
    EXPECT_EQ(rep.readmissions, 12u);
    EXPECT_EQ(rep.repairs, 0u);
    EXPECT_EQ(rep.scrubs, 62u);
    EXPECT_EQ(rep.job_retries, 0u);
    EXPECT_EQ(rep.drained_jobs, 0u);
    EXPECT_EQ(rep.breaker_opens, 3u);
    EXPECT_EQ(rep.breaker_half_opens, 3u);
    EXPECT_EQ(rep.elapsed, 808146973980);
    EXPECT_EQ(rep.downtime, 288050200940);
    EXPECT_EQ(rep.mttr, 24004183411);
    EXPECT_EQ(rep.recoveries, 12u);

    struct BoardTallies {
      std::uint64_t switches, hits, misses, partials, regions;
      util::Picoseconds switch_time, partial_time;
      std::uint64_t reconfig_retries, dma_faults, dma_retries, config_retries;
      std::uint64_t slink_errors, truncated_frames, retransmissions,
          seu_flips, config_upsets, crc_failures;
    };
    const BoardTallies want[] = {
        {133, 8, 125, 124, 992, 608852000000, 587758000000, 11, 5, 5, 0, 0, 0,
         0, 0, 11, 11},
        {163, 18, 145, 144, 1152, 706128000000, 682104000000, 12, 7, 7, 0, 0,
         0, 0, 0, 5, 12},
    };
    std::uint64_t partials = 0;
    std::uint64_t dma_faults = 0;
    for (int b = 0; b < 2; ++b) {
      SCOPED_TRACE("board " + std::to_string(b));
      const BoardTallies& w = want[b];
      const core::SwitchCounters c = service.switcher(b).counters();
      EXPECT_EQ(c.switches, w.switches);
      EXPECT_EQ(c.hits, w.hits);
      EXPECT_EQ(c.misses, w.misses);
      EXPECT_EQ(c.partials, w.partials);
      EXPECT_EQ(c.regions, w.regions);
      EXPECT_EQ(c.switch_time, w.switch_time);
      EXPECT_EQ(c.partial_time, w.partial_time);
      EXPECT_EQ(service.switcher(b).reconfig_retries(), w.reconfig_retries);
      const core::AtlantisDriver& drv = service.driver(b);
      EXPECT_EQ(drv.dma_faults(), w.dma_faults);
      EXPECT_EQ(drv.dma_retries(), w.dma_retries);
      EXPECT_EQ(drv.config_retries(), w.config_retries);
      const core::SelfTestHealth h = sys.acb(b).probe_health();
      EXPECT_EQ(h.slink_errors, w.slink_errors);
      EXPECT_EQ(h.truncated_frames, w.truncated_frames);
      EXPECT_EQ(h.retransmissions, w.retransmissions);
      EXPECT_EQ(h.seu_flips, w.seu_flips);
      EXPECT_EQ(h.config_upsets, w.config_upsets);
      EXPECT_EQ(h.crc_failures, w.crc_failures);
      partials += c.partials;
      dma_faults += drv.dma_faults();
    }
    EXPECT_EQ(injector.log().size(), 52u);

    // The run exercised every path the tallies above count.
    EXPECT_GT(rep.scrubs, 0u);
    EXPECT_GT(partials, 0u);
    EXPECT_GT(dma_faults, 0u);
    EXPECT_EQ(rep.restores, 1u);
  }
  sys.set_fault_injector(nullptr);
}

}  // namespace
}  // namespace atlantis

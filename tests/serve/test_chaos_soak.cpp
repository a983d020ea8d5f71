// Chaos soak over the self-healing supervisor: a storm of randomized
// faults — DMA stalls and aborts, configuration SEUs and CRC failures,
// whole-board drop-outs and service crashes — over a supervised crate
// with a spare must finish with every job's functional result intact
// (the ledger digest equals the fault-free digest, deadline markers
// aside), every quarantined board re-admitted or its work drained, and
// the entire run bit-identical when the same FaultPlan replays.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/system.hpp"
#include "serve/jobservice.hpp"
#include "serve/supervisor.hpp"
#include "sim/fault.hpp"
#include "util/status.hpp"
#include "util/units.hpp"

namespace atlantis {
namespace {

constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ull;
constexpr int kJobs = 450;

serve::JobSpec make_job(const std::string& tenant, const std::string& config,
                        int index, util::Picoseconds compute,
                        util::Picoseconds deadline = 0) {
  serve::JobSpec job;
  job.tenant = tenant;
  job.kind = serve::JobKind::kCustom;
  job.config = config;
  job.arrival = 0;
  job.deadline = deadline;
  job.work = [index, compute] {
    serve::JobOutcome out;
    out.checksum = kGolden * static_cast<std::uint64_t>(index + 1);
    out.compute_time = compute;
    out.dma_in_bytes = 2048;
    out.dma_out_bytes = 512;
    return out;
  };
  return job;
}

void submit_storm_mix(serve::JobService& s) {
  for (int i = 0; i < kJobs; ++i) {
    const std::string tenant =
        i % 3 == 0 ? "atlas" : (i % 3 == 1 ? "cms" : "lhcb");
    const std::string config = (i % 2 == 0) ? "alpha" : "beta";
    // A sprinkling of deadlines: misses are legal under the storm, lost
    // results are not.
    const util::Picoseconds deadline =
        (i % 7 == 0) ? 50 * util::kMillisecond : 0;
    (void)s.submit(make_job(tenant, config, i,
                            (i % 5 + 1) * util::kMicrosecond, deadline))
        .value();
  }
}

sim::FaultPlan storm_plan(std::uint64_t seed) {
  sim::FaultPlan plan;
  plan.seed = seed;
  plan.with_rate(sim::FaultKind::kDmaStall, 0.35)
      .with_rate(sim::FaultKind::kDmaAbort, 0.20)
      .with_rate(sim::FaultKind::kSeuConfig, 0.50)
      .with_rate(sim::FaultKind::kConfigCrc, 0.30)
      .with_rate(sim::FaultKind::kBoardDropout, 0.03)
      .with_rate(sim::FaultKind::kServiceCrash, 0.04);
  return plan;
}

serve::ServeOptions storm_options() {
  serve::ServeOptions options;
  options.policy = serve::Policy::kPreemptive;
  options.preempt_slice = util::kMillisecond;
  return options;
}

serve::SupervisorOptions supervision() {
  serve::SupervisorOptions options;
  options.dispatches_per_tick = 2;
  options.checkpoint_every = 4;
  options.repair_after = 3;
  options.max_job_retries = 100000;  // rescue everything the storm breaks
  return options;
}

/// A supervised crate plus the spare crate it drains to.
struct ChaosWorld {
  std::unique_ptr<sim::FaultInjector> injector;
  core::AtlantisSystem sys;
  core::AtlantisSystem spare_sys;
  std::unique_ptr<serve::JobService> service;
  std::unique_ptr<serve::JobService> spare;

  explicit ChaosWorld(const sim::FaultPlan* plan, int boards = 3)
      : sys("crate"), spare_sys("spare") {
    for (int i = 0; i < boards; ++i) sys.add_acb("acb" + std::to_string(i));
    spare_sys.add_acb("spare0");
    if (plan != nullptr) {
      injector = std::make_unique<sim::FaultInjector>(*plan);
      sys.set_fault_injector(injector.get());
    }
    service = std::make_unique<serve::JobService>(sys, storm_options());
    spare = std::make_unique<serve::JobService>(spare_sys, storm_options());
    for (serve::JobService* s : {service.get(), spare.get()}) {
      s->register_config(hw::Bitstream{"alpha", {}, nullptr, {}});
      s->register_config(hw::Bitstream{"beta", {}, nullptr, {}});
    }
  }

  ~ChaosWorld() { sys.set_fault_injector(nullptr); }

  /// Multiset of functional results across the crate and the spare —
  /// the digest the storm must preserve.
  std::multiset<std::uint64_t> served_checksums() const {
    std::multiset<std::uint64_t> sums;
    for (const serve::JobService* s : {service.get(), spare.get()}) {
      for (const serve::JobRecord& rec : s->jobs()) {
        if (rec.error == util::ErrorCode::kOk && !rec.migrated) {
          sums.insert(rec.outcome.checksum);
        }
      }
    }
    return sums;
  }
};

std::string serialize(const std::vector<serve::JobRecord>& records) {
  std::ostringstream os;
  for (const serve::JobRecord& r : records) {
    os << r.id << '|' << r.tenant << '|' << r.config << '|' << r.board << '|'
       << r.start << '|' << r.finish << '|' << r.preemptions << '|'
       << r.migrated << '|' << util::error_code_name(r.error) << '|'
       << r.outcome.checksum << '\n';
  }
  return os.str();
}

std::string serialize(const serve::SupervisorReport& r) {
  std::ostringstream os;
  os << r.ticks << '|' << r.checkpoints << '|' << r.crashes << '|'
     << r.restores << '|' << r.quarantines << '|' << r.readmissions << '|'
     << r.repairs << '|' << r.scrubs << '|' << r.job_retries << '|'
     << r.drained_jobs << '|' << r.downtime << '|' << r.mttr << '|'
     << r.recoveries << '|' << r.availability;
  return os.str();
}

struct SoakOutcome {
  std::string records;
  std::string spare_records;
  std::string report;
  std::multiset<std::uint64_t> checksums;
  std::size_t fault_events = 0;
  serve::SupervisorReport sup;
  std::vector<serve::BoardCondition> conditions;
  std::size_t pending = 0;
  bool active = false;
};

SoakOutcome soak(const sim::FaultPlan& plan) {
  ChaosWorld w{&plan};
  submit_storm_mix(*w.service);
  serve::Supervisor sup(*w.service, supervision());
  sup.set_spare(w.spare.get());
  sup.run();
  SoakOutcome out;
  out.records = serialize(w.service->jobs());
  out.spare_records = serialize(w.spare->jobs());
  out.report = serialize(sup.report());
  out.checksums = w.served_checksums();
  out.fault_events = w.injector->log().size();
  out.sup = sup.report();
  for (int i = 0; i < w.service->board_count(); ++i) {
    out.conditions.push_back(sup.board_condition(i));
  }
  out.pending = w.service->pending() + w.spare->pending();
  out.active = w.service->has_active_jobs();
  return out;
}

TEST(ChaosSoak, StormLosesNoJobsAndReplaysBitIdentically) {
  // Fault-free reference: every job served, its checksum the digest of
  // its index.
  ChaosWorld ref{nullptr};
  submit_storm_mix(*ref.service);
  ref.service->run();
  ASSERT_EQ(ref.service->report().served, static_cast<std::uint64_t>(kJobs));
  const std::multiset<std::uint64_t> want = ref.served_checksums();
  ASSERT_EQ(want.size(), static_cast<std::size_t>(kJobs));

  const sim::FaultPlan plan = storm_plan(20260808);
  const SoakOutcome a = soak(plan);

  // The storm was a storm.
  EXPECT_GE(a.fault_events, 1000u) << "tune storm_plan rates up";
  EXPECT_GT(a.sup.crashes, 0u);
  EXPECT_GT(a.sup.restores, 0u);
  EXPECT_GT(a.sup.quarantines, 0u);
  EXPECT_GT(a.sup.checkpoints, 0u);
  EXPECT_GT(a.sup.scrubs, 0u);

  // Zero lost jobs: the functional digest survives the storm exactly —
  // deadline misses are legal, missing or duplicated results are not.
  EXPECT_EQ(a.checksums, want);
  EXPECT_EQ(a.pending, 0u);
  EXPECT_FALSE(a.active);

  // Quarantine bookkeeping: every readmission consumed a prior
  // quarantine, and no board ends the run quarantined with work stuck
  // behind it (pending == 0 already guarantees the latter).
  EXPECT_GE(a.sup.quarantines, a.sup.readmissions);
  EXPECT_GE(a.sup.recoveries, a.sup.readmissions + a.sup.repairs);
  EXPECT_GT(a.sup.availability, 0.0);
  EXPECT_LT(a.sup.availability, 1.0);  // the storm cost board-time

  // Replay: the same plan reproduces the run bit-for-bit — ledger,
  // spare ledger, supervision counters, availability figures.
  const SoakOutcome b = soak(plan);
  EXPECT_EQ(a.records, b.records);
  EXPECT_EQ(a.spare_records, b.spare_records);
  EXPECT_EQ(a.report, b.report);

  // A different seed is a different storm (sanity that the plan seed
  // actually reaches the draws).
  sim::FaultPlan other = storm_plan(7);
  EXPECT_NE(a.report, soak(other).report);
}

TEST(ChaosSoak, TickInvariantsHoldUnderStormWithoutASpare) {
  // No spare: the disaster path must re-admit rather than drain, and
  // the supervisor's view of each board must track the service's.
  const sim::FaultPlan plan = storm_plan(99);
  ChaosWorld w{&plan};
  submit_storm_mix(*w.service);
  serve::Supervisor sup(*w.service, supervision());

  std::uint64_t guard = 0;
  while (w.service->pending() > 0 || w.service->has_active_jobs()) {
    sup.tick();
    ASSERT_LT(++guard, 200000u) << "soak failed to converge";
    for (int i = 0; i < w.service->board_count(); ++i) {
      const serve::BoardCondition c = sup.board_condition(i);
      const double health = sup.board_health(i);
      ASSERT_GE(health, 0.0);
      ASSERT_LE(health, 1.0);
      switch (c) {
        case serve::BoardCondition::kDead:
          ASSERT_TRUE(w.service->board_dead(i));
          break;
        case serve::BoardCondition::kQuarantined:
          ASSERT_TRUE(w.service->board_quarantined(i));
          ASSERT_FALSE(w.service->board_dead(i));
          break;
        case serve::BoardCondition::kActive:
        case serve::BoardCondition::kProbation:
          ASSERT_FALSE(w.service->board_dead(i));
          ASSERT_FALSE(w.service->board_quarantined(i));
          break;
      }
    }
  }

  // Everything served on the crate itself (no spare to lean on).
  std::multiset<std::uint64_t> want;
  for (int i = 0; i < kJobs; ++i) {
    want.insert(kGolden * static_cast<std::uint64_t>(i + 1));
  }
  EXPECT_EQ(w.served_checksums(), want);
  EXPECT_GT(sup.report().ticks, 0u);
}

}  // namespace
}  // namespace atlantis

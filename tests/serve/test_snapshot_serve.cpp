// The serving layer's snapshot contracts: preemptive EDF scheduling
// beats the batched drain on deadline-heavy mixes, jobs checkpoint /
// restore / migrate between services without losing their functional
// outcome, and a service frozen mid-stream with save_state — fault
// plan and all — replays the identical tail when restored into a twin.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/system.hpp"
#include "serve/jobservice.hpp"
#include "sim/fault.hpp"
#include "sim/snapshot.hpp"
#include "sim/timeline.hpp"
#include "util/status.hpp"
#include "util/units.hpp"

namespace atlantis {
namespace {

std::string serialize(const sim::Timeline& tl) {
  std::ostringstream os;
  for (const sim::Transaction& t : tl.transactions()) {
    os << sim::txn_kind_name(t.kind) << '|' << t.label << '|'
       << tl.track_name(t.track) << '|' << t.post << '|' << t.start << '|'
       << t.end << '|' << t.bytes << '\n';
  }
  return os.str();
}

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
    out.checksum =
        0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(index + 1);
    out.compute_time = compute;
    out.dma_in_bytes = 1024;
    out.dma_out_bytes = 256;
    return out;
  };
  return job;
}

/// One self-contained crate + service, so twins are trivially
/// identically assembled.
struct World {
  std::unique_ptr<sim::FaultInjector> injector;
  core::AtlantisSystem sys;
  std::unique_ptr<serve::JobService> service;

  explicit World(serve::ServeOptions options, int boards = 1,
                 const sim::FaultPlan* plan = nullptr,
                 const std::string& crate = "crate")
      : sys(crate) {
    for (int i = 0; i < boards; ++i) sys.add_acb("acb" + std::to_string(i));
    if (plan != nullptr) {
      injector = std::make_unique<sim::FaultInjector>(*plan);
      sys.set_fault_injector(injector.get());
    }
    service = std::make_unique<serve::JobService>(sys, options);
    service->register_config(hw::Bitstream{"alpha", {}, nullptr, 1.0, {}});
  }

  ~World() { sys.set_fault_injector(nullptr); }
};

/// 2 long background jobs (no deadline) submitted first, then 8 short
/// jobs under a deadline that the batched drain cannot hold (the longs
/// run first) but slice preemption holds easily.
void submit_deadline_mix(serve::JobService& s) {
  const util::Picoseconds kLong = 30 * util::kMillisecond;
  const util::Picoseconds kShort = 100 * util::kMicrosecond;
  const util::Picoseconds kDeadline = 40 * util::kMillisecond;
  for (int i = 0; i < 2; ++i) {
    (void)s.submit(make_job("batch", "alpha", i, kLong)).value();
  }
  for (int i = 2; i < 10; ++i) {
    (void)s.submit(make_job("rt", "alpha", i, kShort, kDeadline)).value();
  }
}

/// The deadline mix, staged so the scheduler commits to the longs
/// before the deadline jobs exist: submit the longs, let one
/// scheduling step run (the batched policy completes the whole long
/// batch; the preemptive policies start a slice), then submit the
/// shorts and drain. This is what actually exercises preemption — with
/// everything queued up front, EDF would simply run the shorts first.
void run_staged_mix(serve::JobService& s) {
  const util::Picoseconds kLong = 30 * util::kMillisecond;
  const util::Picoseconds kShort = 100 * util::kMicrosecond;
  const util::Picoseconds kDeadline = 40 * util::kMillisecond;
  for (int i = 0; i < 2; ++i) {
    (void)s.submit(make_job("batch", "alpha", i, kLong)).value();
  }
  serve::RunOptions one_step;
  one_step.max_dispatches = 1;
  s.run(one_step);
  for (int i = 2; i < 10; ++i) {
    (void)s.submit(make_job("rt", "alpha", i, kShort, kDeadline)).value();
  }
  s.run();
}

serve::ServeOptions preemptive_options(
    serve::Policy policy = serve::Policy::kPreemptive) {
  serve::ServeOptions options;
  options.policy = policy;
  options.preempt_slice = util::kMillisecond;
  return options;
}

TEST(PreemptiveScheduling, BeatsBatchedOnDeadlineMisses) {
  World batched{serve::ServeOptions{}};
  run_staged_mix(*batched.service);

  World preemptive{preemptive_options()};
  run_staged_mix(*preemptive.service);

  // Batched committed to the whole long batch at the pause: the shorts
  // wait out both 30 ms longs and every 40 ms deadline is missed.
  EXPECT_EQ(batched.service->report().served, 8u);  // final run: the shorts
  EXPECT_EQ(batched.service->report().deadline_misses, 8u);
  EXPECT_EQ(batched.service->report().preemptions, 0u);
  // EDF with a 1 ms slice evicts the running long and holds every
  // deadline; the longs resume and still finish.
  EXPECT_EQ(preemptive.service->report().served, 10u);
  EXPECT_EQ(preemptive.service->report().deadline_misses, 0u);
  EXPECT_GT(preemptive.service->report().preemptions, 0u);
  // The work itself is policy-invariant.
  for (serve::JobId id = 0; id < 10; ++id) {
    EXPECT_EQ(batched.service->job(id).error, util::ErrorCode::kOk);
    EXPECT_EQ(batched.service->job(id).outcome.checksum,
              preemptive.service->job(id).outcome.checksum);
  }
}

TEST(PreemptiveScheduling, AbortRerunPaysRecomputation) {
  World resume{preemptive_options(serve::Policy::kPreemptive)};
  run_staged_mix(*resume.service);

  World rerun{preemptive_options(serve::Policy::kAbortRerun)};
  run_staged_mix(*rerun.service);

  EXPECT_EQ(rerun.service->report().served, 10u);
  EXPECT_GT(rerun.service->report().preemptions, 0u);
  // The evicted long restarts from scratch under abort/rerun but only
  // pays its remaining compute under checkpoint/resume.
  EXPECT_GT(rerun.service->report().makespan,
            resume.service->report().makespan);
  EXPECT_GT(resume.service->job(0).preemptions, 0u);
}

TEST(JobCheckpoint, RoundTripsOnTheSameService) {
  World world{preemptive_options()};
  submit_deadline_mix(*world.service);
  const std::size_t before = world.service->pending();

  auto ckpt = world.service->checkpoint_job(5);
  ASSERT_TRUE(ckpt.ok()) << ckpt.message();
  EXPECT_EQ(ckpt.value().id, 5u);
  EXPECT_EQ(ckpt.value().tenant, "rt");
  EXPECT_EQ(ckpt.value().config, "alpha");
  EXPECT_EQ(world.service->pending(), before - 1);
  // Already checkpointed out: not pending any more.
  EXPECT_EQ(world.service->checkpoint_job(5).error(),
            util::ErrorCode::kJobNotPending);

  auto revived = world.service->restore_job(ckpt.value());
  ASSERT_TRUE(revived.ok()) << revived.message();
  EXPECT_EQ(revived.value(), 5u);  // same service -> original id revived
  EXPECT_EQ(world.service->pending(), before);

  world.service->run();
  EXPECT_EQ(world.service->report().served, 10u);
  EXPECT_EQ(world.service->job(5).error, util::ErrorCode::kOk);
  EXPECT_EQ(world.service->job(5).outcome.checksum,
            0x9e3779b97f4a7c15ull * 6u);
}

TEST(JobCheckpoint, FinishedJobIsNotCheckpointable) {
  World world{serve::ServeOptions{}};
  submit_deadline_mix(*world.service);
  world.service->run();
  EXPECT_EQ(world.service->checkpoint_job(3).error(),
            util::ErrorCode::kJobNotPending);
}

TEST(JobMigration, MovesAPendingJobToAnotherService) {
  World src{preemptive_options(), 1, nullptr, "crateA"};
  World dst{preemptive_options(), 1, nullptr, "crateB"};
  submit_deadline_mix(*src.service);

  auto moved = src.service->migrate_job(7, *dst.service);
  ASSERT_TRUE(moved.ok()) << moved.message();
  EXPECT_TRUE(src.service->job(7).migrated);
  EXPECT_EQ(src.service->pending(), 9u);
  EXPECT_EQ(dst.service->pending(), 1u);

  src.service->run();
  dst.service->run();
  EXPECT_EQ(src.service->report().served, 9u);
  EXPECT_EQ(dst.service->report().served, 1u);
  // The outcome travelled inside the checkpoint — the target never saw
  // the work functor, yet serves the identical result.
  EXPECT_EQ(dst.service->job(moved.value()).outcome.checksum,
            0x9e3779b97f4a7c15ull * 8u);
}

TEST(JobMigration, FailedRestoreLeavesTheJobPending) {
  World src{preemptive_options(), 1, nullptr, "crateA"};
  World dst{preemptive_options(), 1, nullptr, "crateB"};
  src.service->register_config(hw::Bitstream{"beta", {}, nullptr, 1.0, {}});
  submit_deadline_mix(*src.service);
  const serve::JobId id =
      src.service->submit(make_job("rt", "beta", 10, util::kMicrosecond))
          .value();

  // The target never registered "beta", so it refuses the job.
  auto moved = src.service->migrate_job(id, *dst.service);
  ASSERT_FALSE(moved.ok());
  EXPECT_EQ(moved.error(), util::ErrorCode::kAdmissionReject);
  EXPECT_FALSE(src.service->job(id).migrated);
  EXPECT_EQ(src.service->pending(), 11u);
  EXPECT_EQ(dst.service->pending(), 0u);
  EXPECT_EQ(src.service->pending_ids().back(), id);  // back of its queue

  src.service->run();
  EXPECT_EQ(src.service->report().served, 11u);
  EXPECT_EQ(src.service->report().migrated, 0u);
  EXPECT_EQ(src.service->job(id).error, util::ErrorCode::kOk);
  EXPECT_EQ(src.service->job(id).outcome.checksum,
            0x9e3779b97f4a7c15ull * 11u);
}

TEST(JobMigration, DropoutDrainsThroughTheMigrationTarget) {
  sim::FaultPlan plan;
  plan.seed = 99;
  plan.inject(sim::FaultKind::kBoardDropout, "board/acb0", 1);

  World src{preemptive_options(), 1, &plan, "crateA"};
  World dst{preemptive_options(), 1, nullptr, "crateB"};
  src.service->set_migration_target(dst.service.get());
  submit_deadline_mix(*src.service);
  src.service->run();
  dst.service->run();

  // Nothing died with the board: every job either finished on the
  // source before the drop-out or was drained to the target.
  std::multiset<std::uint64_t> checksums;
  for (const auto& svc : {std::cref(*src.service), std::cref(*dst.service)}) {
    for (const serve::JobRecord& rec : svc.get().jobs()) {
      EXPECT_NE(rec.error, util::ErrorCode::kBoardDead)
          << "job " << rec.id << " on "
          << (&svc.get() == src.service.get() ? "src" : "dst");
      if (rec.error == util::ErrorCode::kOk && !rec.migrated) {
        checksums.insert(rec.outcome.checksum);
      }
    }
  }
  std::multiset<std::uint64_t> expected;
  for (int i = 0; i < 10; ++i) {
    expected.insert(0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(i + 1));
  }
  EXPECT_EQ(checksums, expected);
  EXPECT_GT(src.service->report().migrated, 0u);
  EXPECT_EQ(src.service->report().migrated + src.service->report().served,
            10u);
}

// --- mid-stream save/restore ---------------------------------------------

/// Shared workload for the replay tests: two configurations, three
/// tenants, a fault plan with recoverable faults and a board drop-out.
void submit_replay_mix(serve::JobService& s) {
  s.register_config(hw::Bitstream{"beta", {}, nullptr, 1.0, {}});
  for (int i = 0; i < 18; ++i) {
    const std::string tenant =
        i % 3 == 0 ? "atlas" : (i % 3 == 1 ? "cms" : "lhcb");
    const std::string config = (i % 2 == 0) ? "alpha" : "beta";
    (void)s.submit(make_job(tenant, config, i,
                            (i % 5 + 1) * util::kMicrosecond))
        .value();
  }
}

sim::FaultPlan replay_plan() {
  sim::FaultPlan plan;
  plan.seed = 20260808;
  plan.with_rate(sim::FaultKind::kDmaStall, 0.10);
  plan.inject(sim::FaultKind::kBoardDropout, "board/acb1", 2);
  return plan;
}

class MidStreamRestore : public ::testing::TestWithParam<serve::Policy> {};

TEST_P(MidStreamRestore, FaultPlanRunReplaysIdentically) {
  serve::ServeOptions options = preemptive_options(GetParam());

  // Reference: the same world runs to completion undisturbed.
  const sim::FaultPlan plan = replay_plan();
  World ref{options, 2, &plan, "crate"};
  submit_replay_mix(*ref.service);
  ref.service->run();
  const std::string want_records = serialize(ref.service->jobs());
  const std::string want_schedule = serialize(ref.sys.timeline());

  // Live: pause mid-stream, snapshot, continue — the pause must not
  // perturb the schedule.
  World live{options, 2, &plan, "crate"};
  submit_replay_mix(*live.service);
  serve::RunOptions three_steps;
  three_steps.max_dispatches = 3;
  live.service->run(three_steps);
  sim::SnapshotWriter w;
  live.service->save_state(w);
  const std::vector<std::uint8_t> bytes = w.bytes();
  live.service->run();
  EXPECT_EQ(serialize(live.service->jobs()), want_records);
  EXPECT_EQ(serialize(live.sys.timeline()), want_schedule);

  // Twin: identically assembled world restores the snapshot and runs
  // the tail — schedule, results and the fault tail all replay.
  World twin{options, 2, &plan, "crate"};
  submit_replay_mix(*twin.service);
  auto opened = sim::SnapshotReader::open(bytes);
  ASSERT_TRUE(opened.ok()) << opened.message();
  sim::SnapshotReader r = std::move(opened.value());
  twin.service->load_state(r);
  twin.service->run();
  EXPECT_EQ(serialize(twin.service->jobs()), want_records);
  EXPECT_EQ(serialize(twin.sys.timeline()), want_schedule);
  EXPECT_EQ(twin.injector->log(), live.injector->log());
}

INSTANTIATE_TEST_SUITE_P(Policies, MidStreamRestore,
                         ::testing::Values(serve::Policy::kBatched,
                                           serve::Policy::kPreemptive));

// --- checkpoint stream corruption fuzz -----------------------------------

TEST(JobCheckpointFuzz, EveryCorruptionIsRejectedAtomically) {
  World world{preemptive_options()};
  submit_deadline_mix(*world.service);
  auto taken = world.service->checkpoint_job(4);
  ASSERT_TRUE(taken.ok()) << taken.message();
  const serve::JobCheckpoint good = taken.value();
  ASSERT_GT(good.bytes.size(), 16u);
  const std::size_t pending = world.service->pending();
  const std::size_t ledger = world.service->jobs().size();

  auto expect_rejected = [&](const serve::JobCheckpoint& bad,
                             util::ErrorCode want, const std::string& what) {
    auto r = world.service->restore_job(bad);
    ASSERT_FALSE(r.ok()) << what;
    EXPECT_EQ(r.error(), want) << what;
    // Atomic rejection: nothing was admitted, no ledger entry appeared.
    EXPECT_EQ(world.service->pending(), pending) << what;
    EXPECT_EQ(world.service->jobs().size(), ledger) << what;
  };

  // Truncation at every possible length.
  for (std::size_t len = 0; len < good.bytes.size(); ++len) {
    serve::JobCheckpoint bad = good;
    bad.bytes.resize(len);
    expect_rejected(bad, util::ErrorCode::kSnapshotCorrupt,
                    "truncated to " + std::to_string(len) + " bytes");
  }

  // One flipped bit in every byte. Header layout (sim/snapshot.hpp):
  // magic u32 | major u16 | minor u16 | reserved u32. A corrupt magic or
  // major fails header validation; minor and reserved may legally
  // differ (forward compatibility); every byte from the first section
  // frame on is CRC-covered.
  for (std::size_t at = 0; at < good.bytes.size(); ++at) {
    if (at >= 6 && at < 12) continue;  // minor + reserved
    serve::JobCheckpoint bad = good;
    bad.bytes[at] ^= static_cast<std::uint8_t>(1u << (at % 8));
    const util::ErrorCode want = (at == 4 || at == 5)
                                     ? util::ErrorCode::kSnapshotVersion
                                     : util::ErrorCode::kSnapshotCorrupt;
    expect_rejected(bad, want, "bit flip at byte " + std::to_string(at));
  }

  // The intact stream still restores after the storm of rejections, so
  // no failed attempt left partial state behind.
  auto revived = world.service->restore_job(good);
  ASSERT_TRUE(revived.ok()) << revived.message();
  EXPECT_EQ(revived.value(), 4u);
  world.service->run();
  EXPECT_EQ(world.service->job(4).error, util::ErrorCode::kOk);
  EXPECT_EQ(world.service->job(4).outcome.checksum,
            0x9e3779b97f4a7c15ull * 5u);
}

TEST(ServiceSnapshot, LoadRejectsAMismatchedTwin) {
  World live{serve::ServeOptions{}};
  submit_deadline_mix(*live.service);
  sim::SnapshotWriter w;
  live.service->save_state(w);

  // Twin with a different submission history.
  World twin{serve::ServeOptions{}};
  (void)twin.service->submit(make_job("rt", "alpha", 0, util::kMicrosecond))
      .value();
  auto opened = sim::SnapshotReader::open(w.bytes());
  ASSERT_TRUE(opened.ok());
  sim::SnapshotReader r = std::move(opened.value());
  EXPECT_THROW(twin.service->load_state(r), util::StateError);
}

}  // namespace
}  // namespace atlantis

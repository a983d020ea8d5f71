// The serving layer's contracts: scheduler determinism across worker
// pools, replay-identical fault runs, batching economics, admission
// control, queue bookkeeping and graceful degradation.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/system.hpp"
#include "serve/jobservice.hpp"
#include "sim/fault.hpp"
#include "sim/timeline.hpp"
#include "util/units.hpp"
#include "util/worker_pool.hpp"

namespace atlantis::serve {
// Names the policy in the parameterized case names ctest discovers.
static void PrintTo(Policy policy, std::ostream* os) {
  *os << (policy == Policy::kBatched ? "batched" : "preemptive");
}
}  // namespace atlantis::serve

namespace atlantis {
namespace {

// Full serialization of a timeline: if two runs produce the same string,
// they produced the same schedule, transaction for transaction.
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
       << r.arrival << '|' << r.start << '|' << r.finish << '|'
       << r.queue_wait << '|' << util::error_code_name(r.error) << '|'
       << r.outcome.checksum << '\n';
  }
  return os.str();
}

struct RunResult {
  std::string schedule;
  std::string records;
  std::string results;  // timing-free functional identity (region tests)
  std::vector<int> boards;  // per job, the board it ran on
  serve::ServiceReport report;
};

serve::JobSpec custom_job(const std::string& tenant,
                          const std::string& config, int index,
                          util::Picoseconds arrival) {
  serve::JobSpec job;
  job.tenant = tenant;
  job.kind = serve::JobKind::kCustom;
  job.config = config;
  job.arrival = arrival;
  job.work = [index] {
    serve::JobOutcome out;
    out.checksum = 0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(index + 1);
    out.compute_time = (index % 5 + 1) * util::kMicrosecond;
    out.dma_in_bytes = 1024u * static_cast<std::uint64_t>(index % 3 + 1);
    out.dma_out_bytes = 256;
    return out;
  };
  return job;
}

RunResult run_workload(int pool_threads, const sim::FaultPlan* plan = nullptr,
                       serve::ServeOptions options = {}, int board_count = 2) {
  std::unique_ptr<sim::FaultInjector> injector;
  core::AtlantisSystem sys("crate");
  for (int i = 0; i < board_count; ++i) {
    sys.add_acb("acb" + std::to_string(i));
  }
  if (plan != nullptr) {
    injector = std::make_unique<sim::FaultInjector>(*plan);
    sys.set_fault_injector(injector.get());
  }
  serve::JobService service(sys, options);
  service.register_config(hw::Bitstream{"alpha", {}, nullptr, 1.0, {}});
  service.register_config(hw::Bitstream{"beta", {}, nullptr, 1.0, {}});
  for (int i = 0; i < 24; ++i) {
    const std::string tenant =
        i % 3 == 0 ? "atlas" : (i % 3 == 1 ? "cms" : "lhcb");
    const std::string config = (i % 2 == 0) ? "alpha" : "beta";
    (void)service
        .submit(custom_job(tenant, config, i, i * util::kMicrosecond))
        .value();
  }
  util::WorkerPool pool(pool_threads);
  serve::RunOptions run_options;
  run_options.pool = &pool;
  service.run(run_options);
  RunResult rr;
  rr.schedule = serialize(sys.timeline());
  rr.records = serialize(service.jobs());
  for (const serve::JobRecord& rec : service.jobs()) {
    rr.boards.push_back(rec.board);
  }
  rr.report = service.report();
  sys.set_fault_injector(nullptr);
  return rr;
}

TEST(JobService, ScheduleBitIdenticalAcrossPoolSizes) {
  const RunResult one = run_workload(1);
  const RunResult two = run_workload(2);
  const RunResult eight = run_workload(8);
  EXPECT_EQ(one.schedule, two.schedule);
  EXPECT_EQ(one.schedule, eight.schedule);
  EXPECT_EQ(one.records, two.records);
  EXPECT_EQ(one.records, eight.records);
  EXPECT_EQ(one.report.served, 24u);
  EXPECT_EQ(one.report.failed, 0u);
  EXPECT_GT(one.report.batches, 0u);
}

TEST(JobService, DropoutRunIsReplayIdenticalAndDrainsTheBoard) {
  sim::FaultPlan plan;
  plan.inject(sim::FaultKind::kBoardDropout, "board/acb1", /*nth=*/1);
  const RunResult a = run_workload(1, &plan);
  const RunResult b = run_workload(8, &plan);  // fresh injector, replay
  EXPECT_EQ(a.schedule, b.schedule);
  EXPECT_EQ(a.records, b.records);
  // The dead board was drained: every job still served, all on acb0.
  EXPECT_EQ(a.report.served, 24u);
  EXPECT_EQ(a.report.failed, 0u);
  ASSERT_EQ(a.report.dead_boards.size(), 1u);
  EXPECT_EQ(a.report.dead_boards[0], 1);
  for (const int board : a.boards) EXPECT_EQ(board, 0);
}

TEST(JobService, BatchingAndCacheBeatReconfigurePerJob) {
  serve::ServeOptions naive;
  naive.max_batch = 1;
  naive.cache_capacity = 0;
  naive.fifo_order = true;  // alternating configs -> reconfig per job
  serve::ServeOptions batched;
  batched.max_batch = 8;
  batched.cache_capacity = 4;
  // One board: with two boards the alternating alpha/beta stream lands
  // even jobs on one board and odd jobs on the other, which is perfect
  // accidental affinity and hides the reconfiguration cost.
  const RunResult n = run_workload(1, nullptr, naive, /*board_count=*/1);
  const RunResult b = run_workload(1, nullptr, batched, /*board_count=*/1);
  EXPECT_EQ(n.report.served, 24u);
  EXPECT_EQ(b.report.served, 24u);
  EXPECT_LT(b.report.full_reconfigs, n.report.full_reconfigs);
  EXPECT_LT(b.report.reconfig_time, n.report.reconfig_time);
  EXPECT_LT(b.report.makespan, n.report.makespan);
  EXPECT_GT(b.report.jobs_per_second, n.report.jobs_per_second);
  EXPECT_GT(b.report.cache_hits + b.report.cache_misses, 0u);
}

TEST(JobService, AdmissionControlRefusesOverload) {
  core::AtlantisSystem sys("crate");
  sys.add_acb("acb0");
  serve::ServeOptions opt;
  opt.max_queued_per_tenant = 2;
  serve::JobService service(sys, opt);
  service.register_config(hw::Bitstream{"alpha", {}, nullptr, 1.0, {}});
  EXPECT_TRUE(service.submit(custom_job("greedy", "alpha", 0, 0)).ok());
  EXPECT_TRUE(service.submit(custom_job("greedy", "alpha", 1, 0)).ok());
  const util::Result<serve::JobId> refused =
      service.submit(custom_job("greedy", "alpha", 2, 0));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error(), util::ErrorCode::kOverloaded);
  // Other tenants are unaffected, and serving frees the quota.
  EXPECT_TRUE(service.submit(custom_job("modest", "alpha", 3, 0)).ok());
  service.run();
  EXPECT_TRUE(service.submit(custom_job("greedy", "alpha", 4, 0)).ok());
}

TEST(JobService, RejectsOptionsThatCannotMakeProgress) {
  // An empty batch dispatches forever without serving anything, and a
  // slice of no time would never finish a job.
  core::AtlantisSystem sys("crate");
  sys.add_acb("acb0");
  for (const int max_batch : {0, -1}) {
    serve::ServeOptions options;
    options.max_batch = max_batch;
    EXPECT_THROW(serve::JobService(sys, options), util::Error) << max_batch;
  }
  for (const util::Picoseconds slice : {0 * util::kMicrosecond,
                                        -util::kMicrosecond}) {
    serve::ServeOptions options;
    options.policy = serve::Policy::kPreemptive;
    options.preempt_slice = slice;
    EXPECT_THROW(serve::JobService(sys, options), util::Error) << slice;
  }
  serve::ServeOptions smallest;
  smallest.max_batch = 1;
  smallest.preempt_slice = 1;
  EXPECT_NO_THROW(serve::JobService(sys, smallest));
}

TEST(JobService, AllBoardsDeadFailsRemainingJobs) {
  core::AtlantisSystem sys("crate");
  sys.add_acb("acb0");
  serve::JobService service(sys);
  service.register_config(hw::Bitstream{"alpha", {}, nullptr, 1.0, {}});
  for (int i = 0; i < 3; ++i) {
    (void)service.submit(custom_job("t", "alpha", i, 0)).value();
  }
  sys.acb(0).set_alive(false);
  const serve::ServiceReport& rep = service.run();
  EXPECT_EQ(rep.served, 0u);
  EXPECT_EQ(rep.failed, 3u);
  for (const serve::JobRecord& rec : service.jobs()) {
    EXPECT_EQ(rec.error, util::ErrorCode::kBoardDead);
    EXPECT_EQ(rec.board, -1);
  }
}

// A board killed outside the service (trt::multiboard's draw_dropout on
// a shared crate, for one) is lost by the board scan of either policy:
// it shows up in dead_boards and the survivor serves everything.
class BoardScan : public ::testing::TestWithParam<serve::Policy> {};

TEST_P(BoardScan, BoardKilledOutsideTheServiceIsReportedDead) {
  core::AtlantisSystem sys("crate");
  sys.add_acb("acb0");
  sys.add_acb("acb1");
  serve::ServeOptions options;
  options.policy = GetParam();
  serve::JobService service(sys, options);
  service.register_config(hw::Bitstream{"alpha", {}, nullptr, 1.0, {}});
  for (int i = 0; i < 4; ++i) {
    (void)service.submit(custom_job("t", "alpha", i, 0)).value();
  }
  sys.acb(0).set_alive(false);
  const serve::ServiceReport& rep = service.run();
  EXPECT_EQ(rep.dead_boards, std::vector<int>{0});
  EXPECT_TRUE(service.board_dead(0));
  EXPECT_EQ(rep.served, 4u);
  for (const serve::JobRecord& rec : service.jobs()) EXPECT_EQ(rec.board, 1);
}

INSTANTIATE_TEST_SUITE_P(BothPolicies, BoardScan,
                         ::testing::Values(serve::Policy::kBatched,
                                           serve::Policy::kPreemptive));

TEST(JobService, TenantStatsAndQueueWaitTracks) {
  const RunResult rr = run_workload(2);
  ASSERT_EQ(rr.report.tenants.size(), 3u);
  EXPECT_EQ(rr.report.tenants[0].tenant, "atlas");  // sorted by name
  EXPECT_EQ(rr.report.tenants[1].tenant, "cms");
  EXPECT_EQ(rr.report.tenants[2].tenant, "lhcb");
  std::uint64_t jobs = 0;
  for (const serve::TenantStats& t : rr.report.tenants) {
    jobs += t.jobs;
    EXPECT_LE(t.p50_wait, t.p99_wait);
    EXPECT_LE(t.p99_wait, t.max_wait);
    EXPECT_GT(t.mean_service, 0);
  }
  EXPECT_EQ(jobs, 24u);
  // Queue waits were posted on per-tenant tracks.
  EXPECT_NE(rr.schedule.find("queue_wait"), std::string::npos);
  EXPECT_NE(rr.schedule.find("tenant/atlas"), std::string::npos);
}

TEST(ConfigQueues, EmptiedQueuesStayInvisible) {
  // A drained queue stays in the map for the next wave; no query may
  // tell it from a queue that was never there.
  const auto fill = [](serve::ConfigQueues& q) {
    q.push_back("b", 3);
    q.push_back("a", 1);
    q.push_back("b", 4);
    q.push_back("c", 2);
  };
  const auto same = [](const serve::ConfigQueues& x,
                       const serve::ConfigQueues& y) {
    EXPECT_EQ(x.total(), y.total());
    EXPECT_EQ(x.empty(), y.empty());
    EXPECT_EQ(x.all(), y.all());
    EXPECT_EQ(x.pick_fifo(), y.pick_fifo());
    for (const char* resident : {"", "a", "b", "c", "d"}) {
      EXPECT_EQ(x.pick(resident), y.pick(resident)) << resident;
    }
  };
  serve::ConfigQueues fresh;
  fill(fresh);
  serve::ConfigQueues reused;
  fill(reused);

  // Drain every queue, through each way out.
  EXPECT_EQ(reused.pop_front("a"), 1u);
  EXPECT_TRUE(reused.erase("c", 2));
  const serve::JobId b_head = reused.pop_front("b");
  EXPECT_EQ(reused.pop_front("b"), 4u);
  EXPECT_TRUE(reused.empty());
  EXPECT_EQ(reused.total(), 0u);
  EXPECT_TRUE(reused.all().empty());
  EXPECT_EQ(reused.pick("b"), "");
  EXPECT_EQ(reused.pick_fifo(), "");
  EXPECT_FALSE(reused.erase("b", 4));
  same(reused, serve::ConfigQueues{});

  // Refilled (b's head back at the front), it reads like a fresh set.
  reused.push_back("a", 1);
  reused.push_back("b", 4);
  reused.push_back("c", 2);
  reused.push_front("b", {&b_head, 1});
  same(reused, fresh);

  // Partly drained: the emptied queue "a" is skipped by every query.
  EXPECT_EQ(reused.pop_front("a"), fresh.pop_front("a"));
  same(reused, fresh);
  EXPECT_EQ(reused.total(), 3u);
  EXPECT_EQ(reused.pick_fifo(), "c");  // heads: b 3, c 2
  EXPECT_EQ(reused.pick("a"), "b");    // the deepest queue
}

TEST(JobService, SubmitUnknownConfigIsAdmissionReject) {
  core::AtlantisSystem sys("crate");
  sys.add_acb("acb0");
  serve::JobService service(sys);
  const util::Result<serve::JobId> r =
      service.submit(custom_job("t", "nope", 0, 0));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), util::ErrorCode::kAdmissionReject);
  // Callers that want the old throwing behaviour spell it out.
  EXPECT_THROW((void)r.value_or_throw(), util::StateError);
}

// --- differential partial reconfiguration on the serve path ------------

/// Functional identity of a run: which job produced what, ignoring the
/// modelled timing (which the reconfiguration policy is supposed to
/// change).
std::string serialize_results(const std::vector<serve::JobRecord>& records) {
  std::ostringstream os;
  for (const serve::JobRecord& r : records) {
    os << r.id << '|' << r.tenant << '|' << r.config << '|' << r.board << '|'
       << util::error_code_name(r.error) << '|' << r.outcome.checksum << '\n';
  }
  return os.str();
}

/// Five configurations sharing a common base: each variant differs from
/// the base in four of the ORCA's 32 frames, so a switch between any
/// two of them is an 8-frame (or less) differential load instead of a
/// full 18.75 ms bitstream.
RunResult run_region_workload(int pool_threads, serve::ServeOptions options,
                              const sim::FaultPlan* plan = nullptr) {
  std::unique_ptr<sim::FaultInjector> injector;
  core::AtlantisSystem sys("crate");
  sys.add_acb("acb0");
  if (plan != nullptr) {
    injector = std::make_unique<sim::FaultInjector>(*plan);
    sys.set_fault_injector(injector.get());
  }
  serve::JobService service(sys, options);
  constexpr int kConfigs = 5;
  for (int c = 0; c < kConfigs; ++c) {
    hw::Bitstream bs{"cfg" + std::to_string(c), {}, nullptr, 1.0, {}};
    bs.region_sigs = hw::make_region_signatures("shared_base", 32);
    hw::stamp_regions(bs.region_sigs, bs.name, 4 * c, 4 * c + 4);
    service.register_config(bs);
  }
  for (int i = 0; i < 30; ++i) {
    const std::string tenant = i % 2 == 0 ? "atlas" : "cms";
    const std::string config = "cfg" + std::to_string(i % kConfigs);
    (void)service
        .submit(custom_job(tenant, config, i, i * util::kMicrosecond))
        .value();
  }
  util::WorkerPool pool(pool_threads);
  serve::RunOptions run_options;
  run_options.pool = &pool;
  service.run(run_options);
  RunResult rr;
  rr.schedule = serialize(sys.timeline());
  rr.records = serialize(service.jobs());
  for (const serve::JobRecord& rec : service.jobs()) {
    rr.boards.push_back(rec.board);
  }
  rr.report = service.report();
  rr.results = serialize_results(service.jobs());
  sys.set_fault_injector(nullptr);
  return rr;
}

TEST(JobService, DifferentialPathMatchesFullPathResults) {
  serve::ServeOptions full;
  full.max_batch = 4;
  full.cache_capacity = 2;  // 5 configs through 2 slots: misses guaranteed
  full.differential_reconfig = false;
  serve::ServeOptions diff = full;
  diff.differential_reconfig = true;

  const RunResult f = run_region_workload(1, full);
  const RunResult d = run_region_workload(1, diff);

  // Same jobs, same boards, same outcomes — bit-identical results.
  EXPECT_EQ(f.results, d.results);
  EXPECT_EQ(f.report.served, 30u);
  EXPECT_EQ(d.report.served, 30u);
  EXPECT_EQ(f.report.failed, d.report.failed);

  // But the differential runs paid frames, not bitstreams.
  EXPECT_EQ(f.report.partial_reconfigs, 0u);
  EXPECT_GT(d.report.partial_reconfigs, 0u);
  EXPECT_GT(d.report.regions_loaded, 0u);
  EXPECT_GT(d.report.partial_reconfig_time, 0);
  EXPECT_LE(d.report.partial_reconfig_time, d.report.reconfig_time);
  EXPECT_LT(d.report.reconfig_time, f.report.reconfig_time);
  EXPECT_LT(d.report.makespan, f.report.makespan);
}

TEST(JobService, DifferentialRunIsReplayIdenticalUnderFaults) {
  sim::FaultPlan plan;
  plan.seed = 11;
  plan.with_rate(sim::FaultKind::kConfigCrc, 0.1);
  serve::ServeOptions opt;
  opt.max_batch = 4;
  opt.cache_capacity = 2;
  const RunResult a = run_region_workload(1, opt, &plan);
  const RunResult b = run_region_workload(8, opt, &plan);
  EXPECT_EQ(a.schedule, b.schedule);
  EXPECT_EQ(a.records, b.records);
  EXPECT_EQ(a.report.served + a.report.failed, 30u);
}

}  // namespace
}  // namespace atlantis

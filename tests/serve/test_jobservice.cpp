// The serving layer's contracts: scheduler determinism across worker
// pools, replay-identical fault runs, batching economics, admission
// control, queue bookkeeping and graceful degradation.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
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
       << r.queue_wait() << '|' << util::error_code_name(r.error) << '|'
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
  service.register_config(hw::Bitstream{"alpha", {}, nullptr, {}});
  service.register_config(hw::Bitstream{"beta", {}, nullptr, {}});
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
  EXPECT_GT(one.report.switching.switches, 0u);
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
  EXPECT_LT(b.report.switching.full_reconfigs(),
            n.report.switching.full_reconfigs());
  EXPECT_LT(b.report.switching.switch_time, n.report.switching.switch_time);
  EXPECT_LT(b.report.makespan, n.report.makespan);
  const auto jobs_per_s = [](const serve::ServiceReport& r) {
    return static_cast<double>(r.served) / util::ps_to_s(r.makespan);
  };
  EXPECT_GT(jobs_per_s(b.report), jobs_per_s(n.report));
  EXPECT_GT(b.report.switching.hits + b.report.switching.misses, 0u);
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
  service.register_config(hw::Bitstream{"alpha", {}, nullptr, {}});
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
  service.register_config(hw::Bitstream{"alpha", {}, nullptr, {}});
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
  // Per-tenant quality comes from the ledger (each job's queue wait and
  // service span), and every wait is also on its tenant's own track.
  core::AtlantisSystem sys("crate");
  sys.add_acb("acb0");
  sys.add_acb("acb1");
  serve::JobService service(sys);
  service.register_config(hw::Bitstream{"alpha", {}, nullptr, {}});
  service.register_config(hw::Bitstream{"beta", {}, nullptr, {}});
  const char* const tenants[] = {"atlas", "cms", "lhcb"};
  for (int i = 0; i < 24; ++i) {
    (void)service
        .submit(custom_job(tenants[i % 3], i % 2 == 0 ? "alpha" : "beta", i,
                           i * util::kMicrosecond))
        .value();
  }
  EXPECT_EQ(service.run().served, 24u);
  std::map<std::string, std::vector<util::Picoseconds>> ledger;
  std::map<std::string, std::vector<util::Picoseconds>> traced;
  for (const serve::JobRecord& rec : service.jobs()) {
    EXPECT_GT(rec.finish - rec.start, 0);
    ledger["tenant/" + rec.tenant].push_back(rec.queue_wait());
  }
  const sim::Timeline& tl = sys.timeline();
  for (const sim::Transaction& t : tl.transactions()) {
    if (t.kind == sim::TxnKind::kQueueWait) {
      traced[tl.track_name(t.track)].push_back(t.duration());
    }
  }
  ASSERT_EQ(ledger.size(), 3u);
  EXPECT_EQ(traced.size(), 3u);
  for (auto& [track, waits] : ledger) {
    EXPECT_EQ(waits.size(), 8u) << track;
    std::sort(waits.begin(), waits.end());
    std::sort(traced[track].begin(), traced[track].end());
    EXPECT_EQ(traced[track], waits) << track;
  }
}

TEST(JobService, JobFailedBeforeItsResultAddsNoServiceTime) {
  // The first job's input DMA stalls on all four attempts, so it fails
  // after dispatch without a result; its ledger entry keeps the board
  // and the queue wait, but it has no finish and adds nothing to the
  // run's makespan.
  sim::FaultPlan plan;
  for (std::uint64_t nth = 1; nth <= 4; ++nth) {
    plan.inject(sim::FaultKind::kDmaStall, "pci/acb0", nth);
  }
  sim::FaultInjector injector(plan);
  core::AtlantisSystem sys("crate");
  sys.add_acb("acb0");
  sys.set_fault_injector(&injector);
  {
    serve::ServeOptions options;
    options.policy = serve::Policy::kPreemptive;
    serve::JobService service(sys, options);
    service.register_config(hw::Bitstream{"alpha", {}, nullptr, {}});
    for (int i = 0; i < 2; ++i) {
      (void)service.submit(custom_job("atlas", "alpha", i, 0)).value();
    }
    const serve::ServiceReport& rep = service.run();
    EXPECT_EQ(rep.failed, 1u);
    EXPECT_EQ(service.job(0).error, util::ErrorCode::kRetriesExhausted);
    const serve::JobRecord& failed = service.job(0);
    EXPECT_EQ(failed.board, 0);
    EXPECT_EQ(failed.finish, 0);
    const serve::JobRecord& served = service.job(1);
    ASSERT_EQ(served.error, util::ErrorCode::kOk);
    EXPECT_GT(served.start, failed.start);
    EXPECT_EQ(rep.makespan, served.finish);
  }
  sys.set_fault_injector(nullptr);
}

TEST(ConfigQueues, EmptiedQueuesStayInvisible) {
  // A drained queue stays in the map for the next wave; no query may
  // tell it from a queue that was never there.
  const auto ids = [](const serve::ConfigQueues& q) {
    std::vector<serve::JobId> out;
    q.for_each([&](serve::JobId id) { out.push_back(id); });
    return out;
  };
  const auto fill = [](serve::ConfigQueues& q) {
    q.push_back("b", 3);
    q.push_back("a", 1);
    q.push_back("b", 4);
    q.push_back("c", 2);
  };
  const auto same = [&ids](const serve::ConfigQueues& x,
                           const serve::ConfigQueues& y) {
    EXPECT_EQ(x.total(), y.total());
    EXPECT_EQ(x.empty(), y.empty());
    // The ids in (configuration, FIFO) order and each queue's depth
    // pin every (configuration, job) pair.
    EXPECT_EQ(ids(x), ids(y));
    EXPECT_EQ(x.pick_fifo(), y.pick_fifo());
    for (const char* config : {"", "a", "b", "c", "d"}) {
      EXPECT_EQ(x.depth(config), y.depth(config)) << config;
      EXPECT_EQ(x.pick(config), y.pick(config)) << config;
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
  EXPECT_TRUE(ids(reused).empty());
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
/// full 18.75 ms bitstream. With `regions` false the same five register
/// without signatures, and every cache miss is a full configuration.
RunResult run_region_workload(int pool_threads, serve::ServeOptions options,
                              const sim::FaultPlan* plan = nullptr,
                              bool regions = true) {
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
    hw::Bitstream bs{"cfg" + std::to_string(c), {}, nullptr, {}};
    if (regions) {
      bs.region_sigs = hw::make_region_signatures("shared_base", 32);
      hw::stamp_regions(bs.region_sigs, bs.name, 4 * c, 4 * c + 4);
    }
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
  serve::ServeOptions options;
  options.max_batch = 4;
  options.cache_capacity = 2;  // 5 configs through 2 slots: misses guaranteed

  const RunResult f = run_region_workload(1, options, nullptr,
                                          /*regions=*/false);
  const RunResult d = run_region_workload(1, options);

  // Same jobs, same boards, same outcomes — bit-identical results.
  EXPECT_EQ(f.results, d.results);
  EXPECT_EQ(f.report.served, 30u);
  EXPECT_EQ(d.report.served, 30u);
  EXPECT_EQ(f.report.failed, d.report.failed);

  // But the differential runs paid frames, not bitstreams.
  const core::SwitchCounters& fs = f.report.switching;
  const core::SwitchCounters& ds = d.report.switching;
  EXPECT_EQ(fs.partials, 0u);
  EXPECT_GT(ds.partials, 0u);
  EXPECT_GT(ds.regions, 0u);
  EXPECT_GT(ds.partial_time, 0);
  EXPECT_LE(ds.partial_time, ds.switch_time);
  EXPECT_LT(ds.switch_time, fs.switch_time);
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

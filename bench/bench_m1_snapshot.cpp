// M1 — the snapshot/restore layer: stream size, save/restore wall
// latency, bit-identical mid-stream restore under a fault plan, and
// what preemptive scheduling buys on a deadline-heavy mix.
//
// Part 1 freezes a two-board crate mid-serve — ledger, queues, per-job
// progress, per-board driver/switcher state, the timeline's scheduler
// state and the fault injector, all in one versioned stream — and
// restores it into an identically assembled twin. The twin must finish
// the run with a bit-identical schedule and ledger (that is the whole
// point of the layer: a restore is indistinguishable from never having
// paused). The stream carries no transaction log, so the twin's log
// starts at the restore point: it must equal the reference's from that
// transaction on, with identical whole-run resource stats and horizon.
//
// Part 2 runs the same staged workload — two 30 ms background jobs,
// then eight 100 us jobs under a 40 ms deadline — under the batched,
// abort/rerun and checkpoint/resume policies. Batching makes the
// deadline jobs wait out the background batch; abort/rerun holds the
// deadlines but re-pays the evicted compute; checkpoint/resume holds
// the deadlines at a strictly smaller makespan.
//
// The history rows save and restore a whole-service snapshot after 2k,
// 8k, 32k and 128k served jobs (500 and 2k under BENCH_SMOKE): the
// stream carries every ledger record, so its size grows with history,
// and save MB/s shows whether the cost per byte stays flat as it does.
// Each row splits out the "sim/timeline" and "serve/service" section
// payloads: the timeline's stays the same size, the service's (the
// ledger) grows. Writes BENCH_snapshot.json.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/system.hpp"
#include "serve/jobservice.hpp"
#include "sim/fault.hpp"
#include "sim/snapshot.hpp"
#include "sim/timeline.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

using namespace atlantis;

namespace {

/// The logged transactions numbered `first` and later.
std::string serialize(const sim::Timeline& tl, std::uint64_t first = 0) {
  std::ostringstream os;
  for (const sim::Transaction& t : tl.transactions()) {
    if (t.id < first) continue;
    os << t.id << '|' << sim::txn_kind_name(t.kind) << '|' << t.label << '|'
       << tl.track_name(t.track) << '|' << t.post << '|' << t.start << '|'
       << t.end << '|' << t.bytes << '\n';
  }
  return os.str();
}

/// A timeline restored from a snapshot taken after `k` posts replays
/// `want`: its log holds `want`'s transactions from id k on, and its
/// whole-run stats and horizon (which carry the history before k) match.
bool replays(const sim::Timeline& twin, const sim::Timeline& want,
             std::uint64_t k) {
  return serialize(twin) == serialize(want, k) &&
         twin.all_stats() == want.all_stats() &&
         twin.horizon() == want.horizon();
}

std::string serialize(const std::vector<serve::JobRecord>& records) {
  std::ostringstream os;
  for (const serve::JobRecord& r : records) {
    os << r.id << '|' << r.tenant << '|' << r.config << '|' << r.board << '|'
       << r.start << '|' << r.finish << '|' << r.preemptions << '|'
       << util::error_code_name(r.error) << '|' << r.outcome.checksum << '\n';
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

struct World {
  std::unique_ptr<sim::FaultInjector> injector;
  core::AtlantisSystem sys;
  std::unique_ptr<serve::JobService> service;

  World(serve::ServeOptions options, int boards, const sim::FaultPlan* plan)
      : sys("crate") {
    for (int i = 0; i < boards; ++i) sys.add_acb("acb" + std::to_string(i));
    if (plan != nullptr) {
      injector = std::make_unique<sim::FaultInjector>(*plan);
      sys.set_fault_injector(injector.get());
    }
    service = std::make_unique<serve::JobService>(sys, options);
    service->register_config(hw::Bitstream{"alpha", {}, nullptr, {}});
    service->register_config(hw::Bitstream{"beta", {}, nullptr, {}});
  }

  ~World() { sys.set_fault_injector(nullptr); }
};

void submit_serve_mix(serve::JobService& s, int jobs) {
  for (int i = 0; i < jobs; ++i) {
    const std::string tenant =
        i % 3 == 0 ? "atlas" : (i % 3 == 1 ? "cms" : "lhcb");
    const std::string config = (i % 2 == 0) ? "alpha" : "beta";
    (void)s.submit(
             make_job(tenant, config, i, (i % 5 + 1) * util::kMicrosecond))
        .value_or_throw();
  }
}

struct HistoryRow {
  int jobs = 0;
  std::size_t bytes = 0;
  std::size_t timeline_bytes = 0;  // "sim/timeline" payload
  std::size_t service_bytes = 0;   // "serve/service" payload
  double save_us = 0.0;
  double restore_us = 0.0;
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Whole-service snapshot after `jobs` served jobs: save, then open and
/// load into an identically submitted twin. Medians of five rounds.
HistoryRow measure_history(int jobs) {
  const serve::ServeOptions options;
  World served(options, 2, nullptr);
  submit_serve_mix(*served.service, jobs);
  served.service->run();
  World twin(options, 2, nullptr);
  submit_serve_mix(*twin.service, jobs);

  HistoryRow row;
  row.jobs = jobs;
  std::vector<double> save_us;
  std::vector<double> restore_us;
  for (int round = 0; round < 5; ++round) {
    const auto t0 = std::chrono::steady_clock::now();
    sim::SnapshotWriter w;
    served.service->save_state(w);
    std::vector<std::uint8_t> bytes = std::move(w).take();
    const auto t1 = std::chrono::steady_clock::now();
    row.bytes = bytes.size();
    auto opened = sim::SnapshotReader::open(std::move(bytes));
    if (!opened.ok()) {
      bench::expect(false, "history snapshot reopens");
      return row;
    }
    twin.service->load_state(opened.value());
    const auto t2 = std::chrono::steady_clock::now();
    opened.value().select("sim/timeline");
    row.timeline_bytes = opened.value().remaining();
    opened.value().select("serve/service");
    row.service_bytes = opened.value().remaining();
    save_us.push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
    restore_us.push_back(
        std::chrono::duration<double, std::micro>(t2 - t1).count());
  }
  row.save_us = median(save_us);
  row.restore_us = median(restore_us);
  return row;
}

struct PolicyCell {
  std::string name;
  double makespan_ms = 0.0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t preemptions = 0;
};

/// Two 30 ms background jobs dispatched first, then eight 100 us
/// deadline jobs land — the staging where scheduling policy decides
/// who makes their deadline.
PolicyCell run_policy(const std::string& name, serve::Policy policy) {
  serve::ServeOptions options;
  options.policy = policy;
  options.preempt_slice = util::kMillisecond;
  World world(options, 1, nullptr);
  for (int i = 0; i < 2; ++i) {
    (void)world.service
        ->submit(make_job("batch", "alpha", i, 30 * util::kMillisecond))
        .value_or_throw();
  }
  serve::RunOptions one_step;
  one_step.max_dispatches = 1;
  world.service->run(one_step);
  for (int i = 2; i < 10; ++i) {
    (void)world.service
        ->submit(make_job("rt", "alpha", i, 100 * util::kMicrosecond,
                          40 * util::kMillisecond))
        .value_or_throw();
  }
  world.service->run();
  PolicyCell cell;
  cell.name = name;
  util::Picoseconds last_finish = 0;
  for (const serve::JobRecord& rec : world.service->jobs()) {
    last_finish = std::max(last_finish, rec.finish);
    cell.preemptions += rec.preemptions;
    if (rec.deadline > 0 && rec.finish > rec.deadline) ++cell.deadline_misses;
  }
  cell.makespan_ms = util::ps_to_ms(last_finish);
  return cell;
}

}  // namespace

int main() {
  bench::banner("M1", "snapshot/restore: stream cost, bit-identical "
                      "mid-stream restore, preempt vs rerun");

  const int n_jobs = bench::smoke() ? 12 : 36;

  // --- part 1: freeze a fault-plan serve run mid-stream ----------------
  sim::FaultPlan plan;
  plan.seed = 20260808;
  plan.with_rate(sim::FaultKind::kDmaStall, 0.10);
  plan.inject(sim::FaultKind::kBoardDropout, "board/acb1", /*nth=*/2);
  serve::ServeOptions options;  // batched, the serving default

  World ref(options, 2, &plan);
  submit_serve_mix(*ref.service, n_jobs);
  ref.service->run();
  const std::string want_records = serialize(ref.service->jobs());

  World live(options, 2, &plan);
  submit_serve_mix(*live.service, n_jobs);
  serve::RunOptions three_steps;
  three_steps.max_dispatches = 3;
  live.service->run(three_steps);

  const auto save_begin = std::chrono::steady_clock::now();
  sim::SnapshotWriter w;
  live.service->save_state(w);
  const std::vector<std::uint8_t> bytes = w.bytes();
  const auto save_end = std::chrono::steady_clock::now();
  const std::uint64_t saved_posts = live.sys.timeline().transactions().size();

  World twin(options, 2, &plan);
  submit_serve_mix(*twin.service, n_jobs);
  const auto restore_begin = std::chrono::steady_clock::now();
  auto opened = sim::SnapshotReader::open(bytes);
  if (!opened.ok()) {
    std::printf("snapshot reopen failed: %s\n", opened.message().c_str());
    return 1;
  }
  twin.service->load_state(opened.value());
  const auto restore_end = std::chrono::steady_clock::now();
  twin.service->run();

  const double save_us =
      std::chrono::duration<double, std::micro>(save_end - save_begin).count();
  const double restore_us =
      std::chrono::duration<double, std::micro>(restore_end - restore_begin)
          .count();
  const bool identical =
      serialize(twin.service->jobs()) == want_records &&
      replays(twin.sys.timeline(), ref.sys.timeline(), saved_posts) &&
      twin.injector->log() == ref.injector->log();

  util::Table snap("mid-stream snapshot of a 2-board serve run (" +
                   std::to_string(n_jobs) + " jobs, fault plan active)");
  snap.set_header({"metric", "value"});
  snap.add_row({"stream size (bytes)", std::to_string(bytes.size())});
  snap.add_row({"save latency (us)", util::Table::fmt(save_us, 1)});
  snap.add_row({"restore latency (us)", util::Table::fmt(restore_us, 1)});
  snap.add_row({"restored replay", identical ? "bit-identical" : "DIVERGED"});
  snap.print();

  bench::expect(identical,
                "restored twin finishes with a bit-identical schedule, "
                "ledger and fault tail");
  bench::expect(bytes.size() > 0 && bytes.size() < (1u << 20),
                "snapshot stream is compact (under 1 MiB for this crate)");

  std::string warm_start_json;

  // --- part 1.5: instant warm start from a committed genesis snapshot --
  // A serve bench normally pays a warm-up before the measured region:
  // staging configurations, filling the LRU caches, running the first
  // scheduling steps. The snapshot layer makes that a one-time cost: a
  // "genesis" snapshot of the warmed-up crate is committed under
  // bench/data/, and every later run seeds from the file instead of
  // re-running the warm-up. The workload is fixed (36 jobs, no smoke
  // shrink) so one committed file serves every mode, and the stream is
  // deterministic, so staleness is plain byte inequality — a stale or
  // missing file is regenerated in place and the run continues.
  {
    constexpr int kWarmJobs = 36;
    const std::string warm_file = bench::data_path("warm_m1.snap");

    // The warm-up cost worth skipping is the *functional* work — the
    // pure job payloads (pattern banks, lookup tables, reference
    // results) evaluated while the crate warms. The snapshot carries
    // their outcomes in a few bytes each, so the warm path loads in
    // microseconds what the cold path recomputes in milliseconds.
    auto heavy_job = [](const std::string& tenant, const std::string& config,
                        int index) {
      serve::JobSpec job;
      job.tenant = tenant;
      job.kind = serve::JobKind::kCustom;
      job.config = config;
      job.work = [index] {
        std::uint64_t x =
            0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(index + 1);
        for (int i = 0; i < 200000; ++i) {  // a real table-build payload
          x ^= x >> 30;
          x *= 0xbf58476d1ce4e5b9ull;
          x ^= x >> 27;
        }
        serve::JobOutcome out;
        out.checksum = x;
        out.compute_time = util::kMicrosecond;
        out.dma_in_bytes = 1024;
        out.dma_out_bytes = 256;
        return out;
      };
      return job;
    };
    auto submit_warm_mix = [&heavy_job](serve::JobService& s) {
      for (int i = 0; i < kWarmJobs; ++i) {
        const std::string tenant =
            i % 3 == 0 ? "atlas" : (i % 3 == 1 ? "cms" : "lhcb");
        (void)s.submit(heavy_job(tenant, i % 2 == 0 ? "alpha" : "beta", i))
            .value_or_throw();
      }
    };

    // Cold: pay the warm-up (six scheduling steps, every payload
    // evaluated) for real.
    World cold(options, 2, &plan);
    submit_warm_mix(*cold.service);
    const auto cold_begin = std::chrono::steady_clock::now();
    serve::RunOptions six_steps;
    six_steps.max_dispatches = 6;
    cold.service->run(six_steps);
    const auto cold_end = std::chrono::steady_clock::now();
    sim::SnapshotWriter ww;
    cold.service->save_state(ww);
    const std::vector<std::uint8_t> genesis = ww.bytes();
    const std::uint64_t genesis_posts =
        cold.sys.timeline().transactions().size();

    bool regenerated = false;
    {
      const auto committed = bench::load_snapshot_file(warm_file);
      if (!committed.has_value() || *committed != genesis) {
        regenerated = true;
        if (!bench::save_snapshot_file(warm_file, genesis)) {
          std::printf("cannot write %s\n", warm_file.c_str());
          return 1;
        }
      }
    }

    // Warm: seed an identically assembled crate from the file.
    const auto file_bytes = bench::load_snapshot_file(warm_file);
    World warm(options, 2, &plan);
    submit_warm_mix(*warm.service);
    const auto warm_begin = std::chrono::steady_clock::now();
    auto warm_opened = sim::SnapshotReader::open(*file_bytes);
    if (!warm_opened.ok()) {
      std::printf("warm snapshot reopen failed: %s\n",
                  warm_opened.message().c_str());
      return 1;
    }
    warm.service->load_state(warm_opened.value());
    const auto warm_end = std::chrono::steady_clock::now();

    const double cold_us =
        std::chrono::duration<double, std::micro>(cold_end - cold_begin)
            .count();
    const double warm_us =
        std::chrono::duration<double, std::micro>(warm_end - warm_begin)
            .count();

    // The warm crate must be indistinguishable from the cold one.
    cold.service->run();
    warm.service->run();
    const bool warm_identical =
        serialize(warm.service->jobs()) == serialize(cold.service->jobs()) &&
        replays(warm.sys.timeline(), cold.sys.timeline(), genesis_posts);

    util::Table wt("instant warm start: committed genesis snapshot vs "
                   "re-running the warm-up (36 jobs, 6 steps)");
    wt.set_header({"metric", "value"});
    wt.add_row({"cold warm-up (us)", util::Table::fmt(cold_us, 1)});
    wt.add_row({"warm seed from file (us)", util::Table::fmt(warm_us, 1)});
    wt.add_row({"speedup", util::Table::fmt(cold_us / warm_us, 1) + "x"});
    wt.add_row({"genesis file", regenerated ? "regenerated" : "committed"});
    wt.add_row(
        {"warm continuation", warm_identical ? "bit-identical" : "DIVERGED"});
    wt.print();

    bench::expect(warm_identical,
                  "warm-started crate finishes bit-identically to the "
                  "cold one");
    if (!bench::smoke()) {
      bench::expect(warm_us < cold_us,
                    "seeding from the genesis file beats re-running the "
                    "warm-up");
    }
    warm_start_json = ",\n  \"warm_start\": {\"jobs\": 36"
                      ",\n    \"cold_setup_us\": " + std::to_string(cold_us) +
                      ",\n    \"warm_setup_us\": " + std::to_string(warm_us) +
                      ",\n    \"genesis_bytes\": " +
                      std::to_string(genesis.size()) +
                      ",\n    \"regenerated\": " +
                      (regenerated ? "true" : "false") +
                      ",\n    \"identical\": " +
                      (warm_identical ? "true" : "false") + "}";
  }

  // --- part 1.75: snapshot cost against served history ----------------
  const std::vector<int> history_jobs =
      bench::smoke() ? std::vector<int>{500, 2000}
                     : std::vector<int>{2000, 8000, 32000, 128000};
  std::vector<HistoryRow> history;
  for (const int jobs : history_jobs) history.push_back(measure_history(jobs));

  util::Table ht("whole-service snapshot vs served history (2-board crate, "
                 "median of 5)");
  ht.set_header({"jobs served", "stream (bytes)", "timeline (bytes)",
                 "service (bytes)", "save (us)", "restore (us)",
                 "save MB/s"});
  std::string history_json = ",\n  \"history\": [";
  for (std::size_t i = 0; i < history.size(); ++i) {
    const HistoryRow& h = history[i];
    const double mb_per_s = static_cast<double>(h.bytes) / h.save_us;
    ht.add_row({std::to_string(h.jobs), std::to_string(h.bytes),
                std::to_string(h.timeline_bytes),
                std::to_string(h.service_bytes),
                util::Table::fmt(h.save_us, 1),
                util::Table::fmt(h.restore_us, 1),
                util::Table::fmt(mb_per_s, 0)});
    history_json += std::string(i == 0 ? "" : ",") + "\n    {\"jobs\": " +
                    std::to_string(h.jobs) +
                    ", \"bytes\": " + std::to_string(h.bytes) +
                    ", \"timeline_bytes\": " +
                    std::to_string(h.timeline_bytes) +
                    ", \"service_bytes\": " +
                    std::to_string(h.service_bytes) +
                    ", \"save_us\": " + std::to_string(h.save_us) +
                    ", \"restore_us\": " + std::to_string(h.restore_us) +
                    ", \"save_mb_per_s\": " + std::to_string(mb_per_s) + "}";
  }
  history_json += "\n  ]";
  ht.print();

  // --- part 2: scheduling policies on the deadline mix -----------------
  const PolicyCell batched = run_policy("batched", serve::Policy::kBatched);
  const PolicyCell rerun =
      run_policy("abort+rerun", serve::Policy::kAbortRerun);
  const PolicyCell resume =
      run_policy("checkpoint+resume", serve::Policy::kPreemptive);

  util::Table pol("deadline mix: 2x30 ms background + 8x100 us @ 40 ms "
                  "deadline, 1 board");
  pol.set_header({"policy", "makespan (ms)", "deadline misses",
                  "preemptions"});
  for (const PolicyCell* c : {&batched, &rerun, &resume}) {
    pol.add_row({c->name, util::Table::fmt(c->makespan_ms, 2),
                 std::to_string(c->deadline_misses),
                 std::to_string(c->preemptions)});
  }
  pol.print();

  bench::expect(batched.deadline_misses == 8,
                "the batched drain misses every deadline behind the "
                "background batch");
  bench::expect(resume.deadline_misses == 0 && rerun.deadline_misses == 0,
                "both preemptive policies hold every deadline");
  bench::expect(resume.preemptions > 0,
                "the deadline jobs actually preempted the background work");
  bench::expect(resume.makespan_ms < rerun.makespan_ms,
                "checkpoint/resume beats abort/rerun on makespan "
                "(preempted compute is not re-paid)");

  // --- artifact --------------------------------------------------------
  std::ofstream json("BENCH_snapshot.json");
  json << "{\n  \"jobs\": " << n_jobs
       << ",\n  \"snapshot_bytes\": " << bytes.size()
       << ",\n  \"save_us\": " << save_us
       << ",\n  \"restore_us\": " << restore_us
       << ",\n  \"restore_identical\": " << (identical ? "true" : "false")
       << warm_start_json << history_json << ",\n  \"policies\": [";
  bool first = true;
  for (const PolicyCell* c : {&batched, &rerun, &resume}) {
    json << (first ? "" : ",") << "\n    {\"policy\": \"" << c->name
         << "\", \"makespan_ms\": " << c->makespan_ms
         << ", \"deadline_misses\": " << c->deadline_misses
         << ", \"preemptions\": " << c->preemptions << "}";
    first = false;
  }
  json << "\n  ]\n}\n";
  json.close();
  std::printf("\nwrote BENCH_snapshot.json\n");

  return bench::finish();
}

// C1 — cluster-scale serving: one front-end API sharding a synthetic
// million-user tenant population across a simulated fleet of ATLANTIS
// crates.
//
// An open-loop load generator replays the same request stream — drawn
// from a 1,000,000-user population with deterministic exponential
// inter-arrivals — against four serving topologies at equal offered
// load:
//
//   single_shard          one crate absorbs the whole stream (the
//                         scale-up ceiling the fleet is measured from);
//   random                four crates, cache-oblivious deterministic
//                         spray placement;
//   consistent_hash       four crates, configuration-keyed ring
//                         placement (serve/placement.hpp): every
//                         configuration lives on one shard, so its
//                         bitstream stays staged in that shard's
//                         per-board LRU caches and differential
//                         reconfiguration sees mostly-warm regions;
//   consistent_hash_qos   ring placement plus the front-end's QoS
//                         gates: weighted-fair tenant shares, deadline
//                         admission and bounded per-shard queues with
//                         shed/retry verdicts.
//
// Reported per policy: p50/p99/p999 request sojourn (arrival -> result
// DMA complete, modelled time), throughput, cache hit rate and
// reconfiguration traffic, plus the schedule digest. The digest is the
// determinism gate: the consistent_hash row is re-run under worker
// pools of 1, 2 and 4 threads and must produce the identical digest
// (the cluster schedule is a function of the request stream, never of
// host parallelism). Those re-runs also record host time per served job
// (submit plus run, wall clock) for each pool: the shards drain
// concurrently, one pool task per shard.
//
// Shape expectations (CI guards read them from BENCH_cluster.json):
// consistent_hash p99 < random p99, and sharded p99 < single_shard p99
// at the same offered load.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "serve/cluster.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/units.hpp"
#include "util/worker_pool.hpp"

using namespace atlantis;

namespace {

constexpr std::uint64_t kUsers = 1'000'000;  // synthetic user population
constexpr int kRegions = 32;                 // ORCA 3T125 config regions
constexpr int kShards = 4;
constexpr int kConfigs = 3 * kShards;  // ~3 resident configs per shard
constexpr int kTenants = 6;

/// One request of the open-loop stream, fully determined by the seed.
struct Request {
  std::uint64_t user = 0;
  int tenant = 0;
  int config = 0;
  util::Picoseconds arrival = 0;
  util::Picoseconds deadline = 0;  // only honoured by the QoS row
};

/// The kConfigs bitstreams share a base and stamp disjoint region
/// windows, so differential reconfiguration moves a few frames per
/// switch — IF the switch target was recently resident on that board.
std::vector<hw::Bitstream> make_configs() {
  const auto base = hw::make_region_signatures("cluster_base", kRegions);
  std::vector<hw::Bitstream> configs;
  for (int c = 0; c < kConfigs; ++c) {
    hw::Bitstream bs;
    // This model population happens to split 3/3/3/3 over the 4-shard
    // ring, so the consistent-hash rows measure placement affinity
    // itself rather than small-population ownership luck (12 keys on a
    // ring are inherently lumpy; a real fleet would rebalance or add
    // shards when ownership skews).
    bs.name = "model" + std::to_string(c);
    bs.region_sigs = base;
    // Wide tenant cores (10 of 32 regions): two different configs
    // disagree on most of their stamped windows, so a cache miss costs
    // a double-digit-region differential load (~6 ms on the modelled
    // ORCA config port) while a cache hit costs nothing — the economics
    // that placement affinity is supposed to exploit.
    const int from = (c * 7) % (kRegions - 10);
    hw::stamp_regions(bs.region_sigs, "tenant_core" + std::to_string(c),
                      from, from + 9);
    configs.push_back(bs);
  }
  return configs;
}

/// The deterministic open-loop stream: `n` requests over the
/// million-user population, exponential inter-arrivals at `offered_rps`
/// (modelled requests per second).
std::vector<Request> make_stream(int n, double offered_rps) {
  std::vector<Request> stream;
  stream.reserve(static_cast<std::size_t>(n));
  util::Rng rng(0xC1C1C1C1ull);
  const double mean_gap_ps =
      static_cast<double>(util::kSecond) / offered_rps;
  double clock = 0.0;
  for (int i = 0; i < n; ++i) {
    Request r;
    r.user = rng.next_u64() % kUsers;
    // Users stick to their tenant and their tenant's configurations —
    // the locality the configuration-keyed ring exploits.
    r.tenant = static_cast<int>(r.user % kTenants);
    r.config = static_cast<int>(r.user % kConfigs);
    clock += -mean_gap_ps * std::log(rng.uniform(1e-12, 1.0));
    r.arrival = static_cast<util::Picoseconds>(clock);
    // A third of the traffic is latency-sensitive (the QoS row's
    // deadline admission bites on these).
    if (r.user % 3 == 0) r.deadline = r.arrival + 400 * util::kMillisecond;
    stream.push_back(r);
  }
  return stream;
}

serve::JobSpec to_job(const Request& r, bool with_deadline) {
  serve::JobSpec job;
  job.tenant = "tenant" + std::to_string(r.tenant);
  job.kind = serve::JobKind::kCustom;
  job.config = "model" + std::to_string(r.config);
  job.arrival = r.arrival;
  if (with_deadline) job.deadline = r.deadline;
  const std::uint64_t user = r.user;
  job.work = [user] {
    serve::JobOutcome out;
    out.checksum = 0x9e3779b97f4a7c15ull * (user + 1);
    // Draw cost from high bits of the user id: the config id comes from
    // the low bits (user % kConfigs), and taking both from the same
    // residue class would give each configuration a fixed compute class
    // — silently skewing per-config work 4x and turning the placement
    // comparison into a load-imbalance measurement.
    out.compute_time = ((user >> 9) % 4 + 1) * 500 * util::kMicrosecond;
    out.dma_in_bytes = 4096 + ((user >> 11) % 8) * 1024;
    out.dma_out_bytes = 512;
    return out;
  };
  return job;
}

struct ClusterCell {
  std::string name;
  int shards = 0;
  std::uint64_t served = 0;
  std::uint64_t failed = 0;
  std::uint64_t rejected = 0;  // QoS/SLO admission refusals
  std::uint64_t shed = 0;      // bounded-queue overload
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  double jobs_per_s = 0.0;
  double hit_rate = 0.0;
  std::uint64_t full_reconfigs = 0;
  std::uint64_t partial_reconfigs = 0;
  double makespan_ms = 0.0;
  std::uint64_t schedule_digest = 0;
  std::uint64_t func_digest = 0;
  double host_ns_per_job = 0.0;  // wall clock of submit + run, per served job
};

/// Replays the stream in `waves` submission bursts (run() drains the
/// fleet between bursts — the cadence that makes cache residency
/// matter), then reduces the cluster ledger into one row.
ClusterCell run_cell(const std::string& name, int shards,
                     serve::PlacementPolicy placement, bool qos,
                     const std::vector<Request>& stream, int waves,
                     util::WorkerPool* pool = nullptr) {
  const std::size_t per_wave = (stream.size() + waves - 1) / waves;
  serve::ClusterOptions options;
  options.boards_per_shard = 2;
  options.placement = placement;
  if (qos) {
    options.max_pending_per_shard = per_wave / 4 + 8;
    options.max_placement_attempts = 2;
    options.slo_admission = true;
    options.fair_admission = true;
    // The heaviest tenant is deliberately under-weighted, like a free
    // tier sharing the fleet with paying SLO tenants.
    options.tenant_weights["tenant0"] = 0.25;
  } else {
    // Bounded-load placement: each shard holds at most ~1.25x its fair
    // share of a wave and the attempts walk spans the whole fleet, so a
    // hot ring owner spills its excess to that configuration's (fixed)
    // successor instead of queueing it — nothing is ever shed, and the
    // single-shard row degenerates to one unbounded queue.
    options.max_pending_per_shard =
        shards == 1 ? per_wave + 8
                    : (per_wave * 5) / (4 * static_cast<std::size_t>(shards)) + 1;
    options.max_placement_attempts = shards;
    options.slo_admission = false;
    options.fair_admission = false;
  }
  serve::Cluster cluster(options);
  for (int s = 0; s < shards; ++s) cluster.add_shard();
  for (const hw::Bitstream& bs : make_configs()) cluster.register_config(bs);

  serve::RunOptions run_options;
  run_options.pool = pool;
  const auto t0 = std::chrono::steady_clock::now();
  for (int w = 0; w < waves; ++w) {
    const std::size_t lo = static_cast<std::size_t>(w) * per_wave;
    const std::size_t hi = std::min(stream.size(), lo + per_wave);
    for (std::size_t i = lo; i < hi; ++i) {
      (void)cluster.submit(to_job(stream[i], qos));
    }
    cluster.run(run_options);
  }
  const double host_ns = std::chrono::duration<double, std::nano>(
                             std::chrono::steady_clock::now() - t0)
                             .count();

  if (std::getenv("C1_DEBUG") != nullptr) {
    std::map<std::pair<int, int>, int> slow;  // (wave, shard) -> count
    for (const serve::ClusterRecord& rec : cluster.jobs()) {
      const serve::JobRecord& jr = cluster.shard_record(rec.id);
      const util::Picoseconds soj =
          std::max(jr.finish - jr.arrival, jr.finish - jr.start);
      if (jr.error == util::ErrorCode::kOk && jr.finish > 0 &&
          soj > 500 * util::kMillisecond) {
        ++slow[{static_cast<int>(rec.id / per_wave), rec.shard}];
      }
    }
    std::printf("[debug %s] slow jobs (>500ms) by (wave, shard):\n",
                name.c_str());
    for (const auto& [key, n] : slow) {
      std::printf("  wave %3d shard %d: %d\n", key.first, key.second, n);
    }
  }

  ClusterCell cell;
  cell.name = name;
  cell.shards = shards;
  util::LogHistogram latency;
  util::Picoseconds makespan = 0;
  for (const serve::ClusterRecord& rec : cluster.jobs()) {
    const serve::JobRecord& jr = cluster.shard_record(rec.id);
    if (jr.error == util::ErrorCode::kOk && jr.finish > 0) {
      ++cell.served;
      latency.add(static_cast<double>(
          std::max(jr.finish - jr.arrival, jr.finish - jr.start)));
      makespan = std::max(makespan, jr.finish);
    } else if (jr.error != util::ErrorCode::kOk) {
      ++cell.failed;
    }
  }
  for (const util::ErrorCode code : cluster.refusals()) {
    if (code == util::ErrorCode::kShardOverload) {
      ++cell.shed;
    } else {
      ++cell.rejected;
    }
  }
  cell.p50_ms = util::ps_to_ms(static_cast<util::Picoseconds>(
      latency.quantile(0.50)));
  cell.p99_ms = util::ps_to_ms(static_cast<util::Picoseconds>(
      latency.quantile(0.99)));
  cell.p999_ms = util::ps_to_ms(static_cast<util::Picoseconds>(
      latency.quantile(0.999)));
  cell.makespan_ms = util::ps_to_ms(makespan);
  cell.jobs_per_s = makespan > 0 ? static_cast<double>(cell.served) /
                                       util::ps_to_s(makespan)
                                 : 0.0;
  // Fleet-wide reconfiguration economics over the whole replay.
  core::SwitchCounters fleet;
  for (int s = 0; s < shards; ++s) {
    if (cluster.shard_retired(s)) continue;
    fleet += cluster.service(s).switch_counters();
  }
  cell.hit_rate = fleet.hit_rate();
  cell.full_reconfigs = fleet.full_reconfigs();
  cell.partial_reconfigs = fleet.partials;
  cell.schedule_digest = cluster.schedule_digest();
  cell.func_digest = cluster.functional_digest();
  cell.host_ns_per_job =
      cell.served > 0 ? host_ns / static_cast<double>(cell.served) : 0.0;
  return cell;
}

}  // namespace

int main() {
  bench::banner("C1", "cluster-scale serving over a sharded fleet");

  const bool smoke = bench::smoke();
  const int n_requests = smoke ? 2'400 : 24'000;
  // Fixed wave geometry: the full run replays more waves, not bigger
  // ones, so smoke and full runs see the same per-wave queue dynamics.
  const int waves = n_requests / 300;
  // Offered load near the cache-oblivious fleet's effective capacity:
  // random placement burns ~1/3 of board time on reconfiguration, so at
  // this rate its queues compound while affine placement cruises.
  const double offered_rps = 3000.0;
  const std::vector<Request> stream = make_stream(n_requests, offered_rps);

  std::printf("\n%d requests from a %llu-user population, %.0f req/s "
              "offered, %d waves%s\n",
              n_requests, static_cast<unsigned long long>(kUsers),
              offered_rps, waves, smoke ? " (smoke)" : "");

  const ClusterCell single =
      run_cell("single_shard", 1, serve::PlacementPolicy::kConsistentHash,
               /*qos=*/false, stream, waves);
  const ClusterCell random =
      run_cell("random", kShards, serve::PlacementPolicy::kRandom,
               /*qos=*/false, stream, waves);
  const ClusterCell hashed =
      run_cell("consistent_hash", kShards,
               serve::PlacementPolicy::kConsistentHash, /*qos=*/false,
               stream, waves);
  const ClusterCell qos =
      run_cell("consistent_hash_qos", kShards,
               serve::PlacementPolicy::kConsistentHash, /*qos=*/true,
               stream, waves);

  // Determinism: the fleet schedule may not depend on host parallelism.
  // Host time is recorded per pool, never asserted (wall clock on a
  // shared host is too noisy for a gate).
  bool pool_identical = true;
  std::vector<std::pair<int, double>> pool_sweep;  // threads, host ns/job
  for (const int threads : {1, 2, 4}) {
    util::WorkerPool pool(threads);
    const ClusterCell again =
        run_cell("consistent_hash", kShards,
                 serve::PlacementPolicy::kConsistentHash, /*qos=*/false,
                 stream, waves, &pool);
    pool_identical =
        pool_identical && again.schedule_digest == hashed.schedule_digest;
    pool_sweep.emplace_back(threads, again.host_ns_per_job);
  }

  util::Table table("cluster policies at equal offered load");
  table.set_header({"policy", "shards", "served", "refused", "p50 ms",
                    "p99 ms", "p999 ms", "jobs/s", "hit rate", "full rc",
                    "part rc"});
  for (const ClusterCell* c : {&single, &random, &hashed, &qos}) {
    table.add_row(
        {c->name, std::to_string(c->shards), std::to_string(c->served),
         std::to_string(c->rejected + c->shed),
         util::Table::fmt(c->p50_ms, 2), util::Table::fmt(c->p99_ms, 2),
         util::Table::fmt(c->p999_ms, 2), util::Table::fmt(c->jobs_per_s, 1),
         util::Table::fmt(c->hit_rate, 3), std::to_string(c->full_reconfigs),
         std::to_string(c->partial_reconfigs)});
  }
  table.print();

  util::Table host("consistent_hash host time by worker pool (shards drain "
                   "concurrently)");
  host.set_header({"pool threads", "host ns/job", "vs pool 1"});
  for (const auto& [threads, ns] : pool_sweep) {
    host.add_row({std::to_string(threads), util::Table::fmt(ns, 0),
                  util::Table::fmt(pool_sweep.front().second / ns, 2) + "x"});
  }
  host.print();

  bench::expect(pool_identical,
                "cluster schedule bit-identical across worker pools 1/2/4");
  bench::expect(hashed.func_digest == random.func_digest,
                "placement policy moves jobs, never answers");
  bench::expect(hashed.p99_ms < random.p99_ms,
                "consistent-hash placement beats random on p99");
  bench::expect(hashed.hit_rate > random.hit_rate,
                "configuration affinity raises the fleet cache hit rate");
  bench::expect(hashed.p99_ms < single.p99_ms,
                "sharding beats the single-crate ceiling on p99");
  bench::expect(single.served == hashed.served &&
                    random.served == hashed.served,
                "placement-only rows admit the full stream");
  bench::expect(qos.rejected + qos.shed > 0,
                "the QoS row sheds or rejects under pressure");

  std::ofstream json("BENCH_cluster.json");
  json << "{\n  \"users\": " << kUsers
       << ",\n  \"requests\": " << n_requests
       << ",\n  \"offered_rps\": " << offered_rps
       << ",\n  \"waves\": " << waves
       << ",\n  \"pool_identical\": " << (pool_identical ? "true" : "false")
       << ",\n  \"rows\": [";
  bool first = true;
  for (const ClusterCell* c : {&single, &random, &hashed, &qos}) {
    json << (first ? "" : ",") << "\n    {\"policy\": \"" << c->name
         << "\", \"shards\": " << c->shards << ", \"served\": " << c->served
         << ", \"failed\": " << c->failed << ", \"rejected\": " << c->rejected
         << ", \"shed\": " << c->shed << ", \"p50_ms\": " << c->p50_ms
         << ", \"p99_ms\": " << c->p99_ms << ", \"p999_ms\": " << c->p999_ms
         << ", \"jobs_per_s\": " << c->jobs_per_s
         << ", \"cache_hit_rate\": " << c->hit_rate
         << ", \"full_reconfigs\": " << c->full_reconfigs
         << ", \"partial_reconfigs\": " << c->partial_reconfigs
         << ", \"makespan_ms\": " << c->makespan_ms
         << ", \"schedule_digest\": " << c->schedule_digest
         << ", \"func_digest\": " << c->func_digest << "}";
    first = false;
  }
  json << "\n  ],\n  \"pool_sweep\": [";
  for (std::size_t i = 0; i < pool_sweep.size(); ++i) {
    json << (i != 0 ? ", " : "") << "{\"threads\": " << pool_sweep[i].first
         << ", \"host_ns_per_job\": " << pool_sweep[i].second << "}";
  }
  json << "]\n}\n";
  json.close();
  std::printf("\nwrote BENCH_cluster.json\n");

  return bench::finish();
}

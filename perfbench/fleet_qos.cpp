// fleet_qos: a serve::Cluster of 4 shards x 2 boards with every QoS gate
// on, fed an open-loop stream from a million-user population.
//
// Nearly all host time goes to the serving stack itself — admission,
// placement, scheduling, timeline posts and the pool handoff — because
// the work functor is trivial: it derives its result and modelled cost
// from the user id.
#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "serve/cluster.hpp"
#include "serve_stats.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "util/worker_pool.hpp"

namespace perfbench {
namespace {

using namespace atlantis;

constexpr std::uint64_t kUsers = 1'000'000;
constexpr int kShards = 4;
constexpr int kConfigs = 12;
constexpr int kTenants = 6;
constexpr int kRegions = 32;
constexpr int kRequests = 96'000;
constexpr int kWave = 300;
constexpr double kOfferedRps = 3000.0;
constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ull;

struct Request {
  std::uint64_t user = 0;
  std::string tenant;
  std::string config;
  util::Picoseconds arrival = 0;
  util::Picoseconds deadline = 0;  // 0 = none
};

std::uint64_t expected_checksum(std::uint64_t user) { return kGolden * (user + 1); }

class FleetQos : public Workload {
 public:
  explicit FleetQos(std::uint64_t seed) {
    util::Rng rng(seed);
    const double mean_gap_ps = static_cast<double>(util::kSecond) / kOfferedRps;
    double clock = 0.0;
    stream_.reserve(kRequests);
    for (int i = 0; i < kRequests; ++i) {
      Request r;
      r.user = rng.next_u64() % kUsers;
      r.tenant = "tenant" + std::to_string(r.user % kTenants);
      r.config = "model" + std::to_string(r.user % kConfigs);
      clock += -mean_gap_ps * std::log(rng.uniform(1e-12, 1.0));
      r.arrival = static_cast<util::Picoseconds>(clock);
      // A third of the requests are latency-sensitive.
      if (r.user % 3 == 0) r.deadline = r.arrival + 400 * util::kMillisecond;
      stream_.push_back(std::move(r));
    }
    // Twelve region-signed configurations sharing a base: a cache miss
    // costs a double-digit-region differential load, a hit costs nothing.
    const auto base = hw::make_region_signatures("cluster_base", kRegions);
    for (int c = 0; c < kConfigs; ++c) {
      hw::Bitstream bs;
      bs.name = "model" + std::to_string(c);
      bs.region_sigs = base;
      const int from = (c * 7) % (kRegions - 10);
      hw::stamp_regions(bs.region_sigs, "tenant_core" + std::to_string(c), from, from + 9);
      configs_.push_back(std::move(bs));
    }
  }

  Pass run_pass(Tracer* tracer) override {
    Pass pass;
    const std::unique_ptr<serve::Cluster> built = repeated_setup(
        [&] {
          serve::ClusterOptions options;
          options.boards_per_shard = 2;
          options.max_pending_per_shard = kWave / 4 + 8;
          options.max_placement_attempts = 2;
          options.slo_admission = true;
          options.fair_admission = true;
          options.tenant_weights["tenant0"] = 0.25;  // the under-weighted tenant
          auto c = std::make_unique<serve::Cluster>(options);
          for (int s = 0; s < kShards; ++s) c->add_shard();
          for (const hw::Bitstream& bs : configs_) c->register_config(bs);
          return c;
        },
        pass.setup_s);
    serve::Cluster& cluster = *built;

    // Which request each admitted cluster job came from (checks only).
    std::vector<std::size_t> request_of;
    request_of.reserve(stream_.size());
    std::uint64_t rejected = 0, shed = 0, overflowed = 0;
    util::WorkerPool::shared().reset_worker_stats();
    const Clock::time_point t1 = Clock::now();
    for (std::size_t lo = 0; lo < stream_.size(); lo += kWave) {
      const std::size_t hi = std::min(stream_.size(), lo + kWave);
      for (std::size_t i = lo; i < hi; ++i) {
        const Request& r = stream_[i];
        serve::JobSpec job;
        job.tenant = r.tenant;
        job.kind = serve::JobKind::kCustom;
        job.config = r.config;
        job.arrival = r.arrival;
        job.deadline = r.deadline;
        const std::uint64_t user = r.user;
        auto work = [user] {
          serve::JobOutcome out;
          out.checksum = expected_checksum(user);
          // Cost from the high bits of the user id: the configuration
          // comes from the low bits, so cost and configuration stay
          // uncorrelated. Uniform 0.5-2 ms in 1 us steps, so the sojourn
          // quantiles move with the seed instead of sitting on a few
          // discrete service times.
          out.compute_time = static_cast<util::Picoseconds>(500 + (user >> 9) % 1501) *
                             util::kMicrosecond;
          out.dma_in_bytes = 4096 + ((user >> 11) % 8) * 1024;
          out.dma_out_bytes = 512;
          return out;
        };
        if (tracer != nullptr) {
          job.work = traced_work(tracer, "serve.work", i + 1, std::move(work));
        } else {
          job.work = std::move(work);
        }
        util::Result<serve::JobId> id = [&] {
          Scope span(tracer, "serve.cluster.submit", i + 1);
          return cluster.submit(std::move(job));
        }();
        if (id.ok()) request_of.push_back(i);
      }
      Scope span(tracer, "serve.cluster.run");
      const serve::ClusterReport& rep = cluster.run();
      rejected += rep.rejected_admission;
      shed += rep.shed_overload;
      overflowed += rep.overflowed;
    }
    pass.work_s = seconds_since(t1);
    add_pool_stats(pass.host, pass.work_s);

    std::vector<std::uint8_t> snapshot;
    {
      Scope span(tracer, "sim.snapshot.save");
      pass.save_ms = timed_saves(cluster, snapshot);
    }
    pass.model["snapshot_mb"] = {static_cast<double>(snapshot.size()) / 1e6, "MB"};

    // Output checks: every served job carries the checksum recomputed
    // from its user id, and the cluster's order-independent functional
    // digest equals the digest recomputed the same way.
    LedgerSummary ledger;
    std::uint64_t expected_digest = 0;
    std::uint64_t deadline_submitted = 0;
    for (const Request& r : stream_) deadline_submitted += r.deadline > 0 ? 1 : 0;
    for (const serve::ClusterRecord& rec : cluster.jobs()) {
      const serve::JobRecord& jr = cluster.shard_record(rec.id);
      const Request& r = stream_[request_of.at(rec.id)];
      ledger.add(jr);
      if (jr.error != util::ErrorCode::kOk) {
        ++pass.failed_checks;  // admitted jobs must all be served
        continue;
      }
      if (jr.outcome.checksum != expected_checksum(r.user)) ++pass.failed_checks;
      Fnv one;
      one.mix(r.tenant);
      one.mix(r.config);
      one.mix(expected_checksum(r.user));
      expected_digest += one.h;
    }
    if (cluster.functional_digest() != expected_digest) ++pass.failed_checks;

    pass.submitted = stream_.size();
    pass.served = ledger.served;
    add_model_metrics(pass, std::move(ledger), pass.submitted, deadline_submitted);

    std::vector<serve::JobService*> services;
    for (int s = 0; s < kShards; ++s) services.push_back(&cluster.service(s));
    add_service_counts(pass.counts, services);
    pass.counts["serve.ledger.records"].value += static_cast<double>(cluster.jobs().size());
    pass.counts["serve.cluster.rejected"] = {static_cast<double>(rejected), "count"};
    pass.counts["serve.cluster.shed"] = {static_cast<double>(shed), "count"};
    pass.counts["serve.cluster.overflowed"] = {static_cast<double>(overflowed), "count"};
    pass.counts["sim.snapshot.bytes_per_job"] = {
        static_cast<double>(snapshot.size()) / static_cast<double>(cluster.jobs().size()), "B"};

    Fnv digest;
    digest.mix(cluster.schedule_digest());
    digest.mix(cluster.functional_digest());
    pass.model_digest = digest.h;

    if (tracer != nullptr) {
      std::vector<double> sorted = tracer->durations_us("serve.cluster.submit");
      std::sort(sorted.begin(), sorted.end());
      pass.host["serve.cluster.submit_us_p50"] = {quantile_sorted(sorted, 0.50), "us"};
      pass.host["serve.cluster.submit_us_p99"] = {quantile_sorted(sorted, 0.99), "us"};
      pass.host["serve.cluster.run_self_ms"] = {tracer->self_ms("serve.cluster.run"), "ms"};
      pass.host["serve.work_us"] = {
          tracer->total_ms("serve.work") * 1e3 /
              static_cast<double>(std::max<std::uint64_t>(1, tracer->count("serve.work"))),
          "us"};
    }
    return pass;
  }

 private:
  std::vector<Request> stream_;
  std::vector<hw::Bitstream> configs_;
};

}  // namespace

std::unique_ptr<Workload> make_fleet_qos(std::uint64_t seed) {
  return std::make_unique<FleetQos>(seed);
}

}  // namespace perfbench

#include "serve/cluster.hpp"

#include <algorithm>

#include "util/stats.hpp"
#include "util/worker_pool.hpp"

namespace atlantis::serve {

namespace {

/// FNV-1a accumulator shared by the two cluster digests.
struct Fnv {
  std::uint64_t h = 14695981039346656037ull;
  void mix(std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  }
  void mix(const std::string& s) {
    for (const char c : s) {
      mix(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
    }
  }
};

/// True once the shard-side ledger entry reached a terminal state.
bool job_done(const JobRecord& rec) {
  return rec.finish > 0 || rec.error != util::ErrorCode::kOk;
}

}  // namespace

Cluster::Cluster(ClusterOptions options)
    : options_(std::move(options)) {
  ATLANTIS_CHECK(options_.boards_per_shard >= 1,
                 "a shard needs at least one computing board");
  ATLANTIS_CHECK(options_.max_placement_attempts >= 1,
                 "placement needs at least one attempt");
  ATLANTIS_CHECK(options_.max_pending_per_shard >= 1,
                 "a shard's bounded queue needs room for at least one job");
}

int Cluster::add_shard() {
  const int id = static_cast<int>(shards_.size());
  Shard shard;
  shard.name = "cluster/shard" + std::to_string(id);
  shard.system = core::assemble_crate(shard.name, options_.boards_per_shard);
  shard.service =
      std::make_unique<JobService>(*shard.system, options_.serve);
  for (const hw::Bitstream& bs : configs_) shard.service->register_config(bs);
  if (options_.supervised) {
    shard.supervisor =
        std::make_unique<Supervisor>(*shard.service, options_.supervisor);
  }
  shards_.push_back(std::move(shard));
  ring_.add_node(id, shards_.back().name);
  return id;
}

void Cluster::remove_shard(int shard) {
  Shard& s = live_shard(shard);
  ATLANTIS_CHECK(shard_count() > 1,
                 "cannot remove the last live shard of the cluster");
  ATLANTIS_CHECK(!s.service->has_active_jobs(),
                 "remove_shard needs a quiescent shard (drain with run() "
                 "first; a job is mid-compute)");
  // Off the ring and retired first, so the drain below re-homes onto
  // the survivors only.
  ring_.remove_node(shard);
  s.retired = true;

  for (const JobId local : s.service->pending_ids()) {
    const std::string config = s.service->job(local).config;
    const std::vector<int> candidates = place(config);
    ATLANTIS_CHECK(!candidates.empty(), "no live shard to drain onto");
    // The drain must land: bounded queues gate admission at the front
    // door, not a re-home forced by fleet shrinkage.
    Shard& target = live_shard(candidates.front());
    const util::Result<JobId> moved =
        s.service->migrate_job(local, *target.service);
    ATLANTIS_CHECK(moved.ok(), "drain migration failed: " + moved.message());
    const auto it = s.cluster_id.find(local);
    ATLANTIS_CHECK(it != s.cluster_id.end(),
                   "pending job missing from the shard's cluster-id map");
    ClusterRecord& rec = records_[it->second];
    rec.shard = candidates.front();
    rec.local = moved.value();
    target.cluster_id[moved.value()] = rec.id;
    s.cluster_id.erase(it);
    ++window_drained_;
  }
}

int Cluster::shard_count() const {
  int n = 0;
  for (const Shard& s : shards_) {
    if (!s.retired) ++n;
  }
  return n;
}

bool Cluster::shard_retired(int shard) const {
  ATLANTIS_CHECK(shard >= 0 && shard < static_cast<int>(shards_.size()),
                 "shard index out of range");
  return shards_[static_cast<std::size_t>(shard)].retired;
}

Cluster::Shard& Cluster::live_shard(int shard) {
  ATLANTIS_CHECK(shard >= 0 && shard < static_cast<int>(shards_.size()),
                 "shard index out of range");
  Shard& s = shards_[static_cast<std::size_t>(shard)];
  ATLANTIS_CHECK(!s.retired, "shard " + std::to_string(shard) + " is retired");
  return s;
}

const Cluster::Shard& Cluster::live_shard(int shard) const {
  return const_cast<Cluster*>(this)->live_shard(shard);
}

core::AtlantisSystem& Cluster::system(int shard) {
  return *live_shard(shard).system;
}

JobService& Cluster::service(int shard) { return *live_shard(shard).service; }

Supervisor* Cluster::supervisor(int shard) {
  return live_shard(shard).supervisor.get();
}

void Cluster::register_config(const hw::Bitstream& bs) {
  configs_.push_back(bs);
  for (Shard& s : shards_) {
    if (!s.retired) s.service->register_config(bs);
  }
}

std::vector<int> Cluster::place(const std::string& config) {
  if (options_.placement == PlacementPolicy::kConsistentHash) {
    return ring_.successors(config, options_.max_placement_attempts);
  }
  // kRandom: deterministic spray over the live shards, keyed on the
  // submission ordinal — replayable, but blind to configuration
  // affinity (the baseline the bench measures the ring against).
  std::vector<int> live;
  for (int i = 0; i < static_cast<int>(shards_.size()); ++i) {
    if (!shards_[static_cast<std::size_t>(i)].retired) live.push_back(i);
  }
  ATLANTIS_CHECK(!live.empty(), "placement over an empty fleet");
  const std::uint64_t h =
      placement_hash("spray#" + std::to_string(spray_counter_++));
  std::vector<int> out;
  const int attempts =
      std::min(options_.max_placement_attempts, static_cast<int>(live.size()));
  for (int a = 0; a < attempts; ++a) {
    out.push_back(live[(h + static_cast<std::uint64_t>(a)) % live.size()]);
  }
  return out;
}

std::uint64_t Cluster::tenant_quota(const std::string& tenant) const {
  const std::uint64_t capacity =
      static_cast<std::uint64_t>(shard_count()) *
      options_.max_pending_per_shard;
  const auto weight_of = [this](const std::string& t) {
    const auto it = options_.tenant_weights.find(t);
    return it != options_.tenant_weights.end() ? it->second : 1.0;
  };
  // Total weight over every tenant the front-end has seen (in-flight or
  // explicitly weighted), including this one — the live contention set.
  double total = 0.0;
  bool seen = false;
  for (const auto& [t, w] : options_.tenant_weights) {
    total += w;
    if (t == tenant) seen = true;
  }
  for (const auto& [t, n] : in_flight_) {
    (void)n;
    if (options_.tenant_weights.count(t) != 0) continue;  // already counted
    total += 1.0;
    if (t == tenant) seen = true;
  }
  if (!seen) total += weight_of(tenant);
  if (total <= 0.0) return capacity;
  const double share =
      static_cast<double>(capacity) * weight_of(tenant) / total;
  return std::max<std::uint64_t>(1, static_cast<std::uint64_t>(share));
}

util::Result<JobId> Cluster::refuse(util::ErrorCode code,
                                    const std::string& why) {
  refusals_.push_back(code);
  if (code == util::ErrorCode::kShardOverload) {
    ++window_shed_;
  } else {
    ++window_rejected_;
  }
  return util::Result<JobId>::failure(code, why);
}

util::Result<JobId> Cluster::submit(JobSpec spec) {
  ATLANTIS_CHECK(shard_count() > 0, "submit to a cluster with no shards");
  ++window_submitted_;

  const auto known = std::find_if(
      configs_.begin(), configs_.end(),
      [&spec](const hw::Bitstream& bs) { return bs.name == spec.config; });
  if (known == configs_.end()) {
    return refuse(util::ErrorCode::kAdmissionReject,
                  "configuration '" + spec.config +
                      "' was never registered with the cluster");
  }

  // Concern 2: weighted-fair tenant share of the fleet's queue room.
  if (options_.fair_admission &&
      in_flight_[spec.tenant] >= tenant_quota(spec.tenant)) {
    return refuse(util::ErrorCode::kAdmissionReject,
                  "tenant '" + spec.tenant +
                      "' is past its weighted-fair share of the cluster");
  }

  // Concern 1 + 4: placement with bounded-queue overflow.
  const std::vector<int> candidates = place(spec.config);
  int picked = -1;
  int attempts = 0;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const Shard& s = live_shard(candidates[i]);
    if (s.service->pending() < options_.max_pending_per_shard) {
      picked = candidates[i];
      attempts = static_cast<int>(i);
      break;
    }
  }
  if (picked < 0) {
    return refuse(util::ErrorCode::kShardOverload,
                  "every candidate shard's queue is full (" +
                      std::to_string(candidates.size()) + " tried)");
  }

  // Concern 3: deadline admission against the target's backlog.
  Shard& home = live_shard(picked);
  if (options_.slo_admission && spec.deadline > 0 &&
      home.ewma_service > 0) {
    const util::Picoseconds backlog =
        static_cast<util::Picoseconds>(home.service->pending() + 1) *
        home.ewma_service;
    if (spec.arrival + backlog > spec.deadline) {
      return refuse(util::ErrorCode::kAdmissionReject,
                    "deadline unreachable: shard backlog estimate " +
                        std::to_string(backlog) + " ps");
    }
  }

  const std::string tenant = spec.tenant;
  util::Result<JobId> local = home.service->submit(std::move(spec));
  if (!local.ok()) {
    // The shard's own admission (per-tenant quota) refused; surface the
    // verdict through the same refusal ledger.
    return refuse(local.error(), local.message());
  }

  ClusterRecord rec;
  rec.id = static_cast<JobId>(records_.size());
  rec.tenant = tenant;
  rec.config = configs_[static_cast<std::size_t>(
                            std::distance(configs_.begin(), known))]
                   .name;
  rec.shard = picked;
  rec.local = local.value();
  rec.attempts = attempts;
  home.cluster_id[rec.local] = rec.id;
  records_.push_back(rec);
  window_ids_.push_back(rec.id);
  ++home.admitted_window;
  ++in_flight_[tenant];
  if (attempts > 0) ++window_overflowed_;
  return rec.id;
}

const ClusterReport& Cluster::run(const RunOptions& options) {
  // Shards drain concurrently, so no two live shards may reach one
  // mutable object: a shared fault injector would make fault draws
  // depend on thread timing, and a migration target or spare that is
  // another shard's service (or a spare two shards share) would be
  // written from two threads. Refused before anything moves.
  std::vector<Shard*> live;
  std::map<const void*, const Shard*> reached_by;
  for (Shard& s : shards_) {
    if (s.retired) continue;
    live.push_back(&s);
    const void* reach[] = {
        s.service.get(), s.system->fault_injector(),
        s.service->migration_target(),
        s.supervisor != nullptr ? s.supervisor->spare() : nullptr};
    for (const void* object : reach) {
      if (object == nullptr) continue;
      const auto [it, fresh] = reached_by.emplace(object, &s);
      ATLANTIS_CHECK(fresh || it->second == &s,
                     s.name + " and " + it->second->name +
                         " reach one fault injector or service; shards "
                         "drain concurrently and must share nothing");
    }
  }

  report_ = ClusterReport{};
  report_.submitted = window_submitted_;
  report_.rejected_admission = window_rejected_;
  report_.shed_overload = window_shed_;
  report_.overflowed = window_overflowed_;
  report_.drained = window_drained_;
  window_submitted_ = 0;
  window_rejected_ = 0;
  window_shed_ = 0;
  window_overflowed_ = 0;
  window_drained_ = 0;

  // Baselines over the cumulative switcher counters, so supervised
  // shards (whose Supervisor::run issues many service runs) and plain
  // shards report through one code path.
  std::vector<core::SwitchCounters> before(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (!shards_[i].retired) before[i] = shards_[i].service->switch_counters();
  }

  // Drain the live shards concurrently, one pool task each. Each crate
  // has its own timeline, so neither the order nor the threads the pool
  // runs them on can leak into any schedule or result; the batches
  // inside a drain evaluate inline on its thread.
  util::WorkerPool& pool =
      options.pool != nullptr ? *options.pool : util::WorkerPool::shared();
  pool.parallel_for(static_cast<int>(live.size()), [&](int i) {
    Shard& s = *live[static_cast<std::size_t>(i)];
    if (s.supervisor != nullptr) {
      s.supervisor->run();
    } else {
      s.service->run(options);
    }
  });

  // Merge the window: job-level outcomes from the ledgers, crate-level
  // reconfiguration traffic from the counter deltas.
  util::LogHistogram latency;
  std::vector<JobId> carry;
  struct Tally {
    util::Picoseconds service_sum = 0;
    std::uint64_t served = 0;
    std::uint64_t failed = 0;
    util::Picoseconds makespan = 0;
  };
  std::vector<Tally> tally(shards_.size());  // by shard id
  for (const JobId id : window_ids_) {
    const ClusterRecord& rec = records_[id];
    const JobRecord& jr =
        shards_[static_cast<std::size_t>(rec.shard)].service->job(rec.local);
    if (!job_done(jr)) {
      carry.push_back(id);  // bounded run left it queued; next window
      continue;
    }
    ++report_.admitted;  // terminal this window
    if (in_flight_[rec.tenant] > 0) --in_flight_[rec.tenant];
    Tally& t = tally[static_cast<std::size_t>(rec.shard)];
    if (jr.error == util::ErrorCode::kOk) {
      ++report_.served;
      // Sojourn floored at the pure service time: a job the scheduler
      // reached before its modelled arrival waited zero, not negative.
      latency.add(static_cast<double>(std::max(jr.finish - jr.arrival,
                                               jr.finish - jr.start)));
      report_.makespan = std::max(report_.makespan, jr.finish);
      if (jr.deadline > 0 && jr.finish > jr.deadline) {
        ++report_.deadline_misses;
      }
      t.service_sum += jr.finish - jr.start;
      ++t.served;
      t.makespan = std::max(t.makespan, jr.finish);
    } else {
      ++report_.failed;
      ++t.failed;
    }
  }
  window_ids_ = std::move(carry);
  report_.p50_latency =
      static_cast<util::Picoseconds>(latency.quantile(0.50));
  report_.p99_latency =
      static_cast<util::Picoseconds>(latency.quantile(0.99));
  report_.p999_latency =
      static_cast<util::Picoseconds>(latency.quantile(0.999));

  core::SwitchCounters ran;  // over every live shard
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& s = shards_[i];
    if (s.retired) continue;
    const core::SwitchCounters d = s.service->switch_counters() - before[i];
    const Tally& t = tally[i];
    ShardStats stats;
    stats.shard = static_cast<int>(i);
    stats.name = s.name;
    stats.admitted = s.admitted_window;
    s.admitted_window = 0;
    stats.served = t.served;
    stats.failed = t.failed;
    stats.task_switches = d.switches;
    stats.full_reconfigs = d.full_reconfigs();
    stats.partial_reconfigs = d.partials;
    stats.cache_hit_rate = d.hit_rate();
    stats.makespan = t.makespan;
    report_.shards.push_back(stats);
    ran += d;

    // SLO admission feedback: EWMA of this window's mean service time.
    if (t.served > 0) {
      const util::Picoseconds mean =
          t.service_sum / static_cast<util::Picoseconds>(t.served);
      s.ewma_service =
          s.ewma_service == 0 ? mean : (s.ewma_service + mean) / 2;
    }
  }
  report_.task_switches = ran.switches;
  report_.full_reconfigs = ran.full_reconfigs();
  report_.partial_reconfigs = ran.partials;
  report_.cache_hits = ran.hits;
  report_.cache_misses = ran.misses;
  report_.cache_hit_rate = ran.hit_rate();
  return report_;
}

void Cluster::reset(core::ResetScope scope) {
  for (Shard& s : shards_) {
    if (s.retired) continue;
    if (s.supervisor != nullptr) {
      s.supervisor->reset(scope);  // forwards to the service
    } else {
      s.service->reset(scope);
    }
  }
  if (scope == core::ResetScope::kStats || scope == core::ResetScope::kAll) {
    report_ = ClusterReport{};
  }
}

const JobRecord& Cluster::shard_record(JobId id) const {
  const ClusterRecord& rec = records_.at(id);
  return shards_.at(static_cast<std::size_t>(rec.shard))
      .service->job(rec.local);
}

std::size_t Cluster::pending() const {
  std::size_t n = 0;
  for (const Shard& s : shards_) {
    if (!s.retired) n += s.service->pending();
  }
  return n;
}

std::uint64_t Cluster::schedule_digest() const {
  Fnv acc;
  acc.mix(static_cast<std::uint64_t>(records_.size()));
  for (const ClusterRecord& rec : records_) {
    acc.mix(static_cast<std::uint64_t>(rec.shard));
    acc.mix(rec.local);
    acc.mix(static_cast<std::uint64_t>(rec.attempts));
  }
  for (const util::ErrorCode code : refusals_) {
    acc.mix(static_cast<std::uint64_t>(code));
  }
  for (const Shard& s : shards_) {
    for (const JobRecord& jr : s.service->jobs()) {
      acc.mix(jr.id);
      acc.mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(jr.board)));
      acc.mix(static_cast<std::uint64_t>(jr.start));
      acc.mix(static_cast<std::uint64_t>(jr.finish));
      acc.mix(static_cast<std::uint64_t>(jr.error));
      acc.mix(jr.outcome.checksum);
    }
  }
  return acc.h;
}

std::uint64_t Cluster::functional_digest() const {
  // Sum of per-job digests: invariant under placement policy, shard
  // add/remove re-homing and ledger order. Migrated-out entries are
  // skipped (the receiving shard's ledger carries the outcome).
  std::uint64_t sum = 0;
  for (const Shard& s : shards_) {
    for (const JobRecord& jr : s.service->jobs()) {
      if (jr.migrated || !job_done(jr) || jr.error != util::ErrorCode::kOk) {
        continue;
      }
      Fnv one;
      one.mix(jr.tenant);
      one.mix(jr.config);
      one.mix(jr.outcome.checksum);
      sum += one.h;
    }
  }
  return sum;
}

template <typename Self, typename Stream>
void Cluster::walk(Self& self, Stream& s) {
  s.section("serve/cluster", [&] {
    // The twin must replay the same add/remove history.
    s.expect_u32(self.shards_.size(), "cluster shard count");
    for (auto& shard : self.shards_) {
      s.expect_string(shard.name, "cluster shard name");
      s.expect_u8(shard.retired, "cluster shard retirement");
      s.i64(shard.ewma_service);
      s.u64(shard.admitted_window);
    }
    // A record's cluster id is its ledger index; it is not stored.
    s.seq64(self.records_, [&](auto& rec) {
      s.string(rec.tenant);
      s.string(rec.config);
      s.u32(rec.shard);
      s.u64(rec.local);
      s.u32(rec.attempts);
    });
    s.seq64(self.refusals_, [&](auto& code) { s.u16(code); });
    s.seq64(self.in_flight_, [&](auto& tenant) {
      s.string(tenant.first);
      s.u64(tenant.second);
    });
    s.seq64(self.window_ids_, [&](auto& id) { s.u64(id); });
    s.u64(self.window_submitted_);
    s.u64(self.window_rejected_);
    s.u64(self.window_shed_);
    s.u64(self.window_overflowed_);
    s.u64(self.window_drained_);
    s.u64(self.spray_counter_);
  });
}

void Cluster::save_state(sim::SnapshotWriter& w) const {
  w.presize(*this);
  walk(*this, w);
  // Each live shard's complete service snapshot rides as a nested
  // stream in its own uniquely tagged section — select() addresses the
  // first occurrence of a tag, so the shards' internal tags ("system",
  // "serve/service", ...) must not collide in the outer stream. The
  // shard writes its stream in place.
  for (const Shard& s : shards_) {
    if (s.retired) continue;
    w.section("serve/cluster/" + s.name,
              [&] { w.nested([&] { s.service->save_state(w); }); });
  }
}

void Cluster::load_state(sim::SnapshotReader& r) {
  walk(*this, r);
  // Derived from the ledger: the cluster ids and each shard's local ->
  // cluster id map.
  for (Shard& s : shards_) s.cluster_id.clear();
  for (JobId id = 0; id < records_.size(); ++id) {
    ClusterRecord& rec = records_[id];
    rec.id = id;
    shards_.at(static_cast<std::size_t>(rec.shard)).cluster_id[rec.local] = id;
  }

  for (Shard& s : shards_) {
    if (s.retired) continue;
    r.select("serve/cluster/" + s.name);
    const std::uint64_t len = r.get_u64();
    if (len > r.remaining()) {
      throw util::Error("nested shard snapshot for '" + s.name + "' claims " +
                        std::to_string(len) + " bytes; its section holds " +
                        std::to_string(r.remaining()));
    }
    std::vector<std::uint8_t> bytes(len);
    r.get_bytes(bytes.data(), bytes.size());
    util::Result<sim::SnapshotReader> nested =
        sim::SnapshotReader::open(std::move(bytes));
    if (!nested.ok()) {
      throw util::StateError("nested shard snapshot for '" + s.name +
                             "' failed to open: " + nested.message());
    }
    s.service->load_state(nested.value());
  }
}

}  // namespace atlantis::serve

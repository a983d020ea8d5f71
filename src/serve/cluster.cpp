#include "serve/cluster.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <string_view>

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
  // A negative or non-finite weight (or sum) would make a share NaN or
  // negative, and its cast to a quota undefined.
  double total_weight = 0.0;
  for (const auto& [tenant, weight] : options_.tenant_weights) {
    ATLANTIS_CHECK(std::isfinite(weight) && weight >= 0.0,
                   "tenant '" + tenant + "' needs a finite, non-negative "
                   "weight (got " + std::to_string(weight) + ")");
    total_weight += weight;
  }
  ATLANTIS_CHECK(std::isfinite(total_weight),
                 "the tenant weights must have a finite sum");
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
  fleet_changed();
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
  fleet_changed();

  for (const JobId local : s.service->pending_ids()) {
    const std::span<const int> candidates =
        place(config_index(s.service->job(local).config));
    ATLANTIS_CHECK(!candidates.empty(), "no live shard to drain onto");
    // The drain must land: bounded queues gate admission at the front
    // door, not a re-home forced by fleet shrinkage.
    const int home = candidates.front();
    Shard& target = live_shard(home);
    const util::Result<JobId> moved =
        s.service->migrate_job(local, *target.service);
    ATLANTIS_CHECK(moved.ok(), "drain migration failed: " + moved.message());
    ATLANTIS_CHECK(
        local < s.cluster_id.size() && s.cluster_id[local] != kNoJob,
        "pending job missing from the shard's cluster-id map");
    ClusterRecord& rec = records_[s.cluster_id[local]];
    s.cluster_id[local] = kNoJob;
    rec.shard = home;
    rec.local = moved.value();
    target.set_cluster_id(rec.local, rec.id);
    ++window_drained_;
  }
}

int Cluster::shard_count() const { return static_cast<int>(live_.size()); }

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
  fleet_changed();
}

std::size_t Cluster::config_index(const std::string& name) const {
  const auto known = std::find_if(
      configs_.begin(), configs_.end(),
      [&name](const hw::Bitstream& bs) { return bs.name == name; });
  return static_cast<std::size_t>(std::distance(configs_.begin(), known));
}

void Cluster::fleet_changed() {
  live_.clear();
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (!shards_[i].retired) live_.push_back(static_cast<int>(i));
  }
  placements_.clear();
  refresh_quotas();
}

std::span<const int> Cluster::place(std::size_t config) {
  if (options_.placement == PlacementPolicy::kConsistentHash) {
    if (placements_.empty()) {  // the first placement since a change
      for (const hw::Bitstream& bs : configs_) {
        placements_.push_back(
            ring_.successors(bs.name, options_.max_placement_attempts));
      }
    }
    return placements_.at(config);
  }
  // kRandom: deterministic spray over the live shards, keyed on the
  // submission ordinal — replayable, but blind to configuration
  // affinity (the baseline the bench measures the ring against).
  ATLANTIS_CHECK(!live_.empty(), "placement over an empty fleet");
  char key[32] = "spray#";
  const char* const end =
      std::to_chars(key + 6, key + sizeof(key), spray_counter_++).ptr;
  const std::uint64_t h = placement_hash(
      std::string_view(key, static_cast<std::size_t>(end - key)));
  const int attempts =
      std::min(options_.max_placement_attempts, static_cast<int>(live_.size()));
  spray_.clear();
  for (int a = 0; a < attempts; ++a) {
    const std::uint64_t at = (h + static_cast<std::uint64_t>(a)) % live_.size();
    spray_.push_back(live_[at]);
  }
  return spray_;
}

void Cluster::refresh_quotas() {
  const std::uint64_t capacity =
      static_cast<std::uint64_t>(live_.size()) * options_.max_pending_per_shard;
  // Total weight over every tenant the front-end has seen (in-flight or
  // explicitly weighted) — the live contention set.
  double total = 0.0;
  for (const auto& [name, weight] : options_.tenant_weights) total += weight;
  for (const auto& [name, t] : tenants_) {
    if (options_.tenant_weights.count(name) == 0) total += 1.0;
  }
  for (auto& [name, t] : tenants_) {
    if (total <= 0.0) {
      t.quota = capacity;
      continue;
    }
    const auto weighted = options_.tenant_weights.find(name);
    const double weight =
        weighted != options_.tenant_weights.end() ? weighted->second : 1.0;
    // At most capacity up to rounding; +inf when capacity * weight
    // overflows. The clamp keeps the cast defined.
    const double share = static_cast<double>(capacity) * weight / total;
    t.quota = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::min(share, static_cast<double>(capacity))));
  }
}

std::map<std::string, Cluster::Tenant, std::less<>>::iterator Cluster::tenant(
    const std::string& name) {
  const auto [it, fresh] = tenants_.try_emplace(name);
  if (fresh) refresh_quotas();
  return it;
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
  ATLANTIS_CHECK(!live_.empty(), "submit to a cluster with no shards");
  ++window_submitted_;

  const std::size_t config = config_index(spec.config);
  if (config == configs_.size()) {
    return refuse(util::ErrorCode::kAdmissionReject,
                  "configuration '" + spec.config +
                      "' was never registered with the cluster");
  }

  // Concern 2: weighted-fair tenant share of the fleet's queue room.
  // The gate creates the tenant's entry even when it refuses the job,
  // as it always has: the tenant map is in the stream.
  auto owner = tenants_.end();
  if (options_.fair_admission) {
    owner = tenant(spec.tenant);
    if (owner->second.in_flight >= owner->second.quota) {
      return refuse(util::ErrorCode::kAdmissionReject,
                    "tenant '" + spec.tenant +
                        "' is past its weighted-fair share of the cluster");
    }
  }

  // Concern 1 + 4: placement with bounded-queue overflow.
  const std::span<const int> candidates = place(config);
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

  util::Result<JobId> local = home.service->submit(std::move(spec));
  if (!local.ok()) {
    // The shard's own admission (per-tenant quota) refused; surface the
    // verdict through the same refusal ledger.
    return refuse(local.error(), local.message());
  }

  const JobId id = static_cast<JobId>(records_.size());
  ClusterRecord rec;
  rec.id = id;
  rec.tenant = home.service->job(local.value()).tenant;
  rec.config = configs_[config].name;
  rec.shard = picked;
  rec.local = local.value();
  rec.attempts = attempts;
  home.set_cluster_id(rec.local, id);
  if (owner == tenants_.end()) owner = tenant(rec.tenant);
  ++owner->second.in_flight;
  records_.push_back(std::move(rec));
  window_ids_.push_back(id);
  ++home.admitted_window;
  if (attempts > 0) ++window_overflowed_;
  return id;
}

const ClusterReport& Cluster::run(const RunOptions& options) {
  // Shards drain concurrently, so no two live shards may reach one
  // mutable object: a shared fault injector would make fault draws
  // depend on thread timing, and a migration target or spare that is
  // another shard's service (or a spare two shards share) would be
  // written from two threads. Refused before anything moves.
  const auto reach = [this](int shard) {
    const Shard& s = shards_[static_cast<std::size_t>(shard)];
    return std::array<const void*, 4>{
        s.service.get(), s.system->fault_injector(),
        s.service->migration_target(),
        s.supervisor != nullptr ? s.supervisor->spare() : nullptr};
  };
  for (std::size_t i = 0; i < live_.size(); ++i) {
    for (const void* object : reach(live_[i])) {
      if (object == nullptr) continue;
      for (std::size_t j = 0; j < i; ++j) {
        const auto earlier = reach(live_[j]);
        ATLANTIS_CHECK(
            std::find(earlier.begin(), earlier.end(), object) == earlier.end(),
            shards_[static_cast<std::size_t>(live_[i])].name + " and " +
                shards_[static_cast<std::size_t>(live_[j])].name +
                " reach one fault injector or service; shards drain "
                "concurrently and must share nothing");
      }
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
  pool.parallel_for(static_cast<int>(live_.size()), [&](int i) {
    const int shard = live_[static_cast<std::size_t>(i)];
    Shard& s = shards_[static_cast<std::size_t>(shard)];
    if (s.supervisor != nullptr) {
      s.supervisor->run();
    } else {
      s.service->run(options);
    }
  });

  // Merge the window: job-level outcomes from the ledgers, crate-level
  // reconfiguration traffic from the counter deltas.
  util::LogHistogram latency;
  std::size_t carried = 0;  // window_ids_ compacts in place
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
      window_ids_[carried++] = id;  // bounded run left it queued
      continue;
    }
    ++report_.admitted;  // terminal this window
    const auto owner = tenants_.find(rec.tenant);
    if (owner != tenants_.end() && owner->second.in_flight > 0) {
      --owner->second.in_flight;
    }
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
  window_ids_.resize(carried);
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
    s.seq64(self.tenants_, [&](auto& tenant) {
      s.string(tenant.first);
      s.u64(tenant.second.in_flight);
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
  // cluster id map; from the tenant set: every quota.
  for (Shard& s : shards_) s.cluster_id.clear();
  for (JobId id = 0; id < records_.size(); ++id) {
    ClusterRecord& rec = records_[id];
    rec.id = id;
    Shard& home = shards_.at(static_cast<std::size_t>(rec.shard));
    home.set_cluster_id(rec.local, id);
  }
  refresh_quotas();

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

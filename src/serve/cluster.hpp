// serve::Cluster — one front-end API over a fleet of JobService shards.
//
// "Cluster-scale" ATLANTIS serving: N independent crates (each a full
// core::AtlantisSystem with its own boards, timeline and optional fault
// injector), each wrapped in a JobService — and, optionally, in its own
// self-healing Supervisor — behind a single submit()/run() front door
// that looks exactly like one big JobService. The front-end owns four
// concerns the per-crate service cannot see:
//
//   1. Placement. Jobs are sharded by *configuration* name over a
//      consistent-hash ring (serve/placement.hpp): every job needing
//      the same bitstream lands on the same crate, so that crate's
//      per-board LRU configuration caches and differential-reconfig
//      region signatures stay hot while the other crates never load
//      the configuration at all. PlacementPolicy::kRandom is the
//      cache-oblivious baseline the cluster bench measures the ring
//      against.
//
//   2. Weighted-fair tenant QoS. Each tenant holds a weight (default
//      1.0); its share of the cluster's bounded queue capacity is
//      weight / total_weight. A submit that would push the tenant past
//      its share is refused up front with kAdmissionReject — one noisy
//      tenant cannot starve the fleet.
//
//   3. SLO / deadline admission. When a job carries a deadline the
//      front-end estimates its completion from the target shard's
//      backlog (queue depth x an EWMA of observed per-job service
//      time, both modelled quantities) and refuses jobs that cannot
//      make their deadline with kAdmissionReject — shedding at the
//      door instead of burning reconfigurations on work that will
//      miss anyway.
//
//   4. Backpressure. Every shard's queue is bounded
//      (max_pending_per_shard). When the owner shard is full the
//      front-end walks the ring's successor shards
//      (max_placement_attempts distinct crates, overflow keeps cache
//      affinity for everything that fits) and, when all are full,
//      sheds with kShardOverload. Refusal verdicts are recorded in
//      submission order (refusals()) so a replay can assert they are
//      bit-identical.
//
// Elasticity: add_shard() assembles a new crate (core::assemble_crate)
// and replays every registered configuration onto it; remove_shard()
// takes the shard off the ring, then drains its pending jobs to the
// surviving shards with JobService::migrate_job — checkpoints carry
// the functional outcome, so the cluster-wide functional digest is
// preserved across the re-home (tested).
//
// Determinism contract (inherited from JobService and tested at this
// level): placement, admission verdicts, every shard's schedule and
// every job result are bit-identical across worker-pool sizes AND
// across shard iteration orders — shards share no timeline, so neither
// the order nor the threads on which run() drains them can leak into
// any result. With fault injectors attached per shard, a replay under
// the same plans reproduces every refusal and every failure bit-for-bit.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/system.hpp"
#include "serve/jobservice.hpp"
#include "serve/placement.hpp"
#include "serve/supervisor.hpp"
#include "sim/snapshot.hpp"
#include "util/status.hpp"
#include "util/units.hpp"

namespace atlantis::serve {

struct ClusterOptions {
  /// Computing boards assembled into each shard's crate.
  int boards_per_shard = 2;
  PlacementPolicy placement = PlacementPolicy::kConsistentHash;
  /// Per-shard service options (cache capacity, policy, batching...).
  ServeOptions serve;
  /// Bounded queue: jobs a shard may hold pending before the front-end
  /// overflows to the next ring shard / sheds.
  std::size_t max_pending_per_shard = 256;
  /// Distinct shards tried per job (the owner plus ring successors)
  /// before shedding with kShardOverload. 1 = shed immediately.
  int max_placement_attempts = 2;
  /// Deadline admission control (concern 3 above); off admits any
  /// deadline and lets the shard count the miss.
  bool slo_admission = true;
  /// Weighted-fair tenant shares; tenants absent here weigh 1.0. Each
  /// weight must be finite and non-negative, and so must their sum (the
  /// constructor checks). A tenant weighing 0 still gets one slot.
  std::map<std::string, double> tenant_weights;
  /// When true every tenant's pending share is capped (concern 2);
  /// off = first-come-first-served admission.
  bool fair_admission = true;
  /// Wrap each shard's service in its own serve::Supervisor and drain
  /// through it (self-healing per crate).
  bool supervised = false;
  SupervisorOptions supervisor;
};

/// Per-shard slice of one cluster run.
struct ShardStats {
  int shard = -1;
  std::string name;
  std::uint64_t admitted = 0;  // jobs homed here this window
  std::uint64_t served = 0;
  std::uint64_t failed = 0;
  std::uint64_t task_switches = 0;
  std::uint64_t full_reconfigs = 0;
  std::uint64_t partial_reconfigs = 0;
  double cache_hit_rate = 0.0;
  util::Picoseconds makespan = 0;
};

/// Everything one Cluster::run() did, plus the admission verdicts
/// issued since the previous run (submit happens between runs).
struct ClusterReport {
  std::uint64_t submitted = 0;  // submit() calls in the window
  std::uint64_t admitted = 0;
  std::uint64_t rejected_admission = 0;  // QoS / SLO refusals
  std::uint64_t shed_overload = 0;       // every candidate shard full
  std::uint64_t overflowed = 0;  // admitted on a successor, not the owner
  std::uint64_t served = 0;
  std::uint64_t failed = 0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t drained = 0;  // jobs re-homed by remove_shard
  std::uint64_t task_switches = 0;
  std::uint64_t full_reconfigs = 0;
  std::uint64_t partial_reconfigs = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  double cache_hit_rate = 0.0;
  /// Max over shards (shards run concurrently in the model — each
  /// crate has its own timeline).
  util::Picoseconds makespan = 0;
  /// Sojourn (arrival -> result DMA complete) quantiles over the
  /// window's served jobs, estimated on a log-bucketed histogram.
  util::Picoseconds p50_latency = 0;
  util::Picoseconds p99_latency = 0;
  util::Picoseconds p999_latency = 0;
  std::vector<ShardStats> shards;  // live shards, by shard id
};

/// The cluster's ledger entry for one admitted job: where it lives.
struct ClusterRecord {
  JobId id = 0;  // cluster-level id (dense, in admission order)
  std::string tenant;
  std::string config;
  int shard = -1;     // current home shard
  JobId local = 0;    // id on that shard's service
  int attempts = 0;   // ring successors walked before landing (0 = owner)
};

class Cluster : public sim::Snapshottable {
 public:
  explicit Cluster(ClusterOptions options = {});

  const ClusterOptions& options() const { return options_; }

  // --- fleet management ------------------------------------------------
  /// Assembles a new crate ("<cluster>/shard<k>"), builds its service
  /// (and Supervisor when options().supervised), replays every
  /// registered configuration onto it and puts it on the ring. Returns
  /// the shard id (stable — retired shards keep their slot).
  int add_shard();
  /// Takes the shard off the ring and drains its pending jobs to the
  /// surviving shards via migrate_job (ledger re-homed; functional
  /// digest preserved). The shard must be quiescent (no job mid-
  /// compute) and must not be the last live shard.
  void remove_shard(int shard);
  int shard_count() const;  // live shards
  bool shard_retired(int shard) const;

  /// The shard's crate — attach a fault injector here before
  /// submitting to exercise the fleet under a fault plan.
  core::AtlantisSystem& system(int shard);
  JobService& service(int shard);
  /// nullptr when options().supervised is false.
  Supervisor* supervisor(int shard);

  // --- the front-end API (mirrors JobService) --------------------------
  /// Registers a configuration on every live shard (and on every shard
  /// added later). Must precede the first submit() referencing it.
  void register_config(const hw::Bitstream& bs);

  /// Admits one job through QoS -> SLO -> placement -> backpressure
  /// (file comment, concerns 1-4). Returns the cluster-level JobId, or
  /// kAdmissionReject (quota / deadline / unknown configuration) /
  /// kShardOverload (every candidate shard's bounded queue full).
  util::Result<JobId> submit(JobSpec spec);

  /// Drains every live shard concurrently, one task per shard on
  /// options.pool (nullptr = the shared pool; each shard's batches then
  /// evaluate inline on its thread), and merges the window's report in
  /// shard-id order. options.max_dispatches bounds each shard's drain
  /// separately; supervised shards drain through their Supervisor. Fails
  /// an ATLANTIS_CHECK, before any shard moves, when two live shards
  /// share a fault injector or one's migration target or spare is
  /// another's service (or both use one spare).
  const ClusterReport& run(const RunOptions& options = {});

  const ClusterReport& report() const { return report_; }

  // --- inspection ------------------------------------------------------
  /// Cluster ledger, indexed by cluster JobId (admitted jobs only).
  const std::vector<ClusterRecord>& jobs() const { return records_; }
  const ClusterRecord& job(JobId id) const { return records_.at(id); }
  /// The shard-side ledger entry behind a cluster job.
  const JobRecord& shard_record(JobId id) const;
  /// Refusal verdicts in submission order since construction — the
  /// replay-identity surface for admission tests.
  const std::vector<util::ErrorCode>& refusals() const { return refusals_; }
  /// Pending jobs across the fleet.
  std::size_t pending() const;

  /// Order-sensitive digest over placement and every shard's schedule
  /// (shard ids, local ids, boards, finish times, checksums) — equal
  /// iff two cluster runs made identical decisions. The determinism
  /// surface for the pool-size / iteration-order tests and the bench.
  std::uint64_t schedule_digest() const;
  /// Order-independent digest over the functional outcomes of every
  /// served job (tenant, config, checksum) — invariant under placement
  /// policy and shard add/remove re-homing.
  std::uint64_t functional_digest() const;

  /// Snapshottable composite: a "serve/cluster" section (fleet census,
  /// ledger, admission state) followed by each live shard's full
  /// service snapshot. load_state restores into a twin cluster with
  /// the same add/remove history, options and configurations.
  void save_state(sim::SnapshotWriter& w) const override;
  void load_state(sim::SnapshotReader& r) override;

 private:
  /// Marks a local id in Shard::cluster_id that is no cluster job.
  static constexpr JobId kNoJob = ~JobId{0};

  struct Shard {
    std::string name;
    bool retired = false;
    std::unique_ptr<core::AtlantisSystem> system;
    std::unique_ptr<JobService> service;
    std::unique_ptr<Supervisor> supervisor;
    /// Cluster JobId by local JobId (kNoJob where none), for re-homing
    /// on drain.
    std::vector<JobId> cluster_id;
    void set_cluster_id(JobId local, JobId cluster) {
      if (cluster_id.size() <= local) cluster_id.resize(local + 1, kNoJob);
      cluster_id[local] = cluster;
    }
    /// EWMA of observed per-job service time (SLO admission).
    util::Picoseconds ewma_service = 0;
    std::uint64_t admitted_window = 0;  // since the last run()
  };

  /// A tenant the front door has seen: its jobs admitted and not yet
  /// resolved, and its weighted-fair share of the fleet's queue
  /// capacity, cached by refresh_quotas().
  struct Tenant {
    std::uint64_t in_flight = 0;
    std::uint64_t quota = 0;
  };

  Shard& live_shard(int shard);
  const Shard& live_shard(int shard) const;
  /// Index into configs_ of the configuration named `name`, or
  /// configs_.size() when it was never registered.
  std::size_t config_index(const std::string& name) const;
  /// Candidate shards for a job of configs_[config], in placement order
  /// (owner first); valid until the next call.
  std::span<const int> place(std::size_t config);
  /// The fleet changed (add_shard, remove_shard, register_config):
  /// rebuilds live_, drops every cached placement (place() rebuilds
  /// them all on its next call) and recomputes every tenant's quota.
  void fleet_changed();
  /// The tenant set or the live shard count changed: recomputes every
  /// tenant's quota.
  void refresh_quotas();
  /// The tenant's entry, created on first sight (which refreshes the
  /// quotas: a new tenant shrinks everyone's share).
  std::map<std::string, Tenant, std::less<>>::iterator tenant(
      const std::string& name);
  util::Result<JobId> refuse(util::ErrorCode code, const std::string& why);
  /// The "serve/cluster" section; the shards' nested streams follow it.
  template <typename Self, typename Stream>
  static void walk(Self& self, Stream& s);

  ClusterOptions options_;
  HashRing ring_;
  std::vector<Shard> shards_;
  std::vector<hw::Bitstream> configs_;  // replayed onto new shards
  std::vector<ClusterRecord> records_;
  std::vector<util::ErrorCode> refusals_;
  std::map<std::string, Tenant, std::less<>> tenants_;
  // Admission caches, derived from the fields above (fleet_changed).
  std::vector<int> live_;                     // live shard ids, ascending
  std::vector<std::vector<int>> placements_;  // ring walk by configs_ index
  std::vector<int> spray_;                    // kRandom's latest candidates
  /// Cluster ids admitted since the last run() (the report window).
  std::vector<JobId> window_ids_;
  /// Admission counters accrued since the last run().
  std::uint64_t window_submitted_ = 0;
  std::uint64_t window_rejected_ = 0;
  std::uint64_t window_shed_ = 0;
  std::uint64_t window_overflowed_ = 0;
  std::uint64_t window_drained_ = 0;
  std::uint64_t spray_counter_ = 0;  // kRandom placement ordinal
  ClusterReport report_;
};

}  // namespace atlantis::serve

// JobService: the multi-tenant batch scheduler over an AtlantisSystem.
//
// This is the one documented front door for running work on the crate:
// clients submit jobs (serve/job.hpp), the service admission-controls
// them into per-configuration queues (serve/queue.hpp) and schedules
// them across every computing board — batching same-configuration jobs
// to amortize FPGA reconfiguration, activating recently used bitstreams
// from each board's LRU configuration cache (core/configcache.hpp), and
// posting every reconfiguration, DMA, compute and queue wait onto the
// crate timeline so per-tenant latency percentiles and board
// utilization fall out of the existing tooling.
//
// Determinism contract (tested): the schedule — every transaction on
// the timeline — and every job result are bit-identical across worker-
// pool sizes, and replay-identical for a fixed fault seed, including
// when a fault plan drops a board mid-stream. The mechanism is the same
// as the fault injector's: all scheduling decisions, fault draws and
// timeline posts happen on the calling thread in a fixed order; the
// worker pool only evaluates the pure job functors.
//
// Degradation: a board drop-out (PR 4 fault model) at dispatch time
// marks the board dead, invalidates its staged configurations, and
// re-queues the assembled batch at the front of its configuration
// queue, so the surviving boards absorb the work. With no boards left,
// remaining jobs complete with kBoardDead.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/driver.hpp"
#include "core/system.hpp"
#include "core/taskswitch.hpp"
#include "serve/job.hpp"
#include "serve/queue.hpp"
#include "sim/snapshot.hpp"
#include "util/status.hpp"
#include "util/units.hpp"

namespace atlantis::util {
class WorkerPool;
}

namespace atlantis::serve {

/// How far one run() call may go — the single entry point's knobs.
/// Default-constructed it drains everything; max_dispatches bounds the
/// scheduling steps (batches under kBatched, slices under the preemptive
/// policies); pool sizes the functional evaluation only — the schedule
/// and the results are bit-identical for any pool.
struct RunOptions {
  static constexpr std::size_t kUnbounded = static_cast<std::size_t>(-1);
  std::size_t max_dispatches = kUnbounded;
  util::WorkerPool* pool = nullptr;  // nullptr = the shared pool
};

/// Per-tenant service quality over one run() — the numbers a
/// "millions of users" operator actually watches.
struct TenantStats {
  std::string tenant;
  std::uint64_t jobs = 0;
  std::uint64_t failed = 0;
  util::Picoseconds p50_wait = 0;
  util::Picoseconds p99_wait = 0;
  util::Picoseconds max_wait = 0;
  util::Picoseconds mean_service = 0;  // start -> finish
};

/// Everything one run() did, in aggregate.
struct ServiceReport {
  std::uint64_t served = 0;
  std::uint64_t failed = 0;
  std::uint64_t batches = 0;
  std::uint64_t task_switches = 0;   // switches that moved context or data
  std::uint64_t full_reconfigs = 0;  // full bitstream loads (cache misses)
  std::uint64_t partial_reconfigs = 0;  // differential region loads
  std::uint64_t regions_loaded = 0;     // frames moved by those loads
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  double cache_hit_rate = 0.0;
  util::Picoseconds reconfig_time = 0;
  util::Picoseconds partial_reconfig_time = 0;  // subset of reconfig_time
  util::Picoseconds makespan = 0;  // latest job finish (modelled)
  double jobs_per_second = 0.0;    // served / makespan
  std::uint64_t preemptions = 0;      // slice preemptions this run
  std::uint64_t deadline_misses = 0;  // jobs finished past their deadline
  std::uint64_t migrated = 0;         // jobs checkpointed out to a target
  std::vector<TenantStats> tenants;       // sorted by tenant name
  std::vector<int> dead_boards;           // ACB indices lost to drop-outs
};

/// A job frozen mid-service: the versioned snapshot stream (section
/// "serve/job") carrying the job's identity, its already-evaluated
/// functional outcome and its compute progress — everything another
/// JobService needs to finish it without the work functor. The
/// convenience fields mirror the stream for inspection.
struct JobCheckpoint {
  JobId id = 0;
  std::string tenant;
  std::string config;
  std::vector<std::uint8_t> bytes;
};

class JobService : public sim::Snapshottable {
 public:
  /// Builds the service over every computing board currently in the
  /// crate. Each board gets a driver (its cursor on the timeline) and a
  /// task switcher over its host-PCI FPGA with the configuration cache
  /// from `options`.
  explicit JobService(core::AtlantisSystem& system, ServeOptions options = {});

  const ServeOptions& options() const { return options_; }
  core::AtlantisSystem& system() { return system_; }

  /// Registers a configuration every job referencing `bs.name` needs.
  /// Must precede the first submit() of that configuration.
  void register_config(const hw::Bitstream& bs);

  /// Admits one job. Fails with kOverloaded when the tenant already
  /// holds max_queued_per_tenant pending jobs, and with kAdmissionReject
  /// when the configuration was never registered — every recoverable
  /// refusal travels through the Result, never an exception; callers
  /// that want the old throwing behaviour write .value_or_throw().
  util::Result<JobId> submit(JobSpec spec);

  /// THE one entry point for making progress: drains every queue across
  /// the alive boards — all of it by default, or up to
  /// options.max_dispatches scheduling steps, leaving the remaining work
  /// queued / mid-job. A later run()
  /// — on this service or on a twin restored from save_state —
  /// continues exactly where it stopped (the snapshot tests save
  /// mid-stream at such a pause). Under Policy::kPreemptive /
  /// kAbortRerun the drain is EDF-ordered with slice-quantum preemption
  /// instead of batched. Returns the run's report.
  const ServiceReport& run(const RunOptions& options = {});

  // --- checkpoint / restore / migration --------------------------------
  /// Freezes one pending job (queued or preempted mid-compute) into a
  /// portable checkpoint and removes it from this service's scheduling
  /// structures (the ledger entry stays, in a checkpointed-out state).
  /// A job that was never dispatched has its pure work functor evaluated
  /// now, so the checkpoint always carries the functional outcome and
  /// never needs the functor. Fails with kJobNotPending when the job is
  /// not pending (already finished, failed, migrated or checkpointed).
  util::Result<JobCheckpoint> checkpoint_job(JobId id);

  /// Re-admits a checkpointed job. On the service that produced the
  /// checkpoint the original JobId is revived; on any other service a
  /// new id is issued. Compute progress is honoured by the preemptive
  /// policies (the job only pays its remaining compute). Fails with
  /// kOverloaded past the tenant quota, kSnapshot* on a bad stream and
  /// kAdmissionReject when the configuration is not registered here.
  util::Result<JobId> restore_job(const JobCheckpoint& ckpt);

  /// checkpoint_job + target.restore_job in one step: moves a pending
  /// job to another service (typically over another crate). The source
  /// ledger entry is marked migrated; the returned id is the job's id
  /// on the target. When the target refuses the job, the job stays
  /// pending here, at the back of its queue, and the refusal is returned.
  util::Result<JobId> migrate_job(JobId id, JobService& target);

  /// When set, losing the last alive board — or a drop-out under a
  /// preemptive policy — drains pending jobs to `target` via
  /// migrate_job instead of failing them with kBoardDead. The target is
  /// not owned and must outlive this service; nullptr detaches.
  void set_migration_target(JobService* target) { migration_target_ = target; }
  JobService* migration_target() const { return migration_target_; }

  /// Snapshottable composite: the whole serving state — the underlying
  /// system (boards, timeline, injector) via AtlantisSystem::save_state,
  /// then a "serve/service" section with the ledger, queues, per-job
  /// progress and per-board driver/switcher state. load_state restores
  /// into a twin service built over an identically assembled system with
  /// the same options, configurations and submissions (work functors
  /// live in the twin's own submissions; they are never serialized).
  void save_state(sim::SnapshotWriter& w) const override;
  void load_state(sim::SnapshotReader& r) override;

  /// Ledger of every job ever submitted, indexed by JobId.
  const std::vector<JobRecord>& jobs() const { return records_; }
  const JobRecord& job(JobId id) const { return records_.at(id); }
  const ServiceReport& report() const { return report_; }

  std::size_t pending() const { return queues_.total(); }
  /// True while any board holds a job mid-compute (preemptive policies
  /// paused by a bounded run()).
  bool has_active_jobs() const;
  /// Per-board switcher (cache stats, current task) for inspection.
  const core::TaskSwitcher& switcher(int board_index) const;
  /// Per-board driver (timeline cursor, DMA/config fault counters).
  const core::AtlantisDriver& driver(int board_index) const;
  /// Switch and cache counters summed over every board, lifetime. A run
  /// reports the difference between two readings.
  core::SwitchCounters switch_counters() const;

  // --- supervision hooks (serve::Supervisor) ---------------------------
  int board_count() const { return static_cast<int>(boards_.size()); }
  bool board_dead(int board_index) const;
  bool board_quarantined(int board_index) const;

  /// Quarantine gate. A disabled board is skipped by the scheduler but
  /// stays alive (its cache and cursor survive); its active job, if any,
  /// is re-queued with its progress intact. When every schedulable board
  /// is merely quarantined (none alive and enabled), run() returns with
  /// the work still queued instead of failing it — the supervisor owns
  /// the next step (re-admission or a drain to the spare crate).
  void set_board_enabled(int board_index, bool enabled);

  /// Re-admits a board lost to a drop-out after the underlying AcbBoard
  /// came back alive (field repair / power cycle). The board rejoins the
  /// rotation with an invalidated cache; its next job pays a full
  /// configuration load.
  void revive_board(int board_index);

  /// One configuration scrub pass over the board's host-PCI FPGA
  /// (readback + rewrite; an SEU opportunity per window). Returns true
  /// when an upset was found and corrected.
  bool scrub_board(int board_index);

  /// Pending (queued) job ids, in deterministic queue order.
  std::vector<JobId> pending_ids() const;

  /// Re-opens a job that resolved with a transient failure (DMA retries
  /// exhausted, timeout, dead board): the ledger entry goes back to
  /// pending and the job is re-queued for a fresh dispatch. Fails with
  /// kJobNotPending for jobs that are pending, served, migrated or
  /// checkpointed out.
  util::Result<JobId> retry_job(JobId id);

 private:
  struct BoardState {
    int index = -1;
    bool dead = false;
    bool quarantined = false;     // supervision gate; skipped, not failed
    std::optional<JobId> active;  // job mid-compute (preemptive policies)
    std::unique_ptr<core::AtlantisDriver> driver;
    std::unique_ptr<core::TaskSwitcher> switcher;
  };

  /// What the service knows about a job once it has been touched by the
  /// scheduler: its (once-evaluated) pure outcome and how much of the
  /// modelled compute is still owed. This — not the functor — is what a
  /// checkpoint carries.
  struct JobProgress {
    JobOutcome outcome;
    bool outcome_ready = false;
    util::Picoseconds remaining = 0;
    bool input_done = false;
    std::uint32_t preemptions = 0;
  };

  /// One tenant's samples for finalize_report, kept across runs.
  struct TenantSamples {
    std::vector<double> waits;
    std::vector<double> services;
    std::uint64_t failed = 0;
  };

  sim::TrackId tenant_track(const std::string& tenant);
  /// The one board scan of both policies: the alive, enabled board with
  /// the smallest cursor that has a job mid-compute or, when idle, work
  /// to pick up (cursor ties keep the lowest index). A board killed from
  /// outside the service is lost here, so it joins report().dead_boards.
  BoardState* pick_board();
  /// True when at least one alive board is sidelined by the quarantine
  /// gate — the "no board" condition is then the supervisor's to fix.
  bool any_quarantined_alive() const;
  void run_batched(util::WorkerPool& pool, const RunOptions& options);
  void run_preemptive(const RunOptions& options);
  /// Serves batch_ on `board`.
  void serve_batch(BoardState& board, util::WorkerPool& pool);
  /// EDF pick over every queued job (deadline 0 = +inf; ties by id);
  /// removes the winner from its queue. Returns nullopt when idle.
  std::optional<JobId> edf_pick();
  /// Earliest effective deadline among queued jobs, or nullopt.
  std::optional<util::Picoseconds> earliest_waiting_deadline() const;
  void ensure_progress(JobId id);
  /// The one service-start point: the job's queue wait ends now on
  /// `board` and is posted on its tenant's track.
  void start_service(BoardState& board, JobRecord& rec);
  /// The label every compute slice of a job carries on its board's
  /// track, built in label_.
  std::string_view compute_label(const JobRecord& rec, bool resumed);
  bool start_run(BoardState& board, JobId id);
  void finish_run(BoardState& board);
  void preempt(BoardState& board);
  /// The one resolution point, the only code that moves a job out of
  /// pending. A job that ran to completion on `board` with outcome `out`
  /// reads its result back over the board's driver and is served, or
  /// fails with the read's error. A job without an outcome (`out` null)
  /// fails with `error`, and its ledger outcome carries `detail`.
  void resolve(JobId id, BoardState* board, const JobOutcome* out,
               util::ErrorCode error = util::ErrorCode::kOk,
               const std::string& detail = {});
  void fail_job(JobId id, util::ErrorCode code, const std::string& detail);
  /// Marks a board dead (drop-out / lost configuration path); its active
  /// job is re-queued — or migrated when a target is set.
  void lose_board(BoardState& board);
  JobCheckpoint make_checkpoint(JobId id);
  /// Migrates an already-detached pending job to the migration target.
  void migrate_out(JobId id);
  void fail_remaining(util::ErrorCode code);
  void finalize_report();
  /// The "serve/service" section up to its minor-1 quarantine tail.
  template <typename Self, typename Stream>
  static void walk(Self& self, Stream& s);

  core::AtlantisSystem& system_;
  ServeOptions options_;
  std::vector<BoardState> boards_;
  std::map<std::string, hw::Bitstream> configs_;
  ConfigQueues queues_;
  std::map<std::string, std::uint64_t> pending_by_tenant_;
  std::map<std::string, sim::TrackId> tenant_tracks_;
  /// Each job's pure functor, by JobId: the only part of a JobSpec the
  /// service keeps (the ledger holds the rest).
  std::vector<std::function<JobOutcome()>> work_;
  std::vector<JobRecord> records_;  // by JobId
  std::vector<JobId> run_ids_;      // jobs resolved by the current run()
  std::map<JobId, JobProgress> progress_;  // jobs touched, not yet resolved
  std::set<JobId> checkpointed_out_;
  JobService* migration_target_ = nullptr;
  ServiceReport report_;

  // Storage reused from batch to batch and run to run, so a warm
  // service serves a job without allocating.
  std::string label_;                 // the timeline label being built
  std::vector<JobId> batch_;          // run_batched's current batch
  std::vector<JobOutcome> outcomes_;  // its evaluated functors
  std::map<std::string, TenantSamples, std::less<>> tenant_samples_;
};

}  // namespace atlantis::serve

#include "serve/jobservice.hpp"

#include <algorithm>
#include <charconv>
#include <limits>
#include <utility>

#include "util/stats.hpp"
#include "util/status.hpp"
#include "util/worker_pool.hpp"

namespace atlantis::serve {
namespace {

// --- stream layouts shared by save_state / load_state and the
// --- "serve/job" checkpoints (sim/snapshot.hpp, "Field walks") --------

template <typename Outcome, typename Stream>
void walk_outcome(Outcome& o, Stream& s) {
  s.boolean(o.ok);
  s.string(o.detail);
  s.u64(o.checksum);
  s.f64(o.value);
  s.i64(o.compute_time);
  s.u64(o.dma_in_bytes);
  s.u64(o.dma_out_bytes);
}

/// What a touched job still owes: the service's progress entries and a
/// checkpoint both carry it.
template <typename Progress, typename Stream>
void walk_progress(Progress& p, Stream& s) {
  s.i64(p.remaining);
  s.boolean(p.input_done);
  s.u32(p.preemptions);
  walk_outcome(p.outcome, s);
}

/// One ledger entry. A twin replays the same submissions, so the
/// reader checks the entry's identity instead of taking it.
template <typename Record, typename Stream>
void walk_record(Record& rec, Stream& s) {
  s.expect_u64(rec.id, "ledger job id");
  s.expect_string(rec.tenant, "ledger job tenant");
  s.u8(rec.kind);
  s.expect_string(rec.config, "ledger job configuration");
  s.i64(rec.board);
  s.i64(rec.arrival);
  s.i64(rec.start);
  s.i64(rec.finish);
  s.i64(rec.queue_wait);
  s.i64(rec.deadline);
  s.u32(rec.preemptions);
  s.boolean(rec.migrated);
  s.u32(rec.error);
  walk_outcome(rec.outcome, s);
}

/// A checkpoint stream: the job's identity, its timing envelope and its
/// progress, in a "serve/job" section of its own.
template <typename Record, typename Progress, typename Stream>
void walk_checkpoint(Record& rec, Progress& prog, Stream& s) {
  s.section("serve/job", [&] {
    s.u64(rec.id);
    s.string(rec.tenant);
    s.u8(rec.kind);
    s.string(rec.config);
    s.i64(rec.arrival);
    s.i64(rec.deadline);
    walk_progress(prog, s);
  });
}

}  // namespace

JobService::JobService(core::AtlantisSystem& system, ServeOptions options)
    : system_(system), options_(std::move(options)) {
  ATLANTIS_CHECK(system_.acb_count() > 0,
                 "a JobService needs at least one computing board");
  ATLANTIS_CHECK(options_.max_batch >= 1,
                 "a batch must have room for at least one job");
  ATLANTIS_CHECK(options_.preempt_slice > 0,
                 "a preemption slice must be positive");
  boards_.reserve(static_cast<std::size_t>(system_.acb_count()));
  for (int i = 0; i < system_.acb_count(); ++i) {
    BoardState state;
    state.index = i;
    state.dead = !system_.acb(i).alive();
    state.driver = std::make_unique<core::AtlantisDriver>(system_, i);
    // The switcher wraps the board's host-PCI FPGA and stays UNBOUND:
    // reconfigurations are posted through the driver's cursor
    // (try_switch_task), so each board has exactly one notion of "now".
    state.switcher =
        std::make_unique<core::TaskSwitcher>(system_.acb(i).fpga(0));
    state.switcher->enable_cache(options_.cache_capacity);
    state.switcher->set_differential(options_.differential_reconfig);
    boards_.push_back(std::move(state));
  }
}

void JobService::register_config(const hw::Bitstream& bs) {
  configs_[bs.name] = bs;
  for (BoardState& board : boards_) board.switcher->add_task(bs);
}

util::Result<JobId> JobService::submit(JobSpec spec) {
  if (configs_.count(spec.config) == 0) {
    return util::Result<JobId>::failure(
        util::ErrorCode::kAdmissionReject,
        "configuration '" + spec.config +
            "' was never registered with the service");
  }
  ATLANTIS_CHECK(static_cast<bool>(spec.work),
                 "a job needs a work functor");
  std::uint64_t& pending = pending_by_tenant_[spec.tenant];
  if (pending >= options_.max_queued_per_tenant) {
    return util::Result<JobId>::failure(
        util::ErrorCode::kOverloaded,
        "tenant '" + spec.tenant + "' already holds " +
            std::to_string(pending) + " queued jobs");
  }
  const JobId id = static_cast<JobId>(records_.size());
  JobRecord rec;
  rec.id = id;
  rec.tenant = std::move(spec.tenant);
  rec.kind = spec.kind;
  rec.config = std::move(spec.config);
  rec.arrival = spec.arrival;
  rec.deadline = spec.deadline;
  queues_.push_back(rec.config, id);
  records_.push_back(std::move(rec));
  work_.push_back(std::move(spec.work));
  ++pending;
  return id;
}

const core::TaskSwitcher& JobService::switcher(int board_index) const {
  return *boards_.at(static_cast<std::size_t>(board_index)).switcher;
}

const core::AtlantisDriver& JobService::driver(int board_index) const {
  return *boards_.at(static_cast<std::size_t>(board_index)).driver;
}

bool JobService::board_dead(int board_index) const {
  return boards_.at(static_cast<std::size_t>(board_index)).dead;
}

bool JobService::board_quarantined(int board_index) const {
  return boards_.at(static_cast<std::size_t>(board_index)).quarantined;
}

void JobService::set_board_enabled(int board_index, bool enabled) {
  BoardState& board = boards_.at(static_cast<std::size_t>(board_index));
  if (!enabled && board.active) {
    // Detach the mid-compute job with its progress intact (the same
    // in-crate migration a preemption performs): another board resumes
    // it from its remaining compute.
    const JobId id = *board.active;
    board.active.reset();
    queues_.push_front(records_[id].config, {&id, 1});
  }
  board.quarantined = !enabled;
}

void JobService::revive_board(int board_index) {
  BoardState& board = boards_.at(static_cast<std::size_t>(board_index));
  ATLANTIS_CHECK(system_.acb(board.index).alive(),
                 "revive_board needs the underlying board alive again");
  if (!board.dead) return;
  board.dead = false;
  board.switcher->invalidate_cache();
}

bool JobService::scrub_board(int board_index) {
  BoardState& board = boards_.at(static_cast<std::size_t>(board_index));
  return board.switcher->scrub();
}

std::vector<JobId> JobService::pending_ids() const {
  std::vector<JobId> ids;
  for (const auto& [config, id] : queues_.all()) ids.push_back(id);
  return ids;
}

util::Result<JobId> JobService::retry_job(JobId id) {
  if (id >= records_.size()) {
    return util::Result<JobId>::failure(
        util::ErrorCode::kJobNotPending,
        "unknown job id " + std::to_string(id));
  }
  JobRecord& rec = records_[id];
  if (rec.migrated || checkpointed_out_.count(id) != 0 ||
      rec.error == util::ErrorCode::kOk) {
    return util::Result<JobId>::failure(
        util::ErrorCode::kJobNotPending,
        "job " + std::to_string(id) + " is not a resolved failure");
  }
  // Back to pending: the pure functor is still held, so a fresh dispatch
  // re-evaluates and re-pays the full job.
  rec.error = util::ErrorCode::kOk;
  rec.outcome = JobOutcome{};
  rec.board = -1;
  rec.start = 0;
  rec.finish = 0;
  rec.queue_wait = 0;
  queues_.push_back(rec.config, id);
  ++pending_by_tenant_[rec.tenant];
  return id;
}

bool JobService::has_active_jobs() const {
  for (const BoardState& b : boards_) {
    if (b.active) return true;
  }
  return false;
}

bool JobService::any_quarantined_alive() const {
  for (const BoardState& b : boards_) {
    if (!b.dead && b.quarantined && system_.acb(b.index).alive()) return true;
  }
  return false;
}

sim::TrackId JobService::tenant_track(const std::string& tenant) {
  const auto it = tenant_tracks_.find(tenant);
  if (it != tenant_tracks_.end()) return it->second;
  const sim::TrackId track =
      system_.timeline().add_track("tenant/" + tenant);
  tenant_tracks_.emplace(tenant, track);
  return track;
}

JobService::BoardState* JobService::pick_board() {
  BoardState* best = nullptr;
  for (BoardState& board : boards_) {
    if (board.dead) continue;
    if (!system_.acb(board.index).alive()) {  // killed from outside
      lose_board(board);
      continue;
    }
    if (board.quarantined) continue;
    if (!board.active && queues_.empty()) continue;  // nothing to advance
    if (best == nullptr || board.driver->now() < best->driver->now()) {
      best = &board;  // ties keep the lowest index (iteration order)
    }
  }
  return best;
}

const ServiceReport& JobService::run(const RunOptions& options) {
  util::WorkerPool& workers =
      options.pool != nullptr ? *options.pool : util::WorkerPool::shared();
  report_ = ServiceReport{};
  run_ids_.clear();
  // Repeated run() calls report only their own switches.
  const core::SwitchCounters before = switch_counters();

  if (options_.policy == Policy::kBatched) {
    run_batched(workers, options);
  } else {
    run_preemptive(options);
  }

  const core::SwitchCounters ran = switch_counters() - before;
  report_.task_switches = ran.switches;
  report_.full_reconfigs = ran.full_reconfigs();
  report_.partial_reconfigs = ran.partials;
  report_.regions_loaded = ran.regions;
  report_.cache_hits = ran.hits;
  report_.cache_misses = ran.misses;
  report_.cache_evictions = ran.evictions;
  report_.cache_hit_rate = ran.hit_rate();
  report_.reconfig_time = ran.switch_time;
  report_.partial_reconfig_time = ran.partial_time;
  finalize_report();
  return report_;
}

core::SwitchCounters JobService::switch_counters() const {
  core::SwitchCounters sum;
  for (const BoardState& b : boards_) sum += b.switcher->counters();
  return sum;
}

void JobService::run_batched(util::WorkerPool& pool,
                             const RunOptions& options) {
  std::size_t dispatches = 0;
  while (!queues_.empty()) {
    if (dispatches++ >= options.max_dispatches) return;  // bounded: paused
    BoardState* board = pick_board();
    if (board == nullptr) {
      // All schedulable boards are merely quarantined: leave the work
      // queued for the supervisor (re-admission or spare drain) rather
      // than declaring the crate dead.
      if (any_quarantined_alive()) return;
      fail_remaining(util::ErrorCode::kBoardDead);
      break;
    }
    core::AcbBoard& acb = system_.acb(board->index);

    // The queue's own key: queues stay in the map once created.
    const std::string& config =
        options_.fifo_order ? queues_.pick_fifo()
                            : queues_.pick(board->switcher->current());
    batch_.clear();
    while (static_cast<int>(batch_.size()) < options_.max_batch &&
           queues_.depth(config) > 0) {
      batch_.push_back(queues_.pop_front(config));
    }

    // One drop-out opportunity per dispatch, drawn on the scheduling
    // thread BEFORE any state changes, so the draw order — and the
    // schedule — is pool-size invariant.
    if (acb.draw_dropout()) {
      queues_.push_front(config, batch_);
      lose_board(*board);
      continue;
    }

    // Make the configuration resident (full load, partial reconfig, or a
    // cache-hit activation). A switch that cannot complete within the
    // retry policy means the board lost its configuration path: drain it.
    const util::Result<util::Picoseconds> sw =
        board->driver->try_switch_task(*board->switcher, config);
    if (!sw.ok()) {
      queues_.push_front(config, batch_);
      lose_board(*board);
      continue;
    }

    serve_batch(*board, pool);
    ++report_.batches;
  }
}

void JobService::run_preemptive(const RunOptions& options) {
  std::size_t dispatches = 0;
  const auto any_active = [&] {
    for (const BoardState& b : boards_) {
      if (!b.dead && b.active) return true;
    }
    return false;
  };
  while (!queues_.empty() || any_active()) {
    if (dispatches++ >= options.max_dispatches) return;  // bounded: paused

    BoardState* board = pick_board();
    if (board == nullptr) {
      if (any_active()) continue;  // boards were lost in the scan above
      if (any_quarantined_alive()) return;  // supervisor owns the next step
      fail_remaining(util::ErrorCode::kBoardDead);
      break;
    }

    if (!board->active) {
      const std::optional<JobId> next = edf_pick();
      if (!next) continue;  // raced with a lost board; re-scan
      // One drop-out opportunity per fresh dispatch, mirroring the
      // batched policy's draw point.
      if (system_.acb(board->index).draw_dropout()) {
        queues_.push_front(records_[*next].config, {&*next, 1});
        lose_board(*board);
        continue;
      }
      if (!start_run(*board, *next)) continue;
      if (!board->active) continue;  // job resolved at dispatch (I/O fail)
    }

    JobProgress& prog = progress_.at(*board->active);
    const util::Picoseconds slice =
        std::min(prog.remaining, options_.preempt_slice);
    if (slice > 0) {
      board->driver->advance(
          slice, compute_label(records_[*board->active], prog.preemptions > 0));
      prog.remaining -= slice;
    }
    if (prog.remaining <= 0) {
      finish_run(*board);
      continue;
    }
    // Preemption check after each slice: a strictly earlier waiting
    // deadline evicts the active job (no deadline = never urgent enough
    // to preempt, always preemptible).
    const std::optional<util::Picoseconds> waiting =
        earliest_waiting_deadline();
    const JobRecord& active_rec = records_[*board->active];
    const util::Picoseconds active_deadline =
        active_rec.deadline > 0 ? active_rec.deadline
                                : std::numeric_limits<util::Picoseconds>::max();
    if (waiting && *waiting < active_deadline) preempt(*board);
  }
}

std::optional<JobId> JobService::edf_pick() {
  std::optional<JobId> best;
  std::string best_config;
  util::Picoseconds best_deadline = 0;
  for (const auto& [config, id] : queues_.all()) {
    const util::Picoseconds d =
        records_[id].deadline > 0
            ? records_[id].deadline
            : std::numeric_limits<util::Picoseconds>::max();
    if (!best || d < best_deadline || (d == best_deadline && id < *best)) {
      best = id;
      best_config = config;
      best_deadline = d;
    }
  }
  if (best) queues_.erase(best_config, *best);
  return best;
}

std::optional<util::Picoseconds> JobService::earliest_waiting_deadline()
    const {
  std::optional<util::Picoseconds> best;
  for (const auto& [config, id] : queues_.all()) {
    const util::Picoseconds d =
        records_[id].deadline > 0
            ? records_[id].deadline
            : std::numeric_limits<util::Picoseconds>::max();
    if (!best || d < *best) best = d;
  }
  return best;
}

void JobService::ensure_progress(JobId id) {
  JobProgress& prog = progress_[id];
  if (prog.outcome_ready) return;
  // The pure functor is evaluated once, inline on the scheduling thread:
  // from here on the job is fully described by data, which is what makes
  // checkpoints portable without the functor.
  prog.outcome = work_[id]();
  prog.outcome_ready = true;
  prog.remaining = prog.outcome.compute_time;
}

bool JobService::start_run(BoardState& board, JobId id) {
  JobRecord& rec = records_[id];
  const util::Result<util::Picoseconds> sw =
      board.driver->try_switch_task(*board.switcher, rec.config);
  if (!sw.ok()) {
    queues_.push_front(rec.config, {&id, 1});
    lose_board(board);
    return false;
  }
  ensure_progress(id);
  JobProgress& prog = progress_.at(id);
  if (rec.board < 0) start_service(board, rec);  // first dispatch only
  rec.board = board.index;
  if (!prog.input_done && prog.outcome.dma_in_bytes > 0) {
    const util::Result<hw::DmaTransfer> w =
        board.driver->try_dma_write(prog.outcome.dma_in_bytes);
    if (!w.ok()) {
      fail_job(id, w.error(), "input DMA failed");
      return true;  // board stays alive and idle
    }
  }
  prog.input_done = true;
  board.active = id;
  return true;
}

void JobService::finish_run(BoardState& board) {
  const JobId id = *board.active;
  board.active.reset();
  const JobProgress& prog = progress_.at(id);
  records_[id].preemptions = prog.preemptions;
  resolve(id, &board, &prog.outcome);
}

void JobService::preempt(BoardState& board) {
  const JobId id = *board.active;
  board.active.reset();
  JobProgress& prog = progress_.at(id);
  ++prog.preemptions;
  ++report_.preemptions;
  if (options_.policy == Policy::kAbortRerun) {
    // The baseline without checkpointing: all progress is lost, the
    // input payload must be streamed again.
    prog.remaining = prog.outcome.compute_time;
    prog.input_done = false;
  }
  queues_.push_front(records_[id].config, {&id, 1});
}

void JobService::fail_job(JobId id, util::ErrorCode code,
                          const std::string& detail) {
  resolve(id, nullptr, nullptr, code, detail);
}

void JobService::start_service(BoardState& board, JobRecord& rec) {
  core::AtlantisDriver& drv = *board.driver;
  rec.board = board.index;
  rec.start = drv.now();
  rec.queue_wait = std::max<util::Picoseconds>(0, rec.start - rec.arrival);
  // The wait lands on the tenant's own track, so a trace shows each
  // tenant's queueing.
  label_.assign(job_kind_name(rec.kind))
      .append(" wait [")
      .append(rec.config)
      .append("]");
  drv.timeline().post(tenant_track(rec.tenant), sim::TxnKind::kQueueWait,
                      label_, sim::ResourceId{}, rec.arrival, rec.queue_wait);
}

std::string_view JobService::compute_label(const JobRecord& rec,
                                           bool resumed) {
  char id[24];
  char* const id_end = std::to_chars(id, id + sizeof(id), rec.id).ptr;
  label_.assign(job_kind_name(rec.kind))
      .append(" ")
      .append(rec.tenant)
      .append("#")
      .append(id, id_end);
  if (resumed) label_.append(" (resumed)");
  return label_;
}

void JobService::resolve(JobId id, BoardState* board, const JobOutcome* out,
                         util::ErrorCode error, const std::string& detail) {
  JobRecord& rec = records_[id];
  if (out != nullptr) {
    core::AtlantisDriver& drv = *board->driver;
    if (out->dma_out_bytes > 0) {
      const util::Result<hw::DmaTransfer> r =
          drv.try_dma_read(out->dma_out_bytes);
      if (!r.ok()) error = r.error();
    }
    rec.finish = drv.now();
    rec.outcome = *out;
  } else {
    rec.outcome.ok = false;
    rec.outcome.detail = detail;
  }
  rec.error = error;
  if (error == util::ErrorCode::kOk) {
    ++report_.served;
  } else {
    ++report_.failed;
  }
  if (rec.deadline > 0 && rec.finish > rec.deadline) {
    ++report_.deadline_misses;
  }
  --pending_by_tenant_[rec.tenant];
  run_ids_.push_back(id);
  progress_.erase(id);  // last: `out` may live here; restored jobs carry one
}

void JobService::lose_board(BoardState& board) {
  board.dead = true;
  board.switcher->invalidate_cache();
  report_.dead_boards.push_back(board.index);
  if (board.active) {
    const JobId id = *board.active;
    board.active.reset();
    if (migration_target_ != nullptr) {
      migrate_out(id);
    } else {
      // The job's progress lives in progress_, so any surviving board
      // resumes it from its remaining compute — an in-crate migration.
      queues_.push_front(records_[id].config, {&id, 1});
    }
  }
}

void JobService::serve_batch(BoardState& board, util::WorkerPool& pool) {
  // Functional evaluation: pure job functors, results addressed by
  // index. This is the ONLY thing the pool size touches; inside a
  // cluster's shard drain the call runs inline on the drain's thread.
  // Capturing only `this` keeps the task in std::function's own buffer.
  outcomes_.resize(batch_.size());
  pool.parallel_for(static_cast<int>(batch_.size()), [this](int i) {
    const auto at = static_cast<std::size_t>(i);
    outcomes_[at] = work_[batch_[at]]();
  });

  core::AtlantisDriver& drv = *board.driver;
  for (std::size_t i = 0; i < batch_.size(); ++i) {
    JobRecord& rec = records_[batch_[i]];
    const JobOutcome& out = outcomes_[i];
    start_service(board, rec);
    // Input streams in while the board computes; join at the max.
    if (out.dma_in_bytes > 0) drv.dma_write_async(out.dma_in_bytes);
    if (out.compute_time > 0) {
      drv.advance(out.compute_time, compute_label(rec, false));
    }
    drv.wait();
    resolve(batch_[i], &board, &out);
  }
}

void JobService::fail_remaining(util::ErrorCode code) {
  while (!queues_.empty()) {
    const std::string& config = queues_.pick("");
    const JobId id = queues_.pop_front(config);
    if (migration_target_ != nullptr) {
      // The drain path of a dying crate: pending jobs move to the spare
      // service instead of completing with kBoardDead.
      migrate_out(id);
    } else {
      fail_job(id, code, "no alive board to serve the job");
    }
  }
}

JobCheckpoint JobService::make_checkpoint(JobId id) {
  ensure_progress(id);
  const JobRecord& rec = records_[id];
  sim::SnapshotWriter w;
  walk_checkpoint(rec, std::as_const(progress_).at(id), w);
  JobCheckpoint ckpt;
  ckpt.id = rec.id;
  ckpt.tenant = rec.tenant;
  ckpt.config = rec.config;
  ckpt.bytes = w.bytes();
  return ckpt;
}

util::Result<JobCheckpoint> JobService::checkpoint_job(JobId id) {
  if (id >= records_.size()) {
    return util::Result<JobCheckpoint>::failure(util::ErrorCode::kJobNotPending,
                                                "unknown job id " +
                                                    std::to_string(id));
  }
  JobRecord& rec = records_[id];
  if (checkpointed_out_.count(id) != 0) {
    return util::Result<JobCheckpoint>::failure(
        util::ErrorCode::kJobNotPending,
        "job " + std::to_string(id) + " is already checkpointed out");
  }
  bool detached = queues_.erase(rec.config, id);
  if (!detached) {
    for (BoardState& b : boards_) {
      if (b.active && *b.active == id) {
        b.active.reset();
        detached = true;
        break;
      }
    }
  }
  if (!detached) {
    return util::Result<JobCheckpoint>::failure(
        util::ErrorCode::kJobNotPending,
        "job " + std::to_string(id) + " is not pending (already resolved?)");
  }
  JobCheckpoint ckpt = make_checkpoint(id);
  checkpointed_out_.insert(id);
  --pending_by_tenant_[rec.tenant];
  return ckpt;
}

util::Result<JobId> JobService::restore_job(const JobCheckpoint& ckpt) {
  util::Result<sim::SnapshotReader> opened =
      sim::SnapshotReader::open(ckpt.bytes);
  if (!opened.ok()) {
    return util::Result<JobId>::failure(opened.error(), opened.message());
  }
  sim::SnapshotReader r = std::move(opened.value());
  if (!r.has_section("serve/job")) {
    // A truncation that ends exactly on a frame boundary parses as a
    // valid (shorter) stream; missing the job section is still a
    // corrupt checkpoint, not a caller error.
    return util::Result<JobId>::failure(util::ErrorCode::kSnapshotCorrupt,
                                        "checkpoint has no job section");
  }
  // Parsed into fresh values, so a refusal below leaves this service
  // untouched.
  JobRecord rec;
  JobProgress prog;
  walk_checkpoint(rec, prog, r);
  prog.outcome_ready = true;  // a checkpoint always carries the outcome
  if (configs_.count(rec.config) == 0) {
    return util::Result<JobId>::failure(
        util::ErrorCode::kAdmissionReject,
        "checkpointed job needs configuration '" + rec.config +
            "', which was never registered with this service");
  }

  // Back home: the service that produced the checkpoint revives the
  // original id (ledger continuity for preempt-and-resume).
  const JobId saved_id = rec.id;
  if (saved_id < records_.size() && checkpointed_out_.count(saved_id) != 0 &&
      records_[saved_id].tenant == rec.tenant &&
      records_[saved_id].config == rec.config) {
    checkpointed_out_.erase(saved_id);
    records_[saved_id].migrated = false;
    progress_[saved_id] = std::move(prog);
    queues_.push_back(rec.config, saved_id);
    ++pending_by_tenant_[rec.tenant];
    return saved_id;
  }

  std::uint64_t& pending = pending_by_tenant_[rec.tenant];
  if (pending >= options_.max_queued_per_tenant) {
    return util::Result<JobId>::failure(
        util::ErrorCode::kOverloaded,
        "tenant '" + rec.tenant + "' already holds " +
            std::to_string(pending) + " queued jobs");
  }
  const JobId id = static_cast<JobId>(records_.size());
  // The data replaces the functor.
  work_.push_back([outcome = prog.outcome] { return outcome; });
  rec.id = id;
  rec.preemptions = prog.preemptions;
  queues_.push_back(rec.config, id);
  records_.push_back(std::move(rec));
  progress_[id] = std::move(prog);
  ++pending;
  return id;
}

util::Result<JobId> JobService::migrate_job(JobId id, JobService& target) {
  const util::Result<JobCheckpoint> ckpt = checkpoint_job(id);
  if (!ckpt.ok()) {
    return util::Result<JobId>::failure(ckpt.error(), ckpt.message());
  }
  const util::Result<JobId> restored = target.restore_job(ckpt.value());
  if (!restored.ok()) {
    // The target refused it: revive the job here (the original id, at
    // the back of its queue), so the failed call leaves it pending.
    (void)restore_job(ckpt.value()).value();
    return restored;
  }
  records_[id].migrated = true;
  ++report_.migrated;
  progress_.erase(id);
  return restored;
}

void JobService::migrate_out(JobId id) {
  const util::Result<JobId> restored =
      migration_target_->restore_job(make_checkpoint(id));
  if (!restored.ok()) {
    fail_job(id, restored.error(), "migration failed: " + restored.message());
    return;
  }
  JobRecord& rec = records_[id];
  --pending_by_tenant_[rec.tenant];
  progress_.erase(id);
  rec.migrated = true;
  ++report_.migrated;
}

template <typename Self, typename Stream>
void JobService::walk(Self& self, Stream& s) {
  s.expect_u32(self.boards_.size(), "service board count");
  for (auto& b : self.boards_) {
    s.boolean(b.dead);
    bool has_active = b.active.has_value();
    JobId active = b.active.value_or(0);
    s.boolean(has_active);
    s.u64(active);
    if constexpr (Stream::kLoading) {
      b.active = has_active ? std::optional<JobId>(active) : std::nullopt;
    }
    s.state(*b.driver);
    s.state(*b.switcher);
  }
  s.expect_u64(self.records_.size(),
               "service ledger size (a twin replays the same submissions "
               "before load_state)");
  for (auto& rec : self.records_) walk_record(rec, s);
  // The queues travel as (configuration, job) pairs in queue order; the
  // reader rebuilds the per-configuration FIFOs from them.
  std::vector<std::pair<std::string, JobId>> queued;
  if constexpr (!Stream::kLoading) queued = self.queues_.all();
  s.seq64(queued, [&](auto& q) {
    s.string(q.first);
    s.u64(q.second);
  });
  if constexpr (Stream::kLoading) {
    self.queues_ = ConfigQueues{};
    for (const auto& [config, id] : queued) self.queues_.push_back(config, id);
  }
  s.seq32(self.pending_by_tenant_, [&](auto& tenant) {
    s.string(tenant.first);
    s.u64(tenant.second);
  });
  // Tenant tracks are created lazily on the shared timeline; the mapping
  // must survive so a restored twin keeps posting on the same tracks.
  s.seq32(self.tenant_tracks_, [&](auto& tenant) {
    s.string(tenant.first);
    s.u32(tenant.second.value);
  });
  s.seq32(self.progress_, [&](auto& job) {
    s.u64(job.first);
    s.boolean(job.second.outcome_ready);
    walk_progress(job.second, s);
  });
  s.seq32(self.checkpointed_out_, [&](auto& id) { s.u64(id); });
}

void JobService::save_state(sim::SnapshotWriter& w) const {
  w.presize(*this);
  system_.save_state(w);
  w.begin_section("serve/service");
  walk(*this, w);
  // Appended in minor 1: the quarantine bitmask. Kept at the section
  // tail so minor-0 readers simply never reach it and minor-0 streams
  // load with no board quarantined (load_state finds no bytes left).
  ATLANTIS_CHECK(boards_.size() <= 64,
                 "quarantine mask carries at most 64 boards");
  std::uint64_t quarantine_mask = 0;
  for (std::size_t i = 0; i < boards_.size(); ++i) {
    if (boards_[i].quarantined) quarantine_mask |= 1ull << i;
  }
  w.put_u64(quarantine_mask);
  w.end_section();
}

void JobService::load_state(sim::SnapshotReader& r) {
  system_.load_state(r);
  r.select("serve/service");
  walk(*this, r);
  const std::uint64_t quarantine_mask =
      r.remaining() >= sizeof(std::uint64_t) ? r.get_u64() : 0;
  for (std::size_t i = 0; i < boards_.size(); ++i) {
    boards_[i].quarantined = (quarantine_mask & (1ull << i)) != 0;
  }
}

void JobService::finalize_report() {
  // Per-tenant quality, from this run's records only. The sample
  // buffers persist across runs, so a run reuses their storage.
  for (auto& [tenant, t] : tenant_samples_) {
    t.waits.clear();
    t.services.clear();
    t.failed = 0;
  }
  for (const JobId id : run_ids_) {
    const JobRecord& rec = records_[id];
    TenantSamples& t = tenant_samples_[rec.tenant];
    if (rec.error != util::ErrorCode::kOk || !rec.outcome.ok) {
      ++t.failed;
      if (rec.board < 0) continue;  // never dispatched: no timing sample
    }
    t.waits.push_back(static_cast<double>(rec.queue_wait));
    t.services.push_back(static_cast<double>(rec.finish - rec.start));
    report_.makespan = std::max(report_.makespan, rec.finish);
  }
  // In tenant-name order; tenants that only ever failed undispatched
  // still get a row.
  for (auto& [tenant, samples] : tenant_samples_) {
    if (samples.waits.empty() && samples.failed == 0) continue;
    TenantStats t;
    t.tenant = tenant;
    t.failed = samples.failed;
    std::vector<double>& w = samples.waits;
    if (!w.empty()) {
      t.jobs = w.size();
      std::sort(w.begin(), w.end());
      t.p50_wait =
          static_cast<util::Picoseconds>(util::percentile_sorted(w, 0.50));
      t.p99_wait =
          static_cast<util::Picoseconds>(util::percentile_sorted(w, 0.99));
      t.max_wait = static_cast<util::Picoseconds>(w.back());
      double sum = 0.0;
      for (const double v : samples.services) sum += v;
      t.mean_service = static_cast<util::Picoseconds>(
          sum / static_cast<double>(samples.services.size()));
    }
    report_.tenants.push_back(std::move(t));
  }
  if (report_.makespan > 0) {
    report_.jobs_per_second = static_cast<double>(report_.served) /
                              (static_cast<double>(report_.makespan) / 1e12);
  }
}

}  // namespace atlantis::serve

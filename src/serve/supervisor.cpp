#include "serve/supervisor.hpp"

#include <algorithm>

#include "core/system.hpp"
#include "sim/fault.hpp"
#include "sim/snapshot.hpp"
#include "util/status.hpp"

namespace atlantis::serve {
namespace {

std::uint64_t sub(std::uint64_t a, std::uint64_t b) {
  return a >= b ? a - b : 0;
}

bool transient(util::ErrorCode code) {
  switch (code) {
    case util::ErrorCode::kDmaStall:
    case util::ErrorCode::kDmaAbort:
    case util::ErrorCode::kBoardDead:
    case util::ErrorCode::kTimeout:
    case util::ErrorCode::kRetriesExhausted:
      return true;
    default:
      return false;
  }
}

}  // namespace

const char* board_condition_name(BoardCondition c) {
  switch (c) {
    case BoardCondition::kActive: return "active";
    case BoardCondition::kQuarantined: return "quarantined";
    case BoardCondition::kProbation: return "probation";
    case BoardCondition::kDead: return "dead";
  }
  return "unknown";
}

Supervisor::Supervisor(JobService& service, SupervisorOptions options)
    : service_(service), options_(options) {
  ATLANTIS_CHECK(options_.dispatches_per_tick >= 1,
                 "the service must make progress every tick");
  crash_site_ = "serve/" + service_.system().name();
  const sim::FaultInjector* inj = service_.system().fault_injector();
  const std::uint64_t seed = inj != nullptr ? inj->plan().seed : 0;
  boards_.resize(service_.board_count());
  for (int i = 0; i < service_.board_count(); ++i) {
    BoardSupervision& b = boards_[static_cast<std::size_t>(i)];
    const std::string name = service_.system().acb(i).name();
    b.reconfig = std::make_unique<CircuitBreaker>(options_.reconfig_breaker,
                                                  "reconfig/" + name, seed);
    b.dma = std::make_unique<CircuitBreaker>(options_.dma_breaker,
                                             "dma/" + name, seed);
    if (service_.board_dead(i)) {
      b.condition = BoardCondition::kDead;
      mark_down(b);
    } else if (service_.board_quarantined(i)) {
      b.condition = BoardCondition::kQuarantined;
      mark_down(b);
    }
  }
  rebaseline();
}

void Supervisor::set_spare(JobService* spare) {
  spare_ = spare;
  service_.set_migration_target(spare);
}

util::Picoseconds Supervisor::now() const {
  return service_.system().timeline().horizon();
}

Supervisor::CounterBase Supervisor::sample(
    int board_index, const core::SelfTestHealth& health) const {
  CounterBase base;
  base.health = health;
  const core::AtlantisDriver& drv = service_.driver(board_index);
  base.dma_faults = drv.dma_faults();
  base.dma_retries = drv.dma_retries();
  base.config_retries = drv.config_retries();
  const core::TaskSwitcher& sw = service_.switcher(board_index);
  base.reconfig_retries = sw.reconfig_retries();
  base.switches = sw.switch_count();
  return base;
}

HealthDelta Supervisor::diff(const CounterBase& base, const CounterBase& cur,
                             bool dropped) const {
  const core::SelfTestHealth& b = base.health;
  const core::SelfTestHealth& c = cur.health;
  HealthDelta d;
  d.dma_faults = sub(cur.dma_faults, base.dma_faults);
  d.dma_retries = sub(cur.dma_retries, base.dma_retries);
  d.reconfig_retries = sub(cur.reconfig_retries, base.reconfig_retries) +
                       sub(cur.config_retries, base.config_retries);
  d.crc_failures = sub(c.crc_failures, b.crc_failures);
  d.config_upsets = sub(c.config_upsets, b.config_upsets);
  d.slink_errors = sub(c.slink_errors, b.slink_errors) +
                   sub(c.truncated_frames, b.truncated_frames);
  d.retransmissions = sub(c.retransmissions, b.retransmissions);
  d.seu_flips = sub(c.seu_flips, b.seu_flips);
  d.ecc_corrections = sub(c.ecc_corrections, b.ecc_corrections);
  d.dropped = dropped;
  return d;
}

void Supervisor::mark_down(BoardSupervision& b) {
  if (b.down) return;
  b.down = true;
  b.down_since = now();
}

void Supervisor::mark_up(BoardSupervision& b) {
  if (!b.down) return;
  const util::Picoseconds t = now();
  const util::Picoseconds span = t > b.down_since ? t - b.down_since : 0;
  report_.downtime += span;
  report_.mttr += span;  // accumulator; divided by recoveries at the end
  ++report_.recoveries;
  b.down = false;
}

bool Supervisor::any_schedulable(int excluding) const {
  for (int i = 0; i < static_cast<int>(boards_.size()); ++i) {
    if (i == excluding) continue;
    const BoardCondition c = boards_[static_cast<std::size_t>(i)].condition;
    if (c == BoardCondition::kActive || c == BoardCondition::kProbation) {
      return true;
    }
  }
  return false;
}

void Supervisor::quarantine(int board_index) {
  BoardSupervision& b = boards_[static_cast<std::size_t>(board_index)];
  b.condition = BoardCondition::kQuarantined;
  b.clean_streak = 0;
  b.sick_windows = 0;
  service_.set_board_enabled(board_index, false);
  mark_down(b);
  ++report_.quarantines;
}

void Supervisor::readmit(int board_index) {
  BoardSupervision& b = boards_[static_cast<std::size_t>(board_index)];
  b.condition = BoardCondition::kProbation;
  b.probation_left = kProbationWindows;
  b.clean_streak = 0;
  service_.set_board_enabled(board_index, true);
  mark_up(b);
  ++report_.readmissions;
}

void Supervisor::drain_to_spare() {
  if (spare_ == nullptr) return;
  for (const JobId id : service_.pending_ids()) {
    auto moved = service_.migrate_job(id, *spare_);
    if (moved.ok()) {
      ++report_.drained_jobs;
      migrated_since_checkpoint_ = true;
    }
  }
}

void Supervisor::retry_transient_failures() {
  for (const JobRecord& rec : service_.jobs()) {
    if (report_.job_retries >= options_.max_job_retries) return;
    if (rec.migrated || !transient(rec.error)) continue;
    if (service_.retry_job(rec.id).ok()) ++report_.job_retries;
  }
}

void Supervisor::make_checkpoint() {
  sim::SnapshotWriter w;
  // History only grows between checkpoints: headroom over the last one
  // lets the save run without reallocating, and without the sizing pass
  // an unreserved writer runs first (DESIGN.md §13 measures both). The
  // genesis checkpoint reserves nothing, so its save is sized.
  w.reserve(checkpoint_.size() + checkpoint_.size() / 8);
  service_.save_state(w);
  checkpoint_ = std::move(w).take();
  checkpoint_jobs_ = service_.jobs().size();
  checkpoint_tick_ = report_.ticks;
  migrated_since_checkpoint_ = false;
  ++report_.checkpoints;
}

bool Supervisor::maybe_crash_and_restore() {
  sim::FaultInjector* inj = service_.system().fault_injector();
  if (inj == nullptr || !options_.enable_healing) return false;
  const auto hit = inj->draw(sim::FaultKind::kServiceCrash, crash_site_);
  const std::uint64_t ordinal =
      inj->opportunities(sim::FaultKind::kServiceCrash, crash_site_);
  if (!hit.has_value() || ordinal <= last_crash_handled_) return false;
  last_crash_handled_ = ordinal;
  ++report_.crashes;
  ATLANTIS_CHECK(!checkpoint_.empty(), "run() must take a genesis checkpoint");
  auto reader = sim::SnapshotReader::open(checkpoint_);
  ATLANTIS_CHECK(reader.ok(), "the last good checkpoint must parse");
  service_.load_state(reader.value());
  ++report_.restores;
  rebaseline();
  return true;
}

void Supervisor::rebaseline() {
  // Counters may have rewound (checkpoint restore) — re-sample every
  // baseline, re-sync conditions with the service's flags and forget
  // breaker windows (tallies survive; they are the report's numbers).
  const std::vector<core::SelfTestHealth> pages =
      service_.system().probe_health();
  for (int i = 0; i < static_cast<int>(boards_.size()); ++i) {
    BoardSupervision& b = boards_[static_cast<std::size_t>(i)];
    b.base = sample(i, pages[static_cast<std::size_t>(i)]);
    b.reconfig->reset();
    b.dma->reset();
    if (service_.board_dead(i)) {
      if (b.condition != BoardCondition::kDead) {
        b.condition = BoardCondition::kDead;
        b.dead_windows = 0;
        mark_down(b);
      }
    } else if (service_.board_quarantined(i)) {
      if (b.condition != BoardCondition::kQuarantined) {
        b.condition = BoardCondition::kQuarantined;
        b.clean_streak = 0;
        mark_down(b);
      }
    } else if (b.condition == BoardCondition::kDead ||
               b.condition == BoardCondition::kQuarantined) {
      b.condition = BoardCondition::kProbation;
      b.probation_left = kProbationWindows;
      mark_up(b);
    }
    // A restore can rewind the clock below a down mark taken later on
    // the pre-crash timeline; the replay re-lives that span, so clamp
    // the mark to the restored clock instead of losing the whole span.
    if (b.down && b.down_since > now()) b.down_since = now();
  }
}

void Supervisor::tick() {
  // Genesis checkpoint: crash recovery must always have a floor to
  // restore to, even when checkpoint_every == 0 (the abort/rerun
  // baseline replays the whole run from here). Jobs submitted since the
  // last checkpoint (between run() calls) move the floor up: load_state
  // refuses a snapshot whose ledger is shorter than the service's.
  if (options_.enable_healing &&
      (checkpoint_.empty() || service_.jobs().size() != checkpoint_jobs_)) {
    make_checkpoint();
  }
  ++report_.ticks;
  const util::Picoseconds tick_start = now();

  // 1. Bounded service progress. run() resets the service report, so
  // report().migrated is this tick's count — a drop-out that moved its
  // active job to the spare mid-run shows up here.
  RunOptions bounded;
  bounded.max_dispatches = options_.dispatches_per_tick;
  service_.run(bounded);
  if (service_.report().migrated > 0) migrated_since_checkpoint_ = true;

  // 2-6. Probe every board and run its supervision state machine.
  const std::vector<core::SelfTestHealth> pages =
      service_.system().probe_health();
  for (int i = 0; i < static_cast<int>(boards_.size()); ++i) {
    BoardSupervision& b = boards_[static_cast<std::size_t>(i)];
    const CounterBase cur = sample(i, pages[static_cast<std::size_t>(i)]);
    const bool dead_now = service_.board_dead(i);
    const bool dropped = dead_now && b.condition != BoardCondition::kDead;
    const HealthDelta d = diff(b.base, cur, dropped);
    // The success signal for both breakers is the window's completed
    // task switches: reconfiguration and DMA both ride every switch.
    const std::uint64_t traffic = sub(cur.switches, b.base.switches);
    b.base = cur;

    if (options_.enable_breakers) {
      b.reconfig->observe(d.reconfig_retries + d.crc_failures, traffic);
      b.dma->observe(d.dma_faults, traffic);
    }

    if (dropped) {
      b.condition = BoardCondition::kDead;
      b.dead_windows = 0;
      mark_down(b);
      continue;
    }

    if (b.condition == BoardCondition::kDead) {
      if (options_.repair_after > 0 &&
          ++b.dead_windows >= options_.repair_after) {
        service_.system().acb(i).set_alive(true);
        service_.revive_board(i);
        service_.set_board_enabled(i, true);
        b.score.reset();
        b.sick_windows = 0;
        b.dead_windows = 0;
        b.condition = BoardCondition::kProbation;
        b.probation_left = kProbationWindows;
        mark_up(b);
        ++report_.repairs;
      }
      continue;
    }

    const bool clean = b.score.observe(d);
    // An open reconfig breaker vetoes every scrub: each pass drives the
    // same flaky configuration port, and the breaker's whole point is to
    // stop hammering it until the half-open probe.
    const bool scrub_ok = options_.enable_healing &&
                          (!options_.enable_breakers ||
                           b.reconfig->state() != BreakerState::kOpen);

    switch (b.condition) {
      case BoardCondition::kActive:
      case BoardCondition::kProbation: {
        // Escalating scrub on configuration damage; decay when clean.
        if (scrub_ok && d.config_upsets + d.crc_failures > 0) {
          ++b.sick_windows;
          int passes = kScrubBase;
          for (int s = 1; s < b.sick_windows && passes < kScrubMax; ++s) {
            passes *= 2;
          }
          passes = std::min(passes, kScrubMax);
          for (int s = 0; s < passes; ++s) service_.scrub_board(i);
          report_.scrubs += static_cast<std::uint64_t>(passes);
        } else if (clean) {
          b.sick_windows = 0;
        }

        const bool breaker_open =
            options_.enable_breakers &&
            (b.reconfig->state() == BreakerState::kOpen ||
             b.dma->state() == BreakerState::kOpen);
        const bool unhealthy = b.score.value() < kQuarantineBelow;
        if (options_.enable_healing && (unhealthy || breaker_open) &&
            any_schedulable(i)) {
          quarantine(i);
          break;
        }
        if (b.condition == BoardCondition::kProbation) {
          if (!clean) {
            if (options_.enable_healing && any_schedulable(i)) {
              quarantine(i);
            }
          } else if (--b.probation_left <= 0) {
            b.condition = BoardCondition::kActive;
          }
        }
        break;
      }
      case BoardCondition::kQuarantined: {
        // One scrub per window keeps the configuration converging
        // without the escalation ladder (scrubs draw SEU opportunities
        // themselves, so more passes are not automatically better). An
        // open reconfig breaker vetoes even this: the board sits out
        // the full open window before touching the config port again.
        if (scrub_ok) {
          service_.scrub_board(i);
          ++report_.scrubs;
        }
        b.clean_streak = clean ? b.clean_streak + 1 : 0;
        const bool breakers_ok =
            !options_.enable_breakers ||
            (b.reconfig->allow() && b.dma->allow());
        if (b.clean_streak >= kReadmitAfterClean && breakers_ok) {
          readmit(i);
        }
        break;
      }
      case BoardCondition::kDead:
        break;  // handled above
    }
  }

  // 6b. Disaster path: nothing schedulable. A quarantined board is
  // recoverable — force the healthiest one back into probation rather
  // than giving up the crate. Only when every board is actually dead
  // does the queue drain to the spare (jobs must not wait out a field
  // repair when a hot spare is standing by).
  if (!any_schedulable()) {
    int best = -1;
    for (int i = 0; i < static_cast<int>(boards_.size()); ++i) {
      const BoardSupervision& b = boards_[static_cast<std::size_t>(i)];
      if (b.condition != BoardCondition::kQuarantined) continue;
      if (best < 0 ||
          b.score.value() >
              boards_[static_cast<std::size_t>(best)].score.value()) {
        best = i;
      }
    }
    if (best >= 0) {
      readmit(best);
    } else if (spare_ != nullptr && service_.pending() > 0) {
      drain_to_spare();  // every board is dead
    }
  }

  // 7. Re-open jobs that failed for transient reasons.
  retry_transient_failures();

  // 8. Checkpoint cadence — forced after any migration so a later crash
  // can never rewind past it and duplicate jobs on the spare — then the
  // crash draw.
  if (options_.enable_healing && !checkpoint_.empty()) {
    const bool due =
        options_.checkpoint_every > 0 &&
        report_.ticks - checkpoint_tick_ >=
            static_cast<std::uint64_t>(options_.checkpoint_every);
    if (migrated_since_checkpoint_ || due) make_checkpoint();
  }
  maybe_crash_and_restore();

  // Cumulative serving time: replayed segments after a restore count
  // again (the crate really re-lives them), so this is the honest
  // denominator for availability. A tick a restore rewound contributes
  // nothing — its replay will.
  const util::Picoseconds tick_end = now();
  if (tick_end > tick_start) report_.elapsed += tick_end - tick_start;
}

const SupervisorReport& Supervisor::run() {
  std::uint64_t guard = 0;
  while (service_.pending() > 0 || service_.has_active_jobs()) {
    tick();
    ATLANTIS_CHECK(++guard < 1000000, "supervised run failed to converge");
  }
  // A final retry sweep may re-open late failures; keep ticking until
  // the ledger is settled too.
  retry_transient_failures();
  while (service_.pending() > 0 || service_.has_active_jobs()) {
    tick();
    ATLANTIS_CHECK(++guard < 1000000, "supervised run failed to converge");
  }
  if (spare_ != nullptr && spare_->pending() > 0) spare_->run();

  // Availability over the supervised crate's own modelled horizon.
  const util::Picoseconds horizon = now();
  for (BoardSupervision& b : boards_) {
    if (!b.down) continue;
    const util::Picoseconds span =
        horizon > b.down_since ? horizon - b.down_since : 0;
    report_.downtime += span;
    report_.mttr += span;  // never recovered: the full remaining horizon
    ++report_.recoveries;
    b.down_since = horizon;  // accounted up to here; board stays down
  }
  if (report_.recoveries > 0) report_.mttr /= report_.recoveries;
  // Normalize by the cumulative serving time, not the final clock: a
  // crash restore rewinds the clock and the crate re-lives (and
  // re-accounts) the replayed span on both sides of the ratio.
  if (!boards_.empty() && report_.elapsed > 0) {
    const double total = static_cast<double>(report_.elapsed) *
                         static_cast<double>(boards_.size());
    report_.availability = std::max(
        0.0, 1.0 - static_cast<double>(report_.downtime) / total);
  }
  return report_;
}

BoardCondition Supervisor::board_condition(int board_index) const {
  return boards_.at(static_cast<std::size_t>(board_index)).condition;
}

double Supervisor::board_health(int board_index) const {
  return boards_.at(static_cast<std::size_t>(board_index)).score.value();
}

const CircuitBreaker& Supervisor::reconfig_breaker(int board_index) const {
  return *boards_.at(static_cast<std::size_t>(board_index)).reconfig;
}

const CircuitBreaker& Supervisor::dma_breaker(int board_index) const {
  return *boards_.at(static_cast<std::size_t>(board_index)).dma;
}

}  // namespace atlantis::serve

// The self-healing supervision loop over a JobService.
//
// The ATLANTIS operating concept (paper §"system integration") is a
// crate that keeps serving through the faults its own hardware model
// injects: SEUs in configuration SRAM, S-Link corruption, PCI DMA
// stalls, whole-board drop-outs — and, one level up, the serving
// process itself dying. The Supervisor closes that loop in software:
//
//   run():  while work remains:
//     1. let the service make a bounded amount of progress
//        (JobService::run with max_dispatches = `dispatches_per_tick`);
//     2. probe every board (its core::SelfTestHealth page plus the
//        driver and switcher counters) and diff against the previous
//        window;
//     3. feed the per-board reconfig and DMA circuit breakers
//        (serve/health.hpp) with the window's failure/success counts;
//     4. update each board's health score; escalate configuration
//        scrubbing on sick windows; quarantine boards whose score sank
//        below threshold or whose breaker opened (never the last
//        schedulable board);
//     5. re-admit quarantined boards after a clean streak, through a
//        probation period; any probation fault sends them back;
//     6. dead boards: after `repair_after` windows the field-repair
//        model powers them back on (AcbBoard::set_alive + revive_board)
//        into probation; while the crate has no schedulable board,
//        pending work drains to the spare crate via migrate_job;
//     7. re-open jobs that resolved with transient errors (board died
//        mid-batch, retry budget exhausted) up to `max_job_retries`;
//     8. every `checkpoint_every` ticks — and unconditionally after any
//        tick that migrated jobs, or before a tick when jobs were
//        submitted since the last checkpoint — snapshot the whole
//        service; then
//        draw the kServiceCrash fault and, on a hit, restore the last
//        good checkpoint and replay from it.
//
// Determinism: every decision above is a pure function of the service's
// deterministic state and the FaultPlan streams, so a supervised run is
// bit-identical under replay of the same seed — including crash points,
// because the service snapshot contains the injector and restoring it
// rewinds the crash-site stream. The supervisor keeps the ordinal of
// the last *handled* crash outside the snapshot, so the re-drawn echo
// of a crash it already recovered from is ignored instead of looping.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/acb.hpp"
#include "serve/health.hpp"
#include "serve/jobservice.hpp"
#include "util/units.hpp"

namespace atlantis::serve {

/// Supervision condition of one board, as the supervisor sees it.
/// kActive -> kQuarantined (bad score / open breaker) -> kProbation
/// (clean streak) -> kActive; kBoardDropout faults force kDead, field
/// repair returns the board through kProbation.
enum class BoardCondition { kActive, kQuarantined, kProbation, kDead };
const char* board_condition_name(BoardCondition c);

struct SupervisorOptions {
  /// Scheduling steps (batches / slices) the service runs per tick.
  std::size_t dispatches_per_tick = 2;
  /// Background checkpoint cadence in ticks; 0 disables periodic
  /// checkpoints (crash recovery then replays from genesis — the
  /// abort/rerun baseline the chaos bench compares against).
  int checkpoint_every = 8;
  /// Probe windows before a dead board's field repair completes; 0
  /// disables repair (dead boards stay dead).
  int repair_after = 4;
  /// Total transient-failure retries across all jobs; caps rescue work
  /// so a permanently sick crate still terminates.
  std::uint64_t max_job_retries = 16;
  bool enable_breakers = true;
  /// Quarantine, escalating configuration scrubs and crash recovery: off,
  /// the supervisor never quarantines or scrubs a board, never
  /// checkpoints and never draws kServiceCrash. Off together with
  /// enable_breakers, repair_after = 0 and max_job_retries = 0 it is a
  /// pure observer — the "unsupervised" baseline of the chaos bench, with
  /// identical accounting and zero healing.
  bool enable_healing = true;
  BreakerOptions reconfig_breaker;
  BreakerOptions dma_breaker;
};

/// Everything one supervised run did, for the chaos bench and tests.
struct SupervisorReport {
  std::uint64_t ticks = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t crashes = 0;   // kServiceCrash faults handled
  std::uint64_t restores = 0;  // checkpoint restores performed
  std::uint64_t quarantines = 0;
  std::uint64_t readmissions = 0;  // quarantine -> probation promotions
  std::uint64_t repairs = 0;       // dead boards powered back on
  std::uint64_t scrubs = 0;        // scrub passes issued by escalation
  std::uint64_t job_retries = 0;
  std::uint64_t drained_jobs = 0;  // migrated to the spare crate
  std::uint64_t breaker_opens = 0;
  std::uint64_t breaker_half_opens = 0;
  /// Cumulative modelled time the ticks advanced the crate clock by.
  /// Replayed segments after a crash restore count once per replay, so
  /// this — not the final clock — is availability's denominator.
  util::Picoseconds elapsed = 0;
  /// Sum over boards of modelled time spent dead or quarantined.
  util::Picoseconds downtime = 0;
  /// Mean modelled time from a board going down to its re-admission /
  /// repair; boards never recovered count the full remaining horizon.
  util::Picoseconds mttr = 0;
  std::uint64_t recoveries = 0;  // down->up transitions behind mttr
  /// 1 - downtime / (boards * elapsed): the fraction of board-time the
  /// crate could schedule onto.
  double availability = 1.0;
};

class Supervisor {
 public:
  Supervisor(JobService& service, SupervisorOptions options = {});

  const SupervisorOptions& options() const { return options_; }

  /// Spare crate for drain-on-disaster; also installed as the service's
  /// migration target so a dying board's active job moves instead of
  /// failing. Not owned; must outlive the supervisor. nullptr detaches.
  void set_spare(JobService* spare);
  JobService* spare() const { return spare_; }

  /// Supervised drain: ticks until the service (and the spare, when one
  /// is attached) holds no pending or active work, then computes the
  /// availability figures. Returns the report.
  const SupervisorReport& run();

  /// One supervision window (steps 1-8 above); exposed for the soak
  /// test to interleave with its own fault assertions.
  void tick();

  const SupervisorReport& report() const { return report_; }

  BoardCondition board_condition(int board_index) const;
  double board_health(int board_index) const;
  const CircuitBreaker& reconfig_breaker(int board_index) const;
  const CircuitBreaker& dma_breaker(int board_index) const;

 private:
  /// Counter snapshot one probe window diffs against.
  struct CounterBase {
    core::SelfTestHealth health;
    std::uint64_t dma_faults = 0;
    std::uint64_t dma_retries = 0;
    std::uint64_t config_retries = 0;
    std::uint64_t reconfig_retries = 0;
    std::uint64_t switches = 0;
  };

  struct BoardSupervision {
    BoardCondition condition = BoardCondition::kActive;
    HealthScore score;
    CounterBase base;
    int clean_streak = 0;     // consecutive clean windows (quarantine)
    int probation_left = 0;   // clean windows still owed in probation
    int sick_windows = 0;     // scrub-escalation ladder
    int dead_windows = 0;     // windows since the drop-out
    util::Picoseconds down_since = 0;
    bool down = false;
    std::unique_ptr<CircuitBreaker> reconfig;
    std::unique_ptr<CircuitBreaker> dma;
  };

  util::Picoseconds now() const;
  CounterBase sample(int board_index, const core::SelfTestHealth& health) const;
  HealthDelta diff(const CounterBase& base, const CounterBase& cur,
                   bool dropped) const;
  void mark_down(BoardSupervision& b);
  void mark_up(BoardSupervision& b);
  bool any_schedulable(int excluding = -1) const;
  void quarantine(int board_index);
  void readmit(int board_index);
  void drain_to_spare();
  void retry_transient_failures();
  void make_checkpoint();
  bool maybe_crash_and_restore();
  void rebaseline();

  JobService& service_;
  SupervisorOptions options_;
  JobService* spare_ = nullptr;
  std::vector<BoardSupervision> boards_;
  SupervisorReport report_;
  std::vector<std::uint8_t> checkpoint_;  // last good service snapshot
  std::size_t checkpoint_jobs_ = 0;       // ledger size checkpoint_ holds
  std::uint64_t checkpoint_tick_ = 0;
  bool migrated_since_checkpoint_ = false;
  /// Highest kServiceCrash opportunity ordinal already recovered from.
  /// Deliberately NOT part of any snapshot: restoring rewinds the crash
  /// site's stream, so the handled draw replays as an echo we must skip.
  std::uint64_t last_crash_handled_ = 0;
  std::string crash_site_;
};

}  // namespace atlantis::serve

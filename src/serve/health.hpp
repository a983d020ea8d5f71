// Health scoring and circuit breaking for the supervision loop.
//
// The supervisor (serve/supervisor.hpp) samples every board once per
// probe window and hands the counter deltas to the primitives here:
//
//   * HealthScore — a bounded additive score in [0, 1]. Faulty windows
//     subtract a weighted amount per fault, clean windows add a fixed
//     recovery credit; the quarantine and re-admission thresholds are
//     plain comparisons against it. Deliberately not an EWMA: integer
//     event counts in, exact float arithmetic out, so replay is
//     bit-identical.
//
//   * CircuitBreaker — the classic closed / open / half-open machine
//     over a rolling failure window, one per guarded path (reconfig,
//     DMA) per board. Opening starts a deterministic backoff measured
//     in probe ticks: base << (consecutive opens - 1), capped, plus a
//     jitter term derived from sim::jitter_stream — a pure function of
//     (seed, breaker name, open ordinal), so two breakers opened in the
//     same window still re-probe in different windows, and the whole
//     machine replays bit-identically without carrying RNG state.
//
// Everything here is plain data + deterministic arithmetic; nothing
// touches the timeline or the boards. The supervisor owns the policy
// of what to do with the verdicts.
#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "util/units.hpp"

namespace atlantis::serve {

/// Counter deltas over one probe window, attributable to one board.
/// Assembled by the supervisor from the board's core::SelfTestHealth
/// page, its driver's DMA/config counters and the switcher's reconfig
/// counters.
struct HealthDelta {
  std::uint64_t dma_faults = 0;        // driver: stalls + aborts drawn
  std::uint64_t dma_retries = 0;       // driver: backoff retries issued
  std::uint64_t reconfig_retries = 0;  // switcher: CRC retry attempts
  std::uint64_t crc_failures = 0;      // FPGA: configuration CRC failures
  std::uint64_t config_upsets = 0;     // FPGA: configuration SRAM upsets
  std::uint64_t slink_errors = 0;      // S-Link: LDERR + truncations
  std::uint64_t retransmissions = 0;   // S-Link: retransmitted words
  std::uint64_t seu_flips = 0;         // memory-module data upsets
  std::uint64_t ecc_corrections = 0;   // SDRAM ECC events
  bool dropped = false;                // board went !alive this window

  std::uint64_t total() const {
    return dma_faults + dma_retries + reconfig_retries + crc_failures +
           config_upsets + slink_errors + retransmissions + seu_flips +
           ecc_corrections + (dropped ? 1 : 0);
  }
};

// Thresholds and weights of the per-board health state machine. No
// deployment, bench or test has run with others, so they are constants.
/// Score subtracted per weighted fault event (see weighted_faults).
inline constexpr double kDegradePerFault = 0.08;
/// Score added per completely clean probe window.
inline constexpr double kRecoverPerClean = 0.25;
/// Below this the board is quarantined (when another board or a spare
/// can carry the load).
inline constexpr double kQuarantineBelow = 0.5;
/// Clean windows a quarantined board must string together before
/// re-admission into probation.
inline constexpr int kReadmitAfterClean = 2;
/// Clean probation windows before the board is fully trusted again;
/// any fault during probation sends it straight back to quarantine.
inline constexpr int kProbationWindows = 2;
/// Escalating scrub: a window with config upsets or CRC failures gets
/// min(kScrubBase << sick_windows, kScrubMax) scrub passes.
inline constexpr int kScrubBase = 1;
inline constexpr int kScrubMax = 8;

/// Severity weighting: configuration damage (upsets, CRC) is worth more
/// than a retried DMA word, retransmissions are nearly free.
double weighted_faults(const HealthDelta& d);

/// The bounded additive per-board health score.
class HealthScore {
 public:
  double value() const { return value_; }
  /// Applies one probe window; returns true when the window was clean.
  bool observe(const HealthDelta& d);
  void reset() { value_ = 1.0; }

 private:
  double value_ = 1.0;
};

enum class BreakerState { kClosed, kOpen, kHalfOpen };
const char* breaker_state_name(BreakerState s);

struct BreakerOptions {
  /// Failures within the rolling window that trip the breaker.
  std::uint64_t failure_threshold = 3;
  /// Open duration before the half-open probe: base << (opens-1), capped
  /// at CircuitBreaker::kMaxOpenTicks.
  int base_open_ticks = 2;
};

class CircuitBreaker {
 public:
  /// Rolling failure window, in probe ticks.
  static constexpr int kWindowTicks = 4;
  /// Cap on the escalating open duration, in probe ticks.
  static constexpr int kMaxOpenTicks = 32;
  /// Additional open time, as a fraction of the open duration, drawn
  /// deterministically per open (see header comment).
  static constexpr double kJitter = 0.5;

  /// `name` seeds the jitter stream together with `seed` — give each
  /// breaker a distinct name ("reconfig/acb0", "dma/acb1") so their
  /// re-probe windows desynchronize.
  CircuitBreaker(BreakerOptions options, std::string name,
                 std::uint64_t seed);

  /// One probe window: record the window's failure/success counts and
  /// advance time one tick. State transitions happen here.
  void observe(std::uint64_t failures, std::uint64_t successes);

  /// False while the breaker is open: the guarded path must not be
  /// attempted. Half-open allows exactly the probe traffic through.
  bool allow() const { return state_ != BreakerState::kOpen; }
  BreakerState state() const { return state_; }

  std::uint64_t opens() const { return opens_; }
  std::uint64_t half_opens() const { return half_opens_; }
  int open_ticks_left() const { return open_left_; }

  /// Forgets history (window, escalation) without touching tallies —
  /// used when a crash-restore re-baselines the supervisor.
  void reset();

 private:
  void trip();

  BreakerOptions options_;
  std::string name_;
  std::uint64_t seed_ = 0;
  BreakerState state_ = BreakerState::kClosed;
  std::deque<std::uint64_t> window_;  // per-tick failure counts
  int open_left_ = 0;
  std::uint64_t consecutive_opens_ = 0;  // escalation ladder
  std::uint64_t opens_ = 0;
  std::uint64_t half_opens_ = 0;
};

}  // namespace atlantis::serve

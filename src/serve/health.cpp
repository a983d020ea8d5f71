#include "serve/health.hpp"

#include <algorithm>

#include "sim/fault.hpp"
#include "util/status.hpp"

namespace atlantis::serve {

double weighted_faults(const HealthDelta& d) {
  return 3.0 * static_cast<double>(d.crc_failures + d.config_upsets) +
         2.0 * static_cast<double>(d.seu_flips) +
         1.0 * static_cast<double>(d.dma_faults + d.slink_errors) +
         0.5 * static_cast<double>(d.reconfig_retries) +
         0.1 * static_cast<double>(d.retransmissions) +
         (d.dropped ? 10.0 : 0.0);
}

bool HealthScore::observe(const HealthDelta& d) {
  const double w = weighted_faults(d);
  if (w > 0.0) {
    value_ = std::max(0.0, value_ - kDegradePerFault * w);
    return false;
  }
  value_ = std::min(1.0, value_ + kRecoverPerClean);
  return true;
}

CircuitBreaker::CircuitBreaker(BreakerOptions options, std::string name,
                               std::uint64_t seed)
    : options_(options), name_(std::move(name)), seed_(seed) {
  ATLANTIS_CHECK(options_.failure_threshold >= 1,
                 "a breaker needs a positive failure threshold");
  ATLANTIS_CHECK(options_.base_open_ticks >= 1 &&
                     options_.base_open_ticks <= kMaxOpenTicks,
                 "breaker open duration must be >= 1 and within its cap");
}

void CircuitBreaker::trip() {
  ++opens_;
  ++consecutive_opens_;
  state_ = BreakerState::kOpen;
  window_.clear();
  // Escalating open duration, capped; shifts saturate well before 64.
  const int shift = static_cast<int>(
      std::min<std::uint64_t>(consecutive_opens_ - 1, 30));
  int open_for = options_.base_open_ticks;
  for (int i = 0; i < shift && open_for < kMaxOpenTicks; ++i) {
    open_for *= 2;
  }
  open_for = std::min(open_for, kMaxOpenTicks);
  // Deterministic per-open jitter in [0, kJitter * open_for]: a pure
  // function of (seed, breaker name, open ordinal), no RNG state.
  const std::uint64_t word = sim::jitter_stream(seed_, name_, opens_);
  const double u = static_cast<double>(word >> 11) * 0x1.0p-53;
  open_for += static_cast<int>(kJitter * u * static_cast<double>(open_for));
  open_left_ = std::max(1, open_for);
}

void CircuitBreaker::observe(std::uint64_t failures,
                             std::uint64_t successes) {
  switch (state_) {
    case BreakerState::kOpen:
      if (--open_left_ <= 0) {
        state_ = BreakerState::kHalfOpen;
        ++half_opens_;
      }
      return;
    case BreakerState::kHalfOpen:
      // The probe window decides: any failure re-opens escalated, a
      // clean window with real traffic closes; an idle window keeps
      // probing.
      if (failures > 0) {
        trip();
      } else if (successes > 0) {
        state_ = BreakerState::kClosed;
        consecutive_opens_ = 0;
        window_.clear();
      }
      return;
    case BreakerState::kClosed:
      break;
  }
  window_.push_back(failures);
  while (static_cast<int>(window_.size()) > kWindowTicks) {
    window_.pop_front();
  }
  std::uint64_t in_window = 0;
  for (const std::uint64_t f : window_) in_window += f;
  if (in_window >= options_.failure_threshold) {
    trip();
  } else if (failures == 0 && successes > 0) {
    // Healthy traffic decays the escalation ladder.
    consecutive_opens_ = 0;
  }
}

void CircuitBreaker::reset() {
  state_ = BreakerState::kClosed;
  window_.clear();
  open_left_ = 0;
  consecutive_opens_ = 0;
}

}  // namespace atlantis::serve

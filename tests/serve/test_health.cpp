// The supervisor's circuit breaker (serve/health.hpp) driven tick by
// tick: when it trips, how long it stays open, how a half-open probe
// window resolves, and that its open times replay from (seed, name).
#include "serve/health.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace atlantis::serve {
namespace {

constexpr std::uint64_t kSeed = 20260808;

BreakerOptions options(std::uint64_t threshold, int base_open_ticks) {
  BreakerOptions o;
  o.failure_threshold = threshold;
  o.base_open_ticks = base_open_ticks;
  return o;
}

/// Feeds one failure count per tick, no traffic; returns the tick at
/// which the breaker opened, or -1.
int feed(CircuitBreaker& b, std::initializer_list<std::uint64_t> failures) {
  int tick = 0;
  for (const std::uint64_t f : failures) {
    b.observe(f, 0);
    if (b.state() == BreakerState::kOpen) return tick;
    ++tick;
  }
  return -1;
}

/// Idle ticks until an open breaker leaves kOpen.
int open_ticks(CircuitBreaker& b) {
  int ticks = 0;
  while (b.state() == BreakerState::kOpen) {
    b.observe(0, 0);
    ++ticks;
  }
  return ticks;
}

TEST(CircuitBreaker, TripsOnThresholdFailuresInsideTheWindow) {
  static_assert(CircuitBreaker::kWindowTicks == 4);
  CircuitBreaker inside(options(3, 2), "reconfig/acb0", kSeed);
  // Three failures across ticks 0, 2 and 3: all four ticks in one window.
  EXPECT_EQ(feed(inside, {1, 0, 1, 1}), 3);
  EXPECT_EQ(inside.opens(), 1u);

  // The same three failures across ticks 0, 3 and 4 span five ticks, so
  // no window ever holds more than two of them.
  CircuitBreaker wider(options(3, 2), "reconfig/acb0", kSeed);
  EXPECT_EQ(feed(wider, {1, 0, 0, 1, 1, 0, 0, 0}), -1);
  EXPECT_EQ(wider.state(), BreakerState::kClosed);
  EXPECT_EQ(wider.opens(), 0u);

  // One tick carrying the whole threshold trips at once.
  CircuitBreaker burst(options(3, 2), "reconfig/acb0", kSeed);
  EXPECT_EQ(feed(burst, {3}), 0);
}

TEST(CircuitBreaker, ConsecutiveOpensDoubleUpToTheCapPlusJitter) {
  const int base = 2;
  CircuitBreaker b(options(1, base), "dma/acb1", kSeed);
  b.observe(1, 0);
  ASSERT_EQ(b.state(), BreakerState::kOpen);
  int expected = base;
  for (int open = 1; open <= 8; ++open) {
    const int ticks = open_ticks(b);
    EXPECT_GE(ticks, expected) << "open " << open;
    EXPECT_LE(ticks, expected + static_cast<int>(CircuitBreaker::kJitter *
                                                 expected))
        << "open " << open;
    ASSERT_EQ(b.state(), BreakerState::kHalfOpen);
    EXPECT_EQ(b.half_opens(), static_cast<std::uint64_t>(open));
    b.observe(1, 0);  // the probe window fails: re-open, escalated
    ASSERT_EQ(b.state(), BreakerState::kOpen);
    expected = std::min(2 * expected, CircuitBreaker::kMaxOpenTicks);
  }
  EXPECT_EQ(expected, CircuitBreaker::kMaxOpenTicks);  // the cap was hit
  EXPECT_EQ(b.opens(), 9u);
}

TEST(CircuitBreaker, HalfOpenProbeClosesReopensOrKeepsProbing) {
  const int base = 4;
  CircuitBreaker b(options(1, base), "reconfig/acb0", kSeed);
  b.observe(1, 0);
  open_ticks(b);
  ASSERT_EQ(b.state(), BreakerState::kHalfOpen);

  // An idle window proves nothing: the breaker keeps probing.
  b.observe(0, 0);
  EXPECT_EQ(b.state(), BreakerState::kHalfOpen);
  // A clean window with traffic closes it.
  b.observe(0, 5);
  EXPECT_EQ(b.state(), BreakerState::kClosed);
  EXPECT_EQ(b.opens(), 1u);

  // Closing reset the escalation: the next open is base-length again.
  b.observe(1, 0);
  ASSERT_EQ(b.state(), BreakerState::kOpen);
  const int first = open_ticks(b);
  EXPECT_GE(first, base);
  EXPECT_LE(first, base + static_cast<int>(CircuitBreaker::kJitter * base));

  // A failure in the probe window re-opens it, escalated.
  ASSERT_EQ(b.state(), BreakerState::kHalfOpen);
  b.observe(2, 0);
  EXPECT_EQ(b.state(), BreakerState::kOpen);
  EXPECT_EQ(b.opens(), 3u);
  EXPECT_GE(open_ticks(b), 2 * base);
}

TEST(CircuitBreaker, ResetForgetsHistoryButKeepsTallies) {
  const int base = 2;
  CircuitBreaker b(options(2, base), "reconfig/acb0", kSeed);
  b.observe(2, 0);
  open_ticks(b);
  b.observe(1, 0);  // half-open probe fails: second, escalated open
  ASSERT_EQ(b.state(), BreakerState::kOpen);
  ASSERT_EQ(b.opens(), 2u);
  ASSERT_EQ(b.half_opens(), 1u);

  b.reset();
  EXPECT_EQ(b.state(), BreakerState::kClosed);
  EXPECT_EQ(b.opens(), 2u);
  EXPECT_EQ(b.half_opens(), 1u);

  // The window restarted empty and the escalation ladder with it.
  b.observe(1, 0);
  EXPECT_EQ(b.state(), BreakerState::kClosed);
  b.observe(1, 0);
  ASSERT_EQ(b.state(), BreakerState::kOpen);
  const int ticks = open_ticks(b);
  EXPECT_GE(ticks, base);
  EXPECT_LE(ticks, base + static_cast<int>(CircuitBreaker::kJitter * base));
}

TEST(CircuitBreaker, SameSeedAndNameGiveTheSameOpenTimes) {
  const auto ladder = [](std::uint64_t seed, const std::string& name) {
    CircuitBreaker b(options(1, 8), name, seed);
    std::vector<int> ticks;
    b.observe(1, 0);
    for (int open = 0; open < 6; ++open) {
      ticks.push_back(open_ticks(b));
      b.observe(1, 0);
    }
    return ticks;
  };
  const std::vector<int> a = ladder(kSeed, "reconfig/acb0");
  EXPECT_EQ(ladder(kSeed, "reconfig/acb0"), a);
  // The jitter is what desynchronizes breakers: another name or seed
  // re-probes on a different schedule.
  EXPECT_NE(ladder(kSeed, "reconfig/acb1"), a);
  EXPECT_NE(ladder(kSeed + 1, "reconfig/acb0"), a);
}

}  // namespace
}  // namespace atlantis::serve

#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/rng.hpp"

namespace atlantis::util {
namespace {

TEST(Accumulator, EmptyIsZero) {
  Accumulator a;
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.mean(), 0.0);
  EXPECT_EQ(a.min(), 0.0);
  EXPECT_EQ(a.max(), 0.0);
}

TEST(Accumulator, MatchesDirectComputation) {
  Accumulator a;
  const double xs[] = {1.0, 2.0, 4.0, 8.0, 16.0};
  double sum = 0.0;
  for (const double x : xs) {
    a.add(x);
    sum += x;
  }
  EXPECT_DOUBLE_EQ(a.mean(), sum / 5.0);
  EXPECT_DOUBLE_EQ(a.min(), 1.0);
  EXPECT_DOUBLE_EQ(a.max(), 16.0);
  EXPECT_DOUBLE_EQ(a.sum(), sum);
}

TEST(LogHistogram, QuantilesTrackADistributionSpanningDecades) {
  // Latencies spanning 1e3..1e9 — a linear histogram would put nearly
  // everything in one bin; the log buckets keep ~2.6% relative error.
  LogHistogram h;
  Rng rng(29);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) {
    const double x = std::pow(10.0, rng.uniform(3.0, 9.0));
    samples.push_back(x);
    h.add(x);
  }
  std::sort(samples.begin(), samples.end());
  for (const double q : {0.5, 0.99, 0.999}) {
    const double exact =
        samples[static_cast<std::size_t>(q * (samples.size() - 1))];
    EXPECT_NEAR(h.quantile(q) / exact, 1.0, 0.05) << "q=" << q;
  }
  EXPECT_EQ(h.count(), 20000u);
}

TEST(LogHistogram, TinyAndHugeSamplesLandInTheEdgeBins) {
  LogHistogram h(/*max_value=*/1e6);
  h.add(0.0);     // <= 1 -> first bin
  h.add(0.5);
  h.add(1e12);    // beyond max -> saturates, never throws
  EXPECT_EQ(h.count(), 3u);
  EXPECT_LE(h.quantile(0.0), 1.0);
  EXPECT_GE(h.quantile(1.0), 1e6 * 0.9);
}

}  // namespace
}  // namespace atlantis::util

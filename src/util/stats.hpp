// Streaming statistics accumulators used by the benchmark harnesses and
// the hardware timing models.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/status.hpp"

namespace atlantis::util {

/// Single-pass accumulator: running mean, min, max and sum without
/// storing the samples.
class Accumulator {
 public:
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    sum_ += x;
  }

  std::size_t count() const { return n_; }
  double sum() const { return sum_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Exact nearest-rank percentile (q in [0,1]) over an unsorted sample
/// set; sorts a copy. Deterministic — p50/p99 queue waits read from the
/// ledger come from here, so they must not depend on sample order.
inline double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  q = std::clamp(q, 0.0, 1.0);
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(samples.size() - 1) + 0.5);
  return samples[rank];
}

/// Log-bucketed latency histogram (HdrHistogram-style): geometric bins
/// spanning [1, max_value] with `bins_per_decade` buckets per factor of
/// ten, so p50 and p999 carry the same ~relative error no matter how
/// heavy the tail. The serving cluster records one sample per request —
/// a million-user open-loop sweep cannot afford to keep (or sort) every
/// sample the way util::percentile does. Deterministic: quantiles
/// depend only on the multiset of samples, never on insertion order.
class LogHistogram {
 public:
  explicit LogHistogram(double max_value = 1e15, int bins_per_decade = 90)
      : bins_per_decade_(bins_per_decade) {
    ATLANTIS_CHECK(max_value > 1.0, "log histogram needs max_value > 1");
    ATLANTIS_CHECK(bins_per_decade > 0,
                   "log histogram needs at least one bin per decade");
    const double decades = std::log10(max_value);
    counts_.assign(static_cast<std::size_t>(decades * bins_per_decade) + 2, 0);
  }

  /// Samples <= 1 (including zero latencies) land in the first bin;
  /// samples beyond max_value saturate into the last.
  void add(double x) {
    ++counts_[index(x)];
    ++total_;
  }

  std::uint64_t count() const { return total_; }

  /// Nearest-rank quantile over the binned counts (q in [0,1]); returns
  /// the geometric midpoint of the winning bin. Error is bounded by one
  /// bin width (~2.6% with 90 bins/decade), independent of q.
  double quantile(double q) const {
    if (total_ == 0) return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    const auto target = static_cast<std::uint64_t>(
        q * static_cast<double>(total_ - 1) + 0.5);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      seen += counts_[i];
      if (seen > target) return midpoint(i);
    }
    return midpoint(counts_.size() - 1);
  }

 private:
  std::size_t index(double x) const {
    if (!(x > 1.0)) return 0;
    const auto i = static_cast<std::size_t>(
        std::log10(x) * static_cast<double>(bins_per_decade_)) + 1;
    return std::min(i, counts_.size() - 1);
  }
  double midpoint(std::size_t i) const {
    if (i == 0) return 1.0;
    const double lo = static_cast<double>(i - 1) /
                      static_cast<double>(bins_per_decade_);
    const double hi = static_cast<double>(i) /
                      static_cast<double>(bins_per_decade_);
    return std::pow(10.0, 0.5 * (lo + hi));
  }

  int bins_per_decade_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace atlantis::util

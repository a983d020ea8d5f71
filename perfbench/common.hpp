// Shared pieces of the perfbench driver: the pass model every workload
// implements, metric maps, and small statistics helpers.
//
// A run of one workload is a sequence of *passes*. Each pass builds the
// program's objects afresh (timed as set-up), serves or simulates one
// fixed, seed-determined input set (timed as the work region), saves a
// snapshot of the resulting state, and checks every output. All passes
// of a run see the same inputs, so their modelled results must repeat
// exactly; host figures are reported as medians over the passes.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

class Tracer;

/// A named value with its unit, as printed in the result line.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// What one pass measured.
struct Pass {
  double setup_s = 0.0;  // host: building the program's objects
  double work_s = 0.0;   // host: the timed serving / simulation region
  double save_ms = 0.0;  // host: median of this pass's snapshot saves
  std::uint64_t submitted = 0;
  std::uint64_t served = 0;
  /// Output checks that failed (wrong checksum, wrong digest, jobs that
  /// errored where the workload expects none).
  std::uint64_t failed_checks = 0;
  /// Digest of every modelled result and decision of the pass; equal
  /// across passes (and between traced and untraced passes) of a run.
  std::uint64_t model_digest = 0;
  /// Modelled end-to-end figures (deterministic for a seed).
  Metrics model;
  /// Per-layer counts and modelled per-layer figures (deterministic).
  Metrics counts;
  /// Per-layer host figures: timings, worker-pool shares (traced passes).
  Metrics host;
};

/// One workload: inputs are generated from the seed at construction;
/// run_pass() may be called any number of times. A null tracer is the
/// untraced configuration: no span is recorded and no work functor is
/// wrapped.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual Pass run_pass(Tracer* tracer) = 0;
};

std::unique_ptr<Workload> make_fleet_qos(std::uint64_t seed);
std::unique_ptr<Workload> make_crate_supervised(std::uint64_t seed);
std::unique_ptr<Workload> make_gate_trt(std::uint64_t seed);
std::unique_ptr<Workload> make_gate_conv(std::uint64_t seed);

// --- statistics -----------------------------------------------------------

double median(std::vector<double> values);
/// Nearest-rank quantile of an ascending sample: the smallest value with
/// at least q of the sample at or below it. Exact, no bucketing.
double quantile_sorted(const std::vector<double>& sorted, double q);
/// Samples strictly above quantile q's rank (the tail the figure rests on).
std::uint64_t samples_beyond(std::size_t n, double q);

/// Peak resident set size of this process (VmHWM), in MB (10^6 bytes).
double peak_rss_mb();

/// FNV-1a accumulator for digests the benchmark computes itself.
struct Fnv {
  std::uint64_t h = 14695981039346656037ull;
  void mix(std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  }
  void mix(const std::string& s) {
    for (const char c : s) mix(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
  }
};

/// Set-up is a short, allocation-heavy burst, so each pass builds the
/// program's objects this many times and reports the median build.
inline constexpr int kSetupRepeats = 5;

/// Calls `build` (returning a std::unique_ptr) kSetupRepeats times,
/// timing each call, and returns the last result; earlier results are
/// destroyed outside the timer. Stores the median build time in
/// `setup_s`.
template <typename Build>
auto repeated_setup(Build build, double& setup_s) {
  std::vector<double> times;
  decltype(build()) built;
  for (int i = 0; i < kSetupRepeats; ++i) {
    built.reset();
    const Clock::time_point t0 = Clock::now();
    built = build();
    times.push_back(seconds_since(t0));
  }
  setup_s = median(times);
  return built;
}

/// Fills the worker-pool per-layer figures (util.worker_pool.*) from the
/// shared pool's counters over a work region of `work_s` seconds.
void add_pool_stats(Metrics& host, double work_s);

}  // namespace perfbench

// Hardware task switching via partial reconfiguration.
//
// §2: "In particular the partial reconfiguration is of great interest for
// co-processing applications involving hardware task switches." The
// switcher keeps a set of named tasks (bitstreams) for one FPGA and swaps
// between them.
//
// The bitstream chooses the load. Tasks whose bitstreams carry
// per-region content signatures (hw::make_region_signatures) switch by
// loading only the regions that differ from the resident configuration
// (hw::FpgaDevice::reconfigure_diff) — two TRT variants sharing pattern
// banks, or imgproc kernels differing only in coefficient pages, pay a
// few frames instead of the full 18.75 ms ORCA load. A task without
// signatures, a first load and any load on a monolithic family is a
// full configuration. A baseline that wants no differential loads is an
// input, not a setting: it registers signature-less bitstreams.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "core/configcache.hpp"
#include "hw/fpga.hpp"
#include "sim/fault.hpp"
#include "util/status.hpp"
#include "util/units.hpp"

namespace atlantis::core {

/// A switcher's lifetime switch and cache counters: the switcher counts
/// into one, and a run reports the difference of their sums over its
/// boards, taken before and after.
struct SwitchCounters {
  std::uint64_t switches = 0;  // switches that moved context or data
  std::uint64_t hits = 0;      // cache lookups that activated a staged context
  std::uint64_t misses = 0;    // cache lookups that reloaded
  std::uint64_t partials = 0;  // differential region loads
  std::uint64_t regions = 0;   // frames moved by those loads
  util::Picoseconds switch_time = 0;
  util::Picoseconds partial_time = 0;  // subset of switch_time

  /// A switch that missed the cache is a differential region load or a
  /// full bitstream load; without region signatures this is
  /// switches - hits.
  std::uint64_t full_reconfigs() const { return switches - hits - partials; }
  /// Hits over cache lookups; 0 when the cache was never consulted.
  double hit_rate() const {
    const std::uint64_t lookups = hits + misses;
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
  SwitchCounters& operator+=(const SwitchCounters& o) {
    switches += o.switches;
    hits += o.hits;
    misses += o.misses;
    partials += o.partials;
    regions += o.regions;
    switch_time += o.switch_time;
    partial_time += o.partial_time;
    return *this;
  }
  SwitchCounters operator-(const SwitchCounters& o) const {
    return {switches - o.switches,       hits - o.hits,
            misses - o.misses,           partials - o.partials,
            regions - o.regions,         switch_time - o.switch_time,
            partial_time - o.partial_time};
  }
};

class TaskSwitcher {
 public:
  explicit TaskSwitcher(hw::FpgaDevice& device) : device_(device) {}

  /// Registers a task under its bitstream name.
  void add_task(const hw::Bitstream& bs);

  /// Switches to `name` and returns the reconfiguration time. A cache
  /// hit activates the staged context; a region-signed task on a
  /// configured multi-region device whose resident configuration is
  /// comparable loads its differing regions; anything else (the first
  /// activation included) is a full configuration. A configuration-CRC
  /// failure drops the device to the unconfigured state and the switcher
  /// retries with a full configuration, up to the policy's attempt
  /// budget, then fails with kConfigCrc. On the differential path the
  /// budget applies per region first (a failed frame is re-shifted
  /// alone). The returned time includes every failed attempt. Unknown
  /// task names throw — that is caller misuse, not a hardware fault.
  util::Result<util::Picoseconds> switch_to(const std::string& name);

  /// One configuration-SRAM scrub window: gives the injector an SEU
  /// opportunity, reads the configuration back, and repairs an upset by
  /// reloading the current task — a single-frame region scrub when the
  /// task is region-signed (which leaves the live design state
  /// untouched), a full configuration otherwise. Returns true when an
  /// upset was found and repaired. No-op on an unconfigured device. The
  /// readback and repair time is not posted on any timeline.
  bool scrub();

  void set_retry_policy(const sim::RetryPolicy& policy) { policy_ = policy; }
  const sim::RetryPolicy& retry_policy() const { return policy_; }

  // --- bitstream/configuration cache ------------------------------------
  /// The share of a full configuration's time a cache hit pays to
  /// activate a staged context.
  static constexpr double kCacheHitFraction = 1.0 / 64.0;
  /// Enables the LRU bitstream cache: up to `capacity` recently used
  /// configurations stay staged in the board's local configuration
  /// store. A switch to a staged task activates the context (paying
  /// kCacheHitFraction of the full configuration time) instead of
  /// reloading the bitstream — and skips the CRC check, since no
  /// configuration data moved. Only such an activation counts as a cache
  /// hit; on an unconfigured or upset device a staged task is a miss and
  /// reloads. Capacity 0 (the default) disables the cache, and nothing is
  /// counted as a hit or a miss.
  void enable_cache(std::size_t capacity);
  const ConfigCache& cache() const { return cache_; }
  /// Drops every staged configuration (board power loss / drop-out).
  void invalidate_cache() { cache_.clear(); }

  const std::string& current() const { return current_; }
  std::uint64_t reconfig_retries() const { return reconfig_retries_; }
  /// Lifetime switch and cache counters, and one-line reads of them.
  const SwitchCounters& counters() const { return counters_; }
  std::uint64_t switch_count() const { return counters_.switches; }
  util::Picoseconds total_switch_time() const { return counters_.switch_time; }
  std::uint64_t cache_hits() const { return counters_.hits; }
  std::uint64_t cache_misses() const { return counters_.misses; }
  std::uint64_t partial_switches() const { return counters_.partials; }
  std::uint64_t regions_loaded() const { return counters_.regions; }

  /// Snapshottable leaf, written into the caller's open section: the
  /// current task, every lifetime counter and the staged-bitstream
  /// cache. The task registry is construction configuration — a
  /// restored switcher must have the same add_task() calls applied;
  /// load_state verifies the current task is registered. Device state is
  /// saved separately by the board that owns the FPGA.
  void save_state(sim::SnapshotWriter& w) const;
  void load_state(sim::SnapshotReader& r);

 private:
  bool diff_applicable(const hw::Bitstream& bs) const;
  template <typename Self, typename Stream>
  static void walk(Self& self, Stream& s);

  hw::FpgaDevice& device_;
  std::map<std::string, hw::Bitstream> tasks_;
  std::string current_;
  SwitchCounters counters_;
  std::uint64_t reconfig_retries_ = 0;
  ConfigCache cache_;
  sim::RetryPolicy policy_;
};

}  // namespace atlantis::core

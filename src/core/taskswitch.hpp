// Hardware task switching via (partial) reconfiguration.
//
// §2: "In particular the partial reconfiguration is of great interest for
// co-processing applications involving hardware task switches." The
// switcher keeps a set of named tasks (bitstreams) for one FPGA and swaps
// between them, using partial reconfiguration when the device supports it
// and the incoming task declares the array fraction it touches.
//
// Differential switching: tasks whose bitstreams carry per-region content
// signatures (hw::make_region_signatures) switch by loading only the
// regions that differ from the resident configuration
// (hw::FpgaDevice::reconfigure_diff) — two TRT variants sharing pattern
// banks, or imgproc kernels differing only in coefficient pages, pay a
// few frames instead of the full 18.75 ms ORCA load. The scalar
// `fraction` path and full configuration remain the fallbacks, and
// set_differential(false) pins the switcher to them so schedulers can A/B
// the two policies on identical workloads.
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

/// A switcher's lifetime switch counters as one value. A run reports the
/// difference of their sums over its boards, taken before and after.
struct SwitchCounters {
  std::uint64_t switches = 0;  // switches that moved context or data
  std::uint64_t hits = 0;      // cache hits
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t partials = 0;  // differential region loads
  std::uint64_t regions = 0;   // frames moved by those loads
  util::Picoseconds switch_time = 0;
  util::Picoseconds partial_time = 0;  // subset of switch_time

  /// A switch that missed the cache is a differential region load or a
  /// full bitstream load; without region signatures this is
  /// switches - hits.
  std::uint64_t full_reconfigs() const { return switches - hits - partials; }
  double hit_rate() const {
    return ConfigCacheStats{.hits = hits, .misses = misses}.hit_rate();
  }
  SwitchCounters& operator+=(const SwitchCounters& o) {
    switches += o.switches;
    hits += o.hits;
    misses += o.misses;
    evictions += o.evictions;
    partials += o.partials;
    regions += o.regions;
    switch_time += o.switch_time;
    partial_time += o.partial_time;
    return *this;
  }
  SwitchCounters operator-(const SwitchCounters& o) const {
    return {switches - o.switches,       hits - o.hits,
            misses - o.misses,           evictions - o.evictions,
            partials - o.partials,       regions - o.regions,
            switch_time - o.switch_time, partial_time - o.partial_time};
  }
};

class TaskSwitcher {
 public:
  explicit TaskSwitcher(hw::FpgaDevice& device) : device_(device) {}

  /// Registers a task under its bitstream name.
  void add_task(const hw::Bitstream& bs);

  /// Switches to `name`. The first activation is always a full
  /// configuration; later switches are partial when the device allows it.
  /// Returns the reconfiguration time. Throws util::Error when the switch
  /// cannot complete within the retry policy.
  util::Picoseconds switch_to(const std::string& name);

  /// Recoverable switch: a configuration-CRC failure drops the device to
  /// the unconfigured state and the switcher retries with a full
  /// configuration, up to the policy's attempt budget. On the
  /// differential path the budget applies per region first (a failed
  /// frame is re-shifted alone). The returned time includes every failed
  /// attempt. Unknown task names still throw — that is caller misuse,
  /// not a hardware fault.
  util::Result<util::Picoseconds> try_switch_to(const std::string& name);

  /// One configuration-SRAM scrub window: gives the injector an SEU
  /// opportunity, reads the configuration back, and repairs an upset by
  /// reloading the current task — a single-frame region scrub when the
  /// differential path is available (which leaves the live design state
  /// untouched), a full reload otherwise. Returns true when an upset was
  /// found and repaired. No-op on an unconfigured device. The readback
  /// and repair time is not posted on any timeline.
  bool scrub();

  void set_retry_policy(const sim::RetryPolicy& policy) { policy_ = policy; }
  const sim::RetryPolicy& retry_policy() const { return policy_; }

  /// Differential region loading on cache misses (default on). Only
  /// bites when the task and the resident configuration both carry
  /// region signatures — behaviour is bit-identical to the legacy
  /// switcher otherwise, so leaving this on is always safe.
  void set_differential(bool on) { differential_ = on; }
  bool differential() const { return differential_; }

  // --- bitstream/configuration cache ------------------------------------
  /// Enables the LRU bitstream cache: up to `capacity` recently used
  /// configurations stay staged in the board's local configuration
  /// store. A switch to a staged task activates the context (paying
  /// `hit_fraction` of the full configuration time) instead of reloading
  /// the bitstream — and skips the CRC check, since no configuration
  /// data moved. Capacity 0 (the default) disables the cache; behaviour
  /// is then bit-identical to the pre-cache switcher.
  void enable_cache(std::size_t capacity, double hit_fraction = 1.0 / 64.0);
  const ConfigCache& cache() const { return cache_; }
  const ConfigCacheStats& cache_stats() const { return cache_.stats(); }
  /// Drops every staged configuration (board power loss / drop-out).
  void invalidate_cache() { cache_.clear(); }
  std::uint64_t cache_hits() const { return cache_.stats().hits; }
  std::uint64_t cache_misses() const { return cache_.stats().misses; }

  const std::string& current() const { return current_; }
  std::uint64_t switch_count() const { return switches_; }
  util::Picoseconds total_switch_time() const { return total_time_; }
  util::Picoseconds last_switch_time() const { return last_time_; }
  std::uint64_t reconfig_retries() const { return reconfig_retries_; }
  std::uint64_t scrub_count() const { return scrubs_; }
  std::uint64_t upsets_corrected() const { return upsets_corrected_; }

  /// Differential-path accounting.
  std::uint64_t partial_switches() const { return partial_switches_; }
  std::uint64_t regions_loaded() const { return regions_loaded_; }
  util::Picoseconds partial_switch_time() const { return partial_time_; }
  /// The switch and cache counters above, as one value.
  SwitchCounters counters() const {
    const ConfigCacheStats& c = cache_.stats();
    return {switches_,         c.hits,          c.misses,    c.evictions,
            partial_switches_, regions_loaded_, total_time_, partial_time_};
  }
  /// Regions moved by the most recent switch (0: full/scalar/cached).
  int last_regions_loaded() const { return last_regions_; }
  /// Upsets repaired by a single-frame region scrub (subset of
  /// upsets_corrected()).
  std::uint64_t region_scrubs() const { return region_scrubs_; }

  /// Snapshottable leaf, written into the caller's open section: the A/B
  /// pin (differential_), current task, every lifetime counter and the
  /// staged-bitstream cache. The task
  /// registry is construction configuration — a restored switcher must
  /// have the same add_task() calls applied; load_state verifies the
  /// current task is registered. Device state is saved separately by the
  /// board that owns the FPGA.
  void save_state(sim::SnapshotWriter& w) const;
  void load_state(sim::SnapshotReader& r);

 private:
  bool diff_applicable(const hw::Bitstream& bs) const;
  template <typename Self, typename Stream>
  static void walk(Self& self, Stream& s);

  hw::FpgaDevice& device_;
  std::map<std::string, hw::Bitstream> tasks_;
  std::string current_;
  std::uint64_t switches_ = 0;
  util::Picoseconds total_time_ = 0;
  util::Picoseconds last_time_ = 0;
  std::uint64_t reconfig_retries_ = 0;
  std::uint64_t scrubs_ = 0;
  std::uint64_t upsets_corrected_ = 0;
  std::uint64_t partial_switches_ = 0;
  std::uint64_t regions_loaded_ = 0;
  util::Picoseconds partial_time_ = 0;
  int last_regions_ = 0;
  std::uint64_t region_scrubs_ = 0;
  bool differential_ = true;
  ConfigCache cache_;
  double cache_hit_fraction_ = 1.0 / 64.0;
  sim::RetryPolicy policy_;
};

}  // namespace atlantis::core

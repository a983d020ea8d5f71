#include "core/taskswitch.hpp"

#include "util/status.hpp"

namespace atlantis::core {

void TaskSwitcher::add_task(const hw::Bitstream& bs) {
  ATLANTIS_CHECK(!bs.name.empty(), "task needs a name");
  ATLANTIS_CHECK(tasks_.find(bs.name) == tasks_.end(),
                 "task '" + bs.name + "' already registered");
  if (bs.has_regions()) {
    ATLANTIS_CHECK(static_cast<int>(bs.region_sigs.size()) ==
                       device_.region_count(),
                   "task '" + bs.name + "' region count does not match " +
                       device_.family().name);
  }
  tasks_.emplace(bs.name, bs);
}

void TaskSwitcher::enable_cache(std::size_t capacity, double hit_fraction) {
  ATLANTIS_CHECK(hit_fraction > 0.0 && hit_fraction <= 1.0,
                 "cache hit fraction out of range");
  cache_ = ConfigCache(capacity);
  cache_hit_fraction_ = hit_fraction;
}

bool TaskSwitcher::diff_applicable(const hw::Bitstream& bs) const {
  return differential_ && device_.configured() &&
         device_.family().partial_reconfig && device_.region_count() > 1 &&
         bs.has_regions() &&
         hw::region_diff_count(device_.resident_regions(), bs.region_sigs) >= 0;
}

util::Picoseconds TaskSwitcher::switch_to(const std::string& name) {
  util::Result<util::Picoseconds> r = try_switch_to(name);
  if (!r.ok()) throw util::Error(r.message());
  return r.value();
}

util::Result<util::Picoseconds> TaskSwitcher::try_switch_to(
    const std::string& name) {
  const auto it = tasks_.find(name);
  if (it == tasks_.end()) {
    throw util::StateError("unknown task '" + name + "'");
  }
  last_regions_ = 0;
  if (current_ == name && device_.configured()) {
    last_time_ = 0;
    return util::Picoseconds{0};  // already resident
  }
  // Bitstream-cache hit: the configuration data is staged in the local
  // configuration store, so the context is activated (a small fraction
  // of the full load) without moving the bitstream — and therefore
  // without a CRC opportunity. An upset or unconfigured device must take
  // the full reload path below, which repairs it.
  if (cache_.enabled()) {
    const bool staged = cache_.touch(name);
    if (staged && device_.configured() && !device_.upset_pending()) {
      const util::Picoseconds t =
          device_.activate(it->second, cache_hit_fraction_);
      current_ = name;
      ++switches_;
      total_time_ += t;
      last_time_ = t;
      return t;
    }
  }
  util::Picoseconds total = 0;
  for (int attempt = 1;; ++attempt) {
    util::Picoseconds t = 0;
    bool ok = false;
    if (diff_applicable(it->second)) {
      // Differential load: only changed frames move, each with its own
      // CRC opportunity retried up to the policy budget. Exhausting the
      // budget on one frame drops the device unconfigured and the outer
      // loop falls back to a full configuration.
      const hw::ReconfigOutcome oc =
          device_.reconfigure_diff(it->second, policy_.max_attempts);
      t = oc.time;
      ok = oc.ok;
      reconfig_retries_ += static_cast<std::uint64_t>(oc.region_retries);
      if (ok) {
        ++partial_switches_;
        regions_loaded_ += static_cast<std::uint64_t>(oc.regions_loaded);
        partial_time_ += t;
        last_regions_ = oc.regions_loaded;
      }
    } else if (device_.configured() && device_.family().partial_reconfig) {
      t = device_.partial_reconfigure(it->second);
      ok = device_.config_crc_ok();
    } else {
      t = device_.configure(it->second);
      ok = device_.config_crc_ok();
    }
    total += t;
    if (ok) break;
    // The CRC failure left the device unconfigured: the next attempt is
    // a full configuration, not a partial one.
    if (attempt >= policy_.max_attempts) {
      current_.clear();
      return util::Result<util::Picoseconds>::failure(
          util::ErrorCode::kConfigCrc,
          "task switch to '" + name + "' on " + device_.name() +
              " failed CRC after " + std::to_string(attempt) + " attempts");
    }
    ++reconfig_retries_;
  }
  current_ = name;
  ++switches_;
  total_time_ += total;
  last_time_ = total;
  // Both the full load and the differential one leave a complete fresh
  // copy of the configuration staged locally.
  cache_.insert(name, it->second.region_sigs);
  return total;
}

bool TaskSwitcher::scrub() {
  if (!device_.configured()) return false;
  ++scrubs_;
  device_.draw_config_upset();  // one SEU opportunity per scrub window
  (void)device_.readback();
  bool repaired = false;
  if (device_.upset_pending()) {
    // Readback shows a bitstream mismatch: repair it. With the
    // differential path available the upset frame is re-shifted alone
    // and the live design state survives (reconfigure_diff of the
    // resident bitstream touches only the upset region); otherwise the
    // current task is reloaded wholesale. Either reload is a CRC
    // opportunity; a failure there surfaces via the next
    // try_switch_to(), which sees an unconfigured device.
    const auto it = tasks_.find(current_);
    if (it != tasks_.end()) {
      if (diff_applicable(it->second)) {
        const hw::ReconfigOutcome oc =
            device_.reconfigure_diff(it->second, policy_.max_attempts);
        reconfig_retries_ += static_cast<std::uint64_t>(oc.region_retries);
        if (oc.ok) {
          repaired = true;
          ++upsets_corrected_;
          ++region_scrubs_;
        } else {
          current_.clear();
        }
      } else {
        if (device_.family().partial_reconfig) {
          device_.partial_reconfigure(it->second);
        } else {
          device_.configure(it->second);
        }
        if (device_.config_crc_ok()) {
          repaired = true;
          ++upsets_corrected_;
        } else {
          current_.clear();
        }
      }
    }
  }
  return repaired;
}

template <typename Self, typename Stream>
void TaskSwitcher::walk(Self& self, Stream& s) {
  // The current task is checked against the registrations before it
  // replaces the live one.
  std::string current = self.current_;
  s.string(current);
  if (!current.empty() && self.tasks_.find(current) == self.tasks_.end()) {
    throw util::StateError("snapshot current task '" + current +
                           "' is not registered on this switcher");
  }
  if constexpr (Stream::kLoading) self.current_ = std::move(current);
  s.u64(self.switches_);
  s.i64(self.total_time_);
  s.i64(self.last_time_);
  s.u64(self.reconfig_retries_);
  s.u64(self.scrubs_);
  s.u64(self.upsets_corrected_);
  s.u64(self.partial_switches_);
  s.u64(self.regions_loaded_);
  s.i64(self.partial_time_);
  s.i64(self.last_regions_);
  s.u64(self.region_scrubs_);
  s.boolean(self.differential_);
  s.f64(self.cache_hit_fraction_);
  // A reserved slot (it held a timeline cursor once): written as 0,
  // ignored on load, until the next stream version drops it.
  std::int64_t reserved = 0;
  s.i64(reserved);
  s.state(self.cache_);
}

void TaskSwitcher::save_state(sim::SnapshotWriter& w) const {
  walk(*this, w);
}

void TaskSwitcher::load_state(sim::SnapshotReader& r) { walk(*this, r); }

}  // namespace atlantis::core

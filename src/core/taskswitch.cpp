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

void TaskSwitcher::enable_cache(std::size_t capacity) {
  cache_ = ConfigCache(capacity);
}

bool TaskSwitcher::diff_applicable(const hw::Bitstream& bs) const {
  return device_.configured() && device_.region_count() > 1 &&
         bs.has_regions() &&
         hw::region_diff_count(device_.resident_regions(), bs.region_sigs) >= 0;
}

util::Result<util::Picoseconds> TaskSwitcher::switch_to(
    const std::string& name) {
  const auto it = tasks_.find(name);
  if (it == tasks_.end()) {
    throw util::StateError("unknown task '" + name + "'");
  }
  if (current_ == name && device_.configured()) {
    return util::Picoseconds{0};  // already resident
  }
  // Bitstream-cache hit: the configuration data is staged in the local
  // configuration store, so the context is activated (a small fraction
  // of the full load) without moving the bitstream — and therefore
  // without a CRC opportunity. An upset or unconfigured device cannot
  // activate a staged context: the lookup counts as a miss and takes the
  // full reload path below, which repairs it.
  if (cache_.enabled()) {
    const bool hit = cache_.touch(name) && device_.configured() &&
                     !device_.upset_pending();
    ++(hit ? counters_.hits : counters_.misses);
    if (hit) {
      const util::Picoseconds t =
          device_.activate(it->second, kCacheHitFraction);
      current_ = name;
      ++counters_.switches;
      counters_.switch_time += t;
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
        ++counters_.partials;
        counters_.regions += static_cast<std::uint64_t>(oc.regions_loaded);
        counters_.partial_time += t;
      }
    } else {
      t = device_.configure(it->second);
      ok = device_.config_crc_ok();
    }
    total += t;
    if (ok) break;
    // The CRC failure left the device unconfigured: the next attempt is
    // a full configuration.
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
  ++counters_.switches;
  counters_.switch_time += total;
  // Both the full load and the differential one leave a complete fresh
  // copy of the configuration staged locally.
  cache_.insert(name);
  return total;
}

bool TaskSwitcher::scrub() {
  if (!device_.configured()) return false;
  device_.draw_config_upset();  // one SEU opportunity per scrub window
  (void)device_.readback();
  if (!device_.upset_pending()) return false;
  // Readback shows a bitstream mismatch: repair it. A region-signed task
  // re-shifts the upset frame alone and the live design state survives
  // (reconfigure_diff of the resident bitstream touches only the upset
  // region); otherwise the current task is reconfigured wholesale.
  // Either reload is a CRC opportunity; a failure there surfaces via the
  // next switch_to(), which sees an unconfigured device.
  const auto it = tasks_.find(current_);
  if (it == tasks_.end()) return false;
  bool repaired = false;
  if (diff_applicable(it->second)) {
    const hw::ReconfigOutcome oc =
        device_.reconfigure_diff(it->second, policy_.max_attempts);
    reconfig_retries_ += static_cast<std::uint64_t>(oc.region_retries);
    repaired = oc.ok;
  } else {
    device_.configure(it->second);
    repaired = device_.config_crc_ok();
  }
  if (!repaired) current_.clear();
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
  auto& c = self.counters_;
  s.u64(c.switches);
  s.i64(c.switch_time);
  s.u64(self.reconfig_retries_);
  s.u64(c.partials);
  s.u64(c.regions);
  s.i64(c.partial_time);
  s.state(self.cache_);
  s.u64(c.hits);
  s.u64(c.misses);
}

void TaskSwitcher::save_state(sim::SnapshotWriter& w) const {
  walk(*this, w);
}

void TaskSwitcher::load_state(sim::SnapshotReader& r) { walk(*this, r); }

}  // namespace atlantis::core

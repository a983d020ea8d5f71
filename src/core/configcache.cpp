#include "core/configcache.hpp"

#include <algorithm>

namespace atlantis::core {

namespace {

/// Moves a resident entry to the front; false when `name` is absent.
bool promote(std::vector<std::string>& mru, const std::string& name) {
  const auto it = std::find(mru.begin(), mru.end(), name);
  if (it == mru.end()) return false;
  std::rotate(mru.begin(), it, it + 1);
  return true;
}

}  // namespace

bool ConfigCache::touch(const std::string& name, bool usable) {
  if (!enabled()) return false;  // inert: no lookup, no stats
  const bool hit = promote(mru_, name) && usable;
  if (hit) {
    ++stats_.hits;
  } else {
    ++stats_.misses;
  }
  return hit;
}

bool ConfigCache::contains(const std::string& name) const {
  return std::find(mru_.begin(), mru_.end(), name) != mru_.end();
}

void ConfigCache::insert(const std::string& name) {
  if (!enabled() || promote(mru_, name)) return;
  if (mru_.size() >= capacity_) {
    mru_.pop_back();
    ++stats_.evictions;
  }
  mru_.insert(mru_.begin(), name);
  ++stats_.insertions;
}

void ConfigCache::clear() { mru_.clear(); }

template <typename Self, typename Stream>
void ConfigCache::walk(Self& self, Stream& s) {
  s.seq32(self.mru_, [&](auto& name) { s.string(name); });  // MRU -> LRU
  s.u64(self.stats_.hits);
  s.u64(self.stats_.misses);
  s.u64(self.stats_.insertions);
  s.u64(self.stats_.evictions);
}

void ConfigCache::save_state(sim::SnapshotWriter& w) const { walk(*this, w); }

void ConfigCache::load_state(sim::SnapshotReader& r) { walk(*this, r); }

}  // namespace atlantis::core

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

bool ConfigCache::touch(const std::string& name) {
  return enabled() && promote(mru_, name);
}

void ConfigCache::insert(const std::string& name) {
  if (!enabled() || promote(mru_, name)) return;
  if (mru_.size() >= capacity_) mru_.pop_back();
  mru_.insert(mru_.begin(), name);
}

void ConfigCache::clear() { mru_.clear(); }

template <typename Self, typename Stream>
void ConfigCache::walk(Self& self, Stream& s) {
  s.seq32(self.mru_, [&](auto& name) { s.string(name); });  // MRU -> LRU
}

void ConfigCache::save_state(sim::SnapshotWriter& w) const { walk(*this, w); }

void ConfigCache::load_state(sim::SnapshotReader& r) { walk(*this, r); }

}  // namespace atlantis::core

#include "core/configcache.hpp"

namespace atlantis::core {

bool ConfigCache::touch(const std::string& name) {
  if (!enabled()) return false;  // inert: no lookup, no stats
  const auto it = index_.find(name);
  if (it == index_.end()) {
    ++stats_.misses;
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++stats_.hits;
  return true;
}

void ConfigCache::insert(const std::string& name,
                         std::vector<std::uint64_t> sigs) {
  if (!enabled()) return;
  const auto it = index_.find(name);
  if (it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    if (!sigs.empty()) it->second->sigs = std::move(sigs);
    return;
  }
  if (lru_.size() >= capacity_) {
    index_.erase(lru_.back().name);
    lru_.pop_back();
    ++stats_.evictions;
  }
  lru_.push_front(Entry{name, std::move(sigs)});
  index_[name] = lru_.begin();
  ++stats_.insertions;
}

void ConfigCache::erase(const std::string& name) {
  const auto it = index_.find(name);
  if (it == index_.end()) return;
  lru_.erase(it->second);
  index_.erase(it);
}

void ConfigCache::clear() {
  lru_.clear();
  index_.clear();
}

std::vector<std::string> ConfigCache::contents() const {
  std::vector<std::string> names;
  names.reserve(lru_.size());
  for (const Entry& e : lru_) names.push_back(e.name);
  return names;
}

template <typename Self, typename Stream>
void ConfigCache::walk(Self& self, Stream& s) {
  s.seq32(self.lru_, [&](auto& e) {  // MRU -> LRU
    s.string(e.name);
    s.words(e.sigs);
  });
  s.u64(self.stats_.hits);
  s.u64(self.stats_.misses);
  s.u64(self.stats_.insertions);
  s.u64(self.stats_.evictions);
}

void ConfigCache::save_state(sim::SnapshotWriter& w) const { walk(*this, w); }

void ConfigCache::load_state(sim::SnapshotReader& r) {
  walk(*this, r);
  index_.clear();
  for (auto it = lru_.begin(); it != lru_.end(); ++it) index_[it->name] = it;
}

}  // namespace atlantis::core

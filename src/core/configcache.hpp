// LRU bitstream/configuration cache.
//
// The Self-Reconfigurable Computing Platform line of work shows that
// reconfiguration cost dominates a time-multiplexed FPGA service unless
// recently used configurations are kept staged close to the device. The
// ATLANTIS CPLD support logic holds configuration data in local memory;
// this cache models which bitstreams are currently staged there. A hit
// means the configuration context can be activated without shifting the
// full bitstream through the serial port — and without the CRC check a
// full data reload requires.
#pragma once

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/snapshot.hpp"

namespace atlantis::core {

/// Lifetime counters of one cache; hit_rate() is over touch() calls.
struct ConfigCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;

  double hit_rate() const {
    const std::uint64_t lookups = hits + misses;
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
};

/// String-keyed LRU set. Capacity 0 disables the cache entirely:
/// touch() returns false without counting, insert() is a no-op, so a
/// disabled cache is bit-identical (timing AND stats) to not having one.
class ConfigCache {
 public:
  explicit ConfigCache(std::size_t capacity = 0) : capacity_(capacity) {}

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return lru_.size(); }
  bool enabled() const { return capacity_ > 0; }

  /// Looks `name` up and promotes it to most-recently-used on a hit.
  /// Counts one hit or one miss.
  bool touch(const std::string& name);

  /// True when `name` is resident; no promotion, no stats.
  bool contains(const std::string& name) const {
    return index_.find(name) != index_.end();
  }

  /// Stages `name` as most-recently-used, evicting the least-recently-
  /// used entry when the cache is full. Re-inserting a resident entry
  /// only promotes it.
  void insert(const std::string& name) { insert(name, {}); }

  /// Same, remembering the staged bitstream's per-region content
  /// signatures (hw::Bitstream::region_sigs). They travel in the snapshot
  /// stream; no code consults them.
  void insert(const std::string& name, std::vector<std::uint64_t> sigs);

  /// Drops one entry (e.g. a bitstream whose staged copy went bad).
  void erase(const std::string& name);

  /// Drops everything (board power loss clears the staging memory).
  void clear();

  /// Entries from most- to least-recently-used (tests and reports).
  std::vector<std::string> contents() const;

  const ConfigCacheStats& stats() const { return stats_; }

  /// Snapshottable leaf: entries in MRU→LRU order with their region
  /// signatures, plus the lifetime stats, written into the caller's open
  /// section. load_state replaces the contents (capacity is construction
  /// configuration and must already match).
  void save_state(sim::SnapshotWriter& w) const;
  void load_state(sim::SnapshotReader& r);

 private:
  struct Entry {
    std::string name;
    std::vector<std::uint64_t> sigs;  // region signatures, may be empty
  };

  template <typename Self, typename Stream>
  static void walk(Self& self, Stream& s);

  std::size_t capacity_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  ConfigCacheStats stats_;
};

}  // namespace atlantis::core

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

#include <cstddef>
#include <string>
#include <vector>

#include "sim/snapshot.hpp"

namespace atlantis::core {

/// String-keyed LRU set: one vector in most-recently-used-first order,
/// which a linear scan serves best at the few entries a board stages.
/// Capacity 0 disables the cache entirely: touch() returns false and
/// insert() is a no-op. The cache decides residency only; the task
/// switcher counts its hits and misses.
class ConfigCache {
 public:
  explicit ConfigCache(std::size_t capacity = 0) : capacity_(capacity) {}

  bool enabled() const { return capacity_ > 0; }

  /// Promotes `name` to most-recently-used and returns true when it is
  /// resident; false when it is not, or the cache is disabled.
  bool touch(const std::string& name);

  /// Stages `name` as most-recently-used, evicting the least-recently-
  /// used entry when the cache is full. Re-inserting a resident entry
  /// only promotes it.
  void insert(const std::string& name);

  /// Drops everything (board power loss clears the staging memory).
  void clear();

  /// Entries from most- to least-recently-used (tests and reports).
  const std::vector<std::string>& contents() const { return mru_; }

  /// Snapshottable leaf: entry names in MRU→LRU order, written into the
  /// caller's open section. load_state replaces the contents (capacity
  /// is construction configuration and must already match).
  void save_state(sim::SnapshotWriter& w) const;
  void load_state(sim::SnapshotReader& r);

 private:
  template <typename Self, typename Stream>
  static void walk(Self& self, Stream& s);

  std::size_t capacity_;
  std::vector<std::string> mru_;  // front = most recently used
};

}  // namespace atlantis::core

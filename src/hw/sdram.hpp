// SDRAM timing model with open-row banking.
//
// The volume-rendering mezzanine is "a single module of triple width with
// 512 MB of SDRAM organized in 8 simultaneously accessible banks" (§2.1).
// What makes or breaks the renderer is row locality: an access to the
// open row of a bank streams at one word per clock, while a row miss pays
// precharge + activate + CAS. The renderer's voxel layout is chosen to
// keep ray neighbourhoods inside open rows across the 8 banks.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/snapshot.hpp"

namespace atlantis::hw {

struct SdramConfig {
  std::int64_t capacity_bytes = 512ll * 1024 * 1024;
  int banks = 8;
  double clock_mhz = 100.0;     // "assuming 100 MHz devices"
  std::int64_t row_bytes = 2048;
  int t_rp = 3;                 // precharge, cycles
  int t_rcd = 3;                // activate-to-command, cycles
  int t_cas = 3;                // CAS latency, cycles
};

/// Stateful per-bank open-row tracker; access() returns the cycle cost of
/// one word transaction and updates the row state.
class Sdram {
 public:
  explicit Sdram(std::string name, const SdramConfig& cfg = {});

  const SdramConfig& config() const { return cfg_; }
  const std::string& name() const { return name_; }

  /// One word access at a byte address. Bank is decoded from the address
  /// (low-order interleaving so that consecutive rows rotate banks).
  std::uint64_t access(std::uint64_t byte_addr);

  std::uint64_t total_accesses() const { return accesses_; }
  std::uint64_t row_hits() const { return hits_; }
  std::uint64_t row_misses() const { return accesses_ - hits_; }
  double hit_rate() const {
    return accesses_ ? static_cast<double>(hits_) /
                           static_cast<double>(accesses_)
                     : 0.0;
  }
  void reset_counters();

  /// Snapshottable leaf: per-bank open rows and the access counters,
  /// written into the caller's open section.
  void save_state(sim::SnapshotWriter& w) const { walk(*this, w); }
  void load_state(sim::SnapshotReader& r) { walk(*this, r); }

 private:
  template <typename Self, typename Stream>
  static void walk(Self& self, Stream& s) {
    s.expect_u32(self.open_row_.size(), "SDRAM bank count");
    for (auto& row : self.open_row_) s.i64(row);
    s.u64(self.accesses_);
    s.u64(self.hits_);
  }

  std::string name_;
  SdramConfig cfg_;
  std::vector<std::int64_t> open_row_;  // -1 = closed
  std::uint64_t accesses_ = 0;
  std::uint64_t hits_ = 0;
};

}  // namespace atlantis::hw

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

#include "sim/fault.hpp"
#include "sim/timeline.hpp"
#include "util/status.hpp"
#include "util/units.hpp"

namespace atlantis::hw {

struct SdramConfig {
  std::int64_t capacity_bytes = 512ll * 1024 * 1024;
  int banks = 8;
  int width_bits = 64;          // per-bank data width
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

  /// Time for `cycles` at the configured clock.
  util::Picoseconds cycles_to_time(std::uint64_t cycles) const {
    return static_cast<util::Picoseconds>(cycles) *
           util::period_from_mhz(cfg_.clock_mhz);
  }

  std::uint64_t total_accesses() const { return accesses_; }
  std::uint64_t row_hits() const { return hits_; }
  std::uint64_t row_misses() const { return accesses_ - hits_; }
  double hit_rate() const {
    return accesses_ ? static_cast<double>(hits_) /
                           static_cast<double>(accesses_)
                     : 0.0;
  }
  void reset_counters();

  /// Snapshottable leaf: per-bank open rows and the access/ECC counters,
  /// written into the caller's open section.
  void save_state(sim::SnapshotWriter& w) const { walk(*this, w); }
  void load_state(sim::SnapshotReader& r) { walk(*this, r); }

  // --- fault injection --------------------------------------------------
  /// Attaches a fault injector; the injection site is "sdram/<name>".
  /// Each post_burst() is one SEU opportunity; a hit appends an ECC
  /// correction burst to the posted transaction.
  void set_fault_injector(sim::FaultInjector* injector) {
    injector_ = injector;
    fault_site_ = "sdram/" + name_;
  }
  sim::FaultInjector* fault_injector() const { return injector_; }
  std::uint64_t ecc_corrections() const { return ecc_corrections_; }

  // --- timeline binding ------------------------------------------------
  /// Registers the device as a timeline resource with one channel per
  /// bank ("8 simultaneously accessible banks").
  void bind(sim::Timeline& timeline) {
    timeline_ = &timeline;
    resource_ = timeline.add_resource("sdram/" + name_, cfg_.banks);
  }
  bool bound() const { return timeline_ != nullptr; }
  sim::ResourceId resource() const { return resource_; }

  /// Posts a burst of `cycles` device cycles moving `bytes` onto one
  /// bank channel no earlier than `not_before`.
  const sim::Transaction& post_burst(sim::TrackId track,
                                     std::uint64_t cycles,
                                     std::uint64_t bytes,
                                     util::Picoseconds not_before,
                                     std::string label = {});

 private:
  template <typename Self, typename Stream>
  static void walk(Self& self, Stream& s) {
    s.expect_u32(self.open_row_.size(), "SDRAM bank count");
    for (auto& row : self.open_row_) s.i64(row);
    s.u64(self.accesses_);
    s.u64(self.hits_);
    s.u64(self.ecc_corrections_);
  }

  std::string name_;
  SdramConfig cfg_;
  std::vector<std::int64_t> open_row_;  // -1 = closed
  std::uint64_t accesses_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t ecc_corrections_ = 0;
  sim::Timeline* timeline_ = nullptr;
  sim::ResourceId resource_;
  sim::FaultInjector* injector_ = nullptr;
  std::string fault_site_;
};

}  // namespace atlantis::hw

// Synchronous SRAM model: functional storage plus bank timing.
//
// ATLANTIS memory mezzanines are built from synchronous SRAM in
// application-specific shapes (§2.1): one 512k x 176 bank per TRT module,
// two 512k x 72 banks for 2-D image processing. A SyncSram serves one
// access per bank per clock; wider words and more banks are exactly how
// the paper scales the TRT trigger ("RAM access with a width of e.g.
// 4*176 bits").
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "chdl/bitvec.hpp"
#include "sim/fault.hpp"
#include "util/bitops.hpp"
#include "util/status.hpp"
#include "util/units.hpp"

namespace atlantis::hw {

struct SramConfig {
  std::int64_t words = 0;
  int width_bits = 0;
  int banks = 1;
  double clock_mhz = 40.0;

  std::int64_t total_bits() const {
    return words * static_cast<std::int64_t>(width_bits) * banks;
  }
  std::int64_t total_bytes() const { return total_bits() / 8; }
};

/// Location of a single-event upset in a memory module.
struct SramUpset {
  int bank = 0;
  std::int64_t addr = 0;
  int bit = 0;
};

class SyncSram {
 public:
  explicit SyncSram(std::string name, const SramConfig& cfg);

  const SramConfig& config() const { return cfg_; }
  const std::string& name() const { return name_; }

  /// Functional access; each bank has `words` entries of `width_bits`.
  void write(int bank, std::int64_t addr, const chdl::BitVec& value);
  chdl::BitVec read(int bank, std::int64_t addr) const;

  /// Flips one stored bit in place (the SEU mechanism; also the repair
  /// mechanism, since flipping twice restores the word).
  void flip_bit(int bank, std::int64_t addr, int bit);

  // --- fault injection --------------------------------------------------
  /// Attaches a fault injector; the injection site is "sram/<name>".
  void set_fault_injector(sim::FaultInjector* injector) {
    injector_ = injector;
    fault_site_ = "sram/" + name_;
  }
  sim::FaultInjector* fault_injector() const { return injector_; }

  /// One SEU opportunity (a scrub window). On a hit the upset location is
  /// decoded from the draw parameter, the bit is flipped, and the
  /// location returned so the scrubber can repair it.
  std::optional<SramUpset> draw_seu();

  std::uint64_t seu_flips() const { return seu_flips_; }

  /// Snapshottable leaf: the full word array and the SEU counter, written
  /// into the caller's open section. load_state requires the same shape.
  void save_state(sim::SnapshotWriter& w) const { walk(*this, w); }
  void load_state(sim::SnapshotReader& r) { walk(*this, r); }

  /// Timing: `accesses` single-word transactions spread over the banks.
  /// Synchronous SRAM is fully pipelined — one access per bank per cycle.
  std::uint64_t cycles_for(std::uint64_t accesses) const {
    return util::ceil_div(accesses, static_cast<std::uint64_t>(cfg_.banks));
  }
  util::Picoseconds time_for(std::uint64_t accesses) const {
    return static_cast<util::Picoseconds>(cycles_for(accesses)) *
           util::period_from_mhz(cfg_.clock_mhz);
  }

  /// Peak bandwidth in MB/s at the configured clock.
  double peak_mbps() const {
    return cfg_.clock_mhz * 1e6 *
           (static_cast<double>(cfg_.width_bits) / 8.0) * cfg_.banks / 1e6;
  }

 private:
  template <typename Self, typename Stream>
  static void walk(Self& self, Stream& s) {
    s.words(std::span(self.data_));  // a span keeps the shape
    s.u64(self.seu_flips_);
  }

  std::size_t index(int bank, std::int64_t addr) const;

  std::string name_;
  SramConfig cfg_;
  int stride_;                        // words per entry
  std::vector<std::uint64_t> data_;  // banks * words * stride
  std::uint64_t seu_flips_ = 0;
  sim::FaultInjector* injector_ = nullptr;
  std::string fault_site_;
};

}  // namespace atlantis::hw

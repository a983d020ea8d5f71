// Programmable clock generators.
//
// §2 of the paper: "All clocks are programmable in the range of a few MHz
// up to at least 80 MHz. Programming is done under software control from
// the CPU module." ATLANTIS distributes a central AAB clock, per-board
// local clocks and individual I/O-port clocks; each is one ClockGenerator.
#pragma once

#include <string>

#include "util/status.hpp"
#include "util/units.hpp"

namespace atlantis::hw {

class ClockGenerator {
 public:
  /// Default range matches the boards: 1..80 MHz.
  explicit ClockGenerator(std::string name, double min_mhz = 1.0,
                          double max_mhz = 80.0, double initial_mhz = 40.0)
      : name_(std::move(name)), min_mhz_(min_mhz), max_mhz_(max_mhz) {
    set_mhz(initial_mhz);
  }

  /// Reprograms the synthesizer (the software-control path from the CPU).
  void set_mhz(double mhz) {
    ATLANTIS_CHECK(mhz >= min_mhz_ && mhz <= max_mhz_,
                   "clock '" + name_ + "' frequency out of range");
    mhz_ = mhz;
  }

  double mhz() const { return mhz_; }
  util::Picoseconds period() const { return util::period_from_mhz(mhz_); }
  const std::string& name() const { return name_; }

  /// Duration of `n` cycles at the programmed frequency.
  util::Picoseconds cycles(std::uint64_t n) const {
    return static_cast<util::Picoseconds>(n) * period();
  }

 private:
  std::string name_;
  double min_mhz_;
  double max_mhz_;
  double mhz_ = 0.0;
};

}  // namespace atlantis::hw

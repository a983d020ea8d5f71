// Pattern bank and look-up table for the TRT trigger.
//
// "Predefined patterns are stored in a large look-up table (LUT) with
// every data bit representing one pattern. Each pixel in the input image
// contributes to a number of patterns, defined by the content of the
// LUT." (§3.1). The bank enumerates 240..2400+ track patterns over a
// parameter grid and provides both views of the membership relation:
// per-pattern straw lists and per-straw pattern lists (= the LUT rows).
#pragma once

#include <cstdint>
#include <vector>

#include "chdl/bitvec.hpp"
#include "trt/geometry.hpp"

namespace atlantis::trt {

class PatternBank {
 public:
  /// Enumerates `num_patterns` patterns over a phi x slope x curvature
  /// grid covering the barrel.
  PatternBank(const DetectorGeometry& geo, int num_patterns);

  const DetectorGeometry& geometry() const { return geo_; }
  int pattern_count() const { return static_cast<int>(patterns_.size()); }

  /// The straws pattern `p` crosses (one per layer).
  const std::vector<std::int32_t>& pattern_straws(int p) const {
    return patterns_.at(static_cast<std::size_t>(p));
  }

  /// Patterns that straw `s` belongs to (the set bits of LUT row `s`).
  const std::vector<std::int32_t>& straw_patterns(std::int32_t s) const {
    return straw_patterns_.at(static_cast<std::size_t>(s));
  }

  /// LUT row for a straw as a bit vector of width pattern_count()
  /// (what the memory module stores at address `s`).
  chdl::BitVec lut_row(std::int32_t s) const;

  /// LUT row restricted to pattern slice [lo, lo+width) — one memory
  /// module's share in a multi-module configuration.
  chdl::BitVec lut_row_slice(std::int32_t s, int lo, int width) const;

  /// Average LUT-row population (patterns per straw) — the op count per
  /// hit of the software histogrammer.
  double mean_patterns_per_straw() const;

  /// Total LUT bits (= straws x patterns), the memory the modules hold.
  std::int64_t lut_bits() const {
    return static_cast<std::int64_t>(geo_.straw_count()) * pattern_count();
  }

 private:
  DetectorGeometry geo_;
  std::vector<std::vector<std::int32_t>> patterns_;       // pattern -> straws
  std::vector<std::vector<std::int32_t>> straw_patterns_; // straw -> patterns
};

}  // namespace atlantis::trt

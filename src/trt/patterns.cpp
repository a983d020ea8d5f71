#include "trt/patterns.hpp"

#include <cmath>

#include "util/status.hpp"

namespace atlantis::trt {

PatternBank::PatternBank(const DetectorGeometry& geo, int num_patterns)
    : geo_(geo) {
  ATLANTIS_CHECK(num_patterns > 0, "pattern bank must not be empty");
  // Grid: phi positions dominate; slope takes 3 values (left / straight /
  // right) and curvature 2 (stiff / bent), mirroring how trigger banks
  // trade pattern count against momentum coverage.
  constexpr int kSlopes = 3;
  constexpr int kCurvatures = 2;
  const int per_cell = kSlopes * kCurvatures;
  const int phi_steps =
      std::max(1, (num_patterns + per_cell - 1) / per_cell);
  const double phi_stride =
      static_cast<double>(geo.straws_per_layer) / phi_steps;
  static constexpr double kSlopeValues[kSlopes] = {-1.5, 0.0, 1.5};
  static constexpr double kCurvValues[kCurvatures] = {0.0, 0.02};

  patterns_.reserve(static_cast<std::size_t>(num_patterns));
  for (int i = 0; i < phi_steps && pattern_count() < num_patterns; ++i) {
    for (int s = 0; s < kSlopes && pattern_count() < num_patterns; ++s) {
      for (int c = 0; c < kCurvatures && pattern_count() < num_patterns;
           ++c) {
        TrackParams t;
        t.phi = phi_stride * i;
        t.slope = kSlopeValues[s];
        t.curvature = kCurvValues[c];
        patterns_.push_back(track_straws(geo_, t));
      }
    }
  }

  // Invert to per-straw pattern lists (the LUT contents).
  straw_patterns_.resize(static_cast<std::size_t>(geo.straw_count()));
  for (int p = 0; p < pattern_count(); ++p) {
    for (const std::int32_t s : patterns_[static_cast<std::size_t>(p)]) {
      straw_patterns_[static_cast<std::size_t>(s)].push_back(p);
    }
  }
}

chdl::BitVec PatternBank::lut_row(std::int32_t s) const {
  chdl::BitVec row(pattern_count());
  for (const std::int32_t p : straw_patterns(s)) {
    row.set_bit(p, true);
  }
  return row;
}

chdl::BitVec PatternBank::lut_row_slice(std::int32_t s, int lo,
                                        int width) const {
  ATLANTIS_CHECK(lo >= 0 && width > 0, "bad LUT slice");
  chdl::BitVec row(width);
  for (const std::int32_t p : straw_patterns(s)) {
    if (p >= lo && p < lo + width) row.set_bit(p - lo, true);
  }
  return row;
}

double PatternBank::mean_patterns_per_straw() const {
  std::int64_t total = 0;
  for (const auto& list : straw_patterns_) {
    total += static_cast<std::int64_t>(list.size());
  }
  return static_cast<double>(total) /
         static_cast<double>(straw_patterns_.size());
}

}  // namespace atlantis::trt

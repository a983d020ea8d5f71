// Signed fixed-point arithmetic (Q-format). FPGA datapaths in the
// paper's era were fixed-point almost without exception; this type makes
// the bit behaviour of such a datapath explicit and testable. No core in
// src/ uses it: the volume-rendering and image-processing cores are
// CHDL designs with their own bit widths.
#pragma once

#include <cmath>
#include <compare>
#include <cstdint>

#include "util/bitops.hpp"
#include "util/status.hpp"

namespace atlantis::util {

/// Q(INT).(FRAC) signed fixed point held in 64-bit storage.
/// INT counts integer bits excluding sign; FRAC counts fractional bits.
/// Arithmetic saturates on overflow (the classic DSP/FPGA choice; wrapping
/// would silently corrupt image data).
template <int INT, int FRAC>
class Fixed {
  static_assert(INT >= 0 && FRAC >= 0 && INT + FRAC + 1 <= 64,
                "Q format must fit in 64 bits including sign");

 public:
  static constexpr int kIntBits = INT;
  static constexpr int kFracBits = FRAC;
  static constexpr int kTotalBits = INT + FRAC + 1;
  static constexpr std::int64_t kOne = std::int64_t{1} << FRAC;
  static constexpr std::int64_t kMaxRaw =
      (std::int64_t{1} << (INT + FRAC)) - 1;
  static constexpr std::int64_t kMinRaw = -(std::int64_t{1} << (INT + FRAC));

  constexpr Fixed() = default;

  static constexpr Fixed from_raw(std::int64_t raw) {
    Fixed f;
    f.raw_ = saturate(raw);
    return f;
  }

  static Fixed from_double(double v) {
    return from_raw(static_cast<std::int64_t>(
        std::llround(v * static_cast<double>(kOne))));
  }

  static constexpr Fixed from_int(std::int64_t v) {
    return from_raw(v << FRAC);
  }

  constexpr std::int64_t raw() const { return raw_; }
  double to_double() const {
    return static_cast<double>(raw_) / static_cast<double>(kOne);
  }
  constexpr std::int64_t to_int() const { return raw_ >> FRAC; }

  constexpr Fixed operator+(Fixed o) const { return from_raw(raw_ + o.raw_); }
  constexpr Fixed operator-(Fixed o) const { return from_raw(raw_ - o.raw_); }
  constexpr Fixed operator-() const { return from_raw(-raw_); }

  constexpr Fixed operator*(Fixed o) const {
    const __int128 wide = static_cast<__int128>(raw_) * o.raw_;
    return from_raw(static_cast<std::int64_t>(wide >> FRAC));
  }

  constexpr Fixed operator/(Fixed o) const {
    ATLANTIS_CHECK(o.raw_ != 0, "fixed point division by zero");
    const __int128 wide = (static_cast<__int128>(raw_) << FRAC) / o.raw_;
    return from_raw(static_cast<std::int64_t>(wide));
  }

  constexpr auto operator<=>(const Fixed&) const = default;

  /// Linear interpolation a + t*(b-a); t should be in [0,1].
  static constexpr Fixed lerp(Fixed a, Fixed b, Fixed t) {
    return a + (b - a) * t;
  }

  /// Saturating clamp of an arbitrary raw value into the Q range.
  static constexpr std::int64_t saturate(std::int64_t raw) {
    if (raw > kMaxRaw) return kMaxRaw;
    if (raw < kMinRaw) return kMinRaw;
    return raw;
  }

 private:
  std::int64_t raw_ = 0;
};

/// The formats used by the rendering datapath: 16-bit sample values with
/// 8 fractional bits and wide accumulators.
using Fix16 = Fixed<7, 8>;
using Fix32 = Fixed<15, 16>;

}  // namespace atlantis::util

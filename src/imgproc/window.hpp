// Shared streaming 3x3 window front end.
//
// Both filter engines (constant-kernel convolution and the Sobel edge
// detector) consume pixels through the same structure: a host push port,
// two line-buffer RAMs recirculating the previous rows, and a 3x3
// register window. This builder generates that front end once so the
// engines only differ in their arithmetic back ends.
#pragma once

#include <array>

#include "chdl/builder.hpp"
#include "chdl/design.hpp"

namespace atlantis::imgproc {

struct StreamWindow {
  /// taps[row*3+col]: row 0 = oldest line, col 0 = leftmost column.
  std::array<chdl::Wire, 9> taps;
  /// Qualifies the cycle after a push (the window advanced).
  chdl::Wire advance;
  /// Pixel push strobe (host write to 0x01) and stream reset (0x00).
  chdl::Wire push;
  chdl::Wire reset;
  /// Pixels pushed since reset (the 0x03 counter). A window is primed,
  /// its line buffers holding real image data, once this reaches two
  /// rows plus the window fill (2 * image_width + 5); statistics
  /// gathered before that see priming garbage.
  chdl::Wire count;
};

/// Builds the window against an existing host register file; reserves
/// host addresses 0x00 (reset) and 0x01 (pixel push), and maps the push
/// counter at 0x03.
StreamWindow build_stream_window(chdl::Design& d, chdl::HostRegFile& host,
                                 int image_width);

// --- arithmetic back-end building blocks --------------------------------

/// value * coeff as a two's-complement shift/add network at `width` bits.
chdl::Wire mul_const(chdl::Design& d, chdl::Wire value, int coeff, int width);

/// Sum of taps[i] * k[i] over the 3x3 window, two's complement.
chdl::Wire window_mac(chdl::Design& d, const std::array<chdl::Wire, 9>& taps,
                      const std::array<std::int16_t, 9>& k, int acc_bits);

/// Arithmetic right shift of a two's-complement value by a constant.
chdl::Wire arith_shr(chdl::Design& d, chdl::Wire value, int amount);

/// |value| of a two's-complement value.
chdl::Wire abs_value(chdl::Design& d, chdl::Wire value);

/// Clamp a two's-complement accumulator into [0, 255] (8-bit result).
chdl::Wire clamp_u8(chdl::Design& d, chdl::Wire acc);

}  // namespace atlantis::imgproc

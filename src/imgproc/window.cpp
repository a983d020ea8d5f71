#include "imgproc/window.hpp"

#include "util/bitops.hpp"
#include "util/status.hpp"

namespace atlantis::imgproc {

StreamWindow build_stream_window(chdl::Design& d, chdl::HostRegFile& host,
                                 int image_width) {
  using chdl::Wire;
  ATLANTIS_CHECK(image_width >= 4 && image_width <= 4096,
                 "image width out of range");
  StreamWindow w;
  w.reset = host.write_strobe(0x00);
  w.push = host.write_strobe(0x01);
  const Wire pixel = d.slice(host.wdata(), 0, 8);

  // Column counter wrapping at the image width.
  const int col_bits =
      util::bit_width_of(static_cast<std::uint64_t>(image_width - 1));
  chdl::RegOpts copts;
  copts.enable = w.push;
  copts.reset = w.reset;
  const Wire col = d.reg_forward("col", col_bits, copts);
  const Wire at_end =
      chdl::eq_const(d, col, static_cast<std::uint64_t>(image_width - 1));
  d.reg_connect(col, d.mux(at_end, d.constant(col_bits, 0),
                           d.add(col, d.constant(col_bits, 1))));

  // Line buffers for rows y-1 and y-2.
  const int lb1 = d.add_ram("linebuf1", image_width, 8);
  const int lb2 = d.add_ram("linebuf2", image_width, 8);
  const Wire rd1 = d.ram_read(lb1, col, w.push);
  const Wire rd2 = d.ram_read(lb2, col, w.push);

  chdl::RegOpts popts;
  popts.enable = w.push;
  const Wire pixel_d1 = d.reg("pixel_d1", pixel, popts);
  const Wire col_d1 = d.reg("col_d1", col, popts);
  const Wire push_d1 = d.reg("push_d1", w.push, chdl::RegOpts{});
  d.ram_write(lb1, col_d1, pixel_d1, push_d1);
  d.ram_write(lb2, col_d1, rd1, push_d1);
  w.advance = push_d1;

  auto shift3 = [&](const std::string& name, Wire in,
                    int row) {
    chdl::RegOpts sopts;
    sopts.enable = push_d1;
    const Wire s0 = d.reg(name + "_0", in, sopts);
    const Wire s1 = d.reg(name + "_1", s0, sopts);
    const Wire s2 = d.reg(name + "_2", s1, sopts);
    w.taps[static_cast<std::size_t>(row * 3 + 0)] = s2;
    w.taps[static_cast<std::size_t>(row * 3 + 1)] = s1;
    w.taps[static_cast<std::size_t>(row * 3 + 2)] = s0;
  };
  shift3("win_top", rd2, 0);
  shift3("win_mid", rd1, 1);
  shift3("win_bot", pixel_d1, 2);

  w.count = chdl::counter(d, "pix_count", 32, w.push, w.reset);
  host.map_read(0x03, w.count);
  return w;
}

chdl::Wire mul_const(chdl::Design& d, chdl::Wire value, int coeff,
                     int width) {
  using chdl::Wire;
  const Wire zero = d.constant(width, 0);
  if (coeff == 0) return zero;
  const bool negative = coeff < 0;
  unsigned mag = static_cast<unsigned>(coeff < 0 ? -coeff : coeff);
  Wire acc = zero;
  const Wire v = d.resize(value, width);
  for (int bit = 0; mag != 0; ++bit, mag >>= 1) {
    if (mag & 1u) acc = d.add(acc, d.shl(v, bit));
  }
  return negative ? d.sub(zero, acc) : acc;
}

chdl::Wire window_mac(chdl::Design& d, const std::array<chdl::Wire, 9>& taps,
                      const std::array<std::int16_t, 9>& k, int acc_bits) {
  chdl::Wire acc = d.constant(acc_bits, 0);
  for (int i = 0; i < 9; ++i) {
    acc = d.add(acc, mul_const(d, taps[static_cast<std::size_t>(i)],
                               k[static_cast<std::size_t>(i)], acc_bits));
  }
  return acc;
}

chdl::Wire arith_shr(chdl::Design& d, chdl::Wire value, int amount) {
  if (amount == 0) return value;
  const int width = value.width;
  const chdl::Wire sign = d.bit(value, width - 1);
  const chdl::Wire logical = d.shr(value, amount);
  chdl::BitVec mask(width);
  for (int b = width - amount; b < width; ++b) mask.set_bit(b, true);
  const chdl::Wire ext =
      d.mux(sign, d.constant(mask), d.constant(width, 0));
  return d.bor(logical, ext);
}

chdl::Wire abs_value(chdl::Design& d, chdl::Wire value) {
  const chdl::Wire sign = d.bit(value, value.width - 1);
  const chdl::Wire neg = d.sub(d.constant(value.width, 0), value);
  return d.mux(sign, neg, value);
}

chdl::Wire clamp_u8(chdl::Design& d, chdl::Wire acc) {
  const int width = acc.width;
  const chdl::Wire sign = d.bit(acc, width - 1);
  const chdl::Wire over = d.reduce_or(d.slice(acc, 8, width - 9));
  const chdl::Wire low8 = d.slice(acc, 0, 8);
  return d.mux(sign, d.constant(8, 0),
               d.mux(over, d.constant(8, 255), low8));
}

}  // namespace atlantis::imgproc

#include "imgproc/sobel_core.hpp"

#include "chdl/builder.hpp"
#include "imgproc/filters.hpp"
#include "imgproc/window.hpp"

namespace atlantis::imgproc {

SobelCoreLayout build_sobel_core(chdl::Design& d, int image_width) {
  using chdl::Wire;
  constexpr int kAccBits = 16;  // |gx|+|gy| <= 2*4*255 fits comfortably

  chdl::HostRegFile hrf(d, /*addr_bits=*/8, /*data_bits=*/32);
  const StreamWindow window = build_stream_window(d, hrf, image_width);
  // High once the line buffers hold real image data (see StreamWindow).
  const std::uint64_t prime_pixels =
      2ull * static_cast<std::uint64_t>(image_width) + 5;
  const Wire primed =
      d.bnot(d.ult(window.count, d.constant(32, prime_pixels)));

  // Two MACs share the one window.
  const Wire gx =
      window_mac(d, window.taps, Kernel3x3::sobel_x().k, kAccBits);
  const Wire gy =
      window_mac(d, window.taps, Kernel3x3::sobel_y().k, kAccBits);
  const Wire mag = d.add(abs_value(d, gx), abs_value(d, gy));
  const Wire clamped = clamp_u8(d, mag);
  chdl::RegOpts oopts;
  oopts.enable = window.advance;
  const Wire out = d.reg("sobel_out", clamped, oopts);
  hrf.map_read(0x02, out);

  // On-the-fly edge statistics: count output pixels above a host-set
  // threshold (an inspection system's go/no-go counter).
  const Wire threshold = hrf.write_reg("threshold", 0x05, 8);
  // Gate statistics until the line buffers hold real data.
  const Wire is_edge =
      d.band(d.band(window.advance, primed),
             d.bnot(d.ult(clamped, threshold)));
  hrf.map_read(0x04, chdl::counter(d, "edge_count", 32, is_edge,
                                   window.reset));
  hrf.finish();

  SobelCoreLayout layout;
  layout.image_width = image_width;
  return layout;
}

}  // namespace atlantis::imgproc

#include "trt/hwmodel.hpp"

#include <cmath>

#include "util/bitops.hpp"
#include "util/status.hpp"

namespace atlantis::trt {

TrtHwResult histogram_atlantis(const PatternBank& bank, const Event& ev,
                               const TrtHwConfig& cfg,
                               core::AtlantisDriver* driver) {
  ATLANTIS_CHECK(cfg.ram_width_bits > 0, "RAM width must be positive");
  TrtHwResult r;
  // Functional result: identical to the reference by construction — the
  // hardware computes the same histogram, pass by pass.
  r.histogram = histogram_reference(bank, ev).histogram;

  const auto straws =
      static_cast<std::uint64_t>(bank.geometry().straw_count());
  const auto hits = static_cast<std::uint64_t>(ev.hits.size());
  const std::uint64_t processed = cfg.stream_all_straws ? straws : hits;
  const double width = cfg.ram_width_bits;
  const double patterns = bank.pattern_count();

  if (cfg.ideal_packing) {
    r.passes = patterns / width;
  } else {
    r.passes = std::ceil(patterns / width);
  }
  double cycles = static_cast<double>(processed) * r.passes +
                  static_cast<double>(cfg.pipeline_depth);
  if (cfg.include_readout) {
    cycles += patterns;  // drain one counter per clock into the read FIFO
  }
  r.compute_cycles = static_cast<std::uint64_t>(std::llround(cycles));
  r.compute_time =
      static_cast<util::Picoseconds>(r.compute_cycles) *
      util::period_from_mhz(cfg.clock_mhz);

  if (driver != nullptr) {
    driver->set_design_clock(cfg.clock_mhz);
    const util::Picoseconds t0 = driver->now();
    // Event image in: one bit per straw, packed.
    const std::uint64_t image_bytes = util::ceil_div(straws, 8);
    // Histogram out: 16-bit counters.
    const std::uint64_t hist_bytes =
        static_cast<std::uint64_t>(bank.pattern_count()) * 2;
    // Image in, scan, histogram out. Under overlap_io the scan consumes
    // straws as the image streams in: the DMA occupies the bus while the
    // design clock runs. Either way the read-back starts once the scan
    // that produces it is done.
    r.io_in_time = driver->dma(hw::DmaDirection::kWrite, image_bytes,
                               cfg.overlap_io)
                       .value_or_throw()
                       .duration;
    driver->advance(r.compute_time);
    driver->wait();
    r.readout_time = driver->dma(hw::DmaDirection::kRead, hist_bytes)
                         .value_or_throw()
                         .duration;
    // End-to-end span as the timeline saw it: identical to the scalar
    // sum in the sequential case, max(io, compute) + readout when
    // overlapped, and queue-delay inclusive under bus contention.
    r.total_time = driver->now() - t0;
  } else {
    r.total_time = r.io_in_time + r.compute_time + r.readout_time;
  }
  return r;
}

ReferenceResult histogram_reference_dense(const PatternBank& bank,
                                          const Event& ev) {
  ReferenceResult r;
  r.histogram.counts.assign(static_cast<std::size_t>(bank.pattern_count()), 0);
  const int straws = bank.geometry().straw_count();
  const int words_per_row = (bank.pattern_count() + 31) / 32;
  double ops = 0.0;
  for (int s = 0; s < straws; ++s) {
    // Row fetch + per-word test happen for every straw (the dense port
    // keeps the LUT in the same layout as the hardware's memory module).
    ops += 2.0 + 2.0 * static_cast<double>(words_per_row);
    if (ev.hit_mask[static_cast<std::size_t>(s)] == 0) continue;
    for (const std::int32_t p : bank.straw_patterns(s)) {
      ++r.histogram.counts[static_cast<std::size_t>(p)];
      ops += 3.0;  // bit isolate + index + increment
    }
  }
  ops += 2.0 * static_cast<double>(bank.pattern_count());
  r.op_count = ops;
  return r;
}

}  // namespace atlantis::trt

// ATLANTIS execution model for 2-D filtering.
//
// The streaming engine filters one pixel per clock once the line buffers
// are primed; images move over PCI DMA in both directions. The 2-D
// mezzanine (2 banks of 512k x 72 SSRAM, §2.1) holds frames on-board so
// filter chains run back to back without host round trips.
#pragma once

#include "core/driver.hpp"
#include "imgproc/filters.hpp"
#include "util/units.hpp"

namespace atlantis::imgproc {

struct ImgHwConfig {
  double clock_mhz = 40.0;
  int pipeline_latency = 8;  // line-buffer priming handled separately
  /// Filters applied back to back on-board before reading the result.
  int chained_filters = 1;
};

struct ImgHwResult {
  std::uint64_t compute_cycles = 0;
  util::Picoseconds compute_time = 0;
  util::Picoseconds io_time = 0;
  util::Picoseconds total_time = 0;
};

/// Timing model for filtering a width x height frame. When `driver` is
/// given, frame upload/download use its DMA model.
ImgHwResult filter_atlantis(int width, int height, const ImgHwConfig& cfg,
                            core::AtlantisDriver* driver = nullptr);

/// Host baseline time for the same frame at `ops_per_pixel`.
util::Picoseconds filter_host_time(int width, int height,
                                   double ops_per_pixel,
                                   const hw::HostCpuModel& cpu);

}  // namespace atlantis::imgproc

#include "imgproc/hwmodel.hpp"

#include "util/status.hpp"

namespace atlantis::imgproc {

ImgHwResult filter_atlantis(int width, int height, const ImgHwConfig& cfg,
                            core::AtlantisDriver* driver) {
  ATLANTIS_CHECK(width > 0 && height > 0, "bad frame size");
  ATLANTIS_CHECK(cfg.chained_filters >= 1, "need at least one filter");
  ImgHwResult r;
  const std::uint64_t pixels =
      static_cast<std::uint64_t>(width) * static_cast<std::uint64_t>(height);
  // One pixel per clock per pass; chained filters pipeline on-board, so
  // each additional pass costs one frame of cycles (plus priming).
  const std::uint64_t priming =
      static_cast<std::uint64_t>(width) + 2 +
      static_cast<std::uint64_t>(cfg.pipeline_latency);
  r.compute_cycles =
      static_cast<std::uint64_t>(cfg.chained_filters) * (pixels + priming);
  r.compute_time = static_cast<util::Picoseconds>(r.compute_cycles) *
                   util::period_from_mhz(cfg.clock_mhz);
  if (driver != nullptr) {
    driver->set_design_clock(cfg.clock_mhz);
    const util::Picoseconds t0 = driver->now();
    if (cfg.overlap_io) {
      // The streaming engine filters pixels as the frame arrives; the
      // result is read back once the pipeline drains.
      driver->dma_write_async(pixels);
      r.io_time += driver->board()
                       .pci()
                       .transfer(hw::DmaDirection::kWrite, pixels)
                       .duration;
      driver->advance(r.compute_time);
      driver->wait();
      r.io_time += driver->dma_read(pixels).duration;
    } else {
      r.io_time += driver->dma_write(pixels).duration;  // frame in
      r.io_time += driver->dma_read(pixels).duration;   // result out
      driver->advance(r.compute_time);
    }
    // Timeline span: sequential sum by default, overlapped under
    // overlap_io, queue-delay inclusive under contention.
    r.total_time = driver->now() - t0;
  } else {
    r.total_time = r.compute_time + r.io_time;
  }
  return r;
}

util::Picoseconds filter_host_time(int width, int height,
                                   double ops_per_pixel,
                                   const hw::HostCpuModel& cpu) {
  const double pixels =
      static_cast<double>(width) * static_cast<double>(height);
  return cpu.time_for_ops(pixels * ops_per_pixel);
}

}  // namespace atlantis::imgproc

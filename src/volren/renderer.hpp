// The ATLANTIS volume renderer: functional image, pipeline occupancy and
// memory timing combined into frame-rate predictions, plus the
// VolumePro-class brute-force baseline of the §3.4 comparison.
#pragma once

#include <string>

#include "volren/camera.hpp"
#include "volren/memsim.hpp"
#include "volren/pipeline.hpp"
#include "volren/raycast.hpp"

namespace atlantis::volren {

struct FpgaRendererConfig {
  /// The achieved FPGA logic clock (">25 MHz", §3.4).
  double logic_clock_mhz = 25.0;
  PipelineParams pipeline{};
  RenderParams render{};
  int image_width = 256;
  int image_height = 128;
  /// Camera framing; kPaperCameraZoom frames the head like the paper.
  double camera_zoom = 1.0;
  /// Memory-traffic reduction from the interpolation neighbourhood
  /// registers: consecutive samples of a 0.5-step ray share at least
  /// half of their eight voxel corners, which the datapath holds in
  /// registers instead of refetching. 1.0 disables the optimization;
  /// the paper-era pipelines achieved ~2.
  double memory_reuse = 1.0;
};

struct FrameReport {
  std::string view;
  std::string transfer;
  bool perspective = false;
  RenderStats stats;
  PipelineResult pipeline;
  std::uint64_t memory_cycles = 0;
  double sdram_hit_rate = 0.0;
  double sample_fraction = 0.0;  // samples / voxels
  double efficiency = 0.0;       // pipeline issue efficiency
  /// Frame rate with logic and memory both at the SDRAM's technology
  /// clock (the paper's simulation numbers, "assuming 100 MHz
  /// devices")...
  double fps_tech = 0.0;
  /// ...and with the achieved >25 MHz FPGA logic clock.
  double fps_fpga = 0.0;
  util::Image<std::uint8_t> image;
};

class FpgaVolumeRenderer {
 public:
  FpgaVolumeRenderer(const Volume& volume, FpgaRendererConfig cfg = {});

  /// Renders one frame and produces the full timing report.
  FrameReport render_frame(const TransferFunction& tf, ViewDirection view,
                           bool perspective = false);

  const FpgaRendererConfig& config() const { return cfg_; }
  const Volume& volume() const { return volume_; }

  /// VolumePro-class baseline: a fixed-function engine that processes
  /// every voxel every frame. The real board resampled 256^3 at 30 Hz,
  /// i.e. ~500 Mvoxel/s.
  static double volumepro_fps(std::int64_t voxels,
                              double mvoxels_per_s = 500.0);

 private:
  const Volume& volume_;
  FpgaRendererConfig cfg_;
};

}  // namespace atlantis::volren

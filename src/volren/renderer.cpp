#include "volren/renderer.hpp"

#include <algorithm>

#include "util/status.hpp"

namespace atlantis::volren {

FpgaVolumeRenderer::FpgaVolumeRenderer(const Volume& volume,
                                       FpgaRendererConfig cfg)
    : volume_(volume), cfg_(cfg) {
  ATLANTIS_CHECK(cfg.logic_clock_mhz > 0, "logic clock must be positive");
  ATLANTIS_CHECK(cfg.memory_reuse >= 1.0, "memory reuse factor must be >= 1");
}

FrameReport FpgaVolumeRenderer::render_frame(const TransferFunction& tf,
                                             ViewDirection view,
                                             bool perspective) {
  Camera cam(volume_, view, cfg_.image_width, cfg_.image_height, perspective,
             cfg_.camera_zoom);
  VoxelMemory mem(volume_);
  RenderOutput out = render(volume_, tf, cam, cfg_.render,
                            [&mem](double x, double y, double z) {
                              mem.sample_access(x, y, z);
                            });

  FrameReport rep;
  rep.view = view_name(view);
  rep.transfer = tf.name();
  rep.perspective = perspective;
  rep.stats = out.stats;
  rep.image = std::move(out.image);
  rep.pipeline = simulate_pipeline(out.stats.samples_per_ray, cfg_.pipeline);
  rep.memory_cycles = mem.total_cycles();
  rep.sdram_hit_rate = mem.hit_rate();
  rep.sample_fraction = out.stats.sample_fraction(volume_.voxel_count());
  rep.efficiency = rep.pipeline.efficiency();

  // Frame time: the logic pipeline and the memory system run
  // concurrently; the slower one sets the pace.
  // Perspective rays need a perspective-correct divide per sample; the
  // era's iterative divider units issue one result every other clock, so
  // the logic pipeline runs at half rate (the §3.4 "factor of about 2").
  const double issue_penalty = perspective ? 2.0 : 1.0;
  auto fps_for = [&](double logic_mhz, double memory_mhz) {
    const double logic_s = static_cast<double>(rep.pipeline.cycles) *
                           issue_penalty / (logic_mhz * 1e6);
    const double memory_s = static_cast<double>(rep.memory_cycles) /
                            cfg_.memory_reuse / (memory_mhz * 1e6);
    const double frame_s = std::max(logic_s, memory_s);
    return frame_s > 0.0 ? 1.0 / frame_s : 0.0;
  };
  const double memory_mhz = mem.sdram().config().clock_mhz;
  rep.fps_tech = fps_for(memory_mhz, memory_mhz);
  rep.fps_fpga = fps_for(cfg_.logic_clock_mhz, memory_mhz);
  return rep;
}

double FpgaVolumeRenderer::volumepro_fps(std::int64_t voxels,
                                         double mvoxels_per_s) {
  ATLANTIS_CHECK(voxels > 0, "empty volume");
  return mvoxels_per_s * 1e6 / static_cast<double>(voxels);
}

}  // namespace atlantis::volren

#include "volren/memsim.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"
#include "util/status.hpp"
#include "volren/renderer.hpp"

namespace atlantis::volren {
namespace {

TEST(VoxelMemory, FirstAccessMissesThenStreams) {
  const Volume v(64, 64, 64);
  VoxelMemory mem(v);
  const std::uint64_t first = mem.sample_access(10.5, 10.5, 10.5);
  EXPECT_GT(first, 1u);  // eight cold banks
  const std::uint64_t second = mem.sample_access(11.5, 10.5, 10.5);
  EXPECT_EQ(second, 1u);  // same rows in all banks
  EXPECT_EQ(mem.total_samples(), 2u);
}

TEST(VoxelMemory, AxisAlignedMarchIsRowFriendly) {
  const Volume v(128, 128, 64);
  VoxelMemory mem(v);
  for (int x = 1; x < 126; ++x) {
    mem.sample_access(x + 0.5, 64.2, 32.2);
  }
  EXPECT_GT(mem.hit_rate(), 0.95);
  EXPECT_LT(mem.mean_cycles_per_sample(), 1.2);
}

TEST(VoxelMemory, RandomAccessThrashesRows) {
  const Volume v(128, 128, 64);
  VoxelMemory aligned(v);
  VoxelMemory random(v);
  util::Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    aligned.sample_access(1.0 + i % 120, 64.0, 32.0);
    random.sample_access(rng.uniform(1, 126), rng.uniform(1, 126),
                         rng.uniform(1, 62));
  }
  EXPECT_GT(random.mean_cycles_per_sample(),
            2.0 * aligned.mean_cycles_per_sample());
  EXPECT_LT(random.hit_rate(), aligned.hit_rate());
}

TEST(VoxelMemory, ObliqueCostsMoreThanAxisAligned) {
  // This is the mechanism behind the paper's "perspective views reduce
  // the rendering speed by a factor of about 2".
  const Volume v(128, 128, 128);
  VoxelMemory axis(v);
  VoxelMemory oblique(v);
  for (int i = 1; i < 120; ++i) {
    axis.sample_access(i, 64.0, 64.0);
    oblique.sample_access(i, 10.0 + 0.9 * i, 20.0 + 0.8 * i);
  }
  EXPECT_GT(oblique.total_cycles(), axis.total_cycles());
}

TEST(VoxelMemory, ResetClearsStateAndCounters) {
  const Volume v(32, 32, 32);
  VoxelMemory mem(v);
  mem.sample_access(5, 5, 5);
  mem.sample_access(6, 5, 5);
  mem.reset();
  EXPECT_EQ(mem.total_cycles(), 0u);
  EXPECT_EQ(mem.total_samples(), 0u);
  EXPECT_GT(mem.sample_access(5, 5, 5), 1u);  // banks closed again
}

TEST(VoxelMemory, CostBoundedByWorstBankPenalty) {
  const Volume v(64, 64, 64);
  hw::SdramConfig cfg;
  VoxelMemory mem(v, cfg);
  util::Rng rng(9);
  const std::uint64_t worst =
      static_cast<std::uint64_t>(cfg.t_rp + cfg.t_rcd + cfg.t_cas) + 1;
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t c = mem.sample_access(
        rng.uniform(1, 62), rng.uniform(1, 62), rng.uniform(1, 62));
    EXPECT_GE(c, 1u);
    EXPECT_LE(c, worst);
  }
}

TEST(VoxelMemory, RejectsShapesTheInterleaveCannotHold) {
  // A trilinear neighbourhood spans two voxels on every axis...
  EXPECT_THROW(VoxelMemory(Volume(1, 16, 16)), util::Error);
  EXPECT_THROW(VoxelMemory(Volume(16, 1, 16)), util::Error);
  EXPECT_THROW(VoxelMemory(Volume(16, 16, 1)), util::Error);
  // ...and its 8 corners need 8 banks.
  hw::SdramConfig four_banks;
  four_banks.banks = 4;
  EXPECT_THROW(VoxelMemory(Volume(16, 16, 16), four_banks), util::Error);
  // ...and every bank row the volume reaches must lie inside the SDRAM:
  // 64 x 64 x 32 voxels per bank fill 64 rows of 2 KiB in each of the 8
  // banks, 1 MiB, so a 64 KiB part is refused at construction.
  hw::SdramConfig small;
  small.capacity_bytes = 64 * 1024;
  EXPECT_THROW(VoxelMemory(Volume(128, 128, 64), small), util::Error);
  EXPECT_NO_THROW(VoxelMemory(Volume(8, 8, 8), small));
  EXPECT_NO_THROW(VoxelMemory(Volume(2, 2, 2)));
}

TEST(VoxelMemory, RenderedFramesKeepTheirMemoryAccounting) {
  // Exact figures of the 8-bank voxel memory behind rendered frames and a
  // seeded sample stream; any change to the voxel-to-(bank, row) mapping
  // or to the row-miss cost moves them.
  struct Frame {
    ViewDirection view;
    const char* transfer;
    bool perspective;
    std::uint64_t memory_cycles;
    double sdram_hit_rate;
  };
  const Frame frames[] = {
      {ViewDirection::kFrontal, "opaque", false, 42315u, 0.99981043103243994},
      {ViewDirection::kFrontal, "opaque", true, 83750u, 0.95805641567857414},
      {ViewDirection::kFrontal, "semi-high", false, 73126u,
       0.99989042897058023},
      {ViewDirection::kFrontal, "semi-high", true, 143902u,
       0.96960934089917061},
      {ViewDirection::kOblique, "opaque", false, 79861u, 0.93082340468497582},
      {ViewDirection::kOblique, "opaque", true, 106601u, 0.9343574897273067},
      {ViewDirection::kOblique, "semi-high", false, 133055u,
       0.93917752085467587},
      {ViewDirection::kOblique, "semi-high", true, 173977u,
       0.93946327333385926},
  };
  const Volume vol = make_ct_phantom(64, 64, 32);
  FpgaRendererConfig cfg;
  cfg.render = paper_render_params();
  cfg.image_width = 64;
  cfg.image_height = 32;
  FpgaVolumeRenderer renderer(vol, cfg);
  for (const Frame& f : frames) {
    const TransferFunction tf =
        std::string(f.transfer) == "opaque" ? tf_opaque() : tf_semi_high();
    const FrameReport rep = renderer.render_frame(tf, f.view, f.perspective);
    SCOPED_TRACE(rep.view + "/" + rep.transfer +
                 (f.perspective ? "/perspective" : "/parallel"));
    EXPECT_EQ(rep.transfer, f.transfer);
    EXPECT_EQ(rep.memory_cycles, f.memory_cycles);
    EXPECT_DOUBLE_EQ(rep.sdram_hit_rate, f.sdram_hit_rate);
  }

  VoxelMemory mem(vol);
  util::Rng rng(26);
  for (int i = 0; i < 10000; ++i) {
    mem.sample_access(rng.uniform(0, 64), rng.uniform(0, 64),
                      rng.uniform(0, 32));
  }
  EXPECT_EQ(mem.total_cycles(), 92689u);
  EXPECT_DOUBLE_EQ(mem.hit_rate(), 0.1234);
}

}  // namespace
}  // namespace atlantis::volren

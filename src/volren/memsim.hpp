// SDRAM access model for the rendering memory system.
//
// The volume lives in the 8-bank SDRAM mezzanine (§2.1). Voxels are
// interleaved by coordinate parity, so the 8 corners of every trilinear
// neighbourhood land in 8 *different* banks and are fetched in parallel —
// this is the whole reason the module has "8 simultaneously accessible
// banks". A sample costs one memory cycle when all banks hit their open
// rows and the worst-case bank penalty otherwise; axis-aligned marching
// stays row-resident while oblique and perspective rays change rows more
// often, which is where the perspective slowdown comes from.
#pragma once

#include <cstdint>

#include "hw/sdram.hpp"
#include "volren/volume.hpp"

namespace atlantis::volren {

/// Maps voxels onto (bank, row) of an hw::Sdram it owns, which keeps the
/// open rows and the hit counters.
class VoxelMemory {
 public:
  /// Needs 8 banks (one per neighbourhood corner), at least 2 voxels on
  /// every axis (a trilinear neighbourhood spans two), and an SDRAM large
  /// enough for every bank row the volume reaches.
  VoxelMemory(const Volume& vol, hw::SdramConfig cfg = {});

  /// Accounts one trilinear sample at a continuous position; returns the
  /// memory cycles it cost (max over the 8 parallel bank accesses).
  std::uint64_t sample_access(double x, double y, double z);

  const hw::Sdram& sdram() const { return sdram_; }
  std::uint64_t total_cycles() const { return cycles_; }
  std::uint64_t total_samples() const { return samples_; }
  double hit_rate() const { return sdram_.hit_rate(); }
  double mean_cycles_per_sample() const {
    return samples_ ? static_cast<double>(cycles_) /
                          static_cast<double>(samples_)
                    : 0.0;
  }
  void reset();

 private:
  hw::Sdram sdram_;
  int nx_, ny_, nz_;
  int half_nx_, half_ny_;
  std::uint64_t cycles_ = 0;
  std::uint64_t samples_ = 0;
};

}  // namespace atlantis::volren

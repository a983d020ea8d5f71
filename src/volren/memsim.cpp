#include "volren/memsim.hpp"

#include <algorithm>
#include <cmath>

#include "util/status.hpp"

namespace atlantis::volren {

VoxelMemory::VoxelMemory(const Volume& vol, hw::SdramConfig cfg)
    : sdram_("voxels", cfg), nx_(vol.nx()), ny_(vol.ny()), nz_(vol.nz()) {
  ATLANTIS_CHECK(cfg.banks == 8,
                 "the parity interleave needs one bank per corner");
  ATLANTIS_CHECK(nx_ >= 2 && ny_ >= 2 && nz_ >= 2,
                 "a trilinear neighbourhood needs 2 voxels on every axis");
  half_nx_ = (nx_ + 1) / 2;
  half_ny_ = (ny_ + 1) / 2;
  // The highest parity address sits at the far corner; its bank row and
  // the seven rows interleaved beside it must lie inside the SDRAM.
  const std::int64_t last_addr =
      static_cast<std::int64_t>((nz_ + 1) / 2) * half_ny_ * half_nx_ - 1;
  const std::int64_t last_row = last_addr / cfg.row_bytes;
  ATLANTIS_CHECK((last_row + 1) * cfg.banks * cfg.row_bytes <=
                     cfg.capacity_bytes,
                 "the volume does not fit the SDRAM");
}

void VoxelMemory::reset() {
  sdram_.reset_counters();
  cycles_ = 0;
  samples_ = 0;
}

std::uint64_t VoxelMemory::sample_access(double x, double y, double z) {
  const int x0 = std::clamp(static_cast<int>(std::floor(x)), 0, nx_ - 2);
  const int y0 = std::clamp(static_cast<int>(std::floor(y)), 0, ny_ - 2);
  const int z0 = std::clamp(static_cast<int>(std::floor(z)), 0, nz_ - 2);
  const auto row_bytes =
      static_cast<std::uint64_t>(sdram_.config().row_bytes);
  std::uint64_t worst = 1;
  for (int corner = 0; corner < 8; ++corner) {
    const int cx = x0 + (corner & 1);
    const int cy = y0 + ((corner >> 1) & 1);
    const int cz = z0 + ((corner >> 2) & 1);
    // Parity interleave: the 8 neighbourhood corners always map to the
    // 8 distinct banks.
    const int bank = (cx & 1) | ((cy & 1) << 1) | ((cz & 1) << 2);
    const std::int64_t addr =
        (static_cast<std::int64_t>(cz >> 1) * half_ny_ + (cy >> 1)) *
            half_nx_ +
        (cx >> 1);
    // One byte per voxel. The SDRAM interleaves rows across banks, so
    // the first byte of this bank's row decodes back to (bank, row).
    const auto row = static_cast<std::uint64_t>(addr) / row_bytes;
    worst = std::max(worst, sdram_.access((row * 8 + bank) * row_bytes));
  }
  ++samples_;
  cycles_ += worst;
  return worst;
}

}  // namespace atlantis::volren

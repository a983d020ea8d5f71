#include "hw/pci.hpp"

#include <gtest/gtest.h>

#include "util/units.hpp"

namespace atlantis::hw {
namespace {

TEST(Pci, PeakBandwidthIs132) {
  const PciParams p;
  EXPECT_DOUBLE_EQ(p.peak_mbps(), 132.0);  // 32 bit x 33 MHz
}

TEST(Pci, ZeroLengthRejected) {
  Plx9080 plx;
  EXPECT_THROW(plx.transfer(DmaDirection::kRead, 0), util::Error);
}

TEST(Pci, ThroughputGrowsWithBlockSize) {
  // The Table 1 mechanism: fixed setup cost amortizes over the block.
  Plx9080 plx;
  double prev = 0.0;
  for (const std::uint64_t kb : {1, 4, 16, 64, 256, 1024}) {
    const DmaTransfer t = plx.transfer(DmaDirection::kWrite, kb * util::kKiB);
    EXPECT_GT(t.mbps(), prev) << kb << " kB";
    prev = t.mbps();
  }
}

TEST(Pci, SaturatesBelowBusMaximum) {
  // "allowing 125 MB/s max. data rate" — the sustained rate must stay
  // below the 132 MB/s theoretical peak even for huge blocks.
  Plx9080 plx;
  const DmaTransfer w = plx.transfer(DmaDirection::kWrite, 64 * util::kMiB);
  const DmaTransfer r = plx.transfer(DmaDirection::kRead, 64 * util::kMiB);
  EXPECT_LT(w.mbps(), 132.0);
  EXPECT_GT(w.mbps(), 100.0);
  EXPECT_LT(r.mbps(), w.mbps());
}

TEST(Pci, ReadSlowerThanWriteAtEveryBlockSize) {
  // PLX 9080 posts writes; reads pay turnaround on every burst.
  Plx9080 plx;
  for (const std::uint64_t kb : {1, 8, 64, 512}) {
    const double w =
        plx.transfer(DmaDirection::kWrite, kb * util::kKiB).mbps();
    const double r = plx.transfer(DmaDirection::kRead, kb * util::kKiB).mbps();
    EXPECT_LT(r, w) << kb << " kB";
  }
}

TEST(Pci, SmallBlocksDominatedBySetup) {
  Plx9080 plx;
  const DmaTransfer t = plx.transfer(DmaDirection::kWrite, util::kKiB);
  // 1 kB at full speed would take ~8 us; setup adds 40 us, so the
  // effective rate collapses to well under a third of peak.
  EXPECT_LT(t.mbps(), 0.35 * plx.params().peak_mbps());
}

TEST(Pci, DurationDecomposes) {
  PciParams p;
  Plx9080 plx(p);
  const std::uint64_t bytes = 8 * util::kKiB;  // exactly 2 pages
  const DmaTransfer t = plx.transfer(DmaDirection::kWrite, bytes);
  const double rate = p.peak_mbps() * p.write_efficiency * 1e6;
  const auto burst = static_cast<util::Picoseconds>(
      static_cast<double>(bytes) / rate * 1e12);
  EXPECT_NEAR(static_cast<double>(t.duration),
              static_cast<double>(p.setup_latency + 2 * p.descriptor_latency +
                                  burst),
              1000.0);
}

TEST(Pci, TargetAccessIsTenBusClocks) {
  Plx9080 plx;
  EXPECT_EQ(plx.target_access(), 10 * util::period_from_mhz(33.0));
}

// Parameterized shape check across directions.
class DmaSweep : public ::testing::TestWithParam<DmaDirection> {};

TEST_P(DmaSweep, TimeIsMonotoneInBytes) {
  Plx9080 plx;
  util::Picoseconds prev = 0;
  for (std::uint64_t bytes = 512; bytes <= 4 * util::kMiB; bytes *= 2) {
    const DmaTransfer t = plx.transfer(GetParam(), bytes);
    EXPECT_GT(t.duration, prev);
    prev = t.duration;
  }
}

INSTANTIATE_TEST_SUITE_P(Directions, DmaSweep,
                         ::testing::Values(DmaDirection::kRead,
                                           DmaDirection::kWrite));

}  // namespace
}  // namespace atlantis::hw

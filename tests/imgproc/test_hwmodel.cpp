#include "imgproc/hwmodel.hpp"

#include <gtest/gtest.h>

namespace atlantis::imgproc {
namespace {

TEST(ImgHw, OnePixelPerClock) {
  ImgHwConfig cfg;
  cfg.clock_mhz = 40.0;
  const ImgHwResult r = filter_atlantis(512, 512, cfg);
  // 262144 pixels + priming at 25 ns each ~ 6.57 ms.
  EXPECT_NEAR(util::ps_to_ms(r.compute_time), 6.57, 0.05);
}

TEST(ImgHw, ChainedFiltersCostProportionally) {
  ImgHwConfig one;
  ImgHwConfig three;
  three.chained_filters = 3;
  const auto r1 = filter_atlantis(256, 256, one);
  const auto r3 = filter_atlantis(256, 256, three);
  EXPECT_EQ(r3.compute_cycles, 3 * r1.compute_cycles);
}

TEST(ImgHw, DriverAddsDmaBothWays) {
  core::AtlantisSystem sys("crate");
  core::AtlantisDriver drv(sys, sys.add_acb("acb0"));
  const ImgHwResult r = filter_atlantis(512, 512, ImgHwConfig{}, &drv);
  EXPECT_GT(r.io_time, 0);
  EXPECT_EQ(r.total_time, r.compute_time + r.io_time);
  EXPECT_EQ(sys.timeline().stats(sys.pci_segment()).bytes, 2ull * 512 * 512);
}

TEST(ImgHw, ReadBackStartsAfterTheFilter) {
  core::AtlantisSystem sys("crate");
  core::AtlantisDriver drv(sys, sys.add_acb("acb0"));
  (void)filter_atlantis(256, 256, ImgHwConfig{}, &drv);
  util::Picoseconds filter_end = -1;
  util::Picoseconds read_start = -1;
  for (const sim::Transaction& t : sys.timeline().transactions()) {
    if (t.kind == sim::TxnKind::kCompute) filter_end = t.end;
    if (t.label == "dma_read") read_start = t.start;
  }
  ASSERT_GE(filter_end, 0);
  ASSERT_GE(read_start, 0);
  EXPECT_GE(read_start, filter_end);
}

TEST(ImgHw, FpgaBeatsHostOnConvolution) {
  // The generic 2-D filtering speedup story: one pixel per 25 ns clock
  // vs ~30 ops per pixel in software.
  const ImgHwResult hw = filter_atlantis(512, 512, ImgHwConfig{});
  const auto host = filter_host_time(512, 512, convolve_ops_per_pixel(),
                                     hw::pentium2_300());
  EXPECT_GT(static_cast<double>(host) / static_cast<double>(hw.compute_time),
            4.0);
}

TEST(ImgHw, Validation) {
  EXPECT_THROW(filter_atlantis(0, 10, ImgHwConfig{}), util::Error);
  ImgHwConfig cfg;
  cfg.chained_filters = 0;
  EXPECT_THROW(filter_atlantis(8, 8, cfg), util::Error);
}

}  // namespace
}  // namespace atlantis::imgproc

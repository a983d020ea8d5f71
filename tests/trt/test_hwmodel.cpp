#include "trt/hwmodel.hpp"

#include <gtest/gtest.h>

namespace atlantis::trt {
namespace {

DetectorGeometry small_geo() {
  DetectorGeometry geo;
  geo.layers = 10;
  geo.straws_per_layer = 100;
  return geo;
}

TEST(TrtHw, FunctionalResultMatchesReference) {
  PatternBank bank(small_geo(), 60);
  const Event ev = EventGenerator(bank, EventParams{}).generate();
  const TrtHwConfig cfg;
  EXPECT_EQ(histogram_atlantis(bank, ev, cfg).histogram.counts,
            histogram_reference(bank, ev).histogram.counts);
}

TEST(TrtHw, CycleFormula) {
  PatternBank bank(small_geo(), 352);  // exactly 2 passes at 176 bits
  const Event ev = EventGenerator(bank, EventParams{}).generate();
  TrtHwConfig cfg;
  cfg.ram_width_bits = 176;
  cfg.pipeline_depth = 8;
  const TrtHwResult r = histogram_atlantis(bank, ev, cfg);
  EXPECT_DOUBLE_EQ(r.passes, 2.0);
  EXPECT_EQ(r.compute_cycles,
            static_cast<std::uint64_t>(small_geo().straw_count()) * 2 + 8 +
                352);
}

TEST(TrtHw, WiderMemoryIsFaster) {
  PatternBank bank(small_geo(), 1584);
  const Event ev = EventGenerator(bank, EventParams{}).generate();
  std::uint64_t prev = ~0ull;
  // 1..8 TRT modules: 176 -> 1408 bits, monotone speedup.
  for (int modules = 1; modules <= 8; modules *= 2) {
    TrtHwConfig cfg;
    cfg.ram_width_bits = 176 * modules;
    const TrtHwResult r = histogram_atlantis(bank, ev, cfg);
    EXPECT_LT(r.compute_cycles, prev);
    prev = r.compute_cycles;
  }
}

TEST(TrtHw, IdealPackingMatchesPaperExtrapolation) {
  PatternBank bank(small_geo(), 1584);
  const Event ev = EventGenerator(bank, EventParams{}).generate();
  TrtHwConfig honest;
  honest.ram_width_bits = 1408;
  TrtHwConfig ideal = honest;
  ideal.ideal_packing = true;
  const TrtHwResult rh = histogram_atlantis(bank, ev, honest);
  const TrtHwResult ri = histogram_atlantis(bank, ev, ideal);
  EXPECT_DOUBLE_EQ(rh.passes, 2.0);                  // ceil(1584/1408)
  EXPECT_NEAR(ri.passes, 1584.0 / 1408.0, 1e-12);    // linear model
  EXPECT_LT(ri.compute_cycles, rh.compute_cycles);
}

TEST(TrtHw, HitStreamingModeUsesOnlyHits) {
  PatternBank bank(small_geo(), 176);
  EventParams p;
  p.tracks = 2;
  p.noise_occupancy = 0.01;
  const Event ev = EventGenerator(bank, p).generate();
  TrtHwConfig full;
  TrtHwConfig hits = full;
  hits.stream_all_straws = false;
  const auto rf = histogram_atlantis(bank, ev, full);
  const auto rh = histogram_atlantis(bank, ev, hits);
  EXPECT_LT(rh.compute_cycles, rf.compute_cycles);
  EXPECT_EQ(rh.histogram.counts, rf.histogram.counts);
}

TEST(TrtHw, ClockScalesTime) {
  PatternBank bank(small_geo(), 176);
  const Event ev = EventGenerator(bank, EventParams{}).generate();
  TrtHwConfig slow;
  slow.clock_mhz = 20.0;
  TrtHwConfig fast;
  fast.clock_mhz = 40.0;
  const auto rs = histogram_atlantis(bank, ev, slow);
  const auto rf = histogram_atlantis(bank, ev, fast);
  EXPECT_EQ(rs.compute_cycles, rf.compute_cycles);
  EXPECT_NEAR(static_cast<double>(rs.compute_time),
              2.0 * static_cast<double>(rf.compute_time), 1e6);
}

TEST(TrtHw, DriverAddsIoTime) {
  PatternBank bank(small_geo(), 176);
  const Event ev = EventGenerator(bank, EventParams{}).generate();
  core::AtlantisSystem sys("crate");
  core::AtlantisDriver drv(sys, sys.add_acb("acb0"));
  TrtHwConfig cfg;
  const TrtHwResult r = histogram_atlantis(bank, ev, cfg, &drv);
  EXPECT_GT(r.io_in_time, 0);
  EXPECT_GT(r.readout_time, 0);
  EXPECT_EQ(r.total_time, r.io_in_time + r.compute_time + r.readout_time);
  EXPECT_EQ(drv.now(), r.total_time);
}

TEST(TrtHw, ReadoutCanBeExcluded) {
  PatternBank bank(small_geo(), 176);
  const Event ev = EventGenerator(bank, EventParams{}).generate();
  TrtHwConfig with;
  TrtHwConfig without = with;
  without.include_readout = false;
  EXPECT_EQ(histogram_atlantis(bank, ev, with).compute_cycles,
            histogram_atlantis(bank, ev, without).compute_cycles + 176);
}

TEST(TrtHw, FullScaleReproducesPaperBallpark) {
  // The E2 anchor at full scale: 80k straws, 1584 patterns, 176-bit RAM,
  // 40 MHz -> ~18 ms compute (paper measured 19.2 ms incl. I/O).
  const DetectorGeometry geo;
  PatternBank bank(geo, 1584);
  EventParams p;
  p.tracks = 10;
  const Event ev = EventGenerator(bank, p).generate();
  TrtHwConfig cfg;
  const TrtHwResult r = histogram_atlantis(bank, ev, cfg);
  const double ms = util::ps_to_ms(r.compute_time);
  EXPECT_GT(ms, 15.0);
  EXPECT_LT(ms, 22.0);
}

}  // namespace
}  // namespace atlantis::trt

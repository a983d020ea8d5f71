#include <gtest/gtest.h>

#include "hw/fifo.hpp"
#include "hw/sdram.hpp"
#include "hw/sram.hpp"
#include "util/rng.hpp"

namespace atlantis::hw {
namespace {

TEST(SyncSram, ShapeAndCapacity) {
  // The TRT module: 512k x 176 = 11.26 MB.
  SramConfig cfg{512 * 1024, 176, 1, 40.0};
  EXPECT_EQ(cfg.total_bytes(), 512ll * 1024 * 176 / 8);
  SyncSram mem("trt0", cfg);
  EXPECT_EQ(mem.config().words, 512 * 1024);
}

TEST(SyncSram, ReadWriteRoundtrip) {
  SyncSram mem("m", SramConfig{64, 176, 2, 40.0});
  chdl::BitVec v(176);
  v.set_bit(0, true);
  v.set_bit(100, true);
  v.set_bit(175, true);
  mem.write(1, 17, v);
  EXPECT_EQ(mem.read(1, 17), v);
  EXPECT_FALSE(mem.read(0, 17).any());  // other bank untouched
}

TEST(SyncSram, BoundsAndWidthChecked) {
  SyncSram mem("m", SramConfig{16, 8, 1, 40.0});
  EXPECT_THROW(mem.read(1, 0), util::Error);
  EXPECT_THROW(mem.read(0, 16), util::Error);
  EXPECT_THROW(mem.write(0, 0, chdl::BitVec(9, 0)), util::Error);
}

TEST(SyncSram, BanksServeAccessesInParallel) {
  SyncSram one("m1", SramConfig{1024, 72, 1, 40.0});
  SyncSram two("m2", SramConfig{1024, 72, 2, 40.0});
  EXPECT_EQ(one.cycles_for(100), 100u);
  EXPECT_EQ(two.cycles_for(100), 50u);
  EXPECT_EQ(two.time_for(100), one.time_for(100) / 2);
}

TEST(SyncSram, PeakBandwidthScalesWithWidthAndBanks) {
  SyncSram narrow("n", SramConfig{1024, 72, 1, 40.0});
  SyncSram wide("w", SramConfig{1024, 176, 1, 40.0});
  EXPECT_GT(wide.peak_mbps(), narrow.peak_mbps());
}

TEST(Sdram, OpenRowHitsAreSingleCycle) {
  Sdram mem("sd");
  const std::uint64_t first = mem.access(0);     // cold miss
  const std::uint64_t second = mem.access(8);    // same row
  EXPECT_GT(first, 1u);
  EXPECT_EQ(second, 1u);
  EXPECT_EQ(mem.row_hits(), 1u);
  EXPECT_EQ(mem.row_misses(), 1u);
}

TEST(Sdram, RowMissPaysPrechargeActivate) {
  SdramConfig cfg;
  Sdram mem("sd", cfg);
  mem.access(0);
  // Jump 8 rows ahead: same bank (banks interleave per row), new row.
  const std::uint64_t miss =
      mem.access(static_cast<std::uint64_t>(cfg.row_bytes) * 8);
  EXPECT_EQ(miss, static_cast<std::uint64_t>(cfg.t_rp + cfg.t_rcd + cfg.t_cas) + 1);
}

TEST(Sdram, SequentialBeatsRandom) {
  SdramConfig cfg;
  Sdram seq("seq", cfg);
  Sdram rnd("rnd", cfg);
  util::Rng rng(77);
  std::uint64_t seq_cycles = 0, rnd_cycles = 0;
  for (int i = 0; i < 10000; ++i) {
    seq_cycles += seq.access(static_cast<std::uint64_t>(i) * 4);
    rnd_cycles += rnd.access(rng.next_below(
        static_cast<std::uint64_t>(cfg.capacity_bytes)));
  }
  EXPECT_LT(seq_cycles, rnd_cycles / 2);
  EXPECT_GT(seq.hit_rate(), 0.95);
  EXPECT_LT(rnd.hit_rate(), 0.2);
}

TEST(Sdram, CountersReset) {
  Sdram mem("sd");
  mem.access(0);
  mem.access(4);
  mem.reset_counters();
  EXPECT_EQ(mem.total_accesses(), 0u);
  EXPECT_EQ(mem.row_hits(), 0u);
  // After reset every bank is closed again: first access misses.
  EXPECT_GT(mem.access(0), 1u);
}

TEST(Sdram, OutOfRangeThrows) {
  Sdram mem("sd");
  EXPECT_THROW(
      mem.access(static_cast<std::uint64_t>(mem.config().capacity_bytes)),
      util::Error);
}

TEST(Sdram, InvalidConfigurationThrows) {
  SdramConfig no_clock;
  no_clock.clock_mhz = 0.0;  // the renderer divides by it
  EXPECT_THROW(Sdram("sd", no_clock), util::Error);
  SdramConfig no_banks;
  no_banks.banks = 0;
  EXPECT_THROW(Sdram("sd", no_banks), util::Error);
}

TEST(Fifo, PushPopOccupancy) {
  // Accepted, rejected and drained words are push()'s and pop()'s results.
  Fifo f("f", 4);
  EXPECT_TRUE(f.empty());
  const std::uint64_t first = f.push(3);
  EXPECT_EQ(first, 3u);
  EXPECT_EQ(f.size(), 3u);
  const std::uint64_t second = f.push(3);
  EXPECT_EQ(second, 1u);  // only one slot left
  EXPECT_TRUE(f.full());
  EXPECT_EQ(3 - second, 2u);  // rejected while full
  EXPECT_EQ(first + second, 4u);
  EXPECT_EQ(f.pop(10), 4u);
  EXPECT_TRUE(f.empty());
}

TEST(Fifo, WatermarkTracksPeak) {
  Fifo f("f", 100);
  f.push(30);
  f.tick();
  f.pop(20);
  f.tick();
  f.push(50);
  f.tick();
  EXPECT_EQ(f.high_watermark(), 60u);
}

TEST(Fifo, AibDepthsMatchPaper) {
  // "A 32k*36 FIFO-style buffer ... A 1M*36 general purpose buffer".
  Fifo stage1("fifo", 32 * 1024);
  Fifo stage2("sram", 1024 * 1024);
  EXPECT_EQ(stage1.depth(), 32768u);
  EXPECT_EQ(stage2.depth(), 1048576u);
}

}  // namespace
}  // namespace atlantis::hw

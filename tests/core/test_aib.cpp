#include "core/aib.hpp"

#include <gtest/gtest.h>

namespace atlantis::core {
namespace {

TEST(Aib, BoardShape) {
  AibBoard aib("aib0");
  EXPECT_EQ(AibBoard::kFpgaCount, 2);
  EXPECT_EQ(AibBoard::kChannelCount, 4);
  EXPECT_EQ(aib.fpga(0).family().name, "Virtex XCV600");
  EXPECT_THROW(aib.fpga(2), util::Error);
}

TEST(Aib, ChannelBandwidthMatchesPaper) {
  // "The default capacity of any of the four channels is 32+4 bit data @
  // 66 MHz (or 264 MB/s ...)"; four channels ~ 1 GB/s.
  EXPECT_NEAR(AibChannel::peak_mbps(), 264.0, 0.1);
  AibBoard aib("aib0");
  EXPECT_NEAR(aib.total_io_mbps(), 1056.0, 0.5);
}

TEST(Aib, SteadyTrafficFlowsAtOfferedRate) {
  AibChannel ch("ch");
  ChannelTrafficParams p;
  p.burst_words = 256;
  p.gap_cycles = 256;      // 50% duty producer
  p.drain_period = 1;      // consumer always available
  p.drain_window = 1;
  p.cycles = 200'000;
  const ChannelTrafficResult r = ch.simulate(p);
  EXPECT_EQ(r.stalled_words, 0u);
  EXPECT_NEAR(r.sustained_mbps, r.offered_mbps, r.offered_mbps * 0.02);
}

TEST(Aib, TwoStageBufferSustainsBurstyDrain) {
  // The §2.2 claim: buffering in two stages provides sustained bandwidth
  // even at small block sizes. The consumer only drains in large
  // arbitration windows; the 32k FIFO alone overflows, the 1M SRAM
  // behind it absorbs the backlog.
  ChannelTrafficParams p;
  p.burst_words = 3584;
  p.gap_cycles = 1536;          // offered ~70% of link rate
  p.drain_period = 300'000;     // long arbitration cycle...
  p.drain_window = 240'000;     // ...with a 60k-cycle dead time: the
                                // backlog (~42k words) overflows the 32k
                                // FIFO but not the 1M SRAM
  p.cycles = 3'000'000;

  AibChannel ch1("one-stage");
  p.use_stage2 = false;
  const ChannelTrafficResult without = ch1.simulate(p);

  AibChannel ch2("two-stage");
  p.use_stage2 = true;
  const ChannelTrafficResult with = ch2.simulate(p);

  EXPECT_GT(without.stalled_words, 0u);
  EXPECT_LT(with.stalled_words, without.stalled_words / 4);
  EXPECT_GT(with.sustained_mbps, without.sustained_mbps);
  // The SRAM stage actually absorbed a backlog deeper than the FIFO.
  EXPECT_GT(with.sram_watermark, AibChannel::kFifoWords);
}

TEST(Aib, ConservationOfWords) {
  AibChannel ch("ch");
  ChannelTrafficParams p;
  p.burst_words = 100;
  p.gap_cycles = 100;
  p.drain_period = 4;
  p.drain_window = 2;
  p.cycles = 100'000;
  const ChannelTrafficResult r = ch.simulate(p);
  EXPECT_EQ(r.offered_words, r.accepted_words + r.stalled_words);
  EXPECT_LE(r.delivered_words, r.accepted_words);
}

TEST(Aib, InvalidTrafficParamsRejected) {
  AibChannel ch("ch");
  ChannelTrafficParams p;
  p.burst_words = 0;
  EXPECT_THROW(ch.simulate(p), util::Error);
  p.burst_words = 10;
  p.drain_period = 4;
  p.drain_window = 8;
  EXPECT_THROW(ch.simulate(p), util::Error);
}

}  // namespace
}  // namespace atlantis::core

#include "hw/slink.hpp"

#include <gtest/gtest.h>

#include "sim/fault.hpp"

namespace atlantis::hw {
namespace {

/// The sending link card's view of a link: each send() result, counted.
struct SendTally {
  std::uint64_t sent = 0;
  std::uint64_t refused = 0;
  bool send(SlinkChannel& link, const SlinkWord& word) {
    const bool accepted = link.send(word);
    ++(accepted ? sent : refused);
    return accepted;
  }
};

TEST(Slink, WordsArriveInOrder) {
  SlinkChannel link("sl0");
  EXPECT_TRUE(link.send({1, false}));
  EXPECT_TRUE(link.send({2, true}));
  EXPECT_TRUE(link.send({3, false}));
  auto a = link.receive();
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->payload, 1u);
  EXPECT_FALSE(a->control);
  auto b = link.receive();
  ASSERT_TRUE(b.has_value());
  EXPECT_TRUE(b->control);
  EXPECT_EQ(link.receive()->payload, 3u);
  EXPECT_FALSE(link.receive().has_value());
}

TEST(Slink, XoffWhenBufferFull) {
  SlinkChannel link("sl0", /*fifo_words=*/4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(link.send({static_cast<std::uint32_t>(i), false}));
  }
  EXPECT_TRUE(link.xoff());
  SendTally tally;
  EXPECT_FALSE(tally.send(link, {99, false}));
  EXPECT_EQ(tally.refused, 1u);
  // Draining reopens the link.
  link.receive();
  EXPECT_FALSE(link.xoff());
  EXPECT_TRUE(link.send({99, false}));
}

TEST(Slink, FragmentFramedByControlWords) {
  SlinkChannel link("sl0");
  const std::vector<std::uint32_t> payload = {0xAA, 0xBB, 0xCC};
  EXPECT_EQ(link.send_fragment(0x123, payload).value(), payload.size() + 2);
  const auto begin = link.receive();
  ASSERT_TRUE(begin.has_value());
  EXPECT_TRUE(begin->control);
  EXPECT_EQ(begin->payload, SlinkChannel::kBeginFragment | 0x123);
  for (const std::uint32_t w : payload) {
    EXPECT_EQ(link.receive()->payload, w);
  }
  const auto end = link.receive();
  EXPECT_TRUE(end->control);
  EXPECT_EQ(end->payload, SlinkChannel::kEndFragment | 0x123);
}

TEST(Slink, FragmentStopsOnXoff) {
  SlinkChannel link("sl0", 3);
  const std::vector<std::uint32_t> payload(10, 7);
  const util::Result<std::size_t> r = link.send_fragment(1, payload);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), util::ErrorCode::kXoff);
  // The first refusal ends the fragment: begin + 2 data words landed.
  EXPECT_NE(r.message().find("after 3 words"), std::string::npos)
      << r.message();
  EXPECT_EQ(link.buffered(), 3u);
  EXPECT_TRUE(link.xoff());
}

TEST(Slink, FragmentReportsLinkFaultsAsCodes) {
  const std::vector<std::uint32_t> payload{1, 2, 3, 4};
  SlinkChannel link("lvds");
  const util::Result<std::size_t> ok = link.send_fragment(7, payload);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), payload.size() + 2);  // begin + payload + end
  {
    // The end marker is lost in transit.
    sim::FaultPlan plan;
    plan.inject(sim::FaultKind::kSlinkTruncation, "slink/lvds", 1);
    sim::FaultInjector inj(plan);
    link.set_fault_injector(&inj);
    const util::Result<std::size_t> r = link.send_fragment(8, payload);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error(), util::ErrorCode::kTruncatedFrame);
    EXPECT_EQ(link.truncated_frames(), 1u);
  }
  {
    // The third word arrives with LDERR set; the fragment completes.
    sim::FaultPlan plan;
    plan.inject(sim::FaultKind::kSlinkError, "slink/lvds", 3);
    sim::FaultInjector inj(plan);
    link.set_fault_injector(&inj);
    const std::size_t buffered = link.buffered();
    const util::Result<std::size_t> r = link.send_fragment(9, payload);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error(), util::ErrorCode::kLinkError);
    EXPECT_EQ(link.link_errors(), 1u);
    EXPECT_EQ(link.buffered() - buffered, payload.size() + 2);
  }
  {
    // An injected XOFF refuses the first payload word.
    sim::FaultPlan plan;
    plan.inject(sim::FaultKind::kSlinkXoff, "slink/lvds", 2, /*param=*/1);
    sim::FaultInjector inj(plan);
    link.set_fault_injector(&inj);
    const util::Result<std::size_t> r = link.send_fragment(10, payload);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error(), util::ErrorCode::kXoff);
    EXPECT_NE(r.message().find("after 1 words"), std::string::npos);
  }
  link.set_fault_injector(nullptr);
}

TEST(Slink, BandwidthMatchesFootnoteHardware) {
  // S-Link at 40 MHz moves 160 MB/s — the class of rate the TRT input
  // stage needs per link.
  SlinkChannel link("sl0", 1024, 40.0);
  EXPECT_DOUBLE_EQ(link.peak_mbps(), 160.0);
  EXPECT_EQ(link.transfer_time(40'000'000), util::kSecond);
}

TEST(Slink, SelfTestPasses) {
  SlinkChannel link("sl0");
  EXPECT_TRUE(link.self_test());
  // Still usable afterwards.
  EXPECT_TRUE(link.send({5, false}));
  EXPECT_EQ(link.receive()->payload, 5u);
}

TEST(Slink, LongStreamCompactsInternally) {
  SlinkChannel link("sl0", 64);
  SendTally tally;
  for (int round = 0; round < 2000; ++round) {
    ASSERT_TRUE(tally.send(link, {static_cast<std::uint32_t>(round), false}));
    const auto w = link.receive();
    ASSERT_TRUE(w.has_value());
    EXPECT_EQ(w->payload, static_cast<std::uint32_t>(round));
  }
  EXPECT_EQ(tally.sent, 2000u);
  EXPECT_EQ(link.buffered(), 0u);
}

TEST(Slink, CompactionPastHeadThresholdPreservesStream) {
  // The receive path erases the consumed prefix only once the head index
  // passes 4096 AND more than half the vector is dead; this drives the
  // stream well past that threshold with live words still buffered and
  // checks nothing is lost, reordered or double-counted across the
  // compactions.
  SlinkChannel link("sl0", /*fifo_words=*/8192);
  SendTally tally;
  std::uint32_t next_send = 0, next_recv = 0;
  // Keep ~1500 words in flight while pushing 20k words through: head_
  // repeatedly crosses 4096 with a non-empty tail to move.
  for (int round = 0; round < 20'000; ++round) {
    ASSERT_TRUE(tally.send(link, {next_send++, false}));
    if (link.buffered() > 1500) {
      const auto w = link.receive();
      ASSERT_TRUE(w.has_value());
      ASSERT_EQ(w->payload, next_recv++);
    }
  }
  while (const auto w = link.receive()) {
    ASSERT_EQ(w->payload, next_recv++);
  }
  EXPECT_EQ(next_recv, next_send);
  EXPECT_EQ(link.buffered(), 0u);
  EXPECT_EQ(tally.sent, 20'000u);
  EXPECT_EQ(tally.refused, 0u);
}

TEST(Slink, XoffRetryAccounting) {
  // The S-Link sender card retries words refused under XOFF; every
  // attempt during back-pressure is a refused send(), every accepted
  // word (including the successful retry) an accepted one.
  SlinkChannel link("sl0", /*fifo_words=*/8);
  SendTally tally;
  for (std::uint32_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(tally.send(link, {i, false}));
  }
  ASSERT_TRUE(link.xoff());
  // Three retries of the same word while the receiver stalls.
  for (int attempt = 0; attempt < 3; ++attempt) {
    EXPECT_FALSE(tally.send(link, {100, false}));
  }
  EXPECT_EQ(tally.refused, 3u);
  EXPECT_EQ(tally.sent, 8u);
  // Receiver frees one slot; the retry goes through, the stream stays
  // in order and no refused attempt left a duplicate behind.
  EXPECT_EQ(link.receive()->payload, 0u);
  EXPECT_FALSE(link.xoff());
  EXPECT_TRUE(tally.send(link, {100, false}));
  EXPECT_EQ(tally.sent, 9u);
  EXPECT_EQ(tally.refused, 3u);
  std::vector<std::uint32_t> drained;
  while (const auto w = link.receive()) drained.push_back(w->payload);
  EXPECT_EQ(drained,
            (std::vector<std::uint32_t>{1, 2, 3, 4, 5, 6, 7, 100}));
}

TEST(Slink, Validation) {
  EXPECT_THROW(SlinkChannel("x", 0), util::Error);
  EXPECT_THROW(SlinkChannel("x", 16, 0.0), util::Error);
}

}  // namespace
}  // namespace atlantis::hw

#include "trt/slink_frontend.hpp"

#include <gtest/gtest.h>

namespace atlantis::trt {
namespace {

DetectorGeometry small_geo() {
  DetectorGeometry geo;
  geo.layers = 10;
  geo.straws_per_layer = 100;
  return geo;
}

TEST(SlinkFrontend, EventRoundtrip) {
  PatternBank bank(small_geo(), 60);
  EventGenerator gen(bank, EventParams{});
  const Event ev = gen.generate();
  hw::SlinkChannel link("det0", 1 << 16);
  const util::Result<std::size_t> sent = send_event(link, ev, 0x42);
  ASSERT_TRUE(sent.ok());
  EXPECT_EQ(sent.value(), ev.hits.size() + 2);
  const auto got = receive_event(link);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->first, 0x42u);
  EXPECT_EQ(got->second, ev.hits);
}

TEST(SlinkFrontend, MultipleEventsStayFramed) {
  PatternBank bank(small_geo(), 60);
  EventGenerator gen(bank, EventParams{});
  hw::SlinkChannel link("det0", 1 << 16);
  const Event a = gen.generate();
  const Event b = gen.generate();
  ASSERT_TRUE(send_event(link, a, 1).ok());
  ASSERT_TRUE(send_event(link, b, 2).ok());
  EXPECT_EQ(receive_event(link)->second, a.hits);
  const auto second = receive_event(link);
  EXPECT_EQ(second->first, 2u);
  EXPECT_EQ(second->second, b.hits);
  EXPECT_FALSE(receive_event(link).has_value());
}

TEST(SlinkFrontend, TruncatedFragmentDetected) {
  hw::SlinkChannel link("det0");
  link.send({hw::SlinkChannel::kBeginFragment | 7, true});
  link.send({123, false});
  EXPECT_THROW(receive_event(link), util::Error);
}

TEST(SlinkFrontend, StrayDataDetected) {
  hw::SlinkChannel link("det0");
  link.send({99, false});
  EXPECT_THROW(receive_event(link), util::Error);
}

TEST(SlinkFrontend, TriggerRateBudget) {
  // §3.1: up to 100 kHz repetition rate. A 2%-occupancy image of the
  // 80k-straw detector is ~1600 hit words per event; at 100 kHz that is
  // ~641 MB/s — four 40 MHz links, matching the AIB's four mezzanine
  // channels.
  const LinkBudget b = slink_budget(1600, 100.0);
  EXPECT_NEAR(b.mbps_needed, 640.8, 1.0);
  EXPECT_EQ(b.links_needed, 5);  // 4 links saturate at 640; 5th has margin
  EXPECT_TRUE(b.feasible(8));
  EXPECT_FALSE(b.feasible(4));
  // The 240-pattern low-luminosity configuration fits one link.
  const LinkBudget lite = slink_budget(300, 50.0);
  EXPECT_EQ(lite.links_needed, 1);
}

TEST(SlinkFrontend, BudgetValidation) {
  EXPECT_THROW(slink_budget(100, 0.0), util::Error);
  EXPECT_THROW(slink_budget(-1, 10.0), util::Error);
}

}  // namespace
}  // namespace atlantis::trt

// The umbrella header must compile standalone and expose the public API.
#include "atlantis.hpp"

#include <gtest/gtest.h>

TEST(Umbrella, PublicApiIsReachable) {
  atlantis::core::AtlantisSystem sys("crate");
  sys.add_acb("acb0");
  atlantis::core::AtlantisDriver drv(sys, 0);
  EXPECT_EQ(drv.now(), 0);
  EXPECT_GT(atlantis::hw::orca_3t125().gate_capacity, 0);
  atlantis::chdl::Design d("hello");
  d.output("y", d.input("a", 1));
  atlantis::chdl::Simulator sim(d);
  sim.poke("a", 1);
  EXPECT_EQ(sim.peek_u64("y"), 1u);
}

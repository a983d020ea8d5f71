// The LRU bitstream/configuration cache: standalone behaviour and its
// integration into the TaskSwitcher (cache hits activate instead of
// reloading, and skip the CRC opportunity).
#include <gtest/gtest.h>

#include "core/configcache.hpp"
#include "core/system.hpp"
#include "core/taskswitch.hpp"
#include "hw/fpga.hpp"
#include "sim/fault.hpp"

namespace atlantis {
namespace {

TEST(ConfigCache, DisabledAtCapacityZero) {
  core::ConfigCache cache;
  EXPECT_FALSE(cache.enabled());
  EXPECT_FALSE(cache.touch("a"));
  cache.insert("a");
  EXPECT_FALSE(cache.contains("a"));
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
  EXPECT_EQ(cache.stats().insertions, 0u);
}

TEST(ConfigCache, LruEvictionOrder) {
  core::ConfigCache cache(2);
  cache.insert("a");
  cache.insert("b");
  cache.insert("c");  // evicts a, the least recently used
  EXPECT_FALSE(cache.contains("a"));
  EXPECT_TRUE(cache.contains("b"));
  EXPECT_TRUE(cache.contains("c"));
  // Touch promotes: b becomes MRU, so inserting d evicts c.
  EXPECT_TRUE(cache.touch("b"));
  cache.insert("d");
  EXPECT_TRUE(cache.contains("b"));
  EXPECT_FALSE(cache.contains("c"));
  const std::vector<std::string> mru = cache.contents();
  ASSERT_EQ(mru.size(), 2u);
  EXPECT_EQ(mru[0], "d");
  EXPECT_EQ(mru[1], "b");
}

TEST(ConfigCache, StatsCountHitsMissesEvictions) {
  core::ConfigCache cache(2);
  EXPECT_FALSE(cache.touch("a"));  // miss
  cache.insert("a");
  EXPECT_TRUE(cache.touch("a"));   // hit
  EXPECT_FALSE(cache.touch("b"));  // miss
  cache.insert("b");
  cache.insert("c");  // evicts a
  EXPECT_TRUE(cache.touch("c"));   // hit
  const core::ConfigCacheStats& s = cache.stats();
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.insertions, 3u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_DOUBLE_EQ(s.hit_rate(), 0.5);
}

class CachedSwitcherTest : public ::testing::Test {
 protected:
  CachedSwitcherTest()
      : device_("dev0", hw::orca_3t125()),
        alpha_{"alpha", {}, nullptr, 1.0, {}},
        beta_{"beta", {}, nullptr, 1.0, {}},
        gamma_{"gamma", {}, nullptr, 1.0, {}} {}

  hw::FpgaDevice device_;
  hw::Bitstream alpha_, beta_, gamma_;
};

TEST_F(CachedSwitcherTest, CacheHitActivatesAtFraction) {
  core::TaskSwitcher sw(device_);
  sw.enable_cache(2, 1.0 / 64.0);
  sw.add_task(alpha_);
  sw.add_task(beta_);

  const util::Picoseconds full = sw.switch_to("alpha");  // full load, insert
  sw.switch_to("beta");                                  // full load, insert
  const util::Picoseconds hit = sw.switch_to("alpha");   // cache hit
  EXPECT_GT(full, 0);
  EXPECT_GT(hit, 0);
  // A hit costs the configured fraction of a full configuration, not a
  // full bitstream reload (beta is a full-device config too, so the full
  // reload time is comparable to `full`).
  EXPECT_LT(hit * 32, full);
  EXPECT_EQ(sw.cache_hits(), 1u);
  EXPECT_EQ(sw.cache_misses(), 2u);
  EXPECT_EQ(sw.current(), "alpha");
  EXPECT_TRUE(device_.configured());
}

TEST_F(CachedSwitcherTest, EvictionForcesFullReload) {
  core::TaskSwitcher sw(device_);
  sw.enable_cache(1);  // only the resident task stays staged
  sw.add_task(alpha_);
  sw.add_task(beta_);
  sw.switch_to("alpha");
  sw.switch_to("beta");   // evicts alpha
  sw.switch_to("alpha");  // miss again: full reload
  EXPECT_EQ(sw.cache_hits(), 0u);
  EXPECT_EQ(sw.cache_misses(), 3u);
  EXPECT_GE(sw.cache_stats().evictions, 1u);
}

TEST_F(CachedSwitcherTest, InvalidateDropsStagedConfigs) {
  core::TaskSwitcher sw(device_);
  sw.enable_cache(2);
  sw.add_task(alpha_);
  sw.add_task(beta_);
  sw.switch_to("alpha");
  sw.switch_to("beta");
  sw.invalidate_cache();  // board power loss
  sw.switch_to("alpha");  // must be a miss (full reload)
  EXPECT_EQ(sw.cache_hits(), 0u);
}

TEST_F(CachedSwitcherTest, CapacityZeroIsBitIdenticalToNoCache) {
  hw::FpgaDevice other("dev1", hw::orca_3t125());
  core::TaskSwitcher plain(other);
  plain.add_task(alpha_);
  plain.add_task(beta_);

  core::TaskSwitcher disabled(device_);
  disabled.enable_cache(0);
  disabled.add_task(alpha_);
  disabled.add_task(beta_);

  for (const char* name : {"alpha", "beta", "alpha", "beta"}) {
    EXPECT_EQ(plain.switch_to(name), disabled.switch_to(name));
  }
  EXPECT_EQ(disabled.cache_hits(), 0u);
  EXPECT_EQ(disabled.cache_misses(), 0u);
}

TEST_F(CachedSwitcherTest, CacheHitSkipsCrcOpportunity) {
  // A cache hit moves no configuration data, so it must NOT give the
  // injector a config-CRC opportunity; a full reload must.
  sim::FaultPlan plan;  // empty: we only count opportunities
  sim::FaultInjector inj(plan);
  device_.set_fault_injector(&inj);

  core::TaskSwitcher sw(device_);
  sw.enable_cache(2);
  sw.add_task(alpha_);
  sw.add_task(beta_);
  const std::string site = "fpga/" + device_.name();

  sw.switch_to("alpha");
  sw.switch_to("beta");
  const std::uint64_t before =
      inj.opportunities(sim::FaultKind::kConfigCrc, site);
  EXPECT_GT(before, 0u);
  sw.switch_to("alpha");  // cache hit
  EXPECT_EQ(inj.opportunities(sim::FaultKind::kConfigCrc, site), before);
  EXPECT_EQ(sw.cache_hits(), 1u);
  sw.invalidate_cache();
  sw.switch_to("beta");  // full reload: one more CRC opportunity
  EXPECT_GT(inj.opportunities(sim::FaultKind::kConfigCrc, site), before);
}

}  // namespace
}  // namespace atlantis

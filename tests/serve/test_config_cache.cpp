// The LRU bitstream/configuration cache: standalone behaviour and its
// integration into the TaskSwitcher (cache hits activate instead of
// reloading, and skip the CRC opportunity).
#include <gtest/gtest.h>

#include <string>
#include <vector>

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
  EXPECT_TRUE(cache.contents().empty());
}

TEST(ConfigCache, LruEvictionOrder) {
  core::ConfigCache cache(2);
  cache.insert("a");
  cache.insert("b");
  cache.insert("c");  // evicts a, the least recently used
  EXPECT_EQ(cache.contents(), (std::vector<std::string>{"c", "b"}));
  // Touch promotes: b becomes MRU, so inserting d evicts c.
  EXPECT_TRUE(cache.touch("b"));
  cache.insert("d");
  EXPECT_EQ(cache.contents(), (std::vector<std::string>{"d", "b"}));
}

class CachedSwitcherTest : public ::testing::Test {
 protected:
  CachedSwitcherTest()
      : device_("dev0", hw::orca_3t125()),
        alpha_{"alpha", {}, nullptr, {}},
        beta_{"beta", {}, nullptr, {}},
        gamma_{"gamma", {}, nullptr, {}} {}

  hw::FpgaDevice device_;
  hw::Bitstream alpha_, beta_, gamma_;
};

TEST_F(CachedSwitcherTest, CacheHitActivatesAtFraction) {
  core::TaskSwitcher sw(device_);
  sw.enable_cache(2);
  sw.add_task(alpha_);
  sw.add_task(beta_);

  // full load + insert, full load + insert, cache hit
  const util::Picoseconds full = sw.switch_to("alpha").value();
  sw.switch_to("beta").value();
  const util::Picoseconds hit = sw.switch_to("alpha").value();
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
  sw.switch_to("alpha").value();
  sw.switch_to("beta").value();   // evicts alpha
  sw.switch_to("alpha").value();  // miss again: full reload
  EXPECT_EQ(sw.cache_hits(), 0u);
  EXPECT_EQ(sw.cache_misses(), 3u);
  EXPECT_EQ(sw.cache().contents(), std::vector<std::string>{"alpha"});
}

TEST_F(CachedSwitcherTest, SwitcherCountsHitsAndMisses) {
  // The cache only answers residency; the switcher counts a hit when a
  // staged task activates and a miss on every other lookup.
  core::TaskSwitcher sw(device_);
  sw.enable_cache(2);
  sw.add_task(alpha_);
  sw.add_task(beta_);
  sw.add_task(gamma_);
  for (const char* name : {"alpha", "beta", "alpha", "beta"}) {
    sw.switch_to(name).value();  // miss, miss, hit, hit
  }
  EXPECT_DOUBLE_EQ(sw.counters().hit_rate(), 0.5);
  sw.switch_to("gamma").value();  // miss; evicts alpha
  sw.switch_to("alpha").value();  // miss again
  const core::SwitchCounters& c = sw.counters();
  EXPECT_EQ(c.hits, 2u);
  EXPECT_EQ(c.misses, 4u);
  EXPECT_EQ(c.switches, 6u);
  EXPECT_EQ(c.full_reconfigs(), 4u);
  EXPECT_DOUBLE_EQ(c.hit_rate(), 2.0 / 6.0);
}

TEST_F(CachedSwitcherTest, InvalidateDropsStagedConfigs) {
  core::TaskSwitcher sw(device_);
  sw.enable_cache(2);
  sw.add_task(alpha_);
  sw.add_task(beta_);
  sw.switch_to("alpha").value();
  sw.switch_to("beta").value();
  sw.invalidate_cache();  // board power loss
  sw.switch_to("alpha").value();  // must be a miss (full reload)
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
    EXPECT_EQ(plain.switch_to(name).value(),
              disabled.switch_to(name).value());
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

  sw.switch_to("alpha").value();
  sw.switch_to("beta").value();
  const std::uint64_t before =
      inj.opportunities(sim::FaultKind::kConfigCrc, site);
  EXPECT_GT(before, 0u);
  sw.switch_to("alpha").value();  // cache hit
  EXPECT_EQ(inj.opportunities(sim::FaultKind::kConfigCrc, site), before);
  EXPECT_EQ(sw.cache_hits(), 1u);
  sw.invalidate_cache();
  sw.switch_to("beta").value();  // full reload: one more CRC opportunity
  EXPECT_GT(inj.opportunities(sim::FaultKind::kConfigCrc, site), before);
}

}  // namespace
}  // namespace atlantis

// The cluster front-end's contracts: placement determinism across
// worker pools and shard iteration orders (supervised shards included),
// the share-nothing refusals that make concurrent shard drains safe,
// elastic add/remove with the functional ledger preserved,
// replay-identical admission verdicts under a fault plan, weighted-fair
// QoS (and the admission caches behind it), SLO admission, bounded-queue
// backpressure and the whole-cluster snapshot round trip.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "serve/cluster.hpp"
#include "serve/placement.hpp"
#include "sim/fault.hpp"
#include "util/units.hpp"
#include "util/worker_pool.hpp"

namespace atlantis {
namespace {

serve::JobSpec cluster_job(const std::string& tenant,
                           const std::string& config, int index,
                           util::Picoseconds arrival,
                           util::Picoseconds deadline = 0) {
  serve::JobSpec job;
  job.tenant = tenant;
  job.kind = serve::JobKind::kCustom;
  job.config = config;
  job.arrival = arrival;
  job.deadline = deadline;
  job.work = [index] {
    serve::JobOutcome out;
    out.checksum =
        0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(index + 1);
    out.compute_time = (index % 5 + 1) * util::kMicrosecond;
    out.dma_in_bytes = 1024u * static_cast<std::uint64_t>(index % 3 + 1);
    out.dma_out_bytes = 256;
    return out;
  };
  return job;
}

/// A fleet with `shards` crates and `configs` registered bitstreams
/// named cfg0..cfgN-1.
std::unique_ptr<serve::Cluster> make_cluster(int shards, int configs,
                                             serve::ClusterOptions options =
                                                 {}) {
  auto cluster = std::make_unique<serve::Cluster>(options);
  for (int s = 0; s < shards; ++s) cluster->add_shard();
  for (int c = 0; c < configs; ++c) {
    cluster->register_config(
        hw::Bitstream{"cfg" + std::to_string(c), {}, nullptr, 1.0, {}});
  }
  return cluster;
}

void submit_wave(serve::Cluster& cluster, int jobs, int configs,
                 int first_index = 0) {
  for (int i = 0; i < jobs; ++i) {
    const int idx = first_index + i;
    const std::string tenant = idx % 2 == 0 ? "atlas" : "cms";
    const std::string config = "cfg" + std::to_string(idx % configs);
    (void)cluster.submit(
        cluster_job(tenant, config, idx, idx * util::kMicrosecond));
  }
}

// --- determinism --------------------------------------------------------

TEST(Cluster, ScheduleBitIdenticalAcrossWorkerPools) {
  std::uint64_t reference = 0;
  for (const int threads : {1, 2, 4}) {
    auto cluster = make_cluster(3, 6);
    submit_wave(*cluster, 48, 6);
    util::WorkerPool pool(threads);
    serve::RunOptions options;
    options.pool = &pool;
    cluster->run(options);
    const std::uint64_t digest = cluster->schedule_digest();
    if (reference == 0) {
      reference = digest;
    } else {
      EXPECT_EQ(digest, reference)
          << "pool size " << threads << " changed the cluster schedule";
    }
  }
  EXPECT_NE(reference, 0u);
}

TEST(Cluster, ScheduleBitIdenticalAcrossShardIterationOrder) {
  auto forward = make_cluster(3, 6);
  auto reverse = make_cluster(3, 6);
  submit_wave(*forward, 48, 6);
  submit_wave(*reverse, 48, 6);

  forward->run();  // shard 0, 1, 2

  // Drain the twin's shards back to front: each crate has its own
  // timeline, so the visit order must not leak into any schedule.
  for (int s = reverse->shard_count() - 1; s >= 0; --s) {
    reverse->service(s).run();
  }

  EXPECT_EQ(forward->schedule_digest(), reverse->schedule_digest());
  EXPECT_EQ(forward->functional_digest(), reverse->functional_digest());
}

TEST(Cluster, SupervisedScheduleBitIdenticalAcrossWorkerPools) {
  // Every shard under its own Supervisor and fault injector: seeded DMA
  // stalls everywhere and a crash pinned on the busiest shard, so
  // checkpoints and a restore run while the other shards drain.
  std::uint64_t schedule = 0, functional = 0;
  for (const int threads : {1, 2, 4}) {
    serve::ClusterOptions options;
    options.supervised = true;
    options.serve.max_batch = 2;
    options.supervisor.dispatches_per_tick = 1;
    options.supervisor.checkpoint_every = 2;
    auto cluster = make_cluster(3, 6, options);
    submit_wave(*cluster, 48, 6);
    int busiest = 0;
    for (int s = 1; s < 3; ++s) {
      if (cluster->service(s).pending() > cluster->service(busiest).pending()) {
        busiest = s;
      }
    }
    std::vector<std::unique_ptr<sim::FaultInjector>> injectors;
    for (int s = 0; s < 3; ++s) {
      sim::FaultPlan plan;
      plan.seed = 0xC1u + static_cast<std::uint64_t>(s);
      plan.with_rate(sim::FaultKind::kDmaStall, 0.05);
      if (s == busiest) {
        plan.inject(sim::FaultKind::kServiceCrash,
                    "serve/cluster/shard" + std::to_string(s), /*nth=*/4);
      }
      injectors.push_back(std::make_unique<sim::FaultInjector>(plan));
      cluster->system(s).set_fault_injector(injectors.back().get());
    }

    util::WorkerPool pool(threads);
    serve::RunOptions run;
    run.pool = &pool;
    cluster->run(run);
    EXPECT_EQ(cluster->supervisor(busiest)->report().restores, 1u);
    submit_wave(*cluster, 24, 6, /*first_index=*/48);  // checkpoint on growth
    cluster->run(run);
    EXPECT_EQ(cluster->pending(), 0u);

    if (threads == 1) {
      schedule = cluster->schedule_digest();
      functional = cluster->functional_digest();
    } else {
      EXPECT_EQ(cluster->schedule_digest(), schedule)
          << "pool size " << threads << " changed the supervised schedule";
      EXPECT_EQ(cluster->functional_digest(), functional)
          << "pool size " << threads << " changed a supervised result";
    }
    for (int s = 0; s < 3; ++s) cluster->system(s).set_fault_injector(nullptr);
  }
}

TEST(Cluster, RunRefusesShardsSharingAFaultInjector) {
  auto cluster = make_cluster(2, 2);
  sim::FaultInjector shared{sim::FaultPlan{}};
  sim::FaultInjector own{sim::FaultPlan{}};
  cluster->system(0).set_fault_injector(&shared);
  cluster->system(1).set_fault_injector(&shared);
  submit_wave(*cluster, 8, 2);
  // Fault draws would depend on which shard's thread got there first.
  EXPECT_THROW(cluster->run(), util::Error);
  EXPECT_EQ(cluster->pending(), 8u) << "a refused run drained a shard";

  cluster->system(1).set_fault_injector(&own);  // one injector per shard
  cluster->run();
  EXPECT_EQ(cluster->report().served, 8u);
  cluster->system(0).set_fault_injector(nullptr);
  cluster->system(1).set_fault_injector(nullptr);
}

TEST(Cluster, RunRefusesAMigrationTargetOrSpareOnAnotherLiveShard) {
  auto plain = make_cluster(2, 2);
  plain->service(0).set_migration_target(&plain->service(1));
  submit_wave(*plain, 8, 2);
  EXPECT_THROW(plain->run(), util::Error);
  EXPECT_EQ(plain->pending(), 8u) << "a refused run drained a shard";
  plain->service(0).set_migration_target(nullptr);
  plain->run();
  EXPECT_EQ(plain->report().served, 8u);

  serve::ClusterOptions options;
  options.supervised = true;
  auto supervised = make_cluster(2, 2, options);
  supervised->supervisor(1)->set_spare(&supervised->service(0));
  supervised->service(1).set_migration_target(nullptr);  // spare() only
  submit_wave(*supervised, 8, 2);
  EXPECT_THROW(supervised->run(), util::Error);
  supervised->supervisor(1)->set_spare(nullptr);
  supervised->run();
  EXPECT_EQ(supervised->report().served, 8u);
}

TEST(Cluster, ConsistentHashKeepsConfigurationsHome) {
  auto cluster = make_cluster(3, 6);
  submit_wave(*cluster, 48, 6);
  // Every job of one configuration must sit on one shard.
  std::map<std::string, int> home;
  for (const serve::ClusterRecord& rec : cluster->jobs()) {
    const auto it = home.find(rec.config);
    if (it == home.end()) {
      home[rec.config] = rec.shard;
    } else {
      EXPECT_EQ(it->second, rec.shard)
          << "config " << rec.config << " split across shards";
    }
  }
  cluster->run();
  EXPECT_EQ(cluster->report().served, 48u);
}

// --- elasticity ---------------------------------------------------------

TEST(Cluster, RemoveShardDrainsPendingAndPreservesFunctionalDigest) {
  auto stable = make_cluster(3, 6);
  auto elastic = make_cluster(3, 6);

  submit_wave(*stable, 30, 6);
  submit_wave(*elastic, 30, 6);
  stable->run();
  elastic->run();

  // Second wave lands, then a shard holding some of it retires: its
  // pending jobs must re-home via migrate_job, not fail.
  submit_wave(*stable, 30, 6, /*first_index=*/30);
  submit_wave(*elastic, 30, 6, /*first_index=*/30);
  int victim = -1;
  for (int s = 0; s < 3; ++s) {
    if (elastic->service(s).pending() > 0) victim = s;
  }
  ASSERT_GE(victim, 0);
  const std::size_t pending_before = elastic->pending();
  elastic->remove_shard(victim);
  EXPECT_TRUE(elastic->shard_retired(victim));
  EXPECT_EQ(elastic->shard_count(), 2);
  EXPECT_EQ(elastic->pending(), pending_before) << "drain lost jobs";
  EXPECT_GT(elastic->service(victim == 0 ? 1 : 0).pending(), 0u);

  stable->run();
  elastic->run();
  EXPECT_EQ(stable->report().served + stable->report().failed, 30u);
  EXPECT_EQ(elastic->report().served + elastic->report().failed, 30u);
  // The re-home moved work, never outcomes: the functional ledger is
  // identical with and without the topology change.
  EXPECT_EQ(stable->functional_digest(), elastic->functional_digest());
}

TEST(Cluster, AddShardJoinsTheRingWithConfigsReplayed) {
  auto cluster = make_cluster(2, 4);
  submit_wave(*cluster, 16, 4);
  cluster->run();
  const int added = cluster->add_shard();
  EXPECT_EQ(cluster->shard_count(), 3);
  // The new shard serves any registered configuration immediately.
  submit_wave(*cluster, 16, 4, /*first_index=*/16);
  cluster->run();
  EXPECT_EQ(cluster->report().served, 16u);
  (void)added;
}

// --- admission ----------------------------------------------------------

TEST(Cluster, AdmissionVerdictsReplayIdenticalUnderFaultPlan) {
  sim::FaultPlan plan;
  // Drop a board on shard 0 mid-run; the survivor absorbs the work.
  plan.inject(sim::FaultKind::kBoardDropout, "cluster/shard0/acb0",
              /*nth=*/2);

  const auto run_once = [&plan](std::vector<util::ErrorCode>& refusals,
                                std::uint64_t& digest) {
    serve::ClusterOptions options;
    options.max_pending_per_shard = 4;
    options.max_placement_attempts = 2;
    auto cluster = make_cluster(2, 2, options);
    sim::FaultInjector injector(plan);
    cluster->system(0).set_fault_injector(&injector);
    submit_wave(*cluster, 24, 2);  // well past 2 shards x 4 slots
    cluster->run();
    refusals = cluster->refusals();
    digest = cluster->schedule_digest();
    cluster->system(0).set_fault_injector(nullptr);
  };

  std::vector<util::ErrorCode> refusals_a, refusals_b;
  std::uint64_t digest_a = 0, digest_b = 0;
  run_once(refusals_a, digest_a);
  run_once(refusals_b, digest_b);
  EXPECT_FALSE(refusals_a.empty()) << "workload was sized to overload";
  EXPECT_EQ(refusals_a, refusals_b);
  EXPECT_EQ(digest_a, digest_b);
}

TEST(Cluster, WeightedFairShareCapsTheNoisyTenant) {
  serve::ClusterOptions options;
  options.max_pending_per_shard = 8;
  options.tenant_weights["noisy"] = 1.0;
  options.tenant_weights["quiet"] = 1.0;
  auto cluster = make_cluster(2, 2, options);

  // Equal weights over 2x8 slots: 8 each. The noisy tenant floods.
  std::uint64_t noisy_admitted = 0, noisy_rejected = 0;
  for (int i = 0; i < 16; ++i) {
    const util::Result<serve::JobId> r = cluster->submit(
        cluster_job("noisy", "cfg0", i, i * util::kMicrosecond));
    if (r.ok()) {
      ++noisy_admitted;
    } else {
      EXPECT_EQ(r.error(), util::ErrorCode::kAdmissionReject);
      ++noisy_rejected;
    }
  }
  EXPECT_EQ(noisy_admitted, 8u);
  EXPECT_EQ(noisy_rejected, 8u);
  // The quiet tenant's share is untouched by the noisy one's flood.
  const util::Result<serve::JobId> quiet =
      cluster->submit(cluster_job("quiet", "cfg1", 99, 0));
  EXPECT_TRUE(quiet.ok());
  cluster->run();
  EXPECT_EQ(cluster->report().rejected_admission, 8u);
}

TEST(Cluster, SloAdmissionRejectsUnreachableDeadlines) {
  serve::ClusterOptions options;
  options.max_pending_per_shard = 64;
  auto cluster = make_cluster(1, 1, options);

  // First window trains the per-shard service-time EWMA.
  submit_wave(*cluster, 8, 1);
  cluster->run();
  ASSERT_EQ(cluster->report().served, 8u);

  // Back up the queue, then ask for an impossible deadline: the
  // backlog estimate (queue depth x EWMA) refuses it at the door.
  submit_wave(*cluster, 8, 1, /*first_index=*/8);
  const util::Result<serve::JobId> tight = cluster->submit(
      cluster_job("rt", "cfg0", 99, 0, /*deadline=*/util::kNanosecond));
  ASSERT_FALSE(tight.ok());
  EXPECT_EQ(tight.error(), util::ErrorCode::kAdmissionReject);

  // A generous deadline sails through the same gate.
  const util::Result<serve::JobId> loose = cluster->submit(cluster_job(
      "rt", "cfg0", 100, 0, /*deadline=*/util::kSecond));
  EXPECT_TRUE(loose.ok());
  cluster->run();
}

TEST(Cluster, BoundedQueuesOverflowToTheSuccessorThenShed) {
  serve::ClusterOptions options;
  options.max_pending_per_shard = 2;
  options.max_placement_attempts = 2;
  options.fair_admission = false;  // isolate the backpressure path
  auto cluster = make_cluster(2, 1, options);

  // One configuration, so every job targets the same owner shard:
  // 2 fill the owner, 2 overflow to the ring successor, then shed.
  std::uint64_t admitted = 0, shed = 0;
  for (int i = 0; i < 6; ++i) {
    const util::Result<serve::JobId> r =
        cluster->submit(cluster_job("t", "cfg0", i, 0));
    if (r.ok()) {
      ++admitted;
    } else {
      EXPECT_EQ(r.error(), util::ErrorCode::kShardOverload);
      ++shed;
    }
  }
  EXPECT_EQ(admitted, 4u);
  EXPECT_EQ(shed, 2u);
  cluster->run();
  EXPECT_EQ(cluster->report().overflowed, 2u);
  EXPECT_EQ(cluster->report().shed_overload, 2u);
  EXPECT_EQ(cluster->report().served, 4u);
}

TEST(Cluster, RejectsTenantWeightsThatAreNegativeOrNotFinite) {
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {-1.0, -1e-300, -inf, inf,
                           std::numeric_limits<double>::quiet_NaN()}) {
    serve::ClusterOptions options;
    options.tenant_weights["atlas"] = bad;
    EXPECT_THROW(serve::Cluster{options}, util::Error) << "weight " << bad;
  }
  // Finite weights whose sum overflows would make every share NaN.
  serve::ClusterOptions overflow;
  overflow.tenant_weights["atlas"] = 1e308;
  overflow.tenant_weights["cms"] = 1e308;
  EXPECT_THROW(serve::Cluster{overflow}, util::Error);

  // Weight 0 is legal and keeps the one-slot floor.
  serve::ClusterOptions options;
  options.max_pending_per_shard = 8;
  options.tenant_weights["idle"] = 0.0;
  options.tenant_weights["busy"] = 1.0;
  auto cluster = make_cluster(2, 1, options);
  EXPECT_TRUE(cluster->submit(cluster_job("idle", "cfg0", 0, 0)).ok());
  const util::Result<serve::JobId> second =
      cluster->submit(cluster_job("idle", "cfg0", 1, 0));
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.error(), util::ErrorCode::kAdmissionReject);
}

// Pins every input the front door's cached placement and tenant quotas
// depend on: a new tenant shrinking the others' shares mid-stream, a
// configuration registered after the first placements, add_shard (more
// capacity, a re-homed ring), remove_shard draining onto the survivors
// (less capacity), and a twin whose tenant set differs from the
// snapshot it loads. The constants were recorded before the caches
// existed.
TEST(Cluster, AdmissionCachesFollowTenantsShardsAndRestore) {
  serve::ClusterOptions options;
  options.max_pending_per_shard = 16;
  options.tenant_weights["atlas"] = 3.0;

  int index = 0;
  int configs = 6;
  const auto submit = [&](serve::Cluster& c, const std::string& tenant,
                          int n) {
    for (int i = 0; i < n; ++i, ++index) {
      (void)c.submit(
          cluster_job(tenant, "cfg" + std::to_string(index % configs), index,
                      index * util::kMicrosecond));
    }
  };
  // The same stream for the live fleet and its twin, up to the save.
  const auto drive = [&](serve::Cluster& c) {
    index = 0;
    configs = 6;
    // Two shards hold 32: atlas may queue 24, cms 8.
    for (int i = 0; i < 20; ++i) submit(c, i % 2 == 0 ? "atlas" : "cms", 1);
    submit(c, "lhcb", 2);  // a third tenant: atlas 19, cms 6, lhcb 6
    submit(c, "atlas", 10);  // atlas stops at 19
    c.run();
    c.register_config(hw::Bitstream{"cfg6", {}, nullptr, 1.0, {}});
    configs = 7;
    submit(c, "lhcb", 3);  // the last one needs cfg6
    c.add_shard();  // 48 slots: atlas 28, cms 9, lhcb 9
    submit(c, "cms", 12);  // cms stops at 9; the ring now spans 3 shards
    submit(c, "atlas", 12);
    c.remove_shard(1);  // drains shard 1; 32 slots again
    submit(c, "atlas", 10);  // atlas stops at 19
    c.run();
    submit(c, "cms", 4);  // pending at the save
  };

  auto live = make_cluster(2, 6, options);
  drive(*live);
  // Refused at the door by its deadline, but a fourth tenant from now
  // on: atlas 16, cms 5, lhcb 5, dave 5. The twin never sees it.
  const util::Result<serve::JobId> dave = live->submit(
      cluster_job("dave", "cfg0", 999, 0, /*deadline=*/1));
  ASSERT_FALSE(dave.ok());
  sim::SnapshotWriter w;
  live->save_state(w);

  auto twin = make_cluster(2, 6, options);
  drive(*twin);
  util::Result<sim::SnapshotReader> r = sim::SnapshotReader::open(w.bytes());
  ASSERT_TRUE(r.ok()) << r.message();
  twin->load_state(r.value());

  const int resume = index;
  for (serve::Cluster* c : {live.get(), twin.get()}) {
    index = resume;
    submit(*c, "cms", 4);  // cms stops at 5
    submit(*c, "lhcb", 7);
    c->run();
  }

  const auto verdicts = [](const serve::Cluster& c) {
    std::string out;
    for (const util::ErrorCode code : c.refusals()) {
      out += code == util::ErrorCode::kShardOverload ? 'S' : 'A';
    }
    return out;
  };
  const auto placements = [](const serve::Cluster& c) {
    std::vector<std::uint64_t> fields;
    for (const serve::ClusterRecord& rec : c.jobs()) {
      fields.push_back(static_cast<std::uint64_t>(rec.shard));
      fields.push_back(rec.local);
      fields.push_back(static_cast<std::uint64_t>(rec.attempts));
    }
    return serve::digest(fields);
  };
  EXPECT_EQ(verdicts(*live), "AAAAAAAAAAAAAAA");
  EXPECT_EQ(live->jobs().size(), 70u);
  EXPECT_EQ(placements(*live), 0x20ffb8078f07149aull);
  EXPECT_EQ(live->schedule_digest(), 0xaa8244339442a513ull);
  EXPECT_EQ(verdicts(*twin), verdicts(*live));
  EXPECT_EQ(placements(*twin), placements(*live));
  EXPECT_EQ(twin->schedule_digest(), live->schedule_digest());
}

// --- snapshots ---------------------------------------------------------

TEST(Cluster, SnapshotRoundTripIntoATwinFleet) {
  auto live = make_cluster(2, 4);
  submit_wave(*live, 20, 4);
  live->run();
  submit_wave(*live, 10, 4, /*first_index=*/20);  // pending at save

  sim::SnapshotWriter w;
  live->save_state(w);

  // The twin replays construction and the same submissions (work
  // functors are never serialized), then restores the cluster state.
  auto twin = make_cluster(2, 4);
  submit_wave(*twin, 20, 4);
  twin->run();
  submit_wave(*twin, 10, 4, /*first_index=*/20);
  util::Result<sim::SnapshotReader> r = sim::SnapshotReader::open(w.bytes());
  ASSERT_TRUE(r.ok()) << r.message();
  twin->load_state(r.value());

  live->run();
  twin->run();
  EXPECT_EQ(live->report().served, 10u);
  EXPECT_EQ(twin->report().served, 10u);
  EXPECT_EQ(live->schedule_digest(), twin->schedule_digest());
  EXPECT_EQ(live->functional_digest(), twin->functional_digest());
}

TEST(Cluster, LoadRejectsAShardStreamLongerThanItsSection) {
  auto live = make_cluster(2, 4);
  submit_wave(*live, 20, 4);
  live->run();
  sim::SnapshotWriter w;
  live->save_state(w);
  std::vector<std::uint8_t> bytes = w.bytes();

  // Forge the first shard section's leading u64 (its nested stream's
  // length) to 2^40 and re-frame the section so its CRC still holds.
  bool forged = false;
  for (std::size_t at = 12; at < bytes.size() && !forged;) {
    const std::size_t frame_at = at;
    std::uint32_t tag_len = 0;
    std::memcpy(&tag_len, bytes.data() + at, sizeof(tag_len));
    const std::string tag(reinterpret_cast<const char*>(bytes.data() + at + 4),
                          tag_len);
    at += 4 + tag_len;
    std::uint64_t payload_len = 0;
    std::memcpy(&payload_len, bytes.data() + at, sizeof(payload_len));
    at += 8;
    if (tag.rfind("serve/cluster/", 0) == 0) {
      const std::uint64_t huge = 1ull << 40;
      std::memcpy(bytes.data() + at, &huge, sizeof(huge));
      const std::uint32_t crc =
          sim::crc32(bytes.data() + frame_at, at + payload_len - frame_at);
      std::memcpy(bytes.data() + at + payload_len, &crc, sizeof(crc));
      forged = true;
    }
    at += payload_len + 4;
  }
  ASSERT_TRUE(forged);

  auto twin = make_cluster(2, 4);
  submit_wave(*twin, 20, 4);
  twin->run();
  util::Result<sim::SnapshotReader> r = sim::SnapshotReader::open(bytes);
  ASSERT_TRUE(r.ok()) << r.message();
  EXPECT_THROW(twin->load_state(r.value()), util::Error);
}

// --- the placement ring itself -----------------------------------------

TEST(HashRing, LookupIsStableAndSuccessorsAreDistinct) {
  serve::HashRing ring;
  ring.add_node(0, "shard0");
  ring.add_node(1, "shard1");
  ring.add_node(2, "shard2");
  EXPECT_EQ(ring.node_count(), 3);

  const int owner = ring.lookup("cfg42");
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(ring.lookup("cfg42"), owner);
  }
  const std::vector<int> succ = ring.successors("cfg42", 3);
  ASSERT_EQ(succ.size(), 3u);
  EXPECT_EQ(succ[0], owner);
  EXPECT_NE(succ[1], succ[0]);
  EXPECT_NE(succ[2], succ[0]);
  EXPECT_NE(succ[2], succ[1]);
}

TEST(HashRing, RemovalOnlyRehomesTheRemovedNodesKeys) {
  serve::HashRing ring;
  ring.add_node(0, "shard0");
  ring.add_node(1, "shard1");
  ring.add_node(2, "shard2");

  std::map<std::string, int> before;
  for (int i = 0; i < 200; ++i) {
    const std::string key = "cfg" + std::to_string(i);
    before[key] = ring.lookup(key);
  }
  ring.remove_node(1);
  for (const auto& [key, owner] : before) {
    if (owner != 1) {
      EXPECT_EQ(ring.lookup(key), owner)
          << "removing shard 1 re-homed " << key << " owned by " << owner;
    } else {
      EXPECT_NE(ring.lookup(key), 1);
    }
  }
}

}  // namespace
}  // namespace atlantis

// Shard placement for the serving cluster: which crate serves a job.
//
// The cluster front-end (serve/cluster.hpp) keys placement on the
// job's *configuration* name, not its tenant: two jobs that need the
// same bitstream should land on the same shard, so that shard's
// per-board LRU configuration caches and differential-reconfiguration
// signatures stay hot while the other shards never even see the
// configuration. A consistent-hash ring gives that affinity AND keeps
// it when shards come and go — removing a shard only re-homes the
// configurations that hashed onto it, instead of reshuffling the whole
// fleet the way `hash % n` would.
//
// Determinism: the ring is a pure function of the shard names and the
// replica count (FNV-1a over "name#replica", ties broken by shard
// index), so every front-end that saw the same add/remove history
// routes identically — across processes, worker-pool sizes and shard
// iteration orders. No RNG anywhere; the "random" baseline policy in
// the cluster is a seeded hash of the job ordinal, equally replayable.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace atlantis::serve {

/// FNV-1a 64-bit — the same digest family the job adapters use, small
/// enough to stay bit-identical everywhere.
std::uint64_t placement_hash(std::string_view key);

/// How the cluster maps a job to a shard.
enum class PlacementPolicy {
  /// Consistent-hash ring keyed on the job's configuration name:
  /// maximizes per-shard configuration-cache and differential-reconfig
  /// hits, minimal re-homing on shard add/remove.
  kConsistentHash,
  /// Deterministic spray keyed on the submission ordinal: the cache-
  /// oblivious baseline the bench compares the ring against.
  kRandom,
};

const char* placement_policy_name(PlacementPolicy policy);

/// The consistent-hash ring: kReplicas virtual nodes per shard, each
/// at placement_hash("<shard-name>#<replica>"), sorted; a key is owned
/// by the first virtual node clockwise from its hash. More replicas =
/// smoother load split (64 keeps the max/min shard imbalance under ~2x
/// for a handful of shards).
class HashRing {
 public:
  static constexpr int kReplicas = 64;

  /// Adds a shard's virtual nodes. `shard` is the caller's stable index
  /// (the cluster's shard id); `name` seeds the node positions and must
  /// be unique per shard.
  void add_node(int shard, const std::string& name);
  /// Removes every virtual node of `shard`.
  void remove_node(int shard);

  bool empty() const { return ring_.empty(); }
  int node_count() const;

  /// The shard owning `key` — the first virtual node at or clockwise
  /// after placement_hash(key). Ring must not be empty.
  int lookup(std::string_view key) const;

  /// The first `n` *distinct* shards clockwise from `key` — the
  /// overflow order the cluster walks when the owner's queue is full.
  /// Returns fewer when the ring holds fewer distinct shards.
  std::vector<int> successors(std::string_view key, int n) const;

 private:
  struct VNode {
    std::uint64_t hash;
    int shard;
    bool operator<(const VNode& o) const {
      return hash != o.hash ? hash < o.hash : shard < o.shard;
    }
  };

  std::vector<VNode> ring_;  // sorted
};

}  // namespace atlantis::serve

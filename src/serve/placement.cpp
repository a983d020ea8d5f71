#include "serve/placement.hpp"

#include <algorithm>

#include "util/status.hpp"

namespace atlantis::serve {

std::uint64_t placement_hash(std::string_view key) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : key) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 1099511628211ull;
  }
  // Raw FNV-1a has weak avalanche on short keys: "cfg0".."cfg9" differ
  // only in the low bytes, so their hashes share the top bits and land
  // on the same ring arc — collapsing the ring to one effective shard.
  // A murmur3-style finalizer spreads every input bit across the word.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

const char* placement_policy_name(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kConsistentHash: return "consistent_hash";
    case PlacementPolicy::kRandom: return "random";
  }
  return "consistent_hash";
}

void HashRing::add_node(int shard, const std::string& name) {
  ring_.reserve(ring_.size() + static_cast<std::size_t>(kReplicas));
  for (int r = 0; r < kReplicas; ++r) {
    ring_.push_back({placement_hash(name + "#" + std::to_string(r)), shard});
  }
  std::sort(ring_.begin(), ring_.end());
}

void HashRing::remove_node(int shard) {
  ring_.erase(std::remove_if(ring_.begin(), ring_.end(),
                             [shard](const VNode& v) {
                               return v.shard == shard;
                             }),
              ring_.end());
}

int HashRing::node_count() const {
  std::vector<int> shards;
  for (const VNode& v : ring_) shards.push_back(v.shard);
  std::sort(shards.begin(), shards.end());
  shards.erase(std::unique(shards.begin(), shards.end()), shards.end());
  return static_cast<int>(shards.size());
}

int HashRing::lookup(std::string_view key) const {
  ATLANTIS_CHECK(!ring_.empty(), "lookup on an empty placement ring");
  const std::uint64_t h = placement_hash(key);
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), h,
      [](const VNode& v, std::uint64_t hash) { return v.hash < hash; });
  if (it == ring_.end()) it = ring_.begin();  // wrap
  return it->shard;
}

std::vector<int> HashRing::successors(std::string_view key, int n) const {
  ATLANTIS_CHECK(!ring_.empty(), "successors on an empty placement ring");
  const std::uint64_t h = placement_hash(key);
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), h,
      [](const VNode& v, std::uint64_t hash) { return v.hash < hash; });
  std::vector<int> out;
  for (std::size_t walked = 0; walked < ring_.size() &&
                               static_cast<int>(out.size()) < n;
       ++walked, ++it) {
    if (it == ring_.end()) it = ring_.begin();  // wrap
    if (std::find(out.begin(), out.end(), it->shard) == out.end()) {
      out.push_back(it->shard);
    }
  }
  return out;
}

}  // namespace atlantis::serve

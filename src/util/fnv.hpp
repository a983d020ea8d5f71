// FNV-1a, the one 64-bit hash accumulator behind the job digests, ring
// placement, fault streams, region signatures and CSE keys.
#pragma once

#include <cstdint>
#include <string_view>

namespace atlantis::util {

struct Fnv {
  std::uint64_t h = 14695981039346656037ull;  // the FNV offset basis
  /// Folds one 64-bit value in as a single step.
  void mix(std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  }
  /// Folds each byte in, as unsigned.
  void mix(std::string_view bytes) {
    for (const char c : bytes) {
      mix(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
    }
  }
};

}  // namespace atlantis::util

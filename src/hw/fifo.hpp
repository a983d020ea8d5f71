// FIFO buffer model.
//
// Each AIB channel buffers in two stages (§2.2): a 32k x 36 dual-ported
// FIFO directly at the I/O port, backed by a 1M x 36 synchronous-SRAM
// general-purpose buffer. The Fifo here is an occupancy model (word
// counts, not payloads): the AIB traffic simulation only needs to know
// when buffers fill and backpressure stalls the link.
#pragma once

#include <cstdint>
#include <string>

#include "util/status.hpp"

namespace atlantis::hw {

class Fifo {
 public:
  Fifo(std::string name, std::uint64_t depth_words)
      : name_(std::move(name)), depth_(depth_words) {
    ATLANTIS_CHECK(depth_words > 0, "FIFO depth must be positive");
  }

  const std::string& name() const { return name_; }
  std::uint64_t depth() const { return depth_; }
  std::uint64_t size() const { return size_; }
  std::uint64_t free() const { return depth_ - size_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == depth_; }

  /// Accepts up to `words`; returns how many actually fit.
  std::uint64_t push(std::uint64_t words) {
    const std::uint64_t accepted = std::min(words, free());
    size_ += accepted;
    return accepted;
  }

  /// Drains up to `words`; returns how many were available.
  std::uint64_t pop(std::uint64_t words) {
    const std::uint64_t taken = std::min(words, size_);
    size_ -= taken;
    return taken;
  }

  void clear() { size_ = 0; }

  std::uint64_t high_watermark() const { return watermark_; }

  /// Call once per modelled cycle to track occupancy statistics.
  void tick() { watermark_ = std::max(watermark_, size_); }

 private:
  std::string name_;
  std::uint64_t depth_;
  std::uint64_t size_ = 0;
  std::uint64_t watermark_ = 0;
};

}  // namespace atlantis::hw

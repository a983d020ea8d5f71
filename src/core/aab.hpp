// ATLANTIS Active Backplane (AAB).
//
// §2.3: ACBs and AIBs share an I/O circuit of 160 signal lines; the
// private bus connects boards point to point. The default configuration
// is 4 channels of 32 bit plus control, but "any granularity from 16
// channels of a single byte to 2 channels of 64 bit might be useful".
// Total bandwidth is 1 GB/s per slot (128 data bits at 66 MHz); two
// independent ACB/AIB pairs yield 2 GB/s per crate. A simple pipelined
// passive backplane is what the paper's tests used; it is modelled as a
// fixed-configuration variant.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/timeline.hpp"
#include "util/status.hpp"
#include "util/units.hpp"

namespace atlantis::core {

struct AabSpec {
  static constexpr int kSignalLines = 160;
  static constexpr int kDataLines = 128;  // the rest is control
  static constexpr double kClockMhz = 66.0;
  static constexpr int kDefaultSlots = 8;
};

class Backplane {
 public:
  /// `passive` models the simple pipelined test backplane: channel
  /// configuration is fixed at the 4 x 32 bit default.
  explicit Backplane(std::string name, int slots = AabSpec::kDefaultSlots,
                     bool passive = false);

  const std::string& name() const { return name_; }
  int slots() const { return slots_; }
  bool passive() const { return passive_; }

  /// Reconfigures the channel granularity under host-CPU control.
  /// Widths must be 8/16/32/64 bits and sum to at most 128.
  void configure_channels(const std::vector<int>& widths);
  int channel_count() const { return static_cast<int>(widths_.size()); }

  /// Bandwidth of one channel at the backplane clock.
  double channel_mbps(int channel) const;
  /// Aggregate per-slot bandwidth (the 1 GB/s figure).
  double slot_mbps() const;

  /// Models a point-to-point block transfer between two slots over one
  /// channel: burst time plus one pipeline stage per slot traversed.
  util::Picoseconds transfer(int from_slot, int to_slot, int channel,
                             std::uint64_t bytes) const;

  /// Aggregate bandwidth with `pairs` independent ACB/AIB pairs streaming
  /// concurrently (the "2 GB/s for a single ATLANTIS system" example).
  double paired_mbps(int pairs) const;

  // --- timeline binding ------------------------------------------------
  /// Registers one timeline resource per channel; transfers posted on a
  /// channel arbitrate FIFO against every other board's bursts on it.
  /// configure_channels() re-registers (the old resources keep their
  /// recorded history).
  void bind(sim::Timeline& timeline);
  bool bound() const { return timeline_ != nullptr; }
  sim::ResourceId channel_resource(int channel) const;

  /// Posts a point-to-point block transfer onto the bound channel no
  /// earlier than `not_before`; service time is exactly transfer().
  const sim::Transaction& post_transfer(sim::TrackId track, int from_slot,
                                        int to_slot, int channel,
                                        std::uint64_t bytes,
                                        util::Picoseconds not_before,
                                        std::string label = {});

 private:
  std::string name_;
  int slots_;
  bool passive_;
  std::vector<int> widths_;
  sim::Timeline* timeline_ = nullptr;
  std::vector<sim::ResourceId> channel_resources_;
};

}  // namespace atlantis::core

// ATLANTIS I/O Board (AIB).
//
// §2.2: two Virtex XCV600 control four mezzanine I/O channels of
// 36 bit @ 66 MHz (264 MB/s each ignoring the 4 tag bits; the four
// channels together match the 1 GB/s of the two backplane ports). Each
// channel buffers in two stages to sustain bandwidth even at small block
// sizes: a 32k x 36 dual-ported FIFO at the port and a 1M x 36
// synchronous-SRAM general-purpose buffer behind it.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "hw/clock.hpp"
#include "hw/fifo.hpp"
#include "hw/fpga.hpp"
#include "hw/pci.hpp"
#include "sim/timeline.hpp"

namespace atlantis::core {

/// Cycle-driven traffic model of one AIB channel: an external producer
/// pushes bursts into the port; the backplane drains in arbitration
/// windows. The two-stage buffer decouples the two rhythms.
struct ChannelTrafficParams {
  /// Producer: `burst_words` at one word/cycle, then `gap_cycles` idle.
  std::uint64_t burst_words = 256;
  std::uint64_t gap_cycles = 0;
  /// Consumer: every `drain_period` cycles the backplane grants a window
  /// of `drain_window` cycles draining one word/cycle.
  std::uint64_t drain_period = 1024;
  std::uint64_t drain_window = 1024;
  /// Total simulated cycles at the 66 MHz channel clock.
  std::uint64_t cycles = 1'000'000;
  bool use_stage2 = true;
};

struct ChannelTrafficResult {
  std::uint64_t offered_words = 0;
  std::uint64_t accepted_words = 0;   // made it into the buffers
  std::uint64_t delivered_words = 0;  // reached the backplane
  std::uint64_t stalled_words = 0;    // arrived while the input was full
  std::uint64_t fifo_watermark = 0;
  std::uint64_t sram_watermark = 0;
  double offered_mbps = 0.0;
  double sustained_mbps = 0.0;
};

class AibChannel {
 public:
  static constexpr std::uint64_t kFifoWords = 32 * 1024;   // 32k x 36
  static constexpr std::uint64_t kSramWords = 1024 * 1024; // 1M x 36
  static constexpr int kDataBits = 32;                     // 36 incl. tags
  static constexpr double kClockMhz = 66.0;

  explicit AibChannel(std::string name);

  /// Runs the traffic model from empty buffers.
  ChannelTrafficResult simulate(const ChannelTrafficParams& params);

  /// Peak channel bandwidth (the paper's 264 MB/s).
  static double peak_mbps() { return kClockMhz * kDataBits / 8.0; }

 private:
  std::string name_;
};

class AibBoard {
 public:
  explicit AibBoard(std::string name);

  const std::string& name() const { return name_; }
  static constexpr int kFpgaCount = 2;
  static constexpr int kChannelCount = 4;

  hw::FpgaDevice& fpga(int index);

  /// Aggregate I/O bandwidth: 4 x 264 MB/s ~ 1 GB/s, matching the two
  /// backplane ports.
  double total_io_mbps() const { return kChannelCount * AibChannel::peak_mbps(); }

  hw::Plx9080& pci() { return pci_; }
  hw::ClockGenerator& local_clock() { return local_clock_; }

  /// Binds the board into a crate timeline: the PLX joins the shared
  /// CompactPCI `segment`.
  void bind_timeline(sim::Timeline& timeline, sim::ResourceId segment);

  /// Wires a fault injector through the PLX and the control FPGAs.
  void set_fault_injector(sim::FaultInjector* injector) {
    pci_.set_fault_injector(injector, "pci/" + name_);
    for (auto& f : fpgas_) f->set_fault_injector(injector);
  }

 private:
  std::string name_;
  std::vector<std::unique_ptr<hw::FpgaDevice>> fpgas_;
  hw::Plx9080 pci_;
  hw::ClockGenerator local_clock_;
};

}  // namespace atlantis::core

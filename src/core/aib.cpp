#include "core/aib.hpp"

#include "util/status.hpp"

namespace atlantis::core {

AibChannel::AibChannel(std::string name) : name_(std::move(name)) {}

ChannelTrafficResult AibChannel::simulate(const ChannelTrafficParams& p) {
  ATLANTIS_CHECK(p.burst_words > 0, "empty producer burst");
  ATLANTIS_CHECK(p.drain_period >= p.drain_window,
                 "drain window longer than its period");
  hw::Fifo fifo(name_ + "/fifo", kFifoWords);
  hw::Fifo sram(name_ + "/sram", kSramWords);

  ChannelTrafficResult r;
  const std::uint64_t burst_period = p.burst_words + p.gap_cycles;
  for (std::uint64_t cycle = 0; cycle < p.cycles; ++cycle) {
    // Producer: one word per cycle during the burst phase.
    const bool producing = (cycle % burst_period) < p.burst_words;
    if (producing) {
      ++r.offered_words;
      if (fifo.push(1) == 1) {
        ++r.accepted_words;
      } else {
        ++r.stalled_words;
      }
    }
    // Stage 1 -> stage 2 spill (one word per SRAM cycle) when enabled.
    if (p.use_stage2 && !fifo.empty() && !sram.full()) {
      fifo.pop(1);
      sram.push(1);
    }
    // Consumer: backplane drains during its arbitration window.
    const bool draining = (cycle % p.drain_period) < p.drain_window;
    if (draining) {
      if (p.use_stage2) {
        if (sram.pop(1) == 1) ++r.delivered_words;
      } else {
        if (fifo.pop(1) == 1) ++r.delivered_words;
      }
    }
    fifo.tick();
    sram.tick();
  }
  r.fifo_watermark = fifo.high_watermark();
  r.sram_watermark = sram.high_watermark();
  const double seconds =
      static_cast<double>(p.cycles) / (kClockMhz * 1e6);
  const double bytes_per_word = kDataBits / 8.0;
  r.offered_mbps =
      static_cast<double>(r.offered_words) * bytes_per_word / seconds / 1e6;
  r.sustained_mbps =
      static_cast<double>(r.delivered_words) * bytes_per_word / seconds / 1e6;
  return r;
}

AibBoard::AibBoard(std::string name)
    : name_(std::move(name)), local_clock_(name_ + "/clk_local") {
  for (int i = 0; i < kFpgaCount; ++i) {
    fpgas_.push_back(std::make_unique<hw::FpgaDevice>(
        name_ + "/fpga" + std::to_string(i), hw::virtex_xcv600()));
  }
}

void AibBoard::bind_timeline(sim::Timeline& timeline,
                             sim::ResourceId segment) {
  pci_.bind(&timeline, segment);
}

hw::FpgaDevice& AibBoard::fpga(int index) {
  ATLANTIS_CHECK(index >= 0 && index < kFpgaCount, "FPGA index out of range");
  return *fpgas_[static_cast<std::size_t>(index)];
}

}  // namespace atlantis::core

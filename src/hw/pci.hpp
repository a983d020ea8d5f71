// CompactPCI bus and PLX 9080 bridge timing model.
//
// Both ACB and AIB use a PLX 9080 as PCI interface, register-compatible
// with the microEnable coprocessor ("virtually all basic software ... is
// immediately available"). The host interface allows "125 MB/s max. data
// rate" (§2.1) over 32-bit/33 MHz CompactPCI.
//
// The model is transaction-level: a transfer costs a fixed setup latency
// (driver call + DMA programming), a per-page scatter/gather descriptor
// fetch, and the burst time at the direction-dependent sustained rate.
// This is the mechanism that produces Table 1's block-size dependence.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "sim/fault.hpp"
#include "sim/timeline.hpp"
#include "util/status.hpp"
#include "util/units.hpp"

namespace atlantis::hw {

/// Direction of a DMA transfer as seen from the host.
enum class DmaDirection {
  kRead,   // board -> host memory
  kWrite,  // host memory -> board
};

/// Bus + bridge parameters. Defaults model 32-bit/33 MHz CompactPCI
/// through a PLX 9080 with the microEnable WinNT driver stack.
struct PciParams {
  double bus_clock_mhz = 33.0;
  int bus_bytes = 4;  // 32-bit PCI

  /// Sustained fraction of the 132 MB/s theoretical peak. Posted writes
  /// stream at near full rate; reads pay turnaround/latency on every
  /// burst, which is why Table 1's read column trails its write column.
  double write_efficiency = 0.93;
  double read_efficiency = 0.80;

  /// Fixed per-transfer cost: user/kernel transition, DMA programming,
  /// completion interrupt.
  util::Picoseconds setup_latency = 40 * util::kMicrosecond;

  /// Scatter/gather descriptor fetch per page of host memory.
  util::Picoseconds descriptor_latency = 700 * util::kNanosecond;
  std::uint64_t page_bytes = 4096;

  double peak_mbps() const { return bus_clock_mhz * bus_bytes; }
};

/// Result of one modelled transfer.
struct DmaTransfer {
  std::uint64_t bytes = 0;
  util::Picoseconds duration = 0;
  double mbps() const { return util::mb_per_s(bytes, duration); }
};

/// The PLX 9080 bridge: computes transfer timing and posts transfers on
/// the crate timeline. It keeps no traffic counters: the segment's
/// ResourceStats hold every byte and picosecond it posted.
class Plx9080 {
 public:
  explicit Plx9080(PciParams params = {}) : params_(params) {}

  const PciParams& params() const { return params_; }

  /// Models one block DMA in the given direction.
  DmaTransfer transfer(DmaDirection dir, std::uint64_t bytes) const;

  /// Single-word target-mode access (register read/write): one bus
  /// transaction, no DMA setup. Dominated by PCI latency.
  util::Picoseconds target_access() const {
    // Address + turnaround + data phases, ~10 bus clocks through a bridge.
    return 10 * util::period_from_mhz(params_.bus_clock_mhz);
  }

  // --- fault injection --------------------------------------------------
  /// Attaches a fault injector. `site` names this bridge's injection
  /// point ("pci/<board>"); the chip has no name of its own.
  void set_fault_injector(sim::FaultInjector* injector, std::string site) {
    injector_ = injector;
    fault_site_ = std::move(site);
  }
  sim::FaultInjector* fault_injector() const { return injector_; }

  /// One DMA fault opportunity: draws stall and abort (both streams
  /// advance every transfer; a stall takes precedence when both fire).
  /// Returns the fault kind that fired, nullopt on a clean transfer or
  /// when no injector is attached. The caller counts the faults it saw
  /// (AtlantisDriver::dma_faults).
  std::optional<sim::FaultKind> draw_dma_fault();

  // --- timeline binding ------------------------------------------------
  /// Binds the bridge to the crate timeline. `segment` is the shared
  /// CompactPCI bus resource every board in the crate contends for.
  void bind(sim::Timeline* timeline, sim::ResourceId segment) {
    timeline_ = timeline;
    segment_ = segment;
  }
  bool bound() const { return timeline_ != nullptr; }
  sim::Timeline* timeline() const { return timeline_; }
  sim::ResourceId segment() const { return segment_; }

  /// Posts one block DMA onto the bound timeline no earlier than
  /// `not_before`; arbitration against other boards on the shared
  /// segment happens there. The posted service time is transfer()'s
  /// duration unless `service_override` >= 0 (used when bus burst and
  /// design-side drain overlap and the modelled occupancy is their max).
  const sim::Transaction& post_transfer(
      sim::TrackId track, DmaDirection dir, std::uint64_t bytes,
      util::Picoseconds not_before, std::string_view label = {},
      util::Picoseconds service_override = -1);

  /// Posts one target-mode access (register read/write) onto the bus.
  const sim::Transaction& post_target_access(sim::TrackId track,
                                             util::Picoseconds not_before,
                                             std::string_view label = {});

 private:
  PciParams params_;
  sim::Timeline* timeline_ = nullptr;
  sim::ResourceId segment_;
  sim::FaultInjector* injector_ = nullptr;
  std::string fault_site_;
};

}  // namespace atlantis::hw

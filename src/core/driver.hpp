// AtlantisDriver: the microEnable-compatible software interface.
//
// §2 and §2.4: the PLX 9080 and the CPLD support logic are taken from the
// microEnable coprocessor, so "virtually all basic software (WinNT
// driver, test tools, etc.) are immediately available for ATLANTIS".
// This class is that driver surface: configure, register access, block
// DMA. Applications written against it run identically whether the
// target FPGA carries a cycle-simulated CHDL design (the CHDL workflow)
// or only a timing model.
//
// Timing: every call posts a typed transaction onto the crate's
// sim::Timeline and advances this driver's cursor to the transaction's
// end. now() — the ledger — is that cursor: with a single driver and
// no concurrency it is bit-identical to the old sum-of-durations ledger,
// because nothing queues; with several boards sharing the CompactPCI
// segment it additionally contains the queuing delay the bus arbiter
// imposed. A phase's time is the difference of two now() readings.
// Overlap is expressed with dma_*_async() + wait(): asynchronous
// transfers occupy the bus without advancing the cursor, so design-clock
// compute posted meanwhile runs concurrently and wait() joins at the
// maximum, not the sum.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "chdl/hostif.hpp"
#include "core/system.hpp"
#include "hw/fpga.hpp"
#include "hw/pci.hpp"
#include "sim/fault.hpp"
#include "sim/timeline.hpp"
#include "util/status.hpp"
#include "util/units.hpp"

namespace atlantis::core {

class TaskSwitcher;

class AtlantisDriver {
 public:
  /// Opens the ACB with the given index, like the driver's open() call.
  AtlantisDriver(AtlantisSystem& system, int acb_index);

  AcbBoard& board() { return board_; }
  AtlantisSystem& system() { return system_; }

  // --- time ledger -----------------------------------------------------
  /// This driver's cursor on the crate timeline: the hardware time its
  /// transactions have taken since construction, queuing included.
  util::Picoseconds now() const { return now_; }
  /// Adds externally-computed hardware time (e.g. N design clocks),
  /// posted as a design-clock compute transaction. `label` names the
  /// transaction in traces (the serve layer labels jobs); the timeline
  /// copies it.
  void advance(util::Picoseconds t, std::string_view label = "compute");
  /// Adds `cycles` of the board's design clock.
  void advance_cycles(std::uint64_t cycles);

  /// The crate timeline and this driver's track on it.
  sim::Timeline& timeline() { return *board_.timeline(); }
  sim::TrackId track() const { return track_; }

  // --- configuration ---------------------------------------------------
  /// Full configuration of one FPGA.
  void configure(int fpga, const hw::Bitstream& bs);
  /// Partial reconfiguration (hardware task switch on the ORCA parts).
  void partial_reconfigure(int fpga, const hw::Bitstream& bs);

  /// Hardware task switch through a TaskSwitcher: runs the switch (with
  /// its configuration cache and CRC-retry semantics), posts the
  /// kReconfig transaction at THIS driver's cursor and advances past it
  /// — so a serving layer keeps one cursor per board instead of two.
  /// The switcher must wrap one of this board's devices.
  util::Result<util::Picoseconds> try_switch_task(TaskSwitcher& switcher,
                                                  const std::string& name);

  /// Self-reconfiguration service poll (driver-mediated, deterministic):
  /// if the FPGA's resident design asserts its `reconfig_req` output,
  /// the driver re-shifts the requested frame (`reconfig_region` output,
  /// region 0 when the port is absent) from the staged configuration
  /// data via FpgaDevice::self_reconfigure_region — live design state
  /// survives — posts the kReconfig transaction at this driver's cursor
  /// and acknowledges with a one-cycle pulse on the design's
  /// `reconfig_ack` input (when present) so the design can deassert the
  /// request. Returns 0 when there is no simulator, no request port or
  /// no pending request; fails with kConfigCrc when the frame reload
  /// exhausts the retry budget (the device is then unconfigured and the
  /// next task switch takes the full-configure path).
  util::Result<util::Picoseconds> poll_self_reconfig(int fpga);

  /// Programs the board's design clock (the "design speed 40 MHz" knob
  /// from the Table 1 measurements).
  void set_design_clock(double mhz);
  double design_clock_mhz() const { return board_.local_clock().mhz(); }

  // --- register access -------------------------------------------------
  /// Single-word target-mode access. If the FPGA carries a simulated
  /// design with a host port, the access is also applied to it.
  void reg_write(int fpga, std::uint32_t addr, std::uint64_t data);
  std::uint64_t reg_read(int fpga, std::uint32_t addr);

  // --- DMA -------------------------------------------------------------
  /// Block DMA host->board / board->host; posts the transfer on the
  /// shared CompactPCI segment, advances the cursor past it (queuing
  /// included) and returns the modelled transfer (service time only, so
  /// mbps() stays the device rate). Throws util::Error when the transfer
  /// cannot be completed within the retry policy.
  hw::DmaTransfer dma_write(std::uint64_t bytes);
  hw::DmaTransfer dma_read(std::uint64_t bytes);

  /// Recoverable DMA: same semantics, but injected faults surface as a
  /// Result instead of an exception. A faulted attempt occupies the bus
  /// (a stall until the watchdog, an abort for the setup time), then the
  /// driver backs off exponentially and retries, up to the policy's
  /// attempt and time budgets. Every faulted attempt and every backoff
  /// is posted on the timeline.
  util::Result<hw::DmaTransfer> try_dma_write(std::uint64_t bytes);
  util::Result<hw::DmaTransfer> try_dma_read(std::uint64_t bytes);

  /// Retry/backoff policy shared by DMA and configuration retries.
  void set_retry_policy(const sim::RetryPolicy& policy) { policy_ = policy; }
  const sim::RetryPolicy& retry_policy() const { return policy_; }

  /// Recovery statistics since construction.
  std::uint64_t dma_faults() const { return dma_faults_; }
  std::uint64_t dma_retries() const { return dma_retries_; }
  std::uint64_t config_retries() const { return config_retries_; }
  util::Picoseconds recovery_time() const { return recovery_time_; }

  /// Asynchronous host->board DMA: occupies the bus from the current
  /// cursor but does NOT advance it, so compute posted afterwards
  /// overlaps the transfer. Returns the scheduled transaction id; wait()
  /// joins all outstanding asynchronous transfers (cursor = max of their
  /// ends).
  std::uint64_t dma_write_async(std::uint64_t bytes);
  /// Joins every outstanding asynchronous DMA; returns now().
  util::Picoseconds wait();
  int pending_dma() const { return static_cast<int>(pending_.size()); }

  /// DMA that also delivers payload words into the simulated design,
  /// one word per design clock through the host port at `addr`
  /// (the FIFO-push pattern of the microEnable driver).
  hw::DmaTransfer dma_write_to_sim(int fpga, std::uint32_t addr,
                                   std::span<const std::uint64_t> words);

  /// Direct access to the simulated design (tests and loaders).
  chdl::HostInterface* host_if(int fpga);
  chdl::Simulator* sim(int fpga) { return board_.fpga(fpga).sim(); }

  /// Snapshottable leaf, written into the caller's open section: the
  /// timeline cursor, outstanding async-DMA ends and the recovery
  /// counters. The board's devices are saved by the board; the retry
  /// policy is construction configuration.
  void save_state(sim::SnapshotWriter& w) const;
  void load_state(sim::SnapshotReader& r);

 private:
  /// Posts design-clock compute on the board's compute resource and
  /// moves the cursor past it.
  void post_compute(util::Picoseconds t, std::string_view label);
  util::Result<hw::DmaTransfer> try_dma(hw::DmaDirection dir,
                                        std::uint64_t bytes);
  template <typename Self, typename Stream>
  static void walk(Self& self, Stream& s);

  AtlantisSystem& system_;
  AcbBoard& board_;
  sim::TrackId track_;
  util::Picoseconds now_ = 0;
  std::vector<util::Picoseconds> pending_;  // ends of async transfers
  std::vector<std::unique_ptr<chdl::HostInterface>> host_ifs_;
  sim::RetryPolicy policy_;
  std::uint64_t dma_faults_ = 0;
  std::uint64_t dma_retries_ = 0;
  std::uint64_t config_retries_ = 0;
  util::Picoseconds recovery_time_ = 0;
  std::string switch_label_;  // reused by try_switch_task
};

}  // namespace atlantis::core

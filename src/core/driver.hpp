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
// Overlap is expressed with dma(dir, bytes, /*overlap=*/true) + wait():
// an overlapped transfer occupies the bus without advancing the cursor,
// so design-clock compute posted meanwhile runs concurrently and wait()
// joins at the maximum, not the sum.
//
// Every recoverable operation (configure, task switch, DMA) is one verb
// returning util::Result; callers that want an exception write
// `.value_or_throw()`. Misuse (a missing host port, an unknown task)
// throws.
#pragma once

#include <cstdint>
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
  /// Full configuration of one FPGA. Each attempt is a kReconfig
  /// transaction at this driver's cursor; a CRC failure retries, up to
  /// the retry policy's attempt budget, and then fails with kConfigCrc
  /// (the device is left unconfigured). Returns the time of every
  /// attempt.
  util::Result<util::Picoseconds> configure(int fpga, const hw::Bitstream& bs);

  /// Hardware task switch through a TaskSwitcher: runs the switch (with
  /// its configuration cache and CRC-retry semantics), posts the
  /// kReconfig transaction at THIS driver's cursor and advances past it
  /// — so a serving layer keeps one cursor per board instead of two.
  /// The switcher must wrap one of this board's devices.
  util::Result<util::Picoseconds> switch_task(TaskSwitcher& switcher,
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
  /// Block DMA host->board (kWrite) or board->host (kRead): posts the
  /// transfer on the shared CompactPCI segment and returns the modelled
  /// transfer (service time only, so mbps() stays the device rate).
  ///
  /// Blocking (the default): the cursor advances past the transfer,
  /// queuing included. A faulted attempt occupies the bus (a stall until
  /// the watchdog, an abort for the setup time), then the driver backs
  /// off exponentially and retries, up to the policy's attempt and time
  /// budgets; every faulted attempt and every backoff is posted on the
  /// timeline. Failure: kRetriesExhausted or kTimeout.
  ///
  /// Overlapped: the transfer occupies the bus from the cursor but does
  /// NOT advance it, so compute posted afterwards overlaps it; wait()
  /// joins. This branch draws no fault yet.
  util::Result<hw::DmaTransfer> dma(hw::DmaDirection dir, std::uint64_t bytes,
                                    bool overlap = false);
  /// Joins every outstanding overlapped DMA (cursor = max of their
  /// ends); returns now().
  util::Picoseconds wait();
  int pending_dma() const { return static_cast<int>(pending_.size()); }

  /// Retry/backoff policy shared by DMA and configuration retries.
  void set_retry_policy(const sim::RetryPolicy& policy) { policy_ = policy; }
  const sim::RetryPolicy& retry_policy() const { return policy_; }

  /// Recovery statistics since construction.
  std::uint64_t dma_faults() const { return dma_faults_; }
  std::uint64_t dma_retries() const { return dma_retries_; }
  std::uint64_t config_retries() const { return config_retries_; }
  util::Picoseconds recovery_time() const { return recovery_time_; }

  /// DMA that also delivers payload words into the simulated design,
  /// one word per design clock through the host port at `addr`
  /// (the FIFO-push pattern of the microEnable driver).
  hw::DmaTransfer dma_write_to_sim(int fpga, std::uint32_t addr,
                                   std::span<const std::uint64_t> words);

  /// Direct access to the simulated design (tests and loaders).
  chdl::HostInterface* host_if(int fpga) {
    return board_.fpga(fpga).host_if();
  }
  chdl::Simulator* sim(int fpga) { return board_.fpga(fpga).sim(); }

  /// Snapshottable leaf, written into the caller's open section: the
  /// timeline cursor, outstanding overlapped-DMA ends and the recovery
  /// counters. The board's devices are saved by the board; the retry
  /// policy is construction configuration.
  void save_state(sim::SnapshotWriter& w) const;
  void load_state(sim::SnapshotReader& r);

 private:
  /// Posts design-clock compute on the board's compute resource and
  /// moves the cursor past it.
  void post_compute(util::Picoseconds t, std::string_view label);
  template <typename Self, typename Stream>
  static void walk(Self& self, Stream& s);

  AtlantisSystem& system_;
  AcbBoard& board_;
  sim::TrackId track_;
  util::Picoseconds now_ = 0;
  std::vector<util::Picoseconds> pending_;  // ends of overlapped transfers
  sim::RetryPolicy policy_;
  std::uint64_t dma_faults_ = 0;
  std::uint64_t dma_retries_ = 0;
  std::uint64_t config_retries_ = 0;
  util::Picoseconds recovery_time_ = 0;
  std::string switch_label_;  // reused by switch_task
};

}  // namespace atlantis::core

// ATLANTIS Computing Board (ACB).
//
// §2.1: a 2x2 matrix of ORCA 3T125 FPGAs (~744k gates total). Each FPGA
// has four ports totalling 422 I/O signals:
//   * 2 x 72 lines to the vertical and horizontal neighbour,
//   * 1 x 72-line logical I/O port (role depends on position: one FPGA
//     talks to the PLX 9080, two drive the backplane, one the external
//     LVDS connectors),
//   * 1 x 206-line memory interconnect (two 124-pin mezzanine connectors).
// The board carries a local programmable clock and per-FPGA I/O clocks.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/memmodule.hpp"
#include "hw/clock.hpp"
#include "hw/fpga.hpp"
#include "hw/pci.hpp"
#include "hw/slink.hpp"
#include "sim/fault.hpp"
#include "sim/timeline.hpp"
#include "util/units.hpp"

namespace atlantis::core {

/// Fault/recovery counters gathered from every component on the board:
/// the health page of the self-test report, and what a supervisor diffs
/// every probe window. Cumulative; all zero on a fault-free run. DMA
/// faults are the driver's count (AtlantisDriver::dma_faults), not a
/// board counter.
struct SelfTestHealth {
  std::uint64_t slink_errors = 0;
  std::uint64_t truncated_frames = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t seu_flips = 0;        // memory-module data upsets
  std::uint64_t config_upsets = 0;    // FPGA configuration upsets
  std::uint64_t crc_failures = 0;     // configuration CRC failures
  std::uint64_t total() const {
    return slink_errors + truncated_frames + retransmissions + seu_flips +
           config_upsets + crc_failures;
  }
};

/// Role of an FPGA's logical I/O port, fixed by board position.
enum class AcbIoRole {
  kHostPci,    // connected to the PLX 9080
  kBackplaneA, // first private-bus port (64 bit @ 66 MHz)
  kBackplaneB, // second private-bus port
  kExternalLvds,
};

/// Port width constants from the paper.
struct AcbPortSpec {
  static constexpr int kNeighborLines = 72;   // per direction
  static constexpr int kIoLines = 72;
  static constexpr int kMemoryLines = 206;
  static constexpr int kTotalIoSignals = 422; // 2*72 + 72 + 206
  static constexpr int kMezzanineSlots = 4;   // per board
  static constexpr int kBackplaneBits = 64;   // per backplane port
  static constexpr double kBackplaneMhz = 66.0;
};

/// One value carried over a neighbour link after a clock edge (the
/// traffic trace lets tests prove stepping is cycle-exact).
struct AcbLinkTransfer {
  std::uint64_t cycle = 0;
  std::int32_t from = 0;  // source FPGA index
  std::int32_t to = 0;    // destination FPGA index
  chdl::BitVec value;
};

/// Result of stepping the 2x2 matrix.
struct AcbMatrixReport {
  std::uint64_t cycles = 0;        // edges applied per simulator
  int sims = 0;                    // FPGAs that carried a design
  int links = 0;                   // neighbour links wired up
  std::vector<AcbLinkTransfer> trace;  // filled when record_trace is set
};

class AcbBoard {
 public:
  explicit AcbBoard(std::string name);

  const std::string& name() const { return name_; }

  /// The 2x2 FPGA matrix, row-major: index = row*2 + col.
  hw::FpgaDevice& fpga(int index);
  const hw::FpgaDevice& fpga(int index) const;
  static constexpr int kFpgaCount = 4;

  AcbIoRole io_role(int fpga_index) const;

  /// Sum of the family gate capacities (the paper's 744k figure).
  std::int64_t total_gate_capacity() const;

  /// Attaches a memory module to the given FPGA's memory port. Triple-
  /// width modules occupy three of the board's four mezzanine positions.
  void attach_memory(int fpga_index, MemModule module);
  /// Modules currently attached (board-wide).
  const std::vector<MemModule>& memory() const { return modules_; }
  /// Module on one FPGA's port, if any.
  MemModule* memory_at(int fpga_index);
  int free_mezzanine_slots() const { return free_slots_; }

  /// Combined RAM width of all attached modules — the quantity the TRT
  /// scaling argument is about ("RAM access with a width of 4*176 bits").
  int total_memory_width_bits() const;

  /// Configures all four FPGAs with the same bitstream; returns the total
  /// (sequential) configuration time through the CPLD support logic. A
  /// dead board fails with kBoardDead, a configuration-CRC failure on any
  /// chip with kConfigCrc naming the chip (the chips after it are left
  /// as they were).
  util::Result<util::Picoseconds> configure_all(const hw::Bitstream& bs);

  /// Steps every configured FPGA's cycle simulator `cycles` edges in
  /// lockstep, exchanging neighbour-link port values between edges.
  ///
  /// Link convention (2x2 matrix, row-major index = row*2 + col): a
  /// design drives its horizontal neighbour (row, 1-col) by declaring an
  /// output "h_out" which is poked into the neighbour's input "h_in";
  /// likewise "v_out"/"v_in" for the vertical neighbour (1-row, col).
  /// Ports are <= 72 bits (the paper's neighbour-port width) and both
  /// ends must agree on the width. Because the links are registered at
  /// board level (designs latch h_in/v_in into flip-flops), a per-edge
  /// exchange preserves cycle accuracy: every simulator steps one edge,
  /// then link values are exchanged before the next edge.
  ///
  /// `record_trace` captures every link transfer for cross-checking.
  AcbMatrixReport step_matrix(int cycles, bool record_trace = false);

  hw::Plx9080& pci() { return pci_; }
  hw::ClockGenerator& local_clock() { return local_clock_; }
  hw::ClockGenerator& io_clock(int fpga_index);

  /// The S-Link carried by the external-LVDS FPGA (detector feed for a
  /// downscaled or test system).
  hw::SlinkChannel& slink() { return slink_; }

  /// Binds the board into a crate timeline: the PLX joins the shared
  /// CompactPCI `segment`, the design clock gets a compute resource and
  /// the LVDS S-Link its own stream resource. Called by AtlantisSystem;
  /// standalone boards (unit benches) stay unbound and keep the pure
  /// calculator behaviour.
  void bind_timeline(sim::Timeline& timeline, sim::ResourceId segment);
  sim::Timeline* timeline() const { return timeline_; }
  sim::ResourceId compute_resource() const { return compute_resource_; }

  /// Peak backplane bandwidth of this board (2 ports x 64 bit x 66 MHz).
  double backplane_mbps() const {
    return 2.0 * AcbPortSpec::kBackplaneBits / 8.0 * AcbPortSpec::kBackplaneMhz;
  }

  // --- fault injection --------------------------------------------------
  /// Wires a fault injector through every component on the board that
  /// draws faults (PLX, S-Link, FPGAs, SRAM mezzanines); SRAM modules
  /// attached later are wired on attach. nullptr detaches everything.
  void set_fault_injector(sim::FaultInjector* injector);
  sim::FaultInjector* fault_injector() const { return injector_; }

  /// Whole-board health. A drop-out (power/clock/configuration loss)
  /// clears alive(); multi-board applications mask dead boards and
  /// redistribute their share of the work.
  bool alive() const { return alive_; }
  void set_alive(bool alive) { alive_ = alive; }

  /// One board-drop-out opportunity at site "board/<name>". Returns true
  /// when a drop-out fired now (the board also goes !alive()).
  bool draw_dropout();

  /// Samples the board's cumulative component fault counters (S-Link,
  /// FPGAs, SRAM mezzanines). Cheap enough for a supervisor to call
  /// every probe window.
  SelfTestHealth probe_health() const;

  /// Snapshottable leaf, written into the caller's open section (the
  /// system opens one "board/<name>" section per ACB): health, clock
  /// programming, the S-Link device, all four FPGAs (with resident
  /// simulator state inline) and every attached memory module. load_state
  /// requires an identically assembled board (same modules attached to
  /// the same ports, same designs configured).
  void save_state(sim::SnapshotWriter& w) const;
  void load_state(sim::SnapshotReader& r);

 private:
  template <typename Self, typename Stream>
  static void walk(Self& self, Stream& s);

  std::string name_;
  std::vector<std::unique_ptr<hw::FpgaDevice>> fpgas_;
  std::vector<std::optional<int>> module_of_fpga_;  // index into modules_
  std::vector<MemModule> modules_;
  int free_slots_ = AcbPortSpec::kMezzanineSlots;
  hw::Plx9080 pci_;
  hw::SlinkChannel slink_;
  hw::ClockGenerator local_clock_;
  std::vector<hw::ClockGenerator> io_clocks_;
  sim::Timeline* timeline_ = nullptr;
  sim::ResourceId compute_resource_;
  sim::FaultInjector* injector_ = nullptr;
  bool alive_ = true;
};

}  // namespace atlantis::core

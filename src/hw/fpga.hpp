// FPGA device model: capacity checking, configuration, partial
// reconfiguration and readback timing.
//
// The ATLANTIS chips: Lucent ORCA 3T125 on the ACB (chosen for
// read-back/test support, asynchronous DP-RAM and *partial
// reconfiguration*, which enables hardware task switches), and Xilinx
// Virtex XCV600 on the AIB. A configured device can carry a CHDL design,
// in which case it owns a cycle simulator for it.
//
// Region model (differential partial reconfiguration): a family with
// partial-reconfig support exposes its configuration store as
// `config_regions` independently addressable frames. A Bitstream may
// carry one content signature per region; the device remembers the
// signatures of the resident configuration, and reconfigure_diff()
// loads only the regions whose signatures differ — the hardware task
// switch the paper's ORCA parts were chosen for, generalized from the
// scalar `fraction` model. Each region load is its own configuration-CRC
// fault opportunity, so a CRC failure retries one frame, not the whole
// bitstream, and a configuration-SRAM upset is pinned to a region that
// a region scrub can repair without touching live design state.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "chdl/sim.hpp"
#include "chdl/stats.hpp"
#include "sim/fault.hpp"
#include "util/units.hpp"

namespace atlantis::hw {

/// Static description of an FPGA family member.
struct FpgaFamily {
  std::string name;
  std::int64_t gate_capacity = 0;   // usable system gates
  std::int64_t io_pins = 0;         // user I/O
  std::int64_t config_bits = 0;     // full bitstream size
  double config_clock_mhz = 0.0;    // serial/parallel config clock
  int config_bus_bits = 8;          // bits loaded per config clock
  bool partial_reconfig = false;
  bool readback = false;
  /// Independently addressable configuration regions (frames). 1 means
  /// the bitstream is monolithic (no region-level reconfiguration).
  int config_regions = 1;
};

/// Lucent ORCA 3T125: ~186k average gates (the paper's 4-chip matrix sums
/// to 744k), 422 used I/O signals, partial reconfiguration and readback.
const FpgaFamily& orca_3t125();

/// Xilinx Virtex XCV600 (AIB): larger gate count, no partial reconfig in
/// the generation ATLANTIS used.
const FpgaFamily& virtex_xcv600();

/// Deterministic per-region content signatures for a bitstream: region
/// r's signature is an FNV-1a hash of (tag, r). Compose families that
/// share regions by starting from a common tag and stamping the
/// variant-specific range (stamp_regions).
std::vector<std::uint64_t> make_region_signatures(const std::string& tag,
                                                  int regions);

/// Overwrites regions [lo, hi) with signatures derived from `tag` —
/// models a variant that differs from its base only in those frames
/// (coefficient pages, pattern banks, ...).
void stamp_regions(std::vector<std::uint64_t>& sigs, const std::string& tag,
                   int lo, int hi);

/// Number of regions whose signatures differ; -1 when the two vectors
/// are incomparable (either empty, or different region counts) and a
/// differential load is impossible.
int region_diff_count(const std::vector<std::uint64_t>& a,
                      const std::vector<std::uint64_t>& b);

/// A loadable configuration: resource footprint plus (optionally) the
/// CHDL design itself for bit-accurate simulation.
struct Bitstream {
  std::string name;
  chdl::NetlistStats stats;
  const chdl::Design* design = nullptr;  // optional; enables CycleSim
  double fraction = 1.0;  // fraction of the device the bitstream covers
  /// Per-region content signatures (size = family config_regions).
  /// Empty: no region model; (partial) reconfiguration falls back to
  /// the scalar `fraction` path.
  std::vector<std::uint64_t> region_sigs;

  bool has_regions() const { return !region_sigs.empty(); }

  /// Convenience: analyze a design and wrap it.
  static Bitstream from_design(const chdl::Design& design);
};

/// What one differential (re)configuration did.
struct ReconfigOutcome {
  util::Picoseconds time = 0;  // frames shifted, including retried ones
  int regions_total = 0;       // regions in the target bitstream
  int regions_loaded = 0;      // distinct regions actually loaded
  int region_retries = 0;      // per-region CRC retries that succeeded
  bool differential = false;   // diffed against a comparable resident config
  bool ok = true;              // false: CRC retries exhausted, device cleared
};

class FpgaDevice {
 public:
  FpgaDevice(std::string instance_name, const FpgaFamily& family)
      : name_(std::move(instance_name)), family_(&family) {}

  /// The SimOptions of every simulator configure()/partial_reconfigure()/
  /// activate() builds: the production threaded engine with the netlist
  /// optimizer on (chdl/sim.hpp). Harnesses that build simulators beside
  /// a device use it to run the same engine the device runs; a live
  /// simulator can still switch with sim()->set_eval_mode.
  static const chdl::SimOptions& default_sim_options();

  const std::string& name() const { return name_; }
  const FpgaFamily& family() const { return *family_; }
  bool configured() const { return configured_; }
  const std::string& design_name() const { return design_name_; }

  /// Full configuration. Throws CapacityError if the netlist exceeds the
  /// gate or pin budget. Returns the configuration time.
  util::Picoseconds configure(const Bitstream& bs);

  /// Partial reconfiguration (hardware task switch), scalar model: the
  /// load shifts `fraction` of the full bitstream with a single CRC
  /// opportunity. Only legal on families with partial_reconfig; the
  /// device must already be configured. Region-aware callers use
  /// reconfigure_diff instead — the two paths are kept separate so a
  /// scheduler can A/B them on identical workloads.
  util::Picoseconds partial_reconfigure(const Bitstream& bs);

  /// Differential partial reconfiguration: loads only the regions whose
  /// signatures differ from the resident configuration (plus the upset
  /// region when a configuration upset is pending, which this repairs).
  /// Each region load is a configuration-CRC opportunity retried up to
  /// `max_region_attempts` times; exhausting the budget on any region
  /// drops the device to the unconfigured state (outcome.ok = false).
  /// Loading a bitstream with the resident design's name preserves the
  /// live simulator — configuration frames move, design state does not
  /// (this is what makes a region scrub repair non-destructive).
  ReconfigOutcome reconfigure_diff(const Bitstream& bs,
                                   int max_region_attempts = 1);

  /// Self-reconfiguration: the resident design reloads one of its own
  /// regions from the staged configuration data (driver-mediated; see
  /// AtlantisDriver::poll_self_reconfig). Preserves the simulator and
  /// repairs a pending upset pinned to that region.
  ReconfigOutcome self_reconfigure_region(int region,
                                          int max_region_attempts = 1);

  /// Activates a configuration context whose data is already staged in
  /// the local configuration store (a bitstream-cache hit): only
  /// `fraction_of_full` of the full configuration data moves — the
  /// context-switch registers, not the whole bitstream — and because no
  /// data is reloaded through the serial port there is no CRC check and
  /// no CRC fault opportunity. The device must not carry a pending
  /// configuration upset (the staged copy cannot repair live state).
  util::Picoseconds activate(const Bitstream& bs, double fraction_of_full);

  /// Configuration readback (test/verify path). Returns the time to read
  /// the full bitstream back out.
  util::Picoseconds readback() const;

  /// Clears the configuration (GSR).
  void deconfigure();

  /// The simulator for the loaded design, if the bitstream carried one.
  chdl::Simulator* sim() { return sim_.get(); }

  /// Time to shift `bits` of configuration data.
  util::Picoseconds config_time(std::int64_t bits) const;

  /// Regions in this device's configuration store and the time to shift
  /// one region's frame data.
  int region_count() const { return family_->config_regions; }
  util::Picoseconds region_time() const;

  /// Signatures of the resident configuration; empty when the resident
  /// bitstream carried none (or the device is unconfigured).
  const std::vector<std::uint64_t>& resident_regions() const {
    return resident_sigs_;
  }

  // --- fault injection --------------------------------------------------
  /// Attaches a fault injector; the injection site is "fpga/<name>".
  /// configure()/partial_reconfigure() are configuration-CRC
  /// opportunities (one per monolithic load, one per region frame on the
  /// differential path); draw_config_upset() is a configuration-SRAM SEU
  /// opportunity (one per scrub window).
  void set_fault_injector(sim::FaultInjector* injector) {
    injector_ = injector;
    fault_site_ = "fpga/" + name_;
  }
  sim::FaultInjector* fault_injector() const { return injector_; }

  /// True when the last (re)configuration verified. A CRC failure leaves
  /// the device deconfigured; the caller retries with a full configure.
  bool config_crc_ok() const { return crc_ok_; }

  /// One configuration-SRAM SEU opportunity. On a hit the loaded design
  /// is marked upset (readback would show a bitstream mismatch) until a
  /// reconfiguration repairs it. The upset is pinned to a region (the
  /// fault parameter modulo region_count), so a region scrub can repair
  /// it by reloading one frame.
  bool draw_config_upset();
  bool upset_pending() const { return upset_pending_; }
  /// Region carrying the pending upset; -1 when none is pending.
  int upset_region() const { return upset_region_; }

  /// Snapshottable leaf, written into the caller's open section: the
  /// resident configuration (design name, region signatures, CRC/upset
  /// flags), the lifetime reconfiguration counters, and — when the
  /// resident bitstream carried a design — the live simulator's complete
  /// state inline. load_state restores configuration *state*, not
  /// configuration *data*: the caller must have configured the device
  /// with the same bitstream first (load_state throws util::StateError
  /// when the resident design does not match the snapshot), which is
  /// also the migration contract — ship the bitstream, then the state.
  void save_state(sim::SnapshotWriter& w) const;
  void load_state(sim::SnapshotReader& r);

  std::uint64_t crc_failures() const { return crc_failures_; }
  std::uint64_t config_upsets() const { return config_upsets_; }
  /// Differential-path lifetime counters.
  std::uint64_t partial_reconfigs() const { return partial_reconfigs_; }
  std::uint64_t regions_loaded() const { return regions_loaded_; }
  std::uint64_t region_crc_retries() const { return region_crc_retries_; }
  std::uint64_t self_reconfigs() const { return self_reconfigs_; }

 private:
  void check_fit(const chdl::NetlistStats& stats) const;
  bool draw_crc_failure();
  /// Loads `regions` region frames one by one with per-frame CRC retry;
  /// shared tail of reconfigure_diff / self_reconfigure_region.
  ReconfigOutcome load_regions(int regions, int max_region_attempts,
                               bool differential);
  void install(const Bitstream& bs);

  std::string name_;
  const FpgaFamily* family_;
  bool configured_ = false;
  std::string design_name_;
  std::unique_ptr<chdl::Simulator> sim_;
  std::vector<std::uint64_t> resident_sigs_;
  bool crc_ok_ = true;
  bool upset_pending_ = false;
  int upset_region_ = -1;
  std::uint64_t crc_failures_ = 0;
  std::uint64_t config_upsets_ = 0;
  std::uint64_t partial_reconfigs_ = 0;
  std::uint64_t regions_loaded_ = 0;
  std::uint64_t region_crc_retries_ = 0;
  std::uint64_t self_reconfigs_ = 0;
  sim::FaultInjector* injector_ = nullptr;
  std::string fault_site_;
};

}  // namespace atlantis::hw

#include "hw/fpga.hpp"

#include <algorithm>

#include "util/fnv.hpp"
#include "util/status.hpp"

namespace atlantis::hw {

const FpgaFamily& orca_3t125() {
  static const FpgaFamily f{
      .name = "ORCA 3T125",
      .gate_capacity = 186'000,
      .io_pins = 432,
      // 3T125-class parts stream roughly 1.5 Mbit of configuration data
      // over an 8-bit port at 10 MHz.
      .config_bits = 1'500'000,
      .config_clock_mhz = 10.0,
      .config_bus_bits = 8,
      .readback = true,
      // The ORCA configuration store is addressable in column groups; we
      // model 32 frames (~46.9 kbit each), the granularity of the
      // differential loader and the region scrub.
      .config_regions = 32,
  };
  return f;
}

const FpgaFamily& virtex_xcv600() {
  static const FpgaFamily f{
      .name = "Virtex XCV600",
      .gate_capacity = 661'000,
      .io_pins = 512,
      // XCV600 bitstream is ~3.6 Mbit, SelectMAP loads 8 bits at 33 MHz.
      .config_bits = 3'600'000,
      .config_clock_mhz = 33.0,
      .config_bus_bits = 8,
      .readback = true,
      .config_regions = 1,  // monolithic: no partial reconfiguration
  };
  return f;
}

namespace {

/// FNV-1a over the tag's bytes, then the region number's eight bytes.
std::uint64_t region_signature(const std::string& tag, int region) {
  util::Fnv h;
  h.mix(tag);
  const auto r = static_cast<std::uint64_t>(region);
  h.mix(std::string_view(reinterpret_cast<const char*>(&r), sizeof(r)));
  return h.h;
}

}  // namespace

std::vector<std::uint64_t> make_region_signatures(const std::string& tag,
                                                  int regions) {
  ATLANTIS_CHECK(regions > 0, "region count must be positive");
  std::vector<std::uint64_t> sigs(static_cast<std::size_t>(regions));
  for (int r = 0; r < regions; ++r) {
    sigs[static_cast<std::size_t>(r)] = region_signature(tag, r);
  }
  return sigs;
}

void stamp_regions(std::vector<std::uint64_t>& sigs, const std::string& tag,
                   int lo, int hi) {
  ATLANTIS_CHECK(lo >= 0 && hi >= lo &&
                     static_cast<std::size_t>(hi) <= sigs.size(),
                 "stamp_regions range out of bounds");
  for (int r = lo; r < hi; ++r) {
    sigs[static_cast<std::size_t>(r)] = region_signature(tag, r);
  }
}

int region_diff_count(const std::vector<std::uint64_t>& a,
                      const std::vector<std::uint64_t>& b) {
  if (a.empty() || b.empty() || a.size() != b.size()) return -1;
  int n = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) ++n;
  }
  return n;
}

const chdl::SimOptions& FpgaDevice::default_sim_options() {
  static const chdl::SimOptions options;
  return options;
}

Bitstream Bitstream::from_design(const chdl::Design& design) {
  Bitstream bs;
  bs.name = design.name();
  bs.stats = chdl::analyze(design);
  bs.design = &design;
  return bs;
}

void FpgaDevice::check_fit(const chdl::NetlistStats& stats) const {
  if (stats.gate_equivalents > family_->gate_capacity) {
    throw util::CapacityError(
        "design '" + stats.design_name + "' needs " +
        std::to_string(stats.gate_equivalents) + " gates but " +
        family_->name + " provides " +
        std::to_string(family_->gate_capacity));
  }
  if (stats.io_pins > family_->io_pins) {
    throw util::CapacityError(
        "design '" + stats.design_name + "' needs " +
        std::to_string(stats.io_pins) + " I/O pins but " + family_->name +
        " provides " + std::to_string(family_->io_pins));
  }
}

util::Picoseconds FpgaDevice::config_time(std::int64_t bits) const {
  const auto clocks = util::ceil_div(static_cast<std::uint64_t>(bits),
                                     static_cast<std::uint64_t>(
                                         family_->config_bus_bits));
  return static_cast<util::Picoseconds>(clocks) *
         util::period_from_mhz(family_->config_clock_mhz);
}

util::Picoseconds FpgaDevice::region_time() const {
  return config_time(util::ceil_div(
      static_cast<std::uint64_t>(family_->config_bits),
      static_cast<std::uint64_t>(family_->config_regions)));
}

bool FpgaDevice::draw_crc_failure() {
  if (injector_ == nullptr) return false;
  if (!injector_->draw(sim::FaultKind::kConfigCrc, fault_site_)) return false;
  // The loaded bitstream failed its CRC: the device asserts INIT and
  // drops to the unconfigured state; whatever ran before is gone.
  ++crc_failures_;
  crc_ok_ = false;
  deconfigure();
  return true;
}

bool FpgaDevice::draw_config_upset() {
  if (injector_ == nullptr || !configured_) return false;
  const auto hit = injector_->draw(sim::FaultKind::kSeuConfig, fault_site_);
  if (!hit) return false;
  ++config_upsets_;
  upset_pending_ = true;
  // Pin the upset to a frame so a region scrub can repair it without a
  // full reload. The fault parameter picks the frame deterministically.
  upset_region_ = static_cast<int>(hit->param %
                                   static_cast<std::uint64_t>(
                                       family_->config_regions));
  return true;
}

void FpgaDevice::load_sim(const chdl::Design* design) {
  host_.reset();
  sim_.reset();
  if (design != nullptr) {
    sim_ = std::make_unique<chdl::Simulator>(*design, default_sim_options());
  }
}

chdl::HostInterface* FpgaDevice::host_if() {
  if (host_ == nullptr && sim_ != nullptr &&
      sim_->design().has_port("host_rdata")) {
    host_ = std::make_unique<chdl::HostInterface>(*sim_);
  }
  return host_.get();
}

void FpgaDevice::install(const Bitstream& bs) {
  // Same resident design: the frames that moved do not disturb live
  // flip-flop/RAM state, so the simulator (and its state) survives.
  // Anything else rebuilds from the incoming bitstream.
  const bool same_design = configured_ && design_name_ == bs.name &&
                           (bs.design == nullptr || sim_ != nullptr);
  configured_ = true;
  design_name_ = bs.name;
  if (!same_design) load_sim(bs.design);
}

util::Picoseconds FpgaDevice::configure(const Bitstream& bs) {
  check_fit(bs.stats);
  if (draw_crc_failure()) {
    // The configuration time was spent even though the load failed.
    return config_time(family_->config_bits);
  }
  crc_ok_ = true;
  upset_pending_ = false;
  upset_region_ = -1;
  configured_ = true;
  design_name_ = bs.name;
  load_sim(bs.design);
  resident_sigs_ = bs.region_sigs;
  return config_time(family_->config_bits);
}

ReconfigOutcome FpgaDevice::load_regions(int regions,
                                         int max_region_attempts,
                                         bool differential) {
  ATLANTIS_CHECK(max_region_attempts >= 1,
                 "need at least one attempt per region");
  ReconfigOutcome outcome;
  outcome.regions_total = family_->config_regions;
  outcome.differential = differential;
  const util::Picoseconds frame = region_time();
  for (int region = 0; region < regions; ++region) {
    bool loaded = false;
    for (int attempt = 1; attempt <= max_region_attempts; ++attempt) {
      outcome.time += frame;
      // One configuration-CRC opportunity per frame shifted: a failure
      // costs one frame retry, not the whole bitstream.
      const bool crc_fail =
          injector_ != nullptr &&
          injector_->draw(sim::FaultKind::kConfigCrc, fault_site_).has_value();
      if (!crc_fail) {
        loaded = true;
        break;
      }
      ++crc_failures_;
      if (attempt < max_region_attempts) ++outcome.region_retries;
    }
    if (!loaded) {
      // Retry budget exhausted on this frame: the device asserts INIT
      // and drops unconfigured; the caller falls back to a full
      // configure.
      crc_ok_ = false;
      deconfigure();
      outcome.ok = false;
      return outcome;
    }
    ++outcome.regions_loaded;
  }
  crc_ok_ = true;
  return outcome;
}

ReconfigOutcome FpgaDevice::reconfigure_diff(const Bitstream& bs,
                                             int max_region_attempts) {
  ATLANTIS_CHECK(family_->config_regions > 1,
                 family_->name + " has a monolithic configuration store");
  ATLANTIS_CHECK(bs.has_regions(), "bitstream carries no region signatures");
  ATLANTIS_CHECK(static_cast<int>(bs.region_sigs.size()) ==
                     family_->config_regions,
                 "bitstream region count does not match " + family_->name);
  if (!configured_) {
    throw util::StateError("partial reconfiguration of unconfigured device " +
                           name_);
  }
  check_fit(bs.stats);

  const bool comparable =
      region_diff_count(resident_sigs_, bs.region_sigs) >= 0;
  std::vector<int> changed;
  if (comparable) {
    for (std::size_t r = 0; r < bs.region_sigs.size(); ++r) {
      if (resident_sigs_[r] != bs.region_sigs[r]) {
        changed.push_back(static_cast<int>(r));
      }
    }
    // A pending configuration upset lives in one frame; reloading that
    // frame repairs it even when the target content is unchanged.
    if (upset_pending_ && upset_region_ >= 0 &&
        !std::binary_search(changed.begin(), changed.end(), upset_region_)) {
      changed.insert(std::upper_bound(changed.begin(), changed.end(),
                                      upset_region_),
                     upset_region_);
    }
  } else {
    // Resident configuration is opaque: every frame must be assumed
    // stale. Still a region-granular load (per-frame CRC), just not a
    // differential one.
    changed.resize(static_cast<std::size_t>(family_->config_regions));
    for (int r = 0; r < family_->config_regions; ++r) {
      changed[static_cast<std::size_t>(r)] = r;
    }
  }

  ReconfigOutcome outcome =
      load_regions(static_cast<int>(changed.size()), max_region_attempts,
                   comparable);
  if (!outcome.ok) return outcome;
  upset_pending_ = false;
  upset_region_ = -1;
  install(bs);
  resident_sigs_ = bs.region_sigs;
  return outcome;
}

ReconfigOutcome FpgaDevice::self_reconfigure_region(int region,
                                                    int max_region_attempts) {
  ATLANTIS_CHECK(family_->config_regions > 1,
                 family_->name + " has a monolithic configuration store");
  ATLANTIS_CHECK(region >= 0 && region < family_->config_regions,
                 "self-reconfiguration region out of range");
  if (!configured_) {
    throw util::StateError("self-reconfiguration of unconfigured device " +
                           name_);
  }
  // The resident design re-shifts one of its own frames from the staged
  // configuration data. The design (and its live state) stays put.
  ReconfigOutcome outcome = load_regions(1, max_region_attempts, true);
  if (!outcome.ok) return outcome;
  if (upset_pending_ && upset_region_ == region) {
    upset_pending_ = false;
    upset_region_ = -1;
  }
  return outcome;
}

util::Picoseconds FpgaDevice::activate(const Bitstream& bs,
                                       double fraction_of_full) {
  ATLANTIS_CHECK(fraction_of_full > 0.0 && fraction_of_full <= 1.0,
                 "activation fraction out of range");
  if (upset_pending_) {
    throw util::StateError("activation of upset device " + name_ +
                           " — reconfigure to repair first");
  }
  check_fit(bs.stats);
  crc_ok_ = true;
  configured_ = true;
  design_name_ = bs.name;
  load_sim(bs.design);
  resident_sigs_ = bs.region_sigs;
  return config_time(static_cast<std::int64_t>(
      static_cast<double>(family_->config_bits) * fraction_of_full));
}

util::Picoseconds FpgaDevice::readback() const {
  ATLANTIS_CHECK(family_->readback,
                 family_->name + " does not support readback");
  if (!configured_) {
    throw util::StateError("readback of unconfigured device " + name_);
  }
  return config_time(family_->config_bits);
}

void FpgaDevice::deconfigure() {
  configured_ = false;
  design_name_.clear();
  load_sim(nullptr);
  resident_sigs_.clear();
  upset_pending_ = false;
  upset_region_ = -1;
}

void FpgaDevice::save_state(sim::SnapshotWriter& w) const {
  w.put_bool(configured_);
  w.put_string(design_name_);
  w.put_words(resident_sigs_);
  w.put_bool(crc_ok_);
  w.put_bool(upset_pending_);
  w.put_i64(upset_region_);
  w.put_u64(crc_failures_);
  w.put_u64(config_upsets_);
  w.put_bool(sim_ != nullptr);
  if (sim_) sim_->save_state(w);
}

void FpgaDevice::load_state(sim::SnapshotReader& r) {
  const bool configured = r.get_bool();
  std::string design_name = r.get_string();
  std::vector<std::uint64_t> sigs = r.get_words();
  const bool crc_ok = r.get_bool();
  const bool upset_pending = r.get_bool();
  const int upset_region = static_cast<int>(r.get_i64());
  const std::uint64_t crc_failures = r.get_u64();
  const std::uint64_t config_upsets = r.get_u64();
  const bool has_sim = r.get_bool();
  // State restores onto configuration data, it does not carry it: when
  // the snapshot holds live design state (a simulator), the device must
  // already be configured with that design — the migration contract is
  // "ship the bitstream, then the state". A design-less configuration
  // (model-level bitstream, as the serving layer registers) is pure
  // model state and restores onto any device, configured or not.
  if (has_sim && design_name != design_name_) {
    throw util::StateError("fpga '" + name_ + "': snapshot holds design '" +
                           design_name + "' but '" +
                           (design_name_.empty() ? "<none>" : design_name_) +
                           "' is resident; configure it before load_state");
  }
  if (has_sim && !sim_) {
    throw util::StateError("fpga '" + name_ +
                           "': snapshot carries simulator state but no "
                           "simulator is resident");
  }
  configured_ = configured;
  design_name_ = std::move(design_name);
  resident_sigs_ = std::move(sigs);
  crc_ok_ = crc_ok;
  upset_pending_ = upset_pending;
  upset_region_ = upset_region;
  crc_failures_ = crc_failures;
  config_upsets_ = config_upsets;
  if (has_sim) {
    sim_->load_state(r);
  } else {
    load_sim(nullptr);
  }
}

}  // namespace atlantis::hw

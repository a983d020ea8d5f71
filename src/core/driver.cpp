#include "core/driver.hpp"

#include <algorithm>

#include "core/taskswitch.hpp"
#include "sim/fault.hpp"
#include "util/status.hpp"

namespace atlantis::core {

AtlantisDriver::AtlantisDriver(AtlantisSystem& system, int acb_index)
    : system_(system), board_(system.acb(acb_index)) {
  ATLANTIS_CHECK(board_.timeline() != nullptr,
                 "board is not bound to the crate timeline");
  track_ = board_.timeline()->add_track("drv/" + board_.name());
}

void AtlantisDriver::post_compute(util::Picoseconds t,
                                  std::string_view label) {
  const sim::Transaction& txn =
      timeline().post(track_, sim::TxnKind::kCompute, label,
                      board_.compute_resource(), now_, t);
  now_ = txn.end;
}

template <typename Self, typename Stream>
void AtlantisDriver::walk(Self& self, Stream& s) {
  s.i64(self.now_);
  s.seq32(self.pending_, [&](auto& t) { s.i64(t); });
  s.u64(self.dma_faults_);
  s.u64(self.dma_retries_);
  s.u64(self.config_retries_);
  s.i64(self.recovery_time_);
}

void AtlantisDriver::save_state(sim::SnapshotWriter& w) const {
  walk(*this, w);
}

void AtlantisDriver::load_state(sim::SnapshotReader& r) { walk(*this, r); }

util::Result<util::Picoseconds> AtlantisDriver::switch_task(
    TaskSwitcher& switcher, const std::string& name) {
  // A switch makes at most one differential load, so the switcher's
  // region count moves by exactly the frames this switch loaded.
  const std::uint64_t regions_before = switcher.regions_loaded();
  util::Result<util::Picoseconds> r = switcher.switch_to(name);
  if (!r.ok()) return r;
  if (r.value() > 0) {
    switch_label_.assign("switch to ").append(name);
    const sim::Transaction& txn =
        timeline().post(track_, sim::TxnKind::kReconfig, switch_label_,
                        sim::ResourceId{}, now_, r.value(), 0,
                        static_cast<std::uint32_t>(
                            switcher.regions_loaded() - regions_before));
    now_ = txn.end;
  }
  return r;
}

util::Result<util::Picoseconds> AtlantisDriver::poll_self_reconfig(int fpga) {
  hw::FpgaDevice& dev = board_.fpga(fpga);
  chdl::Simulator* sim = dev.sim();
  if (sim == nullptr) return util::Picoseconds{0};
  const chdl::Design& design = sim->design();
  if (!design.has_port("reconfig_req")) return util::Picoseconds{0};
  if (sim->peek_u64("reconfig_req") == 0) return util::Picoseconds{0};
  int region = 0;
  if (design.has_port("reconfig_region")) {
    region = static_cast<int>(sim->peek_u64("reconfig_region") %
                              static_cast<std::uint64_t>(dev.region_count()));
  }
  const hw::ReconfigOutcome oc =
      dev.self_reconfigure_region(region, policy_.max_attempts);
  const sim::Transaction& txn = timeline().post(
      track_, sim::TxnKind::kReconfig,
      oc.ok ? "self-reconfig region " + std::to_string(region)
            : "self-reconfig region " + std::to_string(region) +
                  " (crc fail)",
      sim::ResourceId{}, now_, oc.time,
      static_cast<std::uint64_t>(
          dev.family().config_bits / dev.family().config_regions / 8),
      oc.ok ? 1u : 0u);
  now_ = txn.end;
  config_retries_ += static_cast<std::uint64_t>(oc.region_retries);
  if (!oc.ok) {
    recovery_time_ += oc.time;
    return util::Result<util::Picoseconds>::failure(
        util::ErrorCode::kConfigCrc,
        "self-reconfiguration of " + dev.name() + " region " +
            std::to_string(region) + " failed CRC");
  }
  // Ack pulse: one design clock with reconfig_ack high lets the
  // requesting FSM deassert its request. The simulator (and the design
  // state) survived the frame reload, so this is the same sim.
  if (design.has_port("reconfig_ack")) {
    sim->poke("reconfig_ack", 1);
    sim->step();
    sim->poke("reconfig_ack", 0);
  }
  return util::Result<util::Picoseconds>(oc.time);
}

void AtlantisDriver::advance(util::Picoseconds t, std::string_view label) {
  post_compute(t, label);
}

void AtlantisDriver::advance_cycles(std::uint64_t cycles) {
  post_compute(board_.local_clock().cycles(cycles), "compute");
}

util::Result<util::Picoseconds> AtlantisDriver::configure(
    int fpga, const hw::Bitstream& bs) {
  hw::FpgaDevice& dev = board_.fpga(fpga);
  util::Picoseconds total = 0;
  for (int attempt = 1;; ++attempt) {
    const util::Picoseconds t = dev.configure(bs);
    const bool ok = dev.config_crc_ok();
    const sim::Transaction& txn = timeline().post(
        track_, sim::TxnKind::kReconfig,
        ok ? "configure " + bs.name : "configure " + bs.name + " (crc fail)",
        sim::ResourceId{}, now_, t,
        static_cast<std::uint64_t>(dev.family().config_bits / 8));
    now_ = txn.end;
    total += t;
    if (ok) return total;
    recovery_time_ += t;
    if (attempt >= policy_.max_attempts) {
      return util::Result<util::Picoseconds>::failure(
          util::ErrorCode::kConfigCrc,
          "configuration of " + dev.name() + " failed CRC after " +
              std::to_string(attempt) + " attempts");
    }
    ++config_retries_;
  }
}

void AtlantisDriver::set_design_clock(double mhz) {
  board_.local_clock().set_mhz(mhz);
}

void AtlantisDriver::reg_write(int fpga, std::uint32_t addr,
                               std::uint64_t data) {
  now_ = board_.pci().post_target_access(track_, now_, "reg_write").end;
  if (chdl::HostInterface* hif = host_if(fpga)) {
    hif->write(addr, data);
    post_compute(board_.local_clock().cycles(1), "reg_write drain");
  }
}

std::uint64_t AtlantisDriver::reg_read(int fpga, std::uint32_t addr) {
  now_ = board_.pci().post_target_access(track_, now_, "reg_read").end;
  if (chdl::HostInterface* hif = host_if(fpga)) {
    return hif->read(addr);
  }
  return 0;
}

util::Result<hw::DmaTransfer> AtlantisDriver::dma(hw::DmaDirection dir,
                                                  std::uint64_t bytes,
                                                  bool overlap) {
  hw::Plx9080& pci = board_.pci();
  const bool write = dir == hw::DmaDirection::kWrite;
  if (overlap) {
    // Known gap: an overlapped transfer draws no DMA fault, so it can
    // neither stall nor abort.
    const sim::Transaction& txn = pci.post_transfer(
        track_, dir, bytes, now_, write ? "dma_write async" : "dma_read async");
    pending_.push_back(txn.end);
    return hw::DmaTransfer{bytes, txn.duration()};
  }
  const char* base = write ? "dma_write" : "dma_read";
  const util::Picoseconds deadline = now_ + policy_.timeout_budget;
  for (int attempt = 1;; ++attempt) {
    const auto fault = pci.draw_dma_fault();
    if (!fault) {
      const sim::Transaction& txn = pci.post_transfer(track_, dir, bytes,
                                                      now_);
      now_ = txn.end;
      return hw::DmaTransfer{bytes, txn.duration()};
    }
    // The faulted attempt occupies the bus without moving data: a stall
    // holds it until the watchdog fires, an abort dies during setup.
    const bool stall = *fault == sim::FaultKind::kDmaStall;
    const util::Picoseconds wasted =
        stall ? policy_.stall_watchdog : pci.params().setup_latency;
    const sim::Transaction& bad = timeline().post(
        track_, sim::TxnKind::kPciDma,
        std::string(base) + (stall ? " (stall)" : " (abort)"), pci.segment(),
        now_, wasted, /*bytes=*/0);
    now_ = bad.end;
    ++dma_faults_;
    if (attempt >= policy_.max_attempts) {
      recovery_time_ += wasted;
      return util::Result<hw::DmaTransfer>::failure(
          util::ErrorCode::kRetriesExhausted,
          std::string(base) + " on " + board_.name() + " failed after " +
              std::to_string(attempt) + " attempts");
    }
    const util::Picoseconds wait = policy_.backoff(attempt);
    if (now_ + wait > deadline) {
      recovery_time_ += wasted;
      return util::Result<hw::DmaTransfer>::failure(
          util::ErrorCode::kTimeout,
          std::string(base) + " on " + board_.name() +
              " exceeded its recovery time budget");
    }
    const sim::Transaction& backoff = timeline().post(
        track_, sim::TxnKind::kBackoff, std::string(base) + " backoff",
        sim::ResourceId{}, now_, wait);
    now_ = backoff.end;
    ++dma_retries_;
    recovery_time_ += wasted + wait;
  }
}

util::Picoseconds AtlantisDriver::wait() {
  for (const util::Picoseconds end : pending_) now_ = std::max(now_, end);
  pending_.clear();
  return now_;
}

hw::DmaTransfer AtlantisDriver::dma_write_to_sim(
    int fpga, std::uint32_t addr, std::span<const std::uint64_t> words) {
  chdl::HostInterface* hif = host_if(fpga);
  ATLANTIS_CHECK(hif != nullptr,
                 "dma_write_to_sim needs a simulated design with a host port");
  hif->write_block(addr, words);
  // Time: the DMA burst and the design-side drain overlap; the modelled
  // duration is the larger of bus time and design-clock time.
  const std::uint64_t bytes = words.size() * 4;  // 32-bit local bus words
  const hw::DmaTransfer bus =
      board_.pci().transfer(hw::DmaDirection::kWrite, bytes);
  const util::Picoseconds drain = board_.local_clock().cycles(words.size());
  const util::Picoseconds service = std::max(bus.duration, drain);
  const sim::Transaction& txn = board_.pci().post_transfer(
      track_, hw::DmaDirection::kWrite, bytes, now_, "dma_write to sim",
      service);
  now_ = txn.end;
  return hw::DmaTransfer{bytes, txn.duration()};
}

}  // namespace atlantis::core

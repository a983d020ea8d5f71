#include "hw/pci.hpp"

#include <cmath>

#include "util/bitops.hpp"

namespace atlantis::hw {

DmaTransfer Plx9080::transfer(DmaDirection dir, std::uint64_t bytes) const {
  ATLANTIS_CHECK(bytes > 0, "zero-length DMA");
  const double efficiency = dir == DmaDirection::kWrite
                                ? params_.write_efficiency
                                : params_.read_efficiency;
  const double rate_mbps = params_.peak_mbps() * efficiency;
  const auto burst = static_cast<util::Picoseconds>(
      static_cast<double>(bytes) / (rate_mbps * 1.0e6) *
      static_cast<double>(util::kSecond));
  const std::uint64_t pages = util::ceil_div(bytes, params_.page_bytes);
  DmaTransfer t;
  t.bytes = bytes;
  t.duration = params_.setup_latency +
               static_cast<util::Picoseconds>(pages) *
                   params_.descriptor_latency +
               burst;
  return t;
}

const sim::Transaction& Plx9080::post_transfer(
    sim::TrackId track, DmaDirection dir, std::uint64_t bytes,
    util::Picoseconds not_before, std::string_view label,
    util::Picoseconds service_override) {
  ATLANTIS_CHECK(bound(), "Plx9080 is not bound to a timeline");
  const DmaTransfer t = transfer(dir, bytes);
  const util::Picoseconds service =
      service_override >= 0 ? service_override : t.duration;
  DmaTransfer recorded = t;
  recorded.duration = service;
  record(recorded);
  if (label.empty()) {
    label = dir == DmaDirection::kWrite ? "dma_write" : "dma_read";
  }
  return timeline_->post(track, sim::TxnKind::kPciDma, label, segment_,
                         not_before, service, bytes);
}

std::optional<sim::FaultKind> Plx9080::draw_dma_fault() {
  if (injector_ == nullptr) return std::nullopt;
  const bool stall =
      injector_->draw(sim::FaultKind::kDmaStall, fault_site_).has_value();
  const bool abort =
      injector_->draw(sim::FaultKind::kDmaAbort, fault_site_).has_value();
  if (stall) {
    ++dma_stalls_;
    return sim::FaultKind::kDmaStall;
  }
  if (abort) {
    ++dma_aborts_;
    return sim::FaultKind::kDmaAbort;
  }
  return std::nullopt;
}

const sim::Transaction& Plx9080::post_target_access(
    sim::TrackId track, util::Picoseconds not_before, std::string_view label) {
  ATLANTIS_CHECK(bound(), "Plx9080 is not bound to a timeline");
  if (label.empty()) label = "target_access";
  return timeline_->post(track, sim::TxnKind::kTargetAccess, label, segment_,
                         not_before, target_access(), /*bytes=*/4);
}

}  // namespace atlantis::hw

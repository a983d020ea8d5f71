#include "hw/sdram.hpp"

#include "util/status.hpp"

namespace atlantis::hw {

Sdram::Sdram(std::string name, const SdramConfig& cfg)
    : name_(std::move(name)), cfg_(cfg) {
  ATLANTIS_CHECK(cfg.banks > 0 && cfg.row_bytes > 0 && cfg.clock_mhz > 0,
                 "invalid SDRAM configuration");
  open_row_.assign(static_cast<std::size_t>(cfg.banks), -1);
}

std::uint64_t Sdram::access(std::uint64_t byte_addr) {
  ATLANTIS_CHECK(byte_addr < static_cast<std::uint64_t>(cfg_.capacity_bytes),
                 "SDRAM address out of range");
  ++accesses_;
  const std::uint64_t row_index =
      byte_addr / static_cast<std::uint64_t>(cfg_.row_bytes);
  const auto bank =
      static_cast<std::size_t>(row_index % static_cast<std::uint64_t>(cfg_.banks));
  const auto row = static_cast<std::int64_t>(
      row_index / static_cast<std::uint64_t>(cfg_.banks));
  if (open_row_[bank] == row) {
    ++hits_;
    return 1;  // streaming access to the open row
  }
  const bool was_open = open_row_[bank] >= 0;
  open_row_[bank] = row;
  const int penalty = (was_open ? cfg_.t_rp : 0) + cfg_.t_rcd + cfg_.t_cas;
  return static_cast<std::uint64_t>(penalty) + 1;
}

void Sdram::reset_counters() {
  accesses_ = 0;
  hits_ = 0;
  for (auto& r : open_row_) r = -1;
}

}  // namespace atlantis::hw

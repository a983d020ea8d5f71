#include "hw/sram.hpp"

#include <algorithm>

namespace atlantis::hw {

SyncSram::SyncSram(std::string name, const SramConfig& cfg)
    : name_(std::move(name)), cfg_(cfg),
      stride_(chdl::BitVec::word_count(cfg.width_bits)) {
  ATLANTIS_CHECK(cfg.words > 0 && cfg.width_bits > 0 && cfg.banks > 0,
                 "invalid SRAM shape");
  data_.assign(static_cast<std::size_t>(cfg.banks) *
                   static_cast<std::size_t>(cfg.words) * stride_,
               0);
}

std::size_t SyncSram::index(int bank, std::int64_t addr) const {
  ATLANTIS_CHECK(bank >= 0 && bank < cfg_.banks, "SRAM bank out of range");
  ATLANTIS_CHECK(addr >= 0 && addr < cfg_.words, "SRAM address out of range");
  return (static_cast<std::size_t>(bank) * static_cast<std::size_t>(cfg_.words) +
          static_cast<std::size_t>(addr)) *
         static_cast<std::size_t>(stride_);
}

void SyncSram::write(int bank, std::int64_t addr, const chdl::BitVec& value) {
  ATLANTIS_CHECK(value.width() == cfg_.width_bits, "SRAM data width mismatch");
  const std::size_t i = index(bank, addr);
  std::copy(value.words().begin(), value.words().end(), data_.begin() + i);
}

chdl::BitVec SyncSram::read(int bank, std::int64_t addr) const {
  const std::size_t i = index(bank, addr);
  chdl::BitVec v(cfg_.width_bits);
  std::copy(data_.begin() + static_cast<std::ptrdiff_t>(i),
            data_.begin() + static_cast<std::ptrdiff_t>(i) + stride_,
            v.words().begin());
  return v;
}

void SyncSram::flip_bit(int bank, std::int64_t addr, int bit) {
  ATLANTIS_CHECK(bit >= 0 && bit < cfg_.width_bits,
                 "SRAM bit index out of range");
  const std::size_t i = index(bank, addr);
  data_[i + static_cast<std::size_t>(bit / 64)] ^= 1ull
                                                   << (bit % 64);
}

std::optional<SramUpset> SyncSram::draw_seu() {
  if (injector_ == nullptr) return std::nullopt;
  const auto hit = injector_->draw(sim::FaultKind::kSeuMemory, fault_site_);
  if (!hit) return std::nullopt;
  SramUpset u;
  std::uint64_t p = hit->param;
  u.bank = static_cast<int>(p % static_cast<std::uint64_t>(cfg_.banks));
  p /= static_cast<std::uint64_t>(cfg_.banks);
  u.addr =
      static_cast<std::int64_t>(p % static_cast<std::uint64_t>(cfg_.words));
  p /= static_cast<std::uint64_t>(cfg_.words);
  u.bit = static_cast<int>(p % static_cast<std::uint64_t>(cfg_.width_bits));
  flip_bit(u.bank, u.addr, u.bit);
  ++seu_flips_;
  return u;
}

}  // namespace atlantis::hw

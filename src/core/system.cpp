#include "core/system.hpp"

#include "util/status.hpp"

namespace atlantis::core {

AtlantisSystem::AtlantisSystem(std::string name, hw::HostCpuModel host,
                               int slots, bool passive_backplane)
    : name_(std::move(name)), host_(std::move(host)),
      timeline_(std::make_unique<sim::Timeline>()),
      backplane_(name_ + "/aab", slots, passive_backplane),
      main_clock_(name_ + "/clk_main") {
  pci_segment_ = timeline_->add_resource(name_ + "/cpci");
  backplane_.bind(*timeline_);
}

int AtlantisSystem::take_slot(const std::string& what) {
  if (next_slot_ >= backplane_.slots()) {
    throw util::CapacityError("no free crate slot for " + what);
  }
  return next_slot_++;
}

int AtlantisSystem::add_acb(const std::string& name) {
  const int slot = take_slot(name);
  acbs_.push_back(std::make_unique<AcbBoard>(name));
  acbs_.back()->bind_timeline(*timeline_, pci_segment_);
  if (injector_ != nullptr) acbs_.back()->set_fault_injector(injector_);
  acb_slots_.push_back(slot);
  return static_cast<int>(acbs_.size() - 1);
}

int AtlantisSystem::add_aib(const std::string& name) {
  const int slot = take_slot(name);
  aibs_.push_back(std::make_unique<AibBoard>(name));
  aibs_.back()->bind_timeline(*timeline_, pci_segment_);
  if (injector_ != nullptr) aibs_.back()->set_fault_injector(injector_);
  aib_slots_.push_back(slot);
  return static_cast<int>(aibs_.size() - 1);
}

std::unique_ptr<AtlantisSystem> assemble_crate(const std::string& name,
                                               int acbs, int aibs) {
  ATLANTIS_CHECK(acbs >= 1, "a crate needs at least one computing board");
  ATLANTIS_CHECK(aibs >= 0, "negative I/O board count");
  auto sys = std::make_unique<AtlantisSystem>(name);
  for (int i = 0; i < acbs; ++i) {
    sys->add_acb(name + "/acb" + std::to_string(i));
  }
  for (int i = 0; i < aibs; ++i) {
    sys->add_aib(name + "/aib" + std::to_string(i));
  }
  return sys;
}

void AtlantisSystem::set_fault_injector(sim::FaultInjector* injector) {
  injector_ = injector;
  for (auto& b : acbs_) b->set_fault_injector(injector);
  for (auto& b : aibs_) b->set_fault_injector(injector);
}

AcbBoard& AtlantisSystem::acb(int index) {
  ATLANTIS_CHECK(index >= 0 && index < acb_count(), "ACB index out of range");
  return *acbs_[static_cast<std::size_t>(index)];
}

AibBoard& AtlantisSystem::aib(int index) {
  ATLANTIS_CHECK(index >= 0 && index < aib_count(), "AIB index out of range");
  return *aibs_[static_cast<std::size_t>(index)];
}

int AtlantisSystem::acb_slot(int index) const {
  ATLANTIS_CHECK(index >= 0 && index < acb_count(), "ACB index out of range");
  return acb_slots_[static_cast<std::size_t>(index)];
}

int AtlantisSystem::aib_slot(int index) const {
  ATLANTIS_CHECK(index >= 0 && index < aib_count(), "AIB index out of range");
  return aib_slots_[static_cast<std::size_t>(index)];
}

std::vector<int> AtlantisSystem::alive_acbs() const {
  std::vector<int> out;
  for (int i = 0; i < acb_count(); ++i) {
    if (acbs_[static_cast<std::size_t>(i)]->alive()) out.push_back(i);
  }
  return out;
}

std::vector<SelfTestHealth> AtlantisSystem::probe_health() const {
  std::vector<SelfTestHealth> pages;
  pages.reserve(acbs_.size());
  for (const auto& b : acbs_) pages.push_back(b->probe_health());
  return pages;
}

std::uint64_t AtlantisSystem::step_acbs(int cycles) {
  ATLANTIS_CHECK(cycles >= 0, "negative cycle count");
  std::uint64_t edges = 0;
  for (int c = 0; c < cycles; ++c) {
    for (auto& b : acbs_) {
      const AcbMatrixReport r = b->step_matrix(1);
      edges += r.cycles * static_cast<std::uint64_t>(r.sims);
    }
  }
  return edges;
}

template <typename Self, typename Stream>
void AtlantisSystem::walk(Self& self, Stream& s) {
  bool has_injector = self.injector_ != nullptr;
  s.section("system", [&] {
    std::string name = self.name_;  // informational; twins may be renamed
    s.string(name);
    s.expect_u32(self.acbs_.size(), "system ACB count");
    s.expect_u32(self.aibs_.size(), "system AIB count");
    s.boolean(has_injector);
  });
  if (has_injector && self.injector_ == nullptr) {
    throw util::StateError(
        "system snapshot carries fault-injector state but no injector is "
        "attached");
  }
  s.state(*self.timeline_);
  if (has_injector) s.state(*self.injector_);
  for (auto& b : self.acbs_) {
    s.section("board/" + b->name(), [&] { s.state(*b); });
  }
}

void AtlantisSystem::save_state(sim::SnapshotWriter& w) const {
  walk(*this, w);
}

void AtlantisSystem::load_state(sim::SnapshotReader& r) { walk(*this, r); }

std::int64_t AtlantisSystem::total_gate_capacity() const {
  std::int64_t total = 0;
  for (const auto& b : acbs_) total += b->total_gate_capacity();
  for (const auto& b : aibs_) {
    for (int i = 0; i < AibBoard::kFpgaCount; ++i) {
      total += b->fpga(i).family().gate_capacity;
    }
  }
  return total;
}

}  // namespace atlantis::core

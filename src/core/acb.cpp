#include "core/acb.hpp"

#include "util/status.hpp"

namespace atlantis::core {
namespace {

/// One wired neighbour link: peek src's out port, poke dst's in port.
struct MatrixLink {
  chdl::Simulator* src = nullptr;
  chdl::Simulator* dst = nullptr;
  chdl::Wire out{};
  chdl::Wire in{};
  std::int32_t from = 0;
  std::int32_t to = 0;
};

/// Looks up a named port restricted to the design's inputs or outputs.
chdl::Wire find_port(const chdl::Design& d, const std::string& name,
                     bool want_input) {
  const auto& list = want_input ? d.inputs() : d.outputs();
  for (const auto& [n, w] : list) {
    if (n == name) return w;
  }
  return chdl::Wire{};
}

/// A clock's state is its programmed frequency; a load reprograms it
/// through set_mhz, which range-checks the stream's value.
template <typename Clock, typename Stream>
void walk_clock(Clock& clock, Stream& s) {
  double mhz = clock.mhz();
  s.f64(mhz);
  if constexpr (Stream::kLoading) clock.set_mhz(mhz);
}

}  // namespace

AcbBoard::AcbBoard(std::string name)
    : name_(std::move(name)), slink_(name_ + "/lvds"),
      local_clock_(name_ + "/clk_local") {
  for (int i = 0; i < kFpgaCount; ++i) {
    fpgas_.push_back(std::make_unique<hw::FpgaDevice>(
        name_ + "/fpga" + std::to_string(i), hw::orca_3t125()));
    io_clocks_.emplace_back(name_ + "/clk_io" + std::to_string(i));
    module_of_fpga_.emplace_back(std::nullopt);
  }
}

void AcbBoard::bind_timeline(sim::Timeline& timeline,
                             sim::ResourceId segment) {
  timeline_ = &timeline;
  pci_.bind(&timeline, segment);
  compute_resource_ = timeline.add_resource(name_ + "/design");
  slink_.bind(timeline);
}

void AcbBoard::set_fault_injector(sim::FaultInjector* injector) {
  injector_ = injector;
  pci_.set_fault_injector(injector, "pci/" + name_);
  slink_.set_fault_injector(injector);
  for (auto& f : fpgas_) f->set_fault_injector(injector);
  for (auto& m : modules_) {
    if (m.sram() != nullptr) m.sram()->set_fault_injector(injector);
  }
}

bool AcbBoard::draw_dropout() {
  if (injector_ == nullptr || !alive_) return false;
  if (!injector_->draw(sim::FaultKind::kBoardDropout, "board/" + name_)) {
    return false;
  }
  alive_ = false;
  return true;
}

SelfTestHealth AcbBoard::probe_health() const {
  SelfTestHealth h;
  h.slink_errors = slink_.link_errors();
  h.truncated_frames = slink_.truncated_frames();
  h.retransmissions = slink_.retransmissions();
  for (int i = 0; i < kFpgaCount; ++i) {
    h.config_upsets += fpga(i).config_upsets();
    h.crc_failures += fpga(i).crc_failures();
  }
  for (auto& m : modules_) {
    if (m.sram() != nullptr) h.seu_flips += m.sram()->seu_flips();
  }
  return h;
}

hw::FpgaDevice& AcbBoard::fpga(int index) {
  ATLANTIS_CHECK(index >= 0 && index < kFpgaCount, "FPGA index out of range");
  return *fpgas_[static_cast<std::size_t>(index)];
}

const hw::FpgaDevice& AcbBoard::fpga(int index) const {
  ATLANTIS_CHECK(index >= 0 && index < kFpgaCount, "FPGA index out of range");
  return *fpgas_[static_cast<std::size_t>(index)];
}

AcbIoRole AcbBoard::io_role(int fpga_index) const {
  ATLANTIS_CHECK(fpga_index >= 0 && fpga_index < kFpgaCount,
                 "FPGA index out of range");
  // §2.1: one FPGA on the PLX, two on the backplane, one on LVDS.
  switch (fpga_index) {
    case 0:
      return AcbIoRole::kHostPci;
    case 1:
      return AcbIoRole::kBackplaneA;
    case 2:
      return AcbIoRole::kBackplaneB;
    default:
      return AcbIoRole::kExternalLvds;
  }
}

std::int64_t AcbBoard::total_gate_capacity() const {
  std::int64_t total = 0;
  for (const auto& f : fpgas_) total += f->family().gate_capacity;
  return total;
}

void AcbBoard::attach_memory(int fpga_index, MemModule module) {
  ATLANTIS_CHECK(fpga_index >= 0 && fpga_index < kFpgaCount,
                 "FPGA index out of range");
  ATLANTIS_CHECK(!module_of_fpga_[static_cast<std::size_t>(fpga_index)],
                 "FPGA memory port already occupied");
  if (module.slots_occupied() > free_slots_) {
    throw util::CapacityError("memory module '" + module.name() + "' needs " +
                              std::to_string(module.slots_occupied()) +
                              " mezzanine slots; only " +
                              std::to_string(free_slots_) + " free on " +
                              name_);
  }
  free_slots_ -= module.slots_occupied();
  modules_.push_back(std::move(module));
  module_of_fpga_[static_cast<std::size_t>(fpga_index)] =
      static_cast<int>(modules_.size() - 1);
  if (injector_ != nullptr && modules_.back().sram() != nullptr) {
    modules_.back().sram()->set_fault_injector(injector_);
  }
}

MemModule* AcbBoard::memory_at(int fpga_index) {
  ATLANTIS_CHECK(fpga_index >= 0 && fpga_index < kFpgaCount,
                 "FPGA index out of range");
  const auto& slot = module_of_fpga_[static_cast<std::size_t>(fpga_index)];
  if (!slot) return nullptr;
  return &modules_[static_cast<std::size_t>(*slot)];
}

int AcbBoard::total_memory_width_bits() const {
  int width = 0;
  for (const auto& m : modules_) width += m.data_width_bits();
  return width;
}

util::Result<util::Picoseconds> AcbBoard::configure_all(
    const hw::Bitstream& bs) {
  if (!alive_) {
    return util::Result<util::Picoseconds>::failure(
        util::ErrorCode::kBoardDead,
        "configure_all on " + name_ + ": board is not alive");
  }
  util::Picoseconds total = 0;
  for (auto& f : fpgas_) {
    total += f->configure(bs);
    if (!f->config_crc_ok()) {
      return util::Result<util::Picoseconds>::failure(
          util::ErrorCode::kConfigCrc,
          "configure_all on " + name_ + ": " + f->name() + " failed CRC");
    }
  }
  return total;
}

AcbMatrixReport AcbBoard::step_matrix(int cycles, bool record_trace) {
  ATLANTIS_CHECK(cycles >= 0, "negative cycle count");
  AcbMatrixReport report;

  std::vector<chdl::Simulator*> sims(kFpgaCount, nullptr);
  std::vector<std::int32_t> active;  // FPGA indices carrying a design
  for (int i = 0; i < kFpgaCount; ++i) {
    sims[static_cast<std::size_t>(i)] = fpga(i).sim();
    if (sims[static_cast<std::size_t>(i)] != nullptr) active.push_back(i);
  }
  report.sims = static_cast<int>(active.size());
  if (active.empty() || cycles == 0) return report;

  // Wire up the neighbour links declared by the loaded designs.
  std::vector<MatrixLink> links;
  for (const std::int32_t i : active) {
    const int row = i / 2, col = i % 2;
    const struct {
      int neighbour;
      const char* out_name;
      const char* in_name;
    } dirs[] = {
        {row * 2 + (1 - col), "h_out", "h_in"},  // horizontal neighbour
        {(1 - row) * 2 + col, "v_out", "v_in"},  // vertical neighbour
    };
    for (const auto& dir : dirs) {
      chdl::Simulator* dst = sims[static_cast<std::size_t>(dir.neighbour)];
      if (dst == nullptr) continue;
      chdl::Simulator* src = sims[static_cast<std::size_t>(i)];
      const chdl::Wire out = find_port(src->design(), dir.out_name, false);
      const chdl::Wire in = find_port(dst->design(), dir.in_name, true);
      if (!out.valid() || !in.valid()) continue;
      ATLANTIS_CHECK(out.width == in.width,
                     "neighbour-link width mismatch between FPGAs");
      ATLANTIS_CHECK(out.width <= AcbPortSpec::kNeighborLines,
                     "neighbour link exceeds the 72-line port");
      links.push_back({src, dst, out, in, i, dir.neighbour});
    }
  }
  report.links = static_cast<int>(links.size());

  for (int c = 0; c < cycles; ++c) {
    // Edge: each simulator advances one clock. A step is ~100 ns, far
    // below a worker-pool handoff, so the sims step serially.
    for (const std::int32_t i : active) {
      sims[static_cast<std::size_t>(i)]->step();
    }
    // Exchange: move post-edge link outputs into the neighbours' input
    // ports so the next edge latches them (registered-link protocol).
    for (const MatrixLink& link : links) {
      chdl::BitVec v = link.src->peek(link.out);
      if (record_trace) {
        report.trace.push_back({report.cycles, link.from, link.to, v});
      }
      link.dst->poke(link.in, v);
    }
    ++report.cycles;
  }
  return report;
}

hw::ClockGenerator& AcbBoard::io_clock(int fpga_index) {
  ATLANTIS_CHECK(fpga_index >= 0 && fpga_index < kFpgaCount,
                 "FPGA index out of range");
  return io_clocks_[static_cast<std::size_t>(fpga_index)];
}

template <typename Self, typename Stream>
void AcbBoard::walk(Self& self, Stream& s) {
  s.expect_string(self.name_, "board name");
  s.boolean(self.alive_);
  walk_clock(self.local_clock_, s);
  s.expect_u32(self.io_clocks_.size(), "board I/O clock count");
  for (auto& c : self.io_clocks_) walk_clock(c, s);
  s.state(self.slink_);
  for (auto& f : self.fpgas_) s.state(*f);
  s.expect_u32(self.modules_.size(), "board memory module count");
  for (auto& m : self.modules_) {
    s.expect_u8(m.kind(), "board memory module kind");
    if (m.sram() != nullptr) s.state(*m.sram());
    if (m.sdram() != nullptr) s.state(*m.sdram());
  }
}

void AcbBoard::save_state(sim::SnapshotWriter& w) const { walk(*this, w); }

void AcbBoard::load_state(sim::SnapshotReader& r) { walk(*this, r); }

}  // namespace atlantis::core

#include "chdl/verify.hpp"

#include <map>
#include <sstream>

#include "chdl/sim.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace atlantis::chdl {

EquivalenceReport check_equivalence(const Design& a, const Design& b,
                                    const EquivalenceOptions& opts) {
  // Interface check: identical inputs.
  std::map<std::string, int> a_inputs;
  for (const auto& [name, w] : a.inputs()) a_inputs[name] = w.width;
  std::map<std::string, int> b_inputs;
  for (const auto& [name, w] : b.inputs()) b_inputs[name] = w.width;
  if (a_inputs != b_inputs) {
    throw util::Error("designs '" + a.name() + "' and '" + b.name() +
                      "' have different input interfaces");
  }
  // Common outputs.
  std::map<std::string, Wire> b_outputs;
  for (const auto& [name, w] : b.outputs()) b_outputs[name] = w;
  std::vector<std::pair<std::string, std::pair<Wire, Wire>>> compared;
  for (const auto& [name, wa] : a.outputs()) {
    const auto it = b_outputs.find(name);
    if (it == b_outputs.end()) continue;
    ATLANTIS_CHECK(wa.width == it->second.width,
                   "output '" + name + "' has different widths");
    compared.emplace_back(name, std::make_pair(wa, it->second));
  }
  ATLANTIS_CHECK(!compared.empty(), "no common outputs to compare");

  Simulator sim_a(a, opts.sim_a);
  Simulator sim_b(b, opts.sim_b);
  util::Rng rng(opts.seed);

  EquivalenceReport report;
  for (int cycle = 0; cycle < opts.cycles; ++cycle) {
    // Identical random stimulus to both.
    for (const auto& [name, wa] : a.inputs()) {
      BitVec v(wa.width);
      for (auto& word : v.words()) word = rng.next_u64();
      v = v & BitVec::ones(wa.width);
      sim_a.poke(wa, v);
      sim_b.poke(b.port(name), v);
    }
    if (cycle >= opts.warmup) {
      for (const auto& [name, wires] : compared) {
        const BitVec va = sim_a.peek(wires.first);
        const BitVec vb = sim_b.peek(wires.second);
        if (!(va == vb)) {
          std::ostringstream os;
          os << "cycle " << cycle << ", output '" << name
             << "': " << a.name() << "=0b" << va.to_binary() << " vs "
             << b.name() << "=0b" << vb.to_binary();
          report.equivalent = false;
          report.mismatch = os.str();
          report.cycles_run = static_cast<std::uint64_t>(cycle) + 1;
          return report;
        }
      }
    }
    sim_a.step();
    sim_b.step();
  }
  report.cycles_run = static_cast<std::uint64_t>(opts.cycles);
  return report;
}

std::string wire_name(const Design& d, std::int32_t wire_id) {
  for (const auto& [name, w] : d.inputs()) {
    if (w.id == wire_id) return "input '" + name + "'";
  }
  for (const auto& [name, w] : d.outputs()) {
    if (w.id == wire_id) return "output '" + name + "'";
  }
  for (const Component& c : d.components()) {
    if (c.out.valid() && c.out.id == wire_id && !c.name.empty()) {
      return "'" + c.name + "'";
    }
  }
  return "#" + std::to_string(wire_id);
}

namespace {

std::string side_label(const SimOptions& so) {
  return std::string(so.mode == EvalMode::kThreaded ? "threaded"
                                                    : "full-sweep") +
         (so.optimize ? "+opt" : "");
}

}  // namespace

BackendCheckReport check_backends(const Design& d,
                                  const BackendCheckOptions& opts) {
  std::vector<SimOptions> sides = opts.sides;
  if (sides.empty()) {
    sides = {SimOptions{.mode = EvalMode::kFullSweep, .optimize = false},
             SimOptions{.mode = EvalMode::kThreaded, .optimize = false},
             SimOptions{}};
  }
  ATLANTIS_CHECK(sides.size() >= 2, "check_backends needs at least 2 sides");

  std::vector<std::unique_ptr<Simulator>> sims;
  sims.reserve(sides.size());
  for (const SimOptions& so : sides) {
    sims.push_back(std::make_unique<Simulator>(d, so));
  }
  util::Rng rng(opts.seed);

  BackendCheckReport report;
  const auto diverged = [&](int cycle, const std::string& what,
                            std::size_t side, const BitVec& ref,
                            const BitVec& got) {
    std::ostringstream os;
    os << "cycle " << cycle << ", " << what << ": " << side_label(sides[0])
       << "=0b" << ref.to_binary() << " vs " << side_label(sides[side])
       << "=0b" << got.to_binary();
    report.identical = false;
    report.mismatch = os.str();
    report.cycles_run = static_cast<std::uint64_t>(cycle) + 1;
  };
  for (int cycle = 0; cycle < opts.cycles; ++cycle) {
    for (const auto& [name, w] : d.inputs()) {
      BitVec v(w.width);
      for (auto& word : v.words()) word = rng.next_u64();
      v = v & BitVec::ones(w.width);
      for (auto& sim : sims) sim->poke(w, v);
    }
    for (std::int32_t id = 0; id < d.wire_count(); ++id) {
      const Wire w{id, d.wire_width(id)};
      const BitVec ref = sims[0]->peek(w);
      for (std::size_t s = 1; s < sims.size(); ++s) {
        const BitVec got = sims[s]->peek(w);
        if (!(got == ref)) {
          diverged(cycle, "wire " + wire_name(d, id), s, ref, got);
          return report;
        }
      }
    }
    for (auto& sim : sims) sim->step();
  }
  for (std::size_t r = 0; r < d.rams().size(); ++r) {
    for (std::int64_t a = 0; a < d.rams()[r].words; ++a) {
      const BitVec ref = sims[0]->read_ram(static_cast<int>(r), a);
      for (std::size_t s = 1; s < sims.size(); ++s) {
        const BitVec got = sims[s]->read_ram(static_cast<int>(r), a);
        if (!(got == ref)) {
          diverged(opts.cycles - 1,
                   "RAM '" + d.rams()[r].name + "' word " + std::to_string(a),
                   s, ref, got);
          return report;
        }
      }
    }
  }
  report.cycles_run = static_cast<std::uint64_t>(opts.cycles);
  return report;
}

}  // namespace atlantis::chdl

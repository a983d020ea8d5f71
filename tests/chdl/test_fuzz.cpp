// Randomized netlist fuzzing: build random combinational DAGs, then
// compare the Simulator against an independent recursive BitVec
// interpreter over the same component list. Any disagreement is a
// kernel bug — this is the strongest single check on the CHDL simulator.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "chdl/sim.hpp"
#include "chdl/vcd.hpp"
#include "util/rng.hpp"

namespace atlantis::chdl {
namespace {

/// Reference evaluator: memoized recursion over wire producers using
/// BitVec arithmetic only (no levelization, no flat storage).
class Interpreter {
 public:
  Interpreter(const Design& d, const std::map<std::string, BitVec>& inputs)
      : d_(d), inputs_(inputs) {
    for (std::int32_t i = 0; i < static_cast<std::int32_t>(
                                     d.components().size());
         ++i) {
      const Component& c = d.components()[static_cast<std::size_t>(i)];
      if (c.out.valid()) producer_[c.out.id] = i;
    }
  }

  BitVec eval(Wire w) {
    const auto cached = values_.find(w.id);
    if (cached != values_.end()) return cached->second;
    const Component& c =
        d_.components()[static_cast<std::size_t>(producer_.at(w.id))];
    BitVec result = eval_comp(c);
    values_[w.id] = result;
    return result;
  }

 private:
  BitVec eval_comp(const Component& c) {
    auto in = [&](std::size_t k) { return eval(c.in[k]); };
    switch (c.kind) {
      case CompKind::kInput:
        return inputs_.at(c.name);
      case CompKind::kConst:
        return c.init;
      case CompKind::kNot:
        return ~in(0);
      case CompKind::kAnd:
        return in(0) & in(1);
      case CompKind::kOr:
        return in(0) | in(1);
      case CompKind::kXor:
        return in(0) ^ in(1);
      case CompKind::kAdd:
        return in(0) + in(1);
      case CompKind::kSub:
        return in(0) - in(1);
      case CompKind::kMux:
        return in(0).bit(0) ? in(1) : in(2);
      case CompKind::kEq:
        return BitVec(1, in(0) == in(1) ? 1 : 0);
      case CompKind::kUlt:
        return BitVec(1, in(0).ult(in(1)) ? 1 : 0);
      case CompKind::kReduceOr:
        return BitVec(1, in(0).any() ? 1 : 0);
      case CompKind::kReduceXor:
        return BitVec(1, static_cast<std::uint64_t>(in(0).popcount() & 1));
      case CompKind::kSlice:
        return in(0).slice(c.a, c.out.width);
      case CompKind::kConcat: {
        BitVec acc = in(0);
        for (std::size_t k = 1; k < c.in.size(); ++k) {
          acc = BitVec::concat(acc, in(k));
        }
        return acc;
      }
      case CompKind::kShl:
        return in(0).shl(c.a);
      case CompKind::kShr:
        return in(0).shr(c.a);
      default:
        ADD_FAILURE() << "fuzz interpreter hit unsupported kind";
        return BitVec(c.out.width);
    }
  }

  const Design& d_;
  const std::map<std::string, BitVec>& inputs_;
  std::map<std::int32_t, std::int32_t> producer_;
  std::map<std::int32_t, BitVec> values_;
};

/// Builds a random combinational DAG over a few input ports.
Design random_design(util::Rng& rng, int ops) {
  Design d("fuzz");
  std::vector<Wire> pool;
  for (int i = 0; i < 4; ++i) {
    const int width = 1 + static_cast<int>(rng.next_below(90));
    pool.push_back(d.input("in" + std::to_string(i), width));
  }
  pool.push_back(d.constant(BitVec(17, 0x1ABCD)));
  auto pick = [&] {
    return pool[static_cast<std::size_t>(rng.next_below(pool.size()))];
  };
  auto pick_pair = [&] {
    // Same-width pair: resize the second operand to the first.
    const Wire a = pick();
    const Wire b = d.resize(pick(), a.width);
    return std::make_pair(a, b);
  };
  for (int i = 0; i < ops; ++i) {
    Wire out{};
    switch (rng.next_below(12)) {
      case 0: {
        const auto [a, b] = pick_pair();
        out = d.band(a, b);
        break;
      }
      case 1: {
        const auto [a, b] = pick_pair();
        out = d.bor(a, b);
        break;
      }
      case 2: {
        const auto [a, b] = pick_pair();
        out = d.bxor(a, b);
        break;
      }
      case 3: {
        const auto [a, b] = pick_pair();
        out = d.add(a, b);
        break;
      }
      case 4: {
        const auto [a, b] = pick_pair();
        out = d.sub(a, b);
        break;
      }
      case 5: {
        const auto [a, b] = pick_pair();
        out = d.mux(d.resize(pick(), 1), a, b);
        break;
      }
      case 6: {
        const auto [a, b] = pick_pair();
        out = d.eq(a, b);
        break;
      }
      case 7: {
        const auto [a, b] = pick_pair();
        out = d.ult(a, b);
        break;
      }
      case 8: {
        const Wire a = pick();
        const int lo = static_cast<int>(
            rng.next_below(static_cast<std::uint64_t>(a.width)));
        const int width = 1 + static_cast<int>(rng.next_below(
                                  static_cast<std::uint64_t>(a.width - lo)));
        out = d.slice(a, lo, width);
        break;
      }
      case 9:
        out = d.concat({pick(), pick()});
        break;
      case 10:
        out = d.shl(pick(), static_cast<int>(rng.next_below(20)));
        break;
      default:
        out = d.bnot(pick());
        break;
    }
    if (out.width <= 256) pool.push_back(out);
  }
  // Expose a handful of final values.
  for (int i = 0; i < 6; ++i) {
    d.output("out" + std::to_string(i), pick());
  }
  return d;
}

class NetlistFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NetlistFuzz, SimulatorMatchesInterpreter) {
  util::Rng rng(GetParam());
  const Design d = random_design(rng, 120);
  Simulator sim(d);
  Simulator raw(d, SimOptions{.optimize = false});
  for (int vector = 0; vector < 25; ++vector) {
    std::map<std::string, BitVec> inputs;
    for (const auto& [name, w] : d.inputs()) {
      BitVec v(w.width);
      for (auto& word : v.words()) word = rng.next_u64();
      v = v & BitVec::ones(w.width);
      inputs[name] = v;
      sim.poke(w, v);
      raw.poke(w, v);
    }
    Interpreter ref(d, inputs);
    for (const auto& [name, w] : d.outputs()) {
      EXPECT_EQ(sim.peek(w), ref.eval(w))
          << "output '" << name << "', vector " << vector << ", seed "
          << GetParam();
      EXPECT_EQ(raw.peek(w), ref.eval(w))
          << "unoptimized output '" << name << "', vector " << vector
          << ", seed " << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetlistFuzz,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u,
                                           10u, 11u, 12u));

// ---------------------------------------------------------------------------
// Differential mode fuzz: the event-driven threaded engine against the
// full-sweep reference path, over SEQUENTIAL designs (registers with
// enable/reset, feedback counters, RAM read/write ports) clocked for many
// cycles with random pokes. The two policies share storage layout but no
// scheduling code, so bit-identical results across every wire, RAM word
// and VCD byte is strong evidence the incremental dirty tracking is sound.

BitVec random_bits(util::Rng& rng, int width) {
  BitVec v(width);
  for (auto& word : v.words()) word = rng.next_u64();
  return v & BitVec::ones(width);
}

/// Random design with state: comb ops plus registers (optional
/// enable/reset, random init), feedback accumulators and one RAM.
Design random_seq_design(util::Rng& rng, int ops) {
  Design d("seqfuzz");
  std::vector<Wire> pool;
  for (int i = 0; i < 4; ++i) {
    const int width = 1 + static_cast<int>(rng.next_below(70));
    pool.push_back(d.input("in" + std::to_string(i), width));
  }
  pool.push_back(d.constant(BitVec(17, 0x1ABCD)));
  auto pick = [&] {
    return pool[static_cast<std::size_t>(rng.next_below(pool.size()))];
  };
  auto pick_pair = [&] {
    const Wire a = pick();
    const Wire b = d.resize(pick(), a.width);
    return std::make_pair(a, b);
  };
  const int ram = d.add_ram("m", 32, 24);
  int regs = 0;
  for (int i = 0; i < ops; ++i) {
    Wire out{};
    switch (rng.next_below(16)) {
      case 0: {
        const auto [a, b] = pick_pair();
        out = d.band(a, b);
        break;
      }
      case 1: {
        const auto [a, b] = pick_pair();
        out = d.bxor(a, b);
        break;
      }
      case 2: {
        const auto [a, b] = pick_pair();
        out = d.add(a, b);
        break;
      }
      case 3: {
        const auto [a, b] = pick_pair();
        out = d.sub(a, b);
        break;
      }
      case 4: {
        const auto [a, b] = pick_pair();
        out = d.mux(d.resize(pick(), 1), a, b);
        break;
      }
      case 5: {
        const auto [a, b] = pick_pair();
        out = d.eq(a, b);
        break;
      }
      case 6: {
        const auto [a, b] = pick_pair();
        out = d.ult(a, b);
        break;
      }
      case 7: {
        const Wire a = pick();
        const int lo = static_cast<int>(
            rng.next_below(static_cast<std::uint64_t>(a.width)));
        const int width = 1 + static_cast<int>(rng.next_below(
                                  static_cast<std::uint64_t>(a.width - lo)));
        out = d.slice(a, lo, width);
        break;
      }
      case 8:
        out = d.concat({pick(), pick()});
        break;
      case 9:
        out = d.shl(pick(), static_cast<int>(rng.next_below(20)));
        break;
      case 10:
        out = d.bnot(pick());
        break;
      case 11: {  // register with random enable / reset / init
        const Wire dw = pick();
        RegOpts opts;
        if (rng.next_below(2)) opts.enable = d.resize(pick(), 1);
        if (rng.next_below(2)) opts.reset = d.resize(pick(), 1);
        opts.init = random_bits(rng, dw.width);
        out = d.reg("r" + std::to_string(regs++), dw, opts);
        break;
      }
      case 12: {  // feedback accumulator (counter-style loop)
        const int width = 1 + static_cast<int>(rng.next_below(40));
        RegOpts opts;
        if (rng.next_below(2)) opts.enable = d.resize(pick(), 1);
        const Wire q = d.reg_forward("f" + std::to_string(regs++), width,
                                     opts);
        d.reg_connect(q, d.add(q, d.resize(pick(), width)));
        out = q;
        break;
      }
      case 13: {  // synchronous RAM read, sometimes gated
        const Wire en =
            rng.next_below(2) ? d.resize(pick(), 1) : Wire{};
        out = d.ram_read(ram, d.resize(pick(), 5), en);
        break;
      }
      default: {  // RAM write port (no output wire)
        d.ram_write(ram, d.resize(pick(), 5), d.resize(pick(), 24),
                    d.resize(pick(), 1));
        break;
      }
    }
    if (out.valid() && out.width <= 256) pool.push_back(out);
  }
  for (int i = 0; i < 8; ++i) {
    d.output("out" + std::to_string(i), pick());
  }
  return d;
}

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

class SequentialFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SequentialFuzz, EventDrivenMatchesFullSweep) {
  util::Rng rng(GetParam() * 7919 + 13);
  const Design d = random_seq_design(rng, 140);

  // Three configurations: the unoptimized full sweep is the reference;
  // "raw" runs the threaded engine (region superops and the event-driven
  // edge tape) on the elaborated netlist; "opt" adds the fold + CSE
  // netlist optimizer underneath, so this test is also the bit-exactness
  // proof for every optimizer rewrite.
  Simulator full(d, SimOptions{.mode = EvalMode::kFullSweep, .optimize = false});
  Simulator raw(d, SimOptions{.optimize = false});
  Simulator opt(d);
  const std::string tag = std::to_string(GetParam());
  const std::string full_vcd =
      ::testing::TempDir() + "/fuzz_full_" + tag + ".vcd";
  const std::string raw_vcd =
      ::testing::TempDir() + "/fuzz_raw_" + tag + ".vcd";
  const std::string opt_vcd =
      ::testing::TempDir() + "/fuzz_opt_" + tag + ".vcd";
  {
    VcdWriter wf(full, full_vcd);
    VcdWriter wr(raw, raw_vcd);
    VcdWriter wo(opt, opt_vcd);
    for (int cycle = 0; cycle < 50; ++cycle) {
      // Random pokes, identical on all sides; skipping inputs some
      // cycles leaves quiescent islands for the worklist to skip.
      for (const auto& [name, w] : d.inputs()) {
        if (rng.next_below(2) == 0) continue;
        const BitVec v = random_bits(rng, w.width);
        full.poke(w, v);
        raw.poke(w, v);
        opt.poke(w, v);
      }
      // Every wire in the design, not just the ports — including wires
      // the optimizer aliased or folded.
      for (std::int32_t id = 0; id < d.wire_count(); ++id) {
        const Wire w{id, d.wire_width(id)};
        ASSERT_EQ(full.peek(w), raw.peek(w))
            << "wire " << id << ", cycle " << cycle << ", seed "
            << GetParam();
        ASSERT_EQ(full.peek(w), opt.peek(w))
            << "optimized wire " << id << ", cycle " << cycle << ", seed "
            << GetParam();
      }
      full.step();
      raw.step();
      opt.step();
    }
  }
  // Memory images must agree word for word.
  for (std::int64_t a = 0; a < 32; ++a) {
    EXPECT_EQ(full.read_ram(0, a), raw.read_ram(0, a))
        << "RAM word " << a << ", seed " << GetParam();
    EXPECT_EQ(full.read_ram(0, a), opt.read_ram(0, a))
        << "optimized RAM word " << a << ", seed " << GetParam();
  }
  // Identical samples => byte-identical waveforms.
  const std::string full_bytes = slurp(full_vcd);
  ASSERT_FALSE(full_bytes.empty());
  EXPECT_EQ(full_bytes, slurp(raw_vcd)) << "seed " << GetParam();
  EXPECT_EQ(full_bytes, slurp(opt_vcd)) << "optimized seed " << GetParam();
  std::remove(full_vcd.c_str());
  std::remove(raw_vcd.c_str());
  std::remove(opt_vcd.c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SequentialFuzz,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// Regression: registers whose enable is low (or whose reset re-asserts
// the value they already hold) must not wake the combinational cone
// behind them. This is the quiescent-logic case the TRT histogrammer
// spends most of its cycles in.
TEST(SequentialFuzz, QuiescentRegistersCostNoEvaluations) {
  Design d("quiet");
  const Wire en = d.input("en", 1);
  const Wire rst = d.input("rst", 1);
  const Wire data = d.input("d", 32);
  RegOpts opts;
  opts.enable = en;
  opts.reset = rst;
  opts.init = BitVec(32, 7);
  const Wire q = d.reg("r", data, opts);
  Wire x = q;
  for (int i = 0; i < 50; ++i) x = d.add(x, q);  // 51*q
  d.output("y", x);

  Simulator threaded(d);
  Simulator full(d, EvalMode::kFullSweep);
  for (Simulator* s : {&threaded, &full}) {
    s->poke("d", 123);
    EXPECT_EQ(s->peek_u64("y"), 51u * 7u);
    s->reset_activity();
  }
  threaded.run(1000);
  full.run(1000);
  // Enable low and D stable: the threaded engine does no comb work.
  EXPECT_EQ(threaded.activity().comp_evals, 0u);
  EXPECT_GT(full.activity().comp_evals, 10000u);

  // Reset asserted while the register already holds its init value:
  // still no change, still free.
  threaded.poke("rst", 1);
  threaded.run(100);
  EXPECT_EQ(threaded.activity().comp_evals, 0u);
  EXPECT_EQ(threaded.peek_u64("y"), 51u * 7u);

  // Releasing reset and enabling finally moves data through.
  threaded.poke("rst", 0);
  threaded.poke("en", 1);
  threaded.run(1);
  EXPECT_GT(threaded.activity().comp_evals, 0u);
  EXPECT_EQ(threaded.peek_u64("y"), 51u * 123u);
  full.poke("rst", 0);
  full.poke("en", 1);
  full.run(1);
  EXPECT_EQ(full.peek_u64("y"), 51u * 123u);
}

}  // namespace
}  // namespace atlantis::chdl

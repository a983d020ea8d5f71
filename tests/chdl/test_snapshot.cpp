// Simulator snapshot round-trips: save a live simulation mid-run,
// restore it into a twin, and demand bit-identical behaviour from then
// on — across both evaluation policies, with and without the optimizer
// (the snapshot carries no engine state, so a stream saved under one
// configuration must restore under any other) and through the
// FpgaDevice wrapper for both FPGA families. The randomized cases reuse the fuzz generator idea:
// random combinational DAGs driven by random vectors, with a twin
// that never saw the save/load as the reference.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "chdl/builder.hpp"
#include "chdl/sim.hpp"
#include "hw/fpga.hpp"
#include "sim/snapshot.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace atlantis::chdl {
namespace {

/// The simulator configurations every round trip runs under: the
/// production engine, the same engine without the optimizer, and the
/// unoptimized full-sweep reference. A stream restores only into a
/// simulator with the same storage layout; seq_design gives the
/// optimizer nothing to forward, so all three share one.
enum class Side { kProduction, kThreadedRaw, kFullSweepRaw };
constexpr Side kSides[] = {Side::kProduction, Side::kThreadedRaw,
                           Side::kFullSweepRaw};

SimOptions options(Side side) {
  switch (side) {
    case Side::kThreadedRaw:
      return {.optimize = false};
    case Side::kFullSweepRaw:
      return {.mode = EvalMode::kFullSweep, .optimize = false};
    case Side::kProduction:
      break;
  }
  return {};
}

/// Sequential design with every kind of live state: a counter, an
/// accumulator register and a RAM written while the clock runs.
const Design& seq_design() {
  static const Design d = [] {
    Design dd("seqsnap");
    const Wire en = dd.input("en", 1);
    const Wire din = dd.input("din", 16);
    const Wire cnt = counter(dd, "cnt", 8, en);
    const Wire acc = dd.reg_forward("acc", 16);
    dd.reg_connect(acc, dd.add(acc, din));
    const int ram = dd.add_ram("mem", 64, 16);
    const Wire addr = dd.slice(cnt, 0, 6);
    dd.ram_write(ram, addr, acc, en);
    dd.output("cnt", cnt);
    dd.output("acc", acc);
    dd.output("rd", dd.ram_read(ram, addr));
    return dd;
  }();
  return d;
}

std::vector<std::uint8_t> save_sim(const Simulator& s) {
  sim::SnapshotWriter w;
  w.begin_section("chdl/sim");
  s.save_state(w);
  w.end_section();
  return w.bytes();
}

void load_sim(Simulator& s, const std::vector<std::uint8_t>& bytes) {
  auto opened = sim::SnapshotReader::open(bytes);
  ASSERT_TRUE(opened.ok()) << opened.message();
  sim::SnapshotReader r = std::move(opened.value());
  r.select("chdl/sim");
  s.load_state(r);
}

/// Drives both simulators with the same stimulus and compares every
/// output after every step.
void run_twins(Simulator& a, Simulator& b, std::uint64_t seed, int steps) {
  util::Rng rng(seed);
  for (int i = 0; i < steps; ++i) {
    const std::uint64_t en = rng.next_below(2);
    const std::uint64_t din = rng.next_below(1u << 16);
    a.poke("en", en);
    a.poke("din", din);
    b.poke("en", en);
    b.poke("din", din);
    a.step();
    b.step();
    for (const char* port : {"cnt", "acc", "rd"}) {
      ASSERT_EQ(a.peek_u64(port), b.peek_u64(port))
          << "port " << port << " diverged at step " << i;
    }
  }
  EXPECT_EQ(a.cycles(), b.cycles());
}

class SimSnapshot : public ::testing::TestWithParam<Side> {};

TEST_P(SimSnapshot, MidRunRoundTripContinuesIdentically) {
  Simulator live(seq_design(), options(GetParam()));
  util::Rng rng(7);
  for (int i = 0; i < 40; ++i) {
    live.poke("en", rng.next_below(2));
    live.poke("din", rng.next_below(1u << 16));
    live.step();
  }
  const std::vector<std::uint8_t> bytes = save_sim(live);

  Simulator twin(seq_design(), options(GetParam()));
  load_sim(twin, bytes);
  EXPECT_EQ(twin.cycles(), live.cycles());
  for (const char* port : {"cnt", "acc", "rd"}) {
    EXPECT_EQ(twin.peek_u64(port), live.peek_u64(port)) << port;
  }
  // RAM contents came along, not just the visible ports.
  for (std::int64_t addr = 0; addr < 64; ++addr) {
    EXPECT_TRUE(twin.read_ram(0, addr) == live.read_ram(0, addr))
        << "ram[" << addr << "]";
  }
  run_twins(live, twin, 11, 60);
}

TEST_P(SimSnapshot, RestoresAcrossBackends) {
  // A stream saved under any configuration restores under every other
  // one: the snapshot holds values only, never worklists or superops.
  Simulator live(seq_design(), options(GetParam()));
  util::Rng rng(13);
  for (int i = 0; i < 25; ++i) {
    live.poke("en", 1);
    live.poke("din", rng.next_below(1u << 16));
    live.step();
  }
  const std::vector<std::uint8_t> bytes = save_sim(live);
  for (const Side other : kSides) {
    SCOPED_TRACE(static_cast<int>(other));
    Simulator twin(seq_design(), options(other));
    load_sim(twin, bytes);
    run_twins(live, twin, 17, 30);
    // Rewind `live` back to the checkpoint for the next configuration.
    load_sim(live, bytes);
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, SimSnapshot,
                         ::testing::ValuesIn(kSides));

TEST(SimSnapshotErrors, LoadRejectsDifferentDesignShape) {
  Simulator live(seq_design());
  const std::vector<std::uint8_t> bytes = save_sim(live);
  Design other("othersnap");
  other.output("q", counter(other, "c", 4, other.input("en", 1)));
  Simulator wrong(other);
  auto opened = sim::SnapshotReader::open(bytes);
  ASSERT_TRUE(opened.ok());
  sim::SnapshotReader r = std::move(opened.value());
  r.select("chdl/sim");
  EXPECT_THROW(wrong.load_state(r), util::Error);
}

// --- randomized round trips ---------------------------------------------

/// Compact random combinational DAG (same idea as test_fuzz.cpp's
/// generator, which lives in that TU's anonymous namespace).
Design random_design(util::Rng& rng, int ops) {
  Design d("snapfuzz");
  std::vector<Wire> pool;
  for (int i = 0; i < 4; ++i) {
    const int width = 1 + static_cast<int>(rng.next_below(60));
    pool.push_back(d.input("in" + std::to_string(i), width));
  }
  pool.push_back(d.constant(BitVec(17, 0x1ABCD)));
  auto pick = [&] {
    return pool[static_cast<std::size_t>(rng.next_below(pool.size()))];
  };
  auto pick_pair = [&] {
    const Wire a = pick();
    return std::make_pair(a, d.resize(pick(), a.width));
  };
  for (int i = 0; i < ops; ++i) {
    Wire out{};
    switch (rng.next_below(8)) {
      case 0: { const auto [a, b] = pick_pair(); out = d.band(a, b); break; }
      case 1: { const auto [a, b] = pick_pair(); out = d.bxor(a, b); break; }
      case 2: { const auto [a, b] = pick_pair(); out = d.add(a, b); break; }
      case 3: { const auto [a, b] = pick_pair(); out = d.sub(a, b); break; }
      case 4: {
        const auto [a, b] = pick_pair();
        out = d.mux(d.resize(pick(), 1), a, b);
        break;
      }
      case 5: {
        const Wire a = pick();
        const int lo = static_cast<int>(
            rng.next_below(static_cast<std::uint64_t>(a.width)));
        const int width = 1 + static_cast<int>(rng.next_below(
                                  static_cast<std::uint64_t>(a.width - lo)));
        out = d.slice(a, lo, width);
        break;
      }
      case 6: out = d.concat({pick(), pick()}); break;
      default: out = d.bnot(pick()); break;
    }
    if (out.width <= 200) pool.push_back(out);
  }
  for (int i = 0; i < 6; ++i) {
    d.output("out" + std::to_string(i), pick());
  }
  return d;
}

class SnapshotFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SnapshotFuzz, RestoredTwinMatchesUndisturbedOriginal) {
  util::Rng rng(GetParam());
  const Design d = random_design(rng, 80);
  Simulator live(d);

  auto drive = [&](Simulator& s, util::Rng& r) {
    for (const auto& [name, w] : d.inputs()) {
      BitVec v(w.width);
      for (auto& word : v.words()) word = r.next_u64();
      v = v & BitVec::ones(w.width);
      s.poke(w, v);
    }
    s.step();
  };

  util::Rng stim(GetParam() ^ 0x9E3779B97F4A7C15ull);
  for (int i = 0; i < 10; ++i) drive(live, stim);
  const std::vector<std::uint8_t> bytes = save_sim(live);

  for (const EvalMode mode : {EvalMode::kThreaded, EvalMode::kFullSweep}) {
    SCOPED_TRACE(static_cast<int>(mode));
    Simulator twin(d, mode);
    load_sim(twin, bytes);
    // Same continuation stimulus for the restored twin and the
    // undisturbed original; every output must agree on every vector.
    util::Rng cont_a(GetParam() + 1);
    util::Rng cont_b(GetParam() + 1);
    Simulator original(d);
    load_sim(original, bytes);  // rewind a fresh original to the save
    for (int i = 0; i < 10; ++i) {
      drive(original, cont_a);
      drive(twin, cont_b);
      for (const auto& [name, w] : d.outputs()) {
        ASSERT_TRUE(original.peek(w) == twin.peek(w))
            << name << " diverged on vector " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotFuzz,
                         ::testing::Values(1u, 2u, 3u, 4u, 20260808u));

}  // namespace
}  // namespace atlantis::chdl

// --- FpgaDevice round trips ----------------------------------------------

namespace atlantis::hw {

// Print a family parameter by name. The default printer shows the
// pointer, whose value moves with address-space randomisation, so the
// case names ctest discovers would change from one build to the next.
static void PrintTo(const FpgaFamily* family, std::ostream* os) {
  *os << family->name;
}

namespace {

const chdl::Design& dev_design() {
  static const chdl::Design d = [] {
    chdl::Design dd("devsnap");
    const chdl::Wire en = dd.input("en", 1);
    dd.output("q", chdl::counter(dd, "c", 12, en));
    return dd;
  }();
  return d;
}

class FpgaSnapshot : public ::testing::TestWithParam<const FpgaFamily*> {};

TEST_P(FpgaSnapshot, ConfiguredDeviceRoundTrips) {
  const FpgaFamily& family = *GetParam();
  const Bitstream bs = Bitstream::from_design(dev_design());

  FpgaDevice dev("fpga0", family);
  dev.configure(bs);
  dev.sim()->poke("en", 1);
  dev.sim()->run(37);

  sim::SnapshotWriter w;
  w.begin_section("fpga");
  dev.save_state(w);
  w.end_section();

  // Migration contract: ship the bitstream first, then the state.
  FpgaDevice twin("fpga0", family);
  twin.configure(bs);
  auto opened = sim::SnapshotReader::open(w.bytes());
  ASSERT_TRUE(opened.ok()) << opened.message();
  sim::SnapshotReader r = std::move(opened.value());
  r.select("fpga");
  twin.load_state(r);

  ASSERT_NE(twin.sim(), nullptr);
  EXPECT_EQ(twin.design_name(), "devsnap");
  EXPECT_EQ(twin.sim()->peek_u64("q"), dev.sim()->peek_u64("q"));
  EXPECT_EQ(twin.sim()->cycles(), dev.sim()->cycles());
  twin.sim()->poke("en", 1);
  dev.sim()->poke("en", 1);
  twin.sim()->run(5);
  dev.sim()->run(5);
  EXPECT_EQ(twin.sim()->peek_u64("q"), 42u);
  EXPECT_EQ(dev.sim()->peek_u64("q"), 42u);
}

TEST_P(FpgaSnapshot, LoadDemandsTheResidentDesign) {
  const FpgaFamily& family = *GetParam();
  FpgaDevice dev("fpga0", family);
  dev.configure(Bitstream::from_design(dev_design()));

  sim::SnapshotWriter w;
  w.begin_section("fpga");
  dev.save_state(w);
  w.end_section();

  auto open_at = [&] {
    auto opened = sim::SnapshotReader::open(w.bytes());
    sim::SnapshotReader r = std::move(opened.value());
    r.select("fpga");
    return r;
  };
  auto state_of = [](const FpgaDevice& d) {
    sim::SnapshotWriter out;
    out.begin_section("fpga");
    d.save_state(out);
    out.end_section();
    return out.bytes();
  };

  // Unconfigured twin: no resident design to restore into.
  FpgaDevice bare("fpga0", family);
  {
    const std::vector<std::uint8_t> before = state_of(bare);
    sim::SnapshotReader r = open_at();
    EXPECT_THROW(bare.load_state(r), util::StateError);
    EXPECT_EQ(state_of(bare), before) << "a refused load changed the device";
    EXPECT_FALSE(bare.configured());
  }
  // Twin carrying a different design, mid-run.
  chdl::Design other("otherdev");
  other.output("q", chdl::counter(other, "c", 4, other.input("en", 1)));
  FpgaDevice wrong("fpga0", family);
  wrong.configure(Bitstream::from_design(other));
  wrong.sim()->poke("en", 1);
  wrong.sim()->run(3);
  {
    const std::vector<std::uint8_t> before = state_of(wrong);
    sim::SnapshotReader r = open_at();
    EXPECT_THROW(wrong.load_state(r), util::StateError);
    EXPECT_EQ(state_of(wrong), before) << "a refused load changed the device";
    EXPECT_EQ(wrong.design_name(), "otherdev");
    EXPECT_EQ(wrong.sim()->peek_u64("q"), 3u);
  }
}

INSTANTIATE_TEST_SUITE_P(BothFamilies, FpgaSnapshot,
                         ::testing::Values(&orca_3t125(), &virtex_xcv600()));

}  // namespace
}  // namespace atlantis::hw

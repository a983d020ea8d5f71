// Stepping the 2x2 FPGA matrix must be cycle-exact: the four node
// designs exchange LFSR streams over the h/v links and fold what they
// receive into a RAM, so a link value delivered one edge early or late
// shows up as a diff in the traffic trace, the RAM images or the ports.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/acb.hpp"
#include "core/system.hpp"
#include "hw/fpga.hpp"

namespace atlantis::core {
namespace {

using chdl::BitVec;
using chdl::Design;
using chdl::RegOpts;
using chdl::Wire;

/// One matrix node: a seeded 16-bit LFSR drives both link outputs, the
/// link inputs are latched into registers (the registered-link property
/// that makes per-edge exchange cycle-accurate) and mixed into a RAM.
Design make_node(int index) {
  Design d("node" + std::to_string(index));
  RegOpts seed;
  seed.init = BitVec(16, 0xACE1u + 0x111u * static_cast<unsigned>(index));
  const Wire q = d.reg_forward("lfsr", 16, seed);
  const Wire fb = d.bxor(d.bit(q, 0),
                         d.bxor(d.bit(q, 2), d.bxor(d.bit(q, 3), d.bit(q, 5))));
  d.reg_connect(q, d.concat({fb, d.slice(q, 1, 15)}));
  d.output("h_out", q);
  d.output("v_out", d.bnot(q));

  const Wire hr = d.reg("h_r", d.input("h_in", 16));
  const Wire vr = d.reg("v_r", d.input("v_in", 16));

  const int ram = d.add_ram("acc", 16, 16);
  const Wire addr = d.reg_forward("addr", 4);
  d.reg_connect(addr, d.add(addr, d.constant(4, 1)));
  d.ram_write(ram, addr, d.bxor(d.add(hr, vr), q), d.constant(1, 1));
  d.output("mix", d.bxor(hr, vr));
  return d;
}

struct MatrixRun {
  AcbMatrixReport report;
  std::vector<std::vector<BitVec>> ram;  // per FPGA, 16 words
  std::vector<std::uint64_t> mix;
  std::vector<std::uint64_t> pattern;
};

/// Steps a fresh board through `slices` consecutive step_matrix calls
/// and returns the trace (cycles renumbered across calls) plus the final
/// architectural state.
MatrixRun run_matrix(const std::vector<Design>& nodes,
                     const std::vector<int>& slices) {
  AcbBoard board("acb");
  for (int i = 0; i < AcbBoard::kFpgaCount; ++i) {
    board.fpga(i).configure(
        hw::Bitstream::from_design(nodes[static_cast<std::size_t>(i)]));
  }
  MatrixRun r;
  for (const int cycles : slices) {
    AcbMatrixReport part = board.step_matrix(cycles, /*record_trace=*/true);
    for (AcbLinkTransfer& t : part.trace) {
      t.cycle += r.report.cycles;
      r.report.trace.push_back(std::move(t));
    }
    r.report.cycles += part.cycles;
    r.report.sims = part.sims;
    r.report.links = part.links;
  }
  for (int i = 0; i < AcbBoard::kFpgaCount; ++i) {
    chdl::Simulator* sim = board.fpga(i).sim();
    std::vector<BitVec> words;
    for (std::int64_t a = 0; a < 16; ++a) words.push_back(sim->read_ram(0, a));
    r.ram.push_back(std::move(words));
    r.mix.push_back(sim->peek_u64("mix"));
    r.pattern.push_back(sim->peek_u64("h_out"));
  }
  return r;
}

TEST(AcbMatrix, SlicedSteppingMatchesOneCall) {
  std::vector<Design> nodes;
  for (int i = 0; i < AcbBoard::kFpgaCount; ++i) nodes.push_back(make_node(i));

  // The registered-link exchange must carry across call boundaries:
  // 200 edges in one call and in three slices are the same 200 edges.
  const MatrixRun whole = run_matrix(nodes, {200});
  const MatrixRun sliced = run_matrix(nodes, {1, 119, 80});

  EXPECT_EQ(whole.report.sims, 4);
  EXPECT_EQ(whole.report.links, 8);  // 4 nodes x (h + v)
  EXPECT_EQ(whole.report.cycles, 200u);
  EXPECT_EQ(sliced.report.sims, whole.report.sims);
  EXPECT_EQ(sliced.report.links, whole.report.links);
  EXPECT_EQ(sliced.report.cycles, whole.report.cycles);

  // The link traffic is live (the LFSRs run), not a constant stream.
  ASSERT_FALSE(whole.report.trace.empty());
  EXPECT_NE(whole.report.trace.front().value,
            whole.report.trace.back().value);

  // Cycle-exact traffic equality, transfer by transfer.
  ASSERT_EQ(whole.report.trace.size(), sliced.report.trace.size());
  for (std::size_t k = 0; k < whole.report.trace.size(); ++k) {
    const AcbLinkTransfer& w = whole.report.trace[k];
    const AcbLinkTransfer& s = sliced.report.trace[k];
    EXPECT_EQ(w.cycle, s.cycle) << "transfer " << k;
    EXPECT_EQ(w.from, s.from) << "transfer " << k;
    EXPECT_EQ(w.to, s.to) << "transfer " << k;
    EXPECT_EQ(w.value, s.value) << "transfer " << k;
  }

  // Final architectural state: RAM images and port values.
  for (int i = 0; i < AcbBoard::kFpgaCount; ++i) {
    const auto fi = static_cast<std::size_t>(i);
    EXPECT_EQ(whole.mix[fi], sliced.mix[fi]) << "fpga " << i;
    EXPECT_EQ(whole.pattern[fi], sliced.pattern[fi]) << "fpga " << i;
    for (std::size_t a = 0; a < 16; ++a) {
      EXPECT_EQ(whole.ram[fi][a], sliced.ram[fi][a])
          << "fpga " << i << " RAM word " << a;
    }
  }
}

TEST(AcbMatrix, DiagonalPairHasNoLinks) {
  std::vector<Design> nodes;
  for (int i = 0; i < AcbBoard::kFpgaCount; ++i) nodes.push_back(make_node(i));
  AcbBoard board("acb_diag");
  board.fpga(0).configure(hw::Bitstream::from_design(nodes[0]));
  board.fpga(3).configure(hw::Bitstream::from_design(nodes[3]));
  const AcbMatrixReport r = board.step_matrix(5);
  EXPECT_EQ(r.sims, 2);
  EXPECT_EQ(r.links, 0);  // FPGAs 0 and 3 are not matrix neighbours
  EXPECT_EQ(r.cycles, 5u);
}

TEST(AcbMatrix, SystemStepsAllBoards) {
  std::vector<Design> nodes;
  for (int i = 0; i < AcbBoard::kFpgaCount; ++i) nodes.push_back(make_node(i));
  AtlantisSystem sys("crate");
  const int b0 = sys.add_acb("acb0");
  const int b1 = sys.add_acb("acb1");
  for (const int b : {b0, b1}) {
    for (int i = 0; i < AcbBoard::kFpgaCount; ++i) {
      sys.acb(b).fpga(i).configure(
          hw::Bitstream::from_design(nodes[static_cast<std::size_t>(i)]));
    }
  }
  // 10 cycles x 2 boards x 4 sims = 80 simulator edges.
  EXPECT_EQ(sys.step_acbs(10), 80u);
  EXPECT_EQ(sys.acb(b0).fpga(0).sim()->cycles(), 10u);
}

}  // namespace
}  // namespace atlantis::core

// CHDL netlist optimizer.
//
// A compiler-style pass pipeline that runs over the elaborated Design
// graph before the Simulator compiles its op tape:
//
//   1. fold — constant propagation/folding. A component whose inputs are
//      all constants becomes a constant; a mux with a constant select
//      collapses to the chosen arm; and/or/xor/add/sub/shift simplify
//      per identity/annihilator rules (x&0 -> 0, x|0 -> x, x^x -> 0,
//      x-x -> 0, eq(x,x) -> 1, ...).
//   2. dce — dead-logic elimination. Backward sweep from every register,
//      RAM port, output and pinned (probed) wire; combinational logic
//      feeding none of them is dropped from the tape.
//   3. cse — common-subexpression elimination via hash-consing: same
//      kind + same (resolved) input wires + same parameters produce one
//      op; commutative kinds are input-order normalized.
//   4. fuse — peephole fusion of hot adjacent pairs into fused tape
//      opcodes (not+and -> and-not, compare-to-constant immediates,
//      slice-of-concat forwarding) so the single-word fast path executes
//      fewer dispatches.
//
// The Design itself is NEVER mutated — gate/fit accounting (chdl::stats,
// bench_a4) always sees the netlist as elaborated. The optimizer's
// output is a side table the Simulator consumes:
//
//   * forward[]  — wire forwarding map. A wire optimized away by an
//     identity or CSE aliases its surviving representative (same
//     width); the simulator points both wires at one storage slot, so
//     pokes/peeks/VCD stay bit-identical.
//   * fold values — wires proven constant; the simulator writes them
//     once at reset and never evaluates their producers again.
//   * comp_alive[] — which combinational components still compile onto
//     the op tape. Removed-but-observable logic (DCE) is re-evaluated
//     lazily if a peek ever asks for it.
//   * fused[]    — per-component fused opcode records.
//
// Every transformation preserves exact bit-level semantics for every
// wire, which tests/chdl/test_fuzz.cpp proves differentially against
// the unoptimized full-sweep engine (every wire, RAM word and VCD byte).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "chdl/design.hpp"
#include "chdl/stats.hpp"

namespace atlantis::chdl {

/// Fused tape opcodes produced by the peephole pass. All fused forms are
/// restricted to single-word (<= 64 bit) operands so they always take
/// the simulator's fast path.
enum class FusedOp : std::uint8_t {
  kNone,
  kAndNot,    // out = in0 & ~in1        (and over an inverter)
  kOrNot,     // out = in0 | ~in1        (or over an inverter)
  kEqImm,     // out = in0 == imm        (compare to constant)
  kNeImm,     // out = in0 != imm        (inverted compare to constant)
  kUltImm,    // out = in0 < imm
  kImmUlt,    // out = imm < in0
  kAddImm,    // out = in0 + imm
  kSubImm,    // out = in0 - imm
  kAndImm,    // out = in0 & imm
  kOrImm,     // out = in0 | imm
  kXorImm,    // out = in0 ^ imm
  kSliceImm,  // out = (in0 >> imm) & width_mask   (slice-of-concat)
};

/// One fused component: the opcode plus its rewritten operands. `in1` is
/// only used by the two-input forms (kAndNot/kOrNot).
struct FusedComp {
  FusedOp op = FusedOp::kNone;
  Wire in0{};
  Wire in1{};
  std::uint64_t imm = 0;
};

/// Pass toggles plus wires that must survive dead-logic elimination
/// (e.g. internal signals a test bench probes by handle).
struct OptimizeOptions {
  bool fold = true;
  bool dce = true;
  bool cse = true;
  bool fuse = true;
  std::vector<Wire> keep;
};

/// Result of an optimizer run over one Design. Indexed by the design's
/// component indices / wire ids; see the file comment for semantics.
struct OptimizedNetlist {
  std::vector<std::uint8_t> comp_alive;  // per component (comb kinds only)
  std::vector<std::int32_t> forward;     // wire id -> representative wire id
  std::vector<BitVec> fold_value;        // per wire; empty() if not folded
  std::unordered_map<std::int32_t, FusedComp> fused;  // comp idx -> fusion
  OptimizeReport report;

  /// Follows the forwarding map to a wire's surviving representative.
  Wire rep(Wire w) const {
    if (!w.valid()) return w;
    return Wire{forward[static_cast<std::size_t>(w.id)], w.width};
  }
  bool folded(std::int32_t wire_id) const {
    return !fold_value[static_cast<std::size_t>(wire_id)].empty();
  }
};

/// Runs the pass pipeline. Pure function of the design: the design is
/// not modified and the result references it by index only.
OptimizedNetlist optimize(const Design& design,
                          const OptimizeOptions& opts = {});

}  // namespace atlantis::chdl

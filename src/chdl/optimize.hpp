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
//   2. cse — common-subexpression elimination via hash-consing: same
//      kind + same (resolved) input wires + same parameters produce one
//      op; commutative kinds are input-order normalized.
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
//
// Every combinational component whose output is neither forwarded nor
// folded compiles onto the op tape.
//
// Every transformation preserves exact bit-level semantics for every
// wire, which tests/chdl/test_fuzz.cpp proves differentially against
// the unoptimized full-sweep engine (every wire, RAM word and VCD byte).
#pragma once

#include <cstdint>
#include <vector>

#include "chdl/design.hpp"
#include "chdl/stats.hpp"

namespace atlantis::chdl {

/// Result of an optimizer run over one Design. Indexed by the design's
/// component indices / wire ids; see the file comment for semantics.
struct OptimizedNetlist {
  std::vector<std::int32_t> forward;  // wire id -> representative wire id
  std::vector<BitVec> fold_value;     // per wire; empty() if not folded
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
OptimizedNetlist optimize(const Design& design);

}  // namespace atlantis::chdl

// Region compiler for the threaded execution engine (chdl/threaded.hpp).
//
// Rather than scheduling the op tape one opcode at a time, the threaded
// engine executes whole *regions* — single-exit groups of
// combinational logic between register / RAM / port boundaries — as
// straight-line superop blocks. This header holds the region
// partitioning itself, kept free of Simulator internals so the
// invariants are unit-testable on plain graphs.
//
// Partitioning rules (deterministic, derived from the tape fanout table),
// walking the tape in topological order; regions hold `kMaxRegionOps` ops
// at most, and an op that no rule places opens a new region:
//
//   1. chain the deepest input: an op joins a producer's region when that
//      producer is the region's current tail and the op is its only tape
//      consumer; of several such regions, the highest-level one (ties: the
//      earlier input), so a mux chain stays one chain of regions;
//   2. group the sibling readers of one wire: otherwise an op joins the
//      region that last read every one of its inputs, when that region's
//      tail feeds no tape op (only registers, RAM ports or outputs).
//
// This gives three structural guarantees:
//
//   * single entry / single exit: only the tail op's output is ever
//     consumed by another region, so a region can be executed start to
//     finish with no interior change checks, and inter-region dirtiness
//     can be tracked by diffing region outputs only;
//   * no new wake-up input: a grouped sibling reads only wires its region
//     already read, so it changes neither the region's level nor the
//     wire changes that wake it;
//   * the region DAG is acyclic and region levels (longest inter-region
//     path) strictly increase along every edge, so a level-bucketed
//     dirty worklist drains in one pass.
//
// Intermediate (non-tail) wires may still feed sequential elements or be
// observed by peeks/VCD; wires with sequential consumers are listed as
// region outputs too so the edge scheduler sees their changes.
#pragma once

#include <cstdint>
#include <vector>

namespace atlantis::chdl {

/// Combinational dependency graph the partitioner consumes: one node per
/// tape op (already in topological order), edges expressed as input wire
/// ids per op plus each op's output wire.
struct RegionGraph {
  std::int32_t wire_count = 0;
  std::vector<std::int32_t> in_begin;   // CSR: op -> slice of in_wires
  std::vector<std::int32_t> in_wires;   // input wire ids, per op
  std::vector<std::int32_t> out_wire;   // output wire id, per op
  // Per wire: consumed by a sequential element (register D/enable/reset,
  // RAM address/data/write-enable). Such wires must be diffed at region
  // boundaries even when no other region consumes them.
  std::vector<std::uint8_t> wire_seq_consumed;

  std::int32_t op_count() const {
    return static_cast<std::int32_t>(out_wire.size());
  }
};

/// Upper bound on ops per region. Longer chains amortize dispatch
/// better but re-execute more ops when an input in the middle of the
/// chain wiggles; 64 keeps the worst-case inflation bounded.
inline constexpr int kMaxRegionOps = 64;

/// One compiled region: a slice of `RegionPlan::op_order` executed
/// straight-line, plus the slice of `RegionPlan::out_wires` diffed after
/// execution.
struct Region {
  std::int32_t ops_begin = 0, ops_end = 0;    // into plan.op_order
  std::int32_t outs_begin = 0, outs_end = 0;  // into plan.out_wires
  std::int32_t level = 0;                     // region DAG level
};

struct RegionPlan {
  std::vector<Region> regions;
  std::vector<std::int32_t> op_order;    // op ids grouped per region
  std::vector<std::int32_t> out_wires;   // diffed wires, grouped per region
  std::vector<std::int32_t> op_region;   // op id -> owning region
  // Wire -> consuming regions CSR (deduplicated, ascending). Drives the
  // region-granular dirty worklist: pokes and sequential commits mark
  // exactly the regions that read a changed wire.
  std::vector<std::int32_t> fan_begin;
  std::vector<std::int32_t> fan_regions;
  std::int32_t max_level = 0;

  std::int32_t region_count() const {
    return static_cast<std::int32_t>(regions.size());
  }
};

/// Partitions the graph. Pure function of its input: identical graphs
/// produce identical plans (asserted by the determinism test in
/// tests/chdl/test_threaded.cpp).
RegionPlan build_region_plan(const RegionGraph& graph);

}  // namespace atlantis::chdl

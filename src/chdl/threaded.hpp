// The production execution engine for the CHDL op tape.
//
// Simulator elaboration compiles the combinational netlist straight into
// TOp records; this engine schedules them. It keeps the full-sweep
// reference bit-identical while paying only for what changed,
// QEMU-TCG-style:
//
//  * flat opcode space — one `code` byte per TOp covers the
//    single-word fast paths, the peephole-fused forms and the general
//    multi-word path (kWide, Simulator::eval_comp), so dispatch is one
//    indirection and the single-word semantics are written once
//    (ATLANTIS_THREADED_OPS in threaded.cpp);
//  * computed-goto dispatch — on GCC/Clang each opcode's handler jumps
//    straight to the next op through a `&&label` table (one indirect
//    branch per op, predicted per-opcode); elsewhere, or when
//    ATLANTIS_THREADED_FORCE_SWITCH is defined, a portable switch loop
//    executes the identical handler bodies;
//  * region superops — chdl/region.hpp partitions the tape into
//    single-entry chains executed as straight-line blocks: no per-op
//    queue flags, one change check at the region outputs (diffed
//    against a shadow copy of the last value each consumer saw);
//  * an event-driven edge tape — sequential components are compiled
//    into SeqOp records and latched only when marked dirty by a fanin
//    change (registers are idempotent once their inputs are stable; an
//    asserted RAM write port re-arms itself; a RAM word change re-arms
//    the RAM's read ports). A quiescent design commits an edge in O(1).
//
// Scheduling stays deterministic: dirty regions drain level by level
// (regions within a level are independent), dirty sequential components
// latch in the order they were marked, and RAM writes landing on one
// edge commit in component-creation order, preserving the reference's
// last-write-wins ordering for multi-port RAM writes.
#pragma once

#include <cstdint>
#include <vector>

#include "chdl/design.hpp"
#include "chdl/region.hpp"
#include "util/cacheline.hpp"

namespace atlantis::chdl {

class Simulator;

/// True when this build dispatches through the computed-goto label
/// table; false on non-GNU compilers or when the portable switch loop
/// was forced with -DATLANTIS_THREADED_FORCE_SWITCH (CI builds both).
bool threaded_uses_computed_goto();

/// Flat opcode space: one byte selects the handler directly. Order must
/// match the label table in threaded.cpp (static_assert'd there).
enum class TCode : std::uint8_t {
  kEnd = 0,    // region terminator
  kWide,       // multi-word / general op: delegate to Simulator::eval_comp
  // Single-word CompKind fast paths.
  kNot,
  kAnd,
  kOr,
  kXor,
  kMux,
  kAdd,
  kSub,
  kEq,
  kUlt,
  kReduceAnd,
  kReduceOr,
  kReduceXor,
  kSlice,
  kConcat2,
  kShl,
  kShr,
  // Peephole-fused forms (chdl/optimize.hpp FusedOp).
  kAndNot,
  kOrNot,
  kEqImm,
  kNeImm,
  kUltImm,
  kImmUlt,
  kAddImm,
  kSubImm,
  kAndImm,
  kOrImm,
  kXorImm,
  kSliceImm,
  kCount_,
};

/// One decoded op. Offsets index the simulator's flat value array; no
/// Component/Wire chasing on the execution path except kWide.
struct TOp {
  TCode code = TCode::kEnd;
  std::int32_t in0 = 0, in1 = 0, in2 = 0;  // input word offsets
  std::int32_t out = 0;                    // output word offset
  std::int32_t a = 0;        // shift amount / slice lo / concat lo width
  std::int32_t comp = -1;    // kWide: component index
  std::uint64_t mask = ~std::uint64_t{0};  // output width mask
  std::uint64_t imm = 0;     // fused immediate; kReduceAnd input mask
};

/// The compiled engine for one Simulator. Owns the region plan, the
/// superop blocks, the shadow value copy and the sequential edge tape;
/// the Simulator forwards poke/eval/step/write_ram events here when its
/// mode is EvalMode::kThreaded. Everything it writes while stepping sits
/// on cache lines of its own (util/cacheline.hpp).
class alignas(util::kCacheLine) ThreadedBackend {
 public:
  /// Lays `tape` (Simulator::compile_tape, in tape order) out as region
  /// blocks. Nothing is queued until the Simulator's reset() marks all.
  ThreadedBackend(Simulator& sim, const std::vector<TOp>& tape);

  /// Marks everything dirty: every region queued, every sequential
  /// component armed for its next edge. Used on mode switches / reset.
  void mark_all();
  /// A wire's value changed (poke or sequential commit): queue its
  /// consumer regions and arm its sequential consumers.
  void mark_wire(std::int32_t wire_id);
  /// Drains the region worklist level by level.
  void eval();
  /// Latches dirty registers / RAM ports on `clock`, then marks the
  /// fanout of every output that changed.
  void commit_edge(ClockId clock);
  /// RAM contents changed behind the design's back (Simulator::write_ram):
  /// re-arm the RAM's read ports.
  void note_ram_written(std::int32_t ram);

  const RegionPlan& plan() const { return plan_; }

 private:
  /// One compiled sequential component (register or RAM port).
  struct SeqOp {
    enum Kind : std::uint8_t { kReg1, kRegN, kRamRead, kRamWrite };
    Kind kind = kReg1;
    std::int32_t clock = 0;
    std::int32_t out_wire = -1;
    std::int32_t out_off = 0;
    std::int32_t out_words = 0;
    std::int32_t d_off = -1;     // D / write-data word offset
    std::int32_t en_off = -1;    // enable / we offset; -1 = always enabled
    std::int32_t rst_off = -1;   // sync reset offset; -1 = none
    std::int32_t addr_off = -1;  // RAM port address offset
    std::int32_t ram = -1;
    const std::uint64_t* init = nullptr;  // register reset/init words
  };

  void layout_code(const std::vector<TOp>& tape);
  void build_seq_tape();
  void execute_region(std::int32_t r);
  void mark_region(std::int32_t r);
  void mark_seq(std::int32_t s);

  Simulator& sim_;
  RegionPlan plan_;
  std::vector<TOp> code_;                  // superop blocks, kEnd-terminated
  std::vector<std::int32_t> code_begin_;   // region -> first TOp
  // Last value each region output propagated; diffing against it is the
  // one change check per region.
  util::CacheLineVector<std::uint64_t> shadow_;

  // Region worklist, bucketed by region level.
  util::CacheLineVector<util::CacheLineVector<std::int32_t>> buckets_;
  util::CacheLineVector<std::uint8_t> region_queued_;
  std::int64_t dirty_regions_ = 0;

  // Sequential edge tape.
  std::vector<SeqOp> seq_ops_;
  util::CacheLineVector<util::CacheLineVector<std::int32_t>> seq_dirty_;
  util::CacheLineVector<std::uint8_t> seq_queued_;
  std::vector<std::int32_t> seq_fan_begin_;  // wire -> consuming SeqOps CSR
  std::vector<std::int32_t> seq_fan_ops_;
  std::vector<std::vector<std::int32_t>> ram_readers_;  // ram -> SeqOp ids
  // Commit scratch (kept here so commits stay allocation-free).
  util::CacheLineVector<std::int32_t> committing_;  // edge's dirty list
  struct PendingWrite {
    std::int32_t port;  // SeqOp index: creation order among RAM ports
    std::int32_t ram;
    std::int64_t addr;
    std::int32_t src_off;
    std::int32_t words;
  };
  util::CacheLineVector<PendingWrite> pending_writes_;
  util::CacheLineVector<std::int32_t> touched_;
};

}  // namespace atlantis::chdl

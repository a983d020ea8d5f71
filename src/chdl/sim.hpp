// Cycle simulator for CHDL designs.
//
// The simulator keeps every wire's value in one flat word array (no
// allocation on the evaluation path) and latches registers and RAM ports
// on explicit clock edges. Synchronous-read RAMs return the pre-edge
// memory contents when an address is written on the same edge
// (read-before-write).
//
// Two evaluation policies are available:
//
//  * kThreaded (default, the production engine): elaboration compiles
//    the combinational netlist into a tape of decoded TOp records,
//    groups it into region superops run by a computed-goto threaded
//    dispatcher, and compiles the sequential components into an
//    event-driven edge tape (see chdl/threaded.hpp). Pokes and edge
//    commits wake only the regions and sequential components that read
//    a changed wire, so quiescent logic costs nothing.
//  * kFullSweep: the reference — every combinational component is
//    re-evaluated in creation order through the general evaluator
//    whenever anything might have changed, and every sequential
//    component latches on every edge. It shares the storage layout but
//    no scheduling code with kThreaded, so the differential tests (see
//    tests/chdl/test_fuzz.cpp) compare the two.
//
// The application drives the design directly — poke inputs, clock, peek
// outputs — which is the CHDL workflow: the C++ program that will operate
// the real FPGA is also its test bench.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "chdl/design.hpp"
#include "chdl/optimize.hpp"
#include "chdl/region.hpp"
#include "sim/snapshot.hpp"
#include "util/cacheline.hpp"

namespace atlantis::chdl {

class ThreadedBackend;
struct TOp;

/// Combinational evaluation policy.
enum class EvalMode {
  kThreaded,   // region superops + computed-goto dispatch (production)
  kFullSweep,  // re-evaluate everything (reference cross-check path)
};

/// Simulator construction options. The netlist optimizer
/// (chdl/optimize.hpp) is on by default; `optimize = false` compiles the
/// tape 1:1 from the elaborated design (the differential reference).
struct SimOptions {
  EvalMode mode = EvalMode::kThreaded;
  bool optimize = true;
  OptimizeOptions opt{};
};

/// Work counters for speed reporting and activity-based tuning.
struct SimActivity {
  std::uint64_t comp_evals = 0;    // combinational evaluations performed
  std::uint64_t comp_changes = 0;  // evaluations whose output changed
  std::uint64_t edges = 0;         // clock edges applied
};

// Cache-line aligned, like the buffers it writes while stepping
// (util/cacheline.hpp): simulators built back to back and stepped on
// different threads share no line.
class alignas(util::kCacheLine) Simulator {
 public:
  /// Elaborates the design: runs the netlist optimizer (unless
  /// disabled), checks that combinational logic is acyclic (throwing
  /// util::Error otherwise), compiles the op tape and the threaded
  /// engine, allocates flat storage and applies power-up values.
  Simulator(const Design& design, const SimOptions& options);
  explicit Simulator(const Design& design,
                     EvalMode mode = EvalMode::kThreaded)
      : Simulator(design, SimOptions{.mode = mode}) {}
  ~Simulator();

  const Design& design() const { return design_; }

  EvalMode eval_mode() const { return mode_; }
  /// Switches the evaluation policy; all combinational state is
  /// re-evaluated on the next peek/step, so results are unaffected.
  void set_eval_mode(EvalMode mode);

  const SimActivity& activity() const { return activity_; }
  void reset_activity() { activity_ = {}; }

  /// Drives an input port.
  void poke(Wire input, const BitVec& value);
  void poke(Wire input, std::uint64_t value) {
    poke(input, BitVec(input.width, value));
  }
  void poke(const std::string& port, std::uint64_t value);

  /// Reads any wire's current value (combinational logic is brought
  /// up to date first).
  BitVec peek(Wire w);
  std::uint64_t peek_u64(Wire w);
  std::uint64_t peek_u64(const std::string& port);

  /// Applies one positive clock edge on the given domain, then
  /// re-evaluates combinational logic.
  void step(ClockId clock = {});
  /// Applies `n` edges on domain 0.
  void run(int n);

  /// Edges applied so far per clock domain.
  std::uint64_t cycles(ClockId clock = {}) const {
    return cycle_count_.at(static_cast<std::size_t>(clock.id));
  }

  /// Direct RAM access for loading images / reading results without
  /// simulating a host bus (tests and loaders use this; the driver path
  /// goes through the design's host interface instead).
  void write_ram(int ram, std::int64_t addr, const BitVec& value);
  BitVec read_ram(int ram, std::int64_t addr) const;

  /// Observer called after every clock edge (used by the VCD writer).
  using EdgeHook = std::function<void(Simulator&, ClockId)>;
  void set_edge_hook(EdgeHook hook) { edge_hook_ = std::move(hook); }

  /// Re-applies power-up values (registers to init, RAM reads to zero;
  /// RAM contents are preserved, ROMs reloaded). Also clears the
  /// activity counters: a reset starts a fresh measurement epoch, so
  /// work done before it is never double-counted against work after.
  void reset();

  /// Snapshottable leaf (see sim/snapshot.hpp): writes the complete
  /// replayable state — every wire word, every RAM word, per-domain
  /// cycle counts and the activity counters — into the caller's open
  /// section. Worklist/backend state is *not* serialized: it is derived,
  /// and load_state re-derives it by marking everything dirty, which
  /// converges to the identical fixed point under either policy
  /// (evaluation is a pure function of the restored values). load_state
  /// requires a simulator constructed over the same design and throws
  /// util::Error on a shape mismatch.
  void save_state(sim::SnapshotWriter& w) const;
  void load_state(sim::SnapshotReader& r);

  /// Number of ops compiled onto the tape (after the optimizer, when
  /// enabled).
  std::size_t tape_ops() const { return graph_.out_wire.size(); }
  /// True when the netlist optimizer ran at construction.
  bool optimized() const { return opt_.has_value(); }
  /// Per-pass optimizer accounting; nullptr when the optimizer is off.
  const OptimizeReport* optimize_report() const {
    return opt_ ? &opt_->report : nullptr;
  }

  /// The combinational dependency graph of the compiled tape (inputs
  /// resolved through the optimizer), as consumed by the threaded
  /// backend's region compiler. Exposed so tests can check the region
  /// partitioning invariants against the real tape.
  const RegionGraph& region_graph() const { return graph_; }
  /// The threaded engine's region plan.
  const RegionPlan& region_plan() const;

 private:
  struct WireSlot {
    std::int32_t offset = 0;  // index into values_
    std::int32_t words = 0;
    std::int32_t width = 0;
  };

  std::uint64_t* wire_ptr(std::int32_t id) {
    return values_.data() + slots_[static_cast<std::size_t>(id)].offset;
  }
  const std::uint64_t* wire_ptr(std::int32_t id) const {
    return values_.data() + slots_[static_cast<std::size_t>(id)].offset;
  }

  friend class ThreadedBackend;

  void eval_comb();
  void eval_comp(const Component& c, std::uint64_t* dst);
  void refresh_lazy();
  void commit_edge(ClockId clock);
  void split_components();
  std::vector<TOp> compile_tape();
  void mark_all_dirty();
  void store(Wire w, const BitVec& v);
  BitVec load(Wire w) const;

  const Design& design_;
  EvalMode mode_;
  std::optional<OptimizedNetlist> opt_;  // engaged iff optimizer enabled
  std::vector<WireSlot> slots_;
  util::CacheLineVector<std::uint64_t> values_;
  std::vector<std::int32_t> comb_order_;   // comb component indices, creation order
  std::vector<std::int32_t> seq_comps_;    // kReg / kRamRead / kRamWrite
  std::vector<util::CacheLineVector<std::uint64_t>> ram_data_;  // per RAM
  std::vector<std::int32_t> ram_stride_;   // words per RAM entry
  util::CacheLineVector<std::uint64_t> cycle_count_;
  // Staging for next register / RAM-read values (avoids ordering hazards).
  util::CacheLineVector<std::uint64_t> stage_;
  bool comb_dirty_ = true;                 // full-sweep mode only
  EdgeHook edge_hook_;

  RegionGraph graph_;                      // the compiled tape's dependencies
  std::vector<std::uint8_t> is_input_;     // per wire: design input?
  // DCE'd-but-observable logic: kept off the tape, re-evaluated only
  // when a peek asks for one of its wires (keeps peeks bit-identical).
  std::vector<std::int32_t> lazy_comps_;   // dead comb comps, topo order
  std::vector<std::uint8_t> wire_lazy_;    // per wire: driven by a dead comp
  bool lazy_stale_ = true;
  SimActivity activity_;

  // The production engine (chdl/threaded.hpp), built at construction and
  // kept across mode switches.
  std::unique_ptr<ThreadedBackend> threaded_;
};

}  // namespace atlantis::chdl

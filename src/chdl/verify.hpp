// Design verification utilities.
//
// CHDL's pitch is that verification happens by running the application
// against the simulated design. This header adds the complementary
// tool: randomized equivalence checking between two designs — e.g. a
// hand-optimized datapath against its naive reference, or a design
// before and after a netlist transformation. Both designs are driven
// with the same random input streams and their same-named outputs are
// compared cycle by cycle.
#pragma once

#include <cstdint>
#include <string>

#include "chdl/design.hpp"
#include "chdl/sim.hpp"

namespace atlantis::chdl {

struct EquivalenceReport {
  bool equivalent = true;
  std::uint64_t cycles_run = 0;
  std::string mismatch;  // human-readable first divergence

  explicit operator bool() const { return equivalent; }
};

struct EquivalenceOptions {
  int cycles = 1000;             // random stimulus cycles
  std::uint64_t seed = 0xC0FFEE;
  /// Skip this many initial cycles before comparing (lets pipelines of
  /// equal latency fill; designs must still agree cycle-by-cycle after).
  int warmup = 0;
  /// Evaluation policy per side. Passing the same design twice with
  /// different policies (e.g. optimizer on vs off) turns the checker
  /// into a randomized test for a netlist transformation.
  SimOptions sim_a{};
  SimOptions sim_b{};
};

/// Both designs must have identical input port names/widths and at least
/// one output name in common; common outputs are compared each cycle.
/// Throws util::Error on interface mismatch.
EquivalenceReport check_equivalence(const Design& a, const Design& b,
                                    const EquivalenceOptions& opts = {});

/// Human-readable name for a wire: its port name when it is a named
/// input/output, else the producing component's hierarchical instance
/// name, else "#<id>". Used by check_backends to report divergences by
/// name instead of raw wire index.
std::string wire_name(const Design& d, std::int32_t wire_id);

/// N-way backend cross-check over ONE design: every side simulates the
/// same netlist under its own SimOptions (different EvalMode and/or
/// optimizer setting) with identical random stimulus, and EVERY wire
/// plus every RAM word is compared each cycle — much stronger than the
/// output-only comparison of check_equivalence.
struct BackendCheckOptions {
  int cycles = 500;
  std::uint64_t seed = 0xA11CE;
  /// Simulators to pit against each other; side 0 is the reference.
  /// Empty selects the default three-way check: unoptimized full sweep
  /// vs unoptimized threaded vs threaded+optimizer.
  std::vector<SimOptions> sides;
};

struct BackendCheckReport {
  bool identical = true;
  std::uint64_t cycles_run = 0;
  std::string mismatch;  // first divergent wire, by name

  explicit operator bool() const { return identical; }
};

BackendCheckReport check_backends(const Design& d,
                                  const BackendCheckOptions& opts = {});

}  // namespace atlantis::chdl

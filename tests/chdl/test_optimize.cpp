// Unit tests for the netlist optimizer (chdl/optimize.hpp): each pass's
// rewrites checked against hand-built netlists, plus a randomized
// equivalence check (chdl/verify.hpp) of the optimized simulator against
// the unoptimized reference.
#include "chdl/optimize.hpp"

#include <gtest/gtest.h>

#include <string>

#include "chdl/design.hpp"
#include "chdl/export.hpp"
#include "chdl/sim.hpp"
#include "chdl/verify.hpp"

namespace atlantis::chdl {
namespace {

TEST(Optimize, FoldsFullyConstantExpressions) {
  Design d("fold");
  const Wire a = d.constant(16, 40);
  const Wire b = d.constant(16, 2);
  const Wire sum = d.add(a, b);
  d.output("y", sum);

  const OptimizedNetlist opt = optimize(d);
  ASSERT_TRUE(opt.folded(sum.id));
  EXPECT_EQ(opt.fold_value[static_cast<std::size_t>(sum.id)].to_u64(), 42u);
  const OptimizePassStats* fold = opt.report.pass("fold");
  ASSERT_NE(fold, nullptr);
  EXPECT_GE(fold->rewrites, 1);

  Simulator sim(d);
  EXPECT_EQ(sim.peek_u64("y"), 42u);
  EXPECT_TRUE(sim.optimized());
}

TEST(Optimize, FoldsIdentitiesToAliasesAndConstants) {
  Design d("ident");
  const Wire x = d.input("x", 8);
  const Wire self_xor = d.bxor(x, x);      // -> constant 0
  const Wire self_and = d.band(x, x);      // -> alias of x
  const Wire plus_zero = d.add(x, d.constant(8, 0));  // -> alias of x
  const Wire sel1 = d.mux(d.constant(1, 1), x, self_xor);  // -> alias of x
  d.output("a", self_xor);
  d.output("b", self_and);
  d.output("c", plus_zero);
  d.output("d", sel1);

  const OptimizedNetlist opt = optimize(d);
  EXPECT_TRUE(opt.folded(self_xor.id));
  EXPECT_EQ(opt.fold_value[static_cast<std::size_t>(self_xor.id)].to_u64(),
            0u);
  EXPECT_EQ(opt.forward[static_cast<std::size_t>(self_and.id)], x.id);
  EXPECT_EQ(opt.forward[static_cast<std::size_t>(plus_zero.id)], x.id);
  EXPECT_EQ(opt.forward[static_cast<std::size_t>(sel1.id)], x.id);

  // Aliased wires share the representative's storage: a poke is visible
  // through every alias immediately.
  Simulator sim(d);
  sim.poke("x", 0x5A);
  EXPECT_EQ(sim.peek_u64("b"), 0x5Au);
  EXPECT_EQ(sim.peek_u64("c"), 0x5Au);
  EXPECT_EQ(sim.peek_u64("d"), 0x5Au);
  EXPECT_EQ(sim.peek_u64("a"), 0u);
}

TEST(Optimize, CseMergesStructuralDuplicates) {
  Design d("cse");
  const Wire a = d.input("a", 12);
  const Wire b = d.input("b", 12);
  const Wire s1 = d.add(a, b);
  const Wire s2 = d.add(a, b);   // structural twin
  const Wire s3 = d.add(b, a);   // commutative twin
  d.output("x", s1);
  d.output("y", s2);
  d.output("z", s3);

  const OptimizedNetlist opt = optimize(d);
  EXPECT_EQ(opt.forward[static_cast<std::size_t>(s2.id)], s1.id);
  EXPECT_EQ(opt.forward[static_cast<std::size_t>(s3.id)], s1.id);
  const OptimizePassStats* cse = opt.report.pass("cse");
  ASSERT_NE(cse, nullptr);
  EXPECT_EQ(cse->rewrites, 2);

  Simulator sim(d);
  sim.poke("a", 100);
  sim.poke("b", 23);
  EXPECT_EQ(sim.peek_u64("x"), 123u);
  EXPECT_EQ(sim.peek_u64("y"), 123u);
  EXPECT_EQ(sim.peek_u64("z"), 123u);
}

TEST(Optimize, ConstantsAreInternedByTheDesign) {
  Design d("intern");
  const Wire c1 = d.constant(8, 5);
  const Wire c2 = d.constant(8, 5);
  const Wire c3 = d.constant(8, 6);
  const Wire c4 = d.constant(9, 5);  // same value, different width
  EXPECT_EQ(c1.id, c2.id);
  EXPECT_NE(c1.id, c3.id);
  EXPECT_NE(c1.id, c4.id);
}

TEST(Optimize, ReportCountsOpsPerPass) {
  Design d("report");
  const Wire x = d.input("x", 8);
  const Wire t = d.add(x, d.constant(8, 0));  // folds away
  d.output("y", d.band(t, t));

  const OptimizedNetlist opt = optimize(d);
  EXPECT_EQ(opt.report.passes.size(), 2u);  // fold, cse
  EXPECT_GT(opt.report.ops_before, 0);
  EXPECT_LE(opt.report.ops_after, opt.report.ops_before);
  EXPECT_FALSE(opt.report.to_string().empty());
}

TEST(Optimize, OptimizedExportShowsRewrites) {
  Design d("exportopt");
  const Wire x = d.input("x", 8);
  const Wire aliased = d.band(x, x);
  const Wire folded = d.bxor(x, x);
  d.output("a", aliased);
  d.output("b", folded);

  const OptimizedNetlist opt = optimize(d);
  const std::string text = export_netlist(d, opt);
  EXPECT_NE(text.find("(optimized)"), std::string::npos);
  EXPECT_NE(text.find("; alias"), std::string::npos);
  EXPECT_NE(text.find("; folded"), std::string::npos);
}

TEST(Optimize, EscapeHatchDisablesEverything) {
  Design d("hatch");
  const Wire x = d.input("x", 8);
  d.output("y", d.band(x, x));

  SimOptions off;
  off.optimize = false;
  Simulator raw(d, off);
  Simulator opt(d);
  EXPECT_FALSE(raw.optimized());
  EXPECT_TRUE(opt.optimized());
  EXPECT_EQ(raw.optimize_report(), nullptr);
  ASSERT_NE(opt.optimize_report(), nullptr);
  EXPECT_LE(opt.tape_ops(), raw.tape_ops());
  raw.poke("x", 3);
  opt.poke("x", 3);
  EXPECT_EQ(raw.peek_u64("y"), opt.peek_u64("y"));
}

/// A design mixing what the passes rewrite (identities, duplicates,
/// constant operands) with inverters, slice-of-concat and a register.
void build_mixed(Design& d) {
  const Wire a = d.input("a", 16);
  const Wire b = d.input("b", 16);
  const Wire t1 = d.band(a, d.bnot(b));
  const Wire t2 = d.add(a, d.constant(16, 3));
  const Wire sel = d.eq(b, d.constant(16, 100));
  const Wire t4 = d.mux(sel, t1, t2);
  const Wire dup = d.band(a, d.bnot(b));
  const Wire cat = d.concat({a, b});
  const Wire sl = d.slice(cat, 4, 8);
  const Wire r = d.reg("r", t4);
  d.output("y", d.bxor(r, dup));
  d.output("z", sl);
  d.output("w", d.sub(t2, d.constant(16, 0)));
}

// Fold and CSE always run together, so the one pass combination there
// is gets checked against the unoptimized reference.
TEST(Optimize, EveryPassCombinationIsEquivalentToReference) {
  Design ref("mixed_ref");
  build_mixed(ref);
  Design opt("mixed_opt");
  build_mixed(opt);

  EquivalenceOptions eq;
  eq.cycles = 200;
  eq.sim_a.optimize = false;
  eq.sim_b.optimize = true;
  const EquivalenceReport report = check_equivalence(ref, opt, eq);
  EXPECT_TRUE(report.equivalent) << report.mismatch;
}

}  // namespace
}  // namespace atlantis::chdl

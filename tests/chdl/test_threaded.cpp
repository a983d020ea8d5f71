// Threaded engine: region partitioning invariants, region-output
// diffing, the set_eval_mode/reset contract, multi-port RAM write
// ordering, and the quiescent cost on the real TRT core. The
// bit-exactness of the engine itself is proven by the three-way
// differential fuzz in test_fuzz.cpp; these tests pin the structural
// properties the executor's correctness argument rests on.
#include "chdl/threaded.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "chdl/builder.hpp"
#include "chdl/hostif.hpp"
#include "chdl/region.hpp"
#include "chdl/sim.hpp"
#include "chdl/verify.hpp"
#include "trt/trt_core.hpp"
#include "util/rng.hpp"

namespace atlantis::chdl {
namespace {

/// A design with enough structure to produce a non-trivial region plan:
/// shared subexpressions (multi-consumer wires force region breaks),
/// long chains (single-consumer runs fuse), registers and a RAM.
Design plan_fixture() {
  Design d("fixture");
  const Wire a = d.input("a", 16);
  const Wire b = d.input("b", 16);
  const Wire shared = d.add(a, b);  // consumed three times: its own region
  Wire chain = shared;
  for (int i = 0; i < 10; ++i) chain = d.bxor(d.add(chain, a), b);
  const Wire q = d.reg("q", d.band(shared, chain));
  const int ram = d.add_ram("m", 16, 16);
  d.ram_write(ram, d.slice(q, 0, 4), shared, d.reduce_or(chain));
  const Wire rd = d.ram_read(ram, d.slice(chain, 0, 4));
  d.output("y", d.bxor(rd, q));
  d.output("z", d.ult(shared, chain));
  return d;
}

TEST(Region, PlanIsDeterministic) {
  const Design d = plan_fixture();
  Simulator s1(d);
  Simulator s2(d);
  const RegionPlan& p1 = s1.region_plan();
  const RegionPlan& p2 = s2.region_plan();
  EXPECT_EQ(p1.op_order, p2.op_order);
  EXPECT_EQ(p1.out_wires, p2.out_wires);
  EXPECT_EQ(p1.op_region, p2.op_region);
  EXPECT_EQ(p1.fan_begin, p2.fan_begin);
  EXPECT_EQ(p1.fan_regions, p2.fan_regions);
  ASSERT_EQ(p1.regions.size(), p2.regions.size());
  for (std::size_t r = 0; r < p1.regions.size(); ++r) {
    EXPECT_EQ(p1.regions[r].ops_begin, p2.regions[r].ops_begin);
    EXPECT_EQ(p1.regions[r].ops_end, p2.regions[r].ops_end);
    EXPECT_EQ(p1.regions[r].level, p2.regions[r].level);
  }
}

/// The executor's correctness argument: (1) every op belongs to exactly
/// one region; (2) only a region's TAIL output ever feeds another
/// region, so executing a region straight-line with one change check at
/// its outputs is sound; (3) region levels strictly increase along
/// inter-region edges, so the level-bucketed worklist drains in one
/// pass; (4) the diffed output set covers exactly the externally
/// consumed and sequentially consumed wires.
TEST(Region, SingleEntryInvariantsHoldOnRealTape) {
  const Design d = plan_fixture();
  Simulator sim(d);
  const RegionGraph& g = sim.region_graph();
  const RegionPlan* plan = &sim.region_plan();

  // (1) op_order is a permutation of the tape, each op owned once.
  ASSERT_EQ(plan->op_order.size(), static_cast<std::size_t>(g.op_count()));
  std::set<std::int32_t> seen(plan->op_order.begin(), plan->op_order.end());
  EXPECT_EQ(seen.size(), plan->op_order.size());

  std::map<std::int32_t, std::int32_t> producer;  // wire -> op
  for (std::int32_t t = 0; t < g.op_count(); ++t) {
    producer[g.out_wire[static_cast<std::size_t>(t)]] = t;
  }
  std::set<std::int32_t> external_or_seq;  // wires that must be diffed
  for (std::int32_t t = 0; t < g.op_count(); ++t) {
    const std::int32_t rt = plan->op_region[static_cast<std::size_t>(t)];
    for (std::int32_t i = g.in_begin[static_cast<std::size_t>(t)];
         i < g.in_begin[static_cast<std::size_t>(t) + 1]; ++i) {
      const std::int32_t w = g.in_wires[static_cast<std::size_t>(i)];
      const auto it = producer.find(w);
      if (it == producer.end()) continue;  // port/register/RAM input
      const std::int32_t p = it->second;
      const std::int32_t rp = plan->op_region[static_cast<std::size_t>(p)];
      if (rp == rt) {
        // Intra-region edge: the producer must execute earlier in the
        // same straight-line block.
        const Region& region = plan->regions[static_cast<std::size_t>(rp)];
        std::int32_t pos_p = -1, pos_t = -1;
        for (std::int32_t k = region.ops_begin; k < region.ops_end; ++k) {
          if (plan->op_order[static_cast<std::size_t>(k)] == p) pos_p = k;
          if (plan->op_order[static_cast<std::size_t>(k)] == t) pos_t = k;
        }
        EXPECT_GE(pos_p, region.ops_begin);
        EXPECT_LT(pos_p, pos_t) << "producer after consumer in region " << rp;
        continue;
      }
      // (2) inter-region edge: producer is its region's tail op.
      const Region& pregion = plan->regions[static_cast<std::size_t>(rp)];
      EXPECT_EQ(plan->op_order[static_cast<std::size_t>(pregion.ops_end - 1)],
                p)
          << "non-tail wire " << w << " crosses region boundary";
      // (3) levels strictly increase along the edge.
      EXPECT_LT(pregion.level,
                plan->regions[static_cast<std::size_t>(rt)].level);
      external_or_seq.insert(w);
    }
  }
  for (std::int32_t t = 0; t < g.op_count(); ++t) {
    const std::int32_t w = g.out_wire[static_cast<std::size_t>(t)];
    if (g.wire_seq_consumed[static_cast<std::size_t>(w)] != 0) {
      external_or_seq.insert(w);
    }
  }
  // (4) the diffed set is exactly the externally/sequentially consumed
  // producer outputs.
  const std::set<std::int32_t> diffed(plan->out_wires.begin(),
                                      plan->out_wires.end());
  EXPECT_EQ(diffed, external_or_seq);
}

TEST(Region, MaxRegionOpsCapsChains) {
  // A 100-op single-consumer chain splits at the cap: 64 + 36 ops, and
  // the split chain still computes the right value.
  Design d("chain");
  Wire x = d.input("x", 32);
  const Wire one = d.input("k", 32);
  for (int i = 0; i < 100; ++i) x = d.add(x, one);
  d.output("y", x);
  Simulator sim(d, SimOptions{.optimize = false});
  std::vector<std::int32_t> sizes;
  for (const Region& r : sim.region_plan().regions) {
    sizes.push_back(r.ops_end - r.ops_begin);
  }
  EXPECT_EQ(sizes, (std::vector<std::int32_t>{kMaxRegionOps, 100 - kMaxRegionOps}));
  sim.poke("x", 5);
  sim.poke("k", 3);
  EXPECT_EQ(sim.peek_u64("y"), (5ull + 100ull * 3ull) & 0xFFFFFFFFull);
}

// A region whose output does not change must not wake its consumers:
// the single change check at region outputs short-circuits propagation
// at region granularity.
TEST(Threaded, RegionOutputDiffShortCircuits) {
  Design d("diamond");
  const Wire a = d.input("a", 8);
  const Wire b = d.input("b", 8);
  const Wire m = d.band(a, b);  // two consumers: a one-op region
  d.output("y1", d.bor(m, d.input("c", 8)));
  d.output("y2", d.bxor(m, d.input("e", 8)));
  Simulator sim(d, SimOptions{.optimize = false});
  sim.poke("a", 0x0F);
  sim.poke("b", 0xF0);  // m = 0
  sim.peek_u64("y1");
  sim.reset_activity();
  // a changes but m stays 0: only m's own region re-executes.
  sim.poke("a", 0x07);
  sim.peek_u64("y1");
  EXPECT_EQ(sim.activity().comp_evals, 1u);
  EXPECT_EQ(sim.activity().comp_changes, 0u);
  // Now make m change: downstream regions run too.
  sim.poke("b", 0xFF);
  sim.peek_u64("y1");
  EXPECT_EQ(sim.activity().comp_evals, 4u);  // m again + its two consumers
  EXPECT_EQ(sim.peek_u64("y2"), (0x07ull & 0xFFull) ^ 0ull);
}

TEST(Threaded, DispatchFlavorMatchesBuild) {
#if defined(ATLANTIS_THREADED_FORCE_SWITCH)
  // CI's fallback builds must really exercise the switch loop.
  EXPECT_FALSE(threaded_uses_computed_goto());
#elif defined(__GNUC__) || defined(__clang__)
  EXPECT_TRUE(threaded_uses_computed_goto());
#else
  EXPECT_FALSE(threaded_uses_computed_goto());
#endif
  // Whichever dispatch this build uses, it must agree with the full-sweep
  // reference on every wire (the default three-way check).
  const Design d = plan_fixture();
  BackendCheckOptions opts;
  opts.cycles = 200;
  const BackendCheckReport rep = check_backends(d, opts);
  EXPECT_TRUE(rep) << rep.mismatch;
}

// reset() starts a fresh measurement epoch: activity counters cleared,
// all state re-marked, results identical to a freshly built simulator.
TEST(Threaded, ResetClearsActivityAndRebuildsDirtyState) {
  const Design d = plan_fixture();
  for (const EvalMode mode : {EvalMode::kThreaded, EvalMode::kFullSweep}) {
    Simulator sim(d, mode);
    sim.poke("a", 123);
    sim.poke("b", 77);
    sim.run(20);
    EXPECT_GT(sim.activity().comp_evals, 0u);
    EXPECT_GT(sim.activity().edges, 0u);
    sim.reset();
    EXPECT_EQ(sim.activity().comp_evals, 0u);
    EXPECT_EQ(sim.activity().comp_changes, 0u);
    EXPECT_EQ(sim.activity().edges, 0u);
    EXPECT_EQ(sim.cycles(), 0u);
    // Post-reset behaviour matches a fresh simulator bit for bit.
    Simulator fresh(d, mode);
    sim.poke("a", 9);
    fresh.poke("a", 9);
    sim.poke("b", 4);
    fresh.poke("b", 4);
    for (int i = 0; i < 10; ++i) {
      EXPECT_EQ(sim.peek_u64("y"), fresh.peek_u64("y"));
      EXPECT_EQ(sim.peek_u64("z"), fresh.peek_u64("z"));
      sim.step();
      fresh.step();
    }
  }
}

// Switching backends mid-run must rebuild dirty state (no stale values
// leak) and a same-mode switch must be a no-op.
TEST(Threaded, MidRunModeSwitchIsBitIdentical) {
  const Design d = plan_fixture();
  Simulator switching(d);
  Simulator full(d, EvalMode::kFullSweep);
  Simulator threaded(d);
  util::Rng rng(99);
  const EvalMode schedule[] = {EvalMode::kFullSweep, EvalMode::kThreaded};
  int phase = 0;
  for (int cycle = 0; cycle < 100; ++cycle) {
    if (cycle % 20 == 10) {
      // Poke while dirty, THEN switch: the rebuild must pick it up.
      switching.set_eval_mode(schedule[phase++ % 2]);
    }
    const std::uint64_t va = rng.next_u64() & 0xFFFF;
    const std::uint64_t vb = rng.next_u64() & 0xFFFF;
    for (Simulator* s : {&switching, &full, &threaded}) {
      s->poke("a", va);
      s->poke("b", vb);
    }
    for (std::int32_t id = 0; id < d.wire_count(); ++id) {
      const Wire w{id, d.wire_width(id)};
      ASSERT_EQ(switching.peek(w), full.peek(w))
          << "wire " << wire_name(d, id) << " cycle " << cycle;
      ASSERT_EQ(threaded.peek(w), full.peek(w))
          << "wire " << wire_name(d, id) << " cycle " << cycle;
    }
    switching.step();
    full.step();
    threaded.step();
  }

  // Same-mode switch: no rebuild, no extra work on the next peek.
  threaded.peek_u64("y");
  threaded.reset_activity();
  threaded.set_eval_mode(EvalMode::kThreaded);
  threaded.peek_u64("y");
  EXPECT_EQ(threaded.activity().comp_evals, 0u);
}

// Two write ports on one RAM hitting one word on one edge: the
// later-created port lands, as in the reference. The engine latches
// dirty ports in marking order, so the later port's inputs are poked
// first here; the commit must still order the writes by creation. On
// the next edge the later port's enable drops while the earlier port's
// inputs hold: only its sticky re-arm makes the earlier port write.
TEST(Threaded, MultiPortRamWriteLastWriteWins) {
  Design d("two_ports");
  const Wire addr0 = d.input("addr0", 4);
  const Wire data0 = d.input("data0", 8);
  const Wire we0 = d.input("we0", 1);
  const Wire addr1 = d.input("addr1", 4);
  const Wire data1 = d.input("data1", 8);
  const Wire we1 = d.input("we1", 1);
  const int ram = d.add_ram("m", 16, 8);
  d.ram_write(ram, addr0, data0, we0);  // earlier-created port
  d.ram_write(ram, addr1, data1, we1);  // later-created port
  d.output("q", d.ram_read(ram, d.input("raddr", 4)));

  Simulator threaded(d);
  Simulator full(d, SimOptions{.mode = EvalMode::kFullSweep, .optimize = false});
  const auto both = [&](const char* port, std::uint64_t v) {
    threaded.poke(port, v);
    full.poke(port, v);
  };
  both("raddr", 3);
  threaded.step();  // settle: nothing armed after this edge
  full.step();

  both("addr1", 3);
  both("data1", 0xBB);
  both("we1", 1);
  both("addr0", 3);
  both("data0", 0xAA);
  both("we0", 1);
  threaded.step();
  full.step();
  EXPECT_EQ(full.read_ram(ram, 3).to_u64(), 0xBBu);
  EXPECT_EQ(threaded.read_ram(ram, 3).to_u64(), 0xBBu);

  both("we1", 0);
  threaded.step();
  full.step();
  EXPECT_EQ(full.read_ram(ram, 3).to_u64(), 0xAAu);
  EXPECT_EQ(threaded.read_ram(ram, 3).to_u64(), 0xAAu);

  threaded.step();  // the read port sees the landed word
  full.step();
  EXPECT_EQ(threaded.peek_u64("q"), 0xAAu);
  EXPECT_EQ(full.peek_u64("q"), 0xAAu);
}

// The headline property behind the bench_a5 speedup: an idle TRT cycle
// costs nothing — no combinational evaluation at all once the core is
// quiescent.
TEST(Threaded, QuiescentTrtCycleCostMatchesEventMode) {
  trt::DetectorGeometry geo;
  geo.layers = 8;
  geo.straws_per_layer = 32;
  trt::PatternBank bank(geo, 64);
  Design d("trt_quiescent");
  trt::build_trt_core(d, bank);

  Simulator sim(d);
  HostInterface host(sim);
  host.write(0x01, 5);  // one hit, then let the core go quiescent
  host.idle(50);
  sim.reset_activity();
  host.idle(1000);  // measured region: pure idle cycles
  EXPECT_EQ(sim.activity().comp_evals, 0u);
  EXPECT_EQ(sim.activity().edges, 1000u);
}

TEST(Verify, CheckBackendsReportsDivergentWireByName) {
  // A healthy design passes the default three-way check.
  Design d("ok");
  const Wire x = d.input("x", 8);
  const Wire pipe = d.reg("pipe", d.add(x, d.constant(8, 1)));
  d.output("q", d.bnot(pipe));
  const BackendCheckReport rep = check_backends(d);
  EXPECT_TRUE(rep) << rep.mismatch;
  EXPECT_EQ(rep.cycles_run, 500u);

  // wire_name resolves ports, named components and anonymous nets.
  EXPECT_EQ(wire_name(d, x.id), "input 'x'");
  EXPECT_EQ(wire_name(d, d.port("q").id), "output 'q'");
  EXPECT_EQ(wire_name(d, pipe.id), "'pipe'");
  EXPECT_EQ(wire_name(d, 999), "#999");
}

TEST(Verify, CheckBackendsPinsExplicitSides) {
  const Design d = plan_fixture();
  BackendCheckOptions opts;
  opts.cycles = 100;
  SimOptions thr_raw;
  thr_raw.mode = EvalMode::kThreaded;
  thr_raw.optimize = false;
  SimOptions thr_opt;
  thr_opt.mode = EvalMode::kThreaded;
  thr_opt.optimize = true;
  SimOptions full;
  full.mode = EvalMode::kFullSweep;
  full.optimize = false;
  opts.sides = {full, thr_raw, thr_opt};
  const BackendCheckReport rep = check_backends(d, opts);
  EXPECT_TRUE(rep) << rep.mismatch;
}

}  // namespace
}  // namespace atlantis::chdl

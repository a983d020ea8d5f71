// A5 — simulator speed: the production threaded engine (region
// superops, event-driven edge tape) against the full-sweep reference,
// with the netlist optimizer off and on, plus lockstep multi-FPGA
// stepping of an ACB matrix. The headline claims: on the
// quiescent-heavy TRT histogrammer workload (sparse straw pushes
// separated by idle cycles — how the core actually behaves between
// hits) the threaded engine is >= 3x faster in cycles/sec than full
// sweep and skips most evaluations, bit-identically; and the optimizer
// pipeline (fold/dce/cse/fuse) shrinks the op tape on top of that.
// Emits BENCH_simspeed.json with one row per configuration per workload.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "chdl/hostif.hpp"
#include "chdl/sim.hpp"
#include "chdl/stats.hpp"
#include "chdl/threaded.hpp"
#include "core/acb.hpp"
#include "hw/fpga.hpp"
#include "imgproc/conv_core.hpp"
#include "trt/trt_core.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using atlantis::chdl::Design;
using atlantis::chdl::EvalMode;
using atlantis::chdl::HostInterface;
using atlantis::chdl::OptimizePassStats;
using atlantis::chdl::OptimizeReport;
using atlantis::chdl::SimOptions;
using atlantis::chdl::Simulator;

template <typename F>
double seconds(F&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Quiescent-heavy workload: one straw push, then `period - 1` idle
/// cycles, repeated — the duty cycle of a histogrammer between hits.
void drive_trt(Simulator& sim, int cycles, int period, int straw_count) {
  HostInterface host(sim);
  atlantis::util::Rng rng(42);
  int c = 0;
  while (c < cycles) {
    host.write(0x01, rng.next_below(static_cast<std::uint64_t>(straw_count)));
    ++c;
    const int idle = std::min(period - 1, cycles - c);
    host.idle(idle);
    c += idle;
  }
}

/// Active-heavy workload: one pixel per clock, the streaming convolver's
/// steady state. The threaded engine has little quiescence to exploit
/// here, so this bounds its bookkeeping overhead.
void drive_conv(Simulator& sim, int pixels) {
  HostInterface host(sim);
  atlantis::util::Rng rng(7);
  for (int i = 0; i < pixels; ++i) host.write(0x01, rng.next_below(256));
}

struct ModeResult {
  double secs = 0;
  double cycles_per_sec = 0;
  std::uint64_t comp_evals = 0;
  std::size_t tape_ops = 0;
  OptimizeReport opt;                   // copy; empty when optimizer off
  bool optimized = false;
  std::vector<std::uint64_t> observed;  // architectural results to compare
};

/// The three configurations every workload runs under: the full-sweep
/// reference, the threaded engine on the elaborated netlist (so the
/// optimizer's share stays visible), and the production default.
SimOptions policy_full() {
  return SimOptions{.mode = EvalMode::kFullSweep, .optimize = false};
}
SimOptions policy_threaded_raw() { return SimOptions{.optimize = false}; }
SimOptions policy_threaded() { return SimOptions{}; }

std::int64_t pass_removed(const OptimizeReport& r, const char* name) {
  const OptimizePassStats* p = r.pass(name);
  return p == nullptr ? 0 : p->ops_before - p->ops_after;
}

std::int64_t pass_rewrites(const OptimizeReport& r, const char* name) {
  const OptimizePassStats* p = r.pass(name);
  return p == nullptr ? 0 : p->rewrites;
}

}  // namespace

int main() {
  using namespace atlantis;
  bench::banner("A5", "simulator speed: threaded engine + optimizer");

  std::ofstream json("BENCH_simspeed.json");
  json << "{\n";

  // --- TRT histogrammer, quiescent-heavy -----------------------------------
  trt::DetectorGeometry geo;
  geo.layers = 16;
  geo.straws_per_layer = 64;
  trt::PatternBank bank(geo, 256);
  chdl::Design trt_design("trt_bench");
  trt::build_trt_core(trt_design, bank);

  // Smoke mode (BENCH_SMOKE=1, the CI setting) shrinks the workloads and
  // skips the wall-clock speed expectations below; the bit-identical
  // and op-count checks still run in full.
  const bool smoke = bench::smoke();
  // Full runs take the best of five timings per policy: the threaded
  // configurations finish a run in single-digit milliseconds, where a
  // single timing on a busy host can be mostly scheduler noise.
  const int kReps = smoke ? 1 : 5;
  auto best_of = [&](const auto& fn) {
    ModeResult best = fn();
    for (int rep = 1; rep < kReps; ++rep) {
      ModeResult r = fn();
      if (r.cycles_per_sec > best.cycles_per_sec) best = std::move(r);
    }
    return best;
  };
  const int kTrtCycles = smoke ? 4000 : 24000;
  const int kTrtPeriod = 64;
  auto run_trt = [&](const SimOptions& so) {
    Simulator sim(trt_design, so);
    sim.peek_u64("host_rdata");  // settle power-up state outside the timer
    sim.reset_activity();
    ModeResult r;
    r.secs = seconds([&] {
      drive_trt(sim, kTrtCycles, kTrtPeriod, geo.straw_count());
    });
    r.cycles_per_sec = kTrtCycles / r.secs;
    r.comp_evals = sim.activity().comp_evals;
    r.tape_ops = sim.tape_ops();
    if (sim.optimize_report() != nullptr) {
      r.opt = *sim.optimize_report();
      r.optimized = true;
    }
    HostInterface host(sim);
    r.observed.push_back(host.read(0x03));  // patterns over threshold
    for (int p = 0; p < 256; p += 17) {
      r.observed.push_back(host.read(0x10 + static_cast<std::uint32_t>(p)));
    }
    return r;
  };
  const ModeResult trt_full = best_of([&] { return run_trt(policy_full()); });
  const ModeResult trt_raw =
      best_of([&] { return run_trt(policy_threaded_raw()); });
  const ModeResult trt_thr = best_of([&] { return run_trt(policy_threaded()); });
  const double trt_speedup = trt_thr.cycles_per_sec / trt_full.cycles_per_sec;

  // --- 3x3 convolution engine, active-heavy --------------------------------
  chdl::Design conv_design("conv_bench");
  imgproc::build_conv_core(conv_design, 256, imgproc::Kernel3x3::gaussian());
  const int kConvPixels = smoke ? 4000 : 20000;
  auto run_conv = [&](const SimOptions& so) {
    Simulator sim(conv_design, so);
    sim.peek_u64("host_rdata");
    sim.reset_activity();
    ModeResult r;
    r.secs = seconds([&] { drive_conv(sim, kConvPixels); });
    r.cycles_per_sec = kConvPixels / r.secs;
    r.comp_evals = sim.activity().comp_evals;
    r.tape_ops = sim.tape_ops();
    if (sim.optimize_report() != nullptr) {
      r.opt = *sim.optimize_report();
      r.optimized = true;
    }
    HostInterface host(sim);
    r.observed.push_back(host.read(0x02));
    r.observed.push_back(host.read(0x03));
    return r;
  };
  const ModeResult conv_full = best_of([&] { return run_conv(policy_full()); });
  const ModeResult conv_raw =
      best_of([&] { return run_conv(policy_threaded_raw()); });
  const ModeResult conv_thr =
      best_of([&] { return run_conv(policy_threaded()); });
  const double conv_speedup =
      conv_thr.cycles_per_sec / conv_full.cycles_per_sec;

  // --- ACB matrix ------------------------------------------------------------
  // Four TRT cores on one board, all kept in full-sweep mode so every
  // simulator has real per-edge work, stepped in lockstep with the link
  // exchange between edges.
  trt::PatternBank small_bank(geo, 64);
  chdl::Design node_design("trt_node");
  trt::build_trt_core(node_design, small_bank);
  const int kMatrixCycles = smoke ? 400 : 2000;
  core::AcbBoard board("acb");
  const hw::Bitstream node_bs = hw::Bitstream::from_design(node_design);
  for (int i = 0; i < core::AcbBoard::kFpgaCount; ++i) {
    board.fpga(i).configure(node_bs);
    board.fpga(i).sim()->set_eval_mode(EvalMode::kFullSweep);
    board.fpga(i).sim()->peek_u64("host_rdata");
  }
  const double matrix_cps =
      kMatrixCycles / seconds([&] { board.step_matrix(kMatrixCycles); });

  // --- report ---------------------------------------------------------------
  util::Table t("A5: cycles/sec by evaluation policy");
  t.set_header({"workload", "full-sweep", "threaded raw", "threaded",
                "thr/full", "tape ops", "fold/dce/cse/fuse"});
  auto row = [&](const std::string& name, const ModeResult& f,
                 const ModeResult& raw, const ModeResult& thr,
                 double speedup) {
    std::string tape = std::to_string(thr.opt.ops_before) + "->" +
                       std::to_string(thr.tape_ops);
    std::string passes = std::to_string(pass_removed(thr.opt, "fold")) + "/" +
                         std::to_string(pass_removed(thr.opt, "dce")) + "/" +
                         std::to_string(pass_removed(thr.opt, "cse")) + "/" +
                         std::to_string(pass_rewrites(thr.opt, "fuse"));
    t.add_row({name, std::to_string(static_cast<long long>(f.cycles_per_sec)),
               std::to_string(static_cast<long long>(raw.cycles_per_sec)),
               std::to_string(static_cast<long long>(thr.cycles_per_sec)),
               std::to_string(speedup).substr(0, 5), tape, passes});
  };
  row("TRT histogrammer (1/64 duty)", trt_full, trt_raw, trt_thr, trt_speedup);
  row("3x3 conv (pixel every clock)", conv_full, conv_raw, conv_thr,
      conv_speedup);
  t.add_row({"ACB 2x2 matrix (full sweep)",
             std::to_string(static_cast<long long>(matrix_cps)), "-", "-",
             "-", "-", "-"});
  t.add_note("threaded = region-superop engine (" +
             std::string(chdl::threaded_uses_computed_goto()
                             ? "computed-goto"
                             : "switch") +
             " dispatch) with the optimizer, the production default; "
             "threaded raw = the same engine without it");
  t.add_note("tape ops column: comb ops as elaborated -> ops compiled after "
             "fold/dce/cse/fuse; pass column counts ops removed (fuse: "
             "rewrites)");
  t.print();

  const char* dispatch =
      chdl::threaded_uses_computed_goto() ? "computed_goto" : "switch";
  auto emit_workload = [&](const char* key, int cycles, const ModeResult& f,
                           const ModeResult& raw, const ModeResult& thr,
                           double speedup) {
    const auto backend_row = [&](const char* backend, const ModeResult& r,
                                 bool last) {
      json << "    {\"backend\": \"" << backend
           << "\", \"cps\": " << r.cycles_per_sec
           << ", \"evals\": " << r.comp_evals
           << ", \"tape_ops\": " << r.tape_ops
           << ", \"optimized\": " << (r.optimized ? "true" : "false") << "}"
           << (last ? "\n" : ",\n");
    };
    json << "  \"" << key << "\": {\"cycles\": " << cycles
         << ", \"full_sweep_cps\": " << f.cycles_per_sec
         << ", \"threaded_raw_cps\": " << raw.cycles_per_sec
         << ", \"threaded_cps\": " << thr.cycles_per_sec
         << ", \"speedup\": " << speedup
         << ", \"dispatch\": \"" << dispatch << "\""
         << ", \"full_evals\": " << f.comp_evals
         << ", \"threaded_evals\": " << thr.comp_evals
         << ", \"tape_ops_before\": " << thr.opt.ops_before
         << ", \"tape_ops_after\": " << thr.tape_ops
         << ", \"fold_removed\": " << pass_removed(thr.opt, "fold")
         << ", \"dce_removed\": " << pass_removed(thr.opt, "dce")
         << ", \"cse_removed\": " << pass_removed(thr.opt, "cse")
         << ", \"fuse_rewrites\": " << pass_rewrites(thr.opt, "fuse")
         << ", \"backends\": [\n";
    backend_row("full_sweep", f, false);
    backend_row("threaded_raw", raw, false);
    backend_row("threaded", thr, true);
    json << "  ]},\n";
  };
  emit_workload("trt", kTrtCycles, trt_full, trt_raw, trt_thr, trt_speedup);
  emit_workload("conv", kConvPixels, conv_full, conv_raw, conv_thr,
                conv_speedup);
  json << "  \"acb_matrix\": {\"cycles\": " << kMatrixCycles
       << ", \"sims\": " << core::AcbBoard::kFpgaCount
       << ", \"serial_cps\": " << matrix_cps << "}\n";
  json << "}\n";
  json.close();
  std::printf("\nwrote BENCH_simspeed.json\n");

  bench::expect(trt_raw.observed == trt_full.observed,
                "threaded raw TRT results are bit-identical to full sweep");
  bench::expect(trt_thr.observed == trt_full.observed,
                "threaded TRT results are bit-identical to full sweep");
  bench::expect(conv_raw.observed == conv_full.observed,
                "threaded raw conv results are bit-identical to full sweep");
  bench::expect(conv_thr.observed == conv_full.observed,
                "threaded conv results are bit-identical to full sweep");
  if (smoke) {
    std::printf("  [smoke   ] wall-clock speed expectations skipped "
                "(BENCH_SMOKE set)\n");
  } else {
    bench::expect(trt_speedup >= 3.0,
                  "threaded engine >= 3x over full sweep on the "
                  "quiescent-heavy TRT workload");
  }
  bench::expect(trt_thr.comp_evals * 5 < trt_full.comp_evals,
                "threaded engine skips most evaluations on sparse input");
  bench::expect(trt_thr.tape_ops <
                    static_cast<std::size_t>(trt_thr.opt.ops_before),
                "optimizer shrinks the TRT op tape");
  bench::expect(conv_thr.tape_ops <
                    static_cast<std::size_t>(conv_thr.opt.ops_before),
                "optimizer shrinks the conv op tape");
  bench::expect(matrix_cps > 0, "ACB matrix stepping reported");
  return bench::finish();
}

// A5 — simulator speed: the production threaded engine (region
// superops, event-driven edge tape) against the full-sweep reference,
// with the netlist optimizer (fold + CSE) off and on, on all four CHDL
// cores in src/, plus lockstep multi-FPGA stepping of an ACB matrix.
// The three configurations run round-robin for a fixed number of rounds
// in one process, so host drift lands on all of them alike; every row
// reports the median and quartiles of its rounds. The headline claims:
// on the quiescent-heavy TRT histogrammer workload (sparse straw pushes
// separated by idle cycles — how the core actually behaves between
// hits) the threaded engine is >= 3x faster in cycles/sec than full
// sweep and skips most evaluations, bit-identically; and the optimizer
// shrinks every core's op tape.
// Emits BENCH_simspeed.json with one row per configuration per core.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "chdl/hostif.hpp"
#include "chdl/sim.hpp"
#include "chdl/stats.hpp"
#include "core/acb.hpp"
#include "hw/fpga.hpp"
#include "imgproc/conv_core.hpp"
#include "imgproc/sobel_core.hpp"
#include "trt/trt_core.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "volren/interp_core.hpp"

namespace {

using atlantis::chdl::Design;
using atlantis::chdl::EvalMode;
using atlantis::chdl::HostInterface;
using atlantis::chdl::OptimizePassStats;
using atlantis::chdl::OptimizeReport;
using atlantis::chdl::SimOptions;
using atlantis::chdl::Simulator;
using atlantis::chdl::Wire;

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

/// Active-heavy workload: one pixel per clock, a streaming filter's
/// steady state. The threaded engine has little quiescence to exploit
/// here, so this bounds its bookkeeping overhead.
void drive_pixels(Simulator& sim, int pixels) {
  HostInterface host(sim);
  atlantis::util::Rng rng(7);
  for (int i = 0; i < pixels; ++i) host.write(0x01, rng.next_below(256));
}

/// One CHDL core under test: its design, what one round drives through
/// a fresh simulator, and the architectural results read back afterwards
/// (every configuration must read the same).
struct Core {
  std::string key;    // BENCH_simspeed.json key
  std::string label;  // table row
  std::unique_ptr<Design> design;
  std::function<void(Simulator&)> drive;
  std::function<std::vector<std::uint64_t>(Simulator&)> observe;
};

/// The three configurations every core runs under: the full-sweep
/// reference, the threaded engine on the elaborated netlist (so the
/// optimizer's share stays visible), and the production default.
struct Config {
  const char* key;
  SimOptions options;
};
const Config kConfigs[] = {
    {"full_sweep", SimOptions{.mode = EvalMode::kFullSweep, .optimize = false}},
    {"threaded_raw", SimOptions{.optimize = false}},
    {"threaded", SimOptions{}},
};
constexpr std::size_t kFull = 0;
constexpr std::size_t kRaw = 1;
constexpr std::size_t kThr = 2;

/// Everything the rounds of one (core, configuration) pair measured.
struct Row {
  std::vector<double> cps;  // cycles/sec, one per round
  std::uint64_t cycles = 0;
  std::uint64_t comp_evals = 0;  // per round (identical across rounds)
  std::size_t tape_ops = 0;
  std::int32_t regions = 0;  // threaded engine's region plan shape
  std::int32_t max_level = 0;
  OptimizeReport opt;  // empty when the optimizer is off
  bool optimized = false;
  bool consistent = true;  // every round observed the same results
  std::vector<std::uint64_t> observed;

  double quantile(double q) const { return atlantis::util::percentile(cps, q); }
  double median() const { return quantile(0.5); }
};

void run_round(const Core& core, const Config& config, Row& row) {
  Simulator sim(*core.design, config.options);
  // Settle power-up state outside the timer.
  sim.peek(core.design->outputs().front().second);
  sim.reset_activity();
  const std::uint64_t c0 = sim.cycles();
  const double secs = seconds([&] { core.drive(sim); });
  const std::uint64_t cycles = sim.cycles() - c0;
  row.cps.push_back(static_cast<double>(cycles) / secs);
  row.cycles = cycles;
  row.comp_evals = sim.activity().comp_evals;
  row.tape_ops = sim.tape_ops();
  row.regions = sim.region_plan().region_count();
  row.max_level = sim.region_plan().max_level;
  if (sim.optimize_report() != nullptr) {
    row.opt = *sim.optimize_report();
    row.optimized = true;
  }
  std::vector<std::uint64_t> observed = core.observe(sim);
  if (row.cps.size() == 1) {
    row.observed = std::move(observed);
  } else if (observed != row.observed) {
    row.consistent = false;
  }
}

std::int64_t pass_removed(const OptimizeReport& r, const char* name) {
  const OptimizePassStats* p = r.pass(name);
  return p == nullptr ? 0 : p->ops_before - p->ops_after;
}

std::string count(double v) {
  return std::to_string(static_cast<long long>(v));
}

}  // namespace

int main() {
  using namespace atlantis;
  bench::banner("A5", "simulator speed: threaded engine + optimizer");

  // Smoke mode (BENCH_SMOKE=1, the CI setting) shrinks the workloads and
  // the round count and skips the wall-clock speed expectations below;
  // the bit-identical and op-count checks still run in full.
  const bool smoke = bench::smoke();
  const int kRounds = smoke ? 3 : 15;

  std::vector<Core> cores;

  // --- TRT histogrammer, quiescent-heavy ------------------------------------
  trt::DetectorGeometry geo;
  geo.layers = 16;
  geo.straws_per_layer = 64;
  const trt::PatternBank bank(geo, 256);
  {
    Core c{"trt", "TRT histogrammer (1/64 duty)",
           std::make_unique<Design>("trt_bench"), {}, {}};
    trt::build_trt_core(*c.design, bank);
    const int cycles = smoke ? 2000 : 8000;
    const int straws = geo.straw_count();
    c.drive = [cycles, straws](Simulator& sim) {
      drive_trt(sim, cycles, 64, straws);
    };
    c.observe = [](Simulator& sim) {
      HostInterface host(sim);
      std::vector<std::uint64_t> out{host.read(0x03)};  // over threshold
      for (int p = 0; p < 256; p += 17) {
        out.push_back(host.read(0x10 + static_cast<std::uint32_t>(p)));
      }
      return out;
    };
    cores.push_back(std::move(c));
  }

  // --- 3x3 convolution engine, active-heavy -----------------------------------
  const int pixels = smoke ? 4000 : 20000;
  {
    Core c{"conv", "3x3 conv (pixel every clock)",
           std::make_unique<Design>("conv_bench"), {}, {}};
    imgproc::build_conv_core(*c.design, 256, imgproc::Kernel3x3::gaussian());
    c.drive = [pixels](Simulator& sim) { drive_pixels(sim, pixels); };
    c.observe = [](Simulator& sim) {
      HostInterface host(sim);
      return std::vector<std::uint64_t>{host.read(0x02), host.read(0x03)};
    };
    cores.push_back(std::move(c));
  }

  // --- Sobel edge detector, active-heavy --------------------------------------
  {
    Core c{"sobel", "Sobel (pixel every clock)",
           std::make_unique<Design>("sobel_bench"), {}, {}};
    imgproc::build_sobel_core(*c.design, 256);
    c.drive = [pixels](Simulator& sim) {
      HostInterface(sim).write(0x05, 96);  // edge threshold
      drive_pixels(sim, pixels - 1);
    };
    c.observe = [](Simulator& sim) {
      HostInterface host(sim);
      return std::vector<std::uint64_t>{host.read(0x02), host.read(0x03),
                                        host.read(0x04)};
    };
    cores.push_back(std::move(c));
  }

  // --- trilinear interpolator, every input changing every clock ------------
  // The consumer folds every registered sample into one digest, so the
  // output is read each clock as a streaming renderer would.
  std::uint64_t interp_digest = 0;
  {
    Core c{"interp", "trilinear interp (sample every clock)",
           std::make_unique<Design>("interp_bench"), {}, {}};
    volren::build_trilinear_core(*c.design);
    const Design& d = *c.design;
    std::vector<Wire> ins;
    for (int i = 0; i < 8; ++i) ins.push_back(d.port("c" + std::to_string(i)));
    for (const char* f : {"fx", "fy", "fz"}) ins.push_back(d.port(f));
    const Wire value = d.port("value");
    const int samples = smoke ? 500 : 2000;
    c.drive = [ins, value, samples, &interp_digest](Simulator& sim) {
      util::Rng rng(11);
      std::uint64_t h = 0xcbf29ce484222325ull;
      for (int s = 0; s < samples; ++s) {
        for (const Wire w : ins) sim.poke(w, rng.next_below(256));
        sim.step();
        h = (h ^ sim.peek_u64(value)) * 0x100000001b3ull;
      }
      interp_digest = h;
    };
    c.observe = [&interp_digest](Simulator&) {
      return std::vector<std::uint64_t>{interp_digest};
    };
    cores.push_back(std::move(c));
  }

  // Round-robin: every round runs every core under every configuration.
  std::vector<std::vector<Row>> rows(cores.size(),
                                     std::vector<Row>(std::size(kConfigs)));
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t c = 0; c < cores.size(); ++c) {
      for (std::size_t k = 0; k < std::size(kConfigs); ++k) {
        run_round(cores[c], kConfigs[k], rows[c][k]);
      }
    }
  }

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
  util::Table t("A5: cycles/sec by evaluation policy, median [q1-q3] of " +
                std::to_string(kRounds) + " interleaved rounds");
  t.set_header({"core", "full-sweep", "threaded raw", "threaded", "thr/full",
                "tape ops", "fold/cse"});
  const auto spread = [](const Row& r) {
    return count(r.median()) + " [" + count(r.quantile(0.25)) + "-" +
           count(r.quantile(0.75)) + "]";
  };
  for (std::size_t c = 0; c < cores.size(); ++c) {
    const Row& full = rows[c][kFull];
    const Row& thr = rows[c][kThr];
    t.add_row({cores[c].label, spread(full), spread(rows[c][kRaw]),
               spread(thr),
               std::to_string(thr.median() / full.median()).substr(0, 5),
               std::to_string(thr.opt.ops_before) + "->" +
                   std::to_string(thr.tape_ops),
               std::to_string(pass_removed(thr.opt, "fold")) + "/" +
                   std::to_string(pass_removed(thr.opt, "cse"))});
  }
  t.add_row({"ACB 2x2 matrix (full sweep)", count(matrix_cps), "-", "-", "-",
             "-", "-"});
  t.add_note("threaded = region-superop engine (computed-goto dispatch) "
             "with the optimizer, the production default; "
             "threaded raw = the same engine without it");
  t.add_note("tape ops column: comb ops as elaborated -> ops compiled after "
             "fold + CSE; fold/cse column counts ops each pass removed");
  t.print();

  std::ofstream json("BENCH_simspeed.json");
  json << "{\n  \"rounds\": " << kRounds << ",\n";
  for (std::size_t c = 0; c < cores.size(); ++c) {
    const Row& full = rows[c][kFull];
    const Row& raw = rows[c][kRaw];
    const Row& thr = rows[c][kThr];
    json << "  \"" << cores[c].key << "\": {\"cycles\": " << thr.cycles
         << ", \"full_sweep_cps\": " << full.median()
         << ", \"threaded_raw_cps\": " << raw.median()
         << ", \"threaded_cps\": " << thr.median()
         << ", \"speedup\": " << thr.median() / full.median()
         << ", \"full_evals\": " << full.comp_evals
         << ", \"threaded_evals\": " << thr.comp_evals
         << ", \"tape_ops_before\": " << thr.opt.ops_before
         << ", \"tape_ops_after\": " << thr.tape_ops
         << ", \"fold_removed\": " << pass_removed(thr.opt, "fold")
         << ", \"cse_removed\": " << pass_removed(thr.opt, "cse")
         << ", \"backends\": [\n";
    for (std::size_t k = 0; k < std::size(kConfigs); ++k) {
      const Row& r = rows[c][k];
      json << "    {\"backend\": \"" << kConfigs[k].key
           << "\", \"cps\": " << r.median()
           << ", \"cps_q1\": " << r.quantile(0.25)
           << ", \"cps_q3\": " << r.quantile(0.75)
           << ", \"evals\": " << r.comp_evals
           << ", \"tape_ops\": " << r.tape_ops;
      if (k != kFull) {
        json << ", \"regions\": " << r.regions
             << ", \"max_level\": " << r.max_level;
      }
      json << ", \"optimized\": " << (r.optimized ? "true" : "false") << "}"
           << (k + 1 < std::size(kConfigs) ? ",\n" : "\n");
    }
    json << "  ]},\n";
  }
  json << "  \"acb_matrix\": {\"cycles\": " << kMatrixCycles
       << ", \"sims\": " << core::AcbBoard::kFpgaCount
       << ", \"serial_cps\": " << matrix_cps << "}\n";
  json << "}\n";
  json.close();
  std::printf("\nwrote BENCH_simspeed.json\n");

  for (std::size_t c = 0; c < cores.size(); ++c) {
    const std::string& name = cores[c].key;
    const Row& full = rows[c][kFull];
    for (std::size_t k = 0; k < std::size(kConfigs); ++k) {
      bench::expect(rows[c][k].consistent,
                    name + " " + kConfigs[k].key +
                        " results repeat in every round");
    }
    bench::expect(rows[c][kRaw].observed == full.observed,
                  "threaded raw " + name +
                      " results are bit-identical to full sweep");
    bench::expect(rows[c][kThr].observed == full.observed,
                  "threaded " + name +
                      " results are bit-identical to full sweep");
    bench::expect(rows[c][kThr].tape_ops <
                      static_cast<std::size_t>(rows[c][kThr].opt.ops_before),
                  "optimizer shrinks the " + name + " op tape");
  }
  const Row& trt_full = rows[0][kFull];
  const Row& trt_thr = rows[0][kThr];
  if (smoke) {
    std::printf("  [smoke   ] wall-clock speed expectations skipped "
                "(BENCH_SMOKE set)\n");
  } else {
    bench::expect(trt_thr.median() >= 3.0 * trt_full.median(),
                  "threaded engine >= 3x over full sweep on the "
                  "quiescent-heavy TRT workload");
  }
  bench::expect(trt_thr.comp_evals * 5 < trt_full.comp_evals,
                "threaded engine skips most evaluations on sparse input");
  bench::expect(matrix_cps > 0, "ACB matrix stepping reported");
  return bench::finish();
}

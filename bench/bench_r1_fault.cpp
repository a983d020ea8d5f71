// R1 — robustness: fault injection, retry/backoff and graceful
// degradation on the ATLANTIS fabric.
//
// The paper's machine is trigger/DAQ hardware: S-Link feeds from the
// detector, PCI DMA through the PLX 9080, SRAM-configured ORCA parts.
// All of it faults in the field. This bench sweeps injected fault rate
// against the driver's retry policy and measures what recovery costs:
// the DMA retry/backoff overhead on the CompactPCI segment, the S-Link
// retransmission overhead on a detector-fed two-board TRT scan, and the
// degraded throughput after a whole-board drop-out. The zero-rate
// column doubles as the zero-cost-when-off gate: with faults disabled
// the ledger must be bit-identical to a build with no injector at all.
#include <algorithm>
#include <fstream>
#include <sstream>
#include <vector>

#include "bench_common.hpp"
#include "core/driver.hpp"
#include "sim/fault.hpp"
#include "trt/multiboard.hpp"
#include "util/table.hpp"

using namespace atlantis;

namespace {

struct DmaCell {
  double rate = 0.0;
  std::string policy;
  std::uint64_t faults = 0;
  std::uint64_t retries = 0;
  double recovery_ms = 0.0;
  double elapsed_ms = 0.0;
  double mbps = 0.0;
  util::Picoseconds elapsed_ps = 0;
};

/// Runs `transfers` DMA writes under one (rate, policy) cell; nullptr
/// plan means "no injector bound at all" (the reference build).
DmaCell run_dma_cell(int transfers, std::uint64_t bytes,
                     const sim::FaultPlan* plan, const sim::RetryPolicy& pol,
                     const std::string& policy_name) {
  core::AtlantisSystem sys("crate");
  sim::FaultInjector inj{plan != nullptr ? *plan : sim::FaultPlan{}};
  if (plan != nullptr) sys.set_fault_injector(&inj);
  core::AtlantisDriver drv(sys, sys.add_acb("acb0"));
  drv.set_retry_policy(pol);
  std::uint64_t moved = 0;
  for (int i = 0; i < transfers; ++i) {
    if (drv.try_dma_write(bytes).ok()) moved += bytes;
  }
  DmaCell cell;
  cell.policy = policy_name;
  cell.faults = drv.dma_faults();
  cell.retries = drv.dma_retries();
  cell.recovery_ms = util::ps_to_ms(drv.recovery_time());
  cell.elapsed_ms = util::ps_to_ms(drv.now());
  cell.elapsed_ps = drv.now();
  cell.mbps = static_cast<double>(moved) /
              (static_cast<double>(drv.now()) * 1e-12) / 1e6;
  return cell;
}

struct TrtCell {
  double rate = 0.0;
  int events = 0;
  double total_ms = 0.0;
  std::uint64_t retransmits = 0;
  double recovery_ms = 0.0;
  double events_per_s = 0.0;
  bool degraded = false;
  int active_boards = 0;
  bool correct = true;
};

/// Runs `events` detector-fed two-board scans under one S-Link error
/// rate (plus whatever else the plan schedules).
TrtCell run_trt_cell(const trt::PatternBank& bank,
                     const std::vector<trt::Event>& events,
                     const sim::FaultPlan* plan) {
  core::AtlantisSystem sys("crate");
  sys.add_acb("acb0");
  sys.add_acb("acb1");
  sys.add_aib("aib0");
  sim::FaultInjector inj{plan != nullptr ? *plan : sim::FaultPlan{}};
  if (plan != nullptr) sys.set_fault_injector(&inj);
  trt::MultiBoardConfig cfg;
  cfg.detector_fed = true;
  TrtCell cell;
  cell.events = static_cast<int>(events.size());
  util::Picoseconds total = 0;
  for (const trt::Event& ev : events) {
    const trt::MultiBoardResult r =
        trt::histogram_multiboard(bank, ev, cfg, sys);
    total += r.total_time;
    cell.retransmits += r.slink_retransmits;
    cell.recovery_ms += util::ps_to_ms(r.recovery_time);
    cell.degraded = cell.degraded || r.degraded;
    cell.active_boards = r.active_boards;
    cell.correct =
        cell.correct && r.histogram.counts ==
                            trt::histogram_reference(bank, ev).histogram.counts;
  }
  cell.total_ms = util::ps_to_ms(total);
  cell.events_per_s =
      static_cast<double>(events.size()) / (cell.total_ms * 1e-3);
  return cell;
}

}  // namespace

int main() {
  bench::banner("R1", "fault injection, retry/backoff, graceful degradation");

  const bool smoke = bench::smoke();
  const int transfers = smoke ? 50 : 400;
  const std::uint64_t bytes = 64 * util::kKiB;
  const int n_events = smoke ? 2 : 8;

  // --- Part A: DMA fault rate x retry policy --------------------------
  sim::RetryPolicy fast;
  fast.initial_backoff = 1 * util::kMicrosecond;
  fast.max_backoff = 100 * util::kMicrosecond;
  sim::RetryPolicy deflt;
  sim::RetryPolicy patient;
  patient.initial_backoff = 100 * util::kMicrosecond;
  patient.multiplier = 4.0;
  patient.max_attempts = 6;
  const std::vector<std::pair<std::string, sim::RetryPolicy>> policies = {
      {"fast", fast}, {"default", deflt}, {"patient", patient}};
  const std::vector<double> rates = {0.0, 0.01, 0.05, 0.2};

  // The reference build: no injector bound anywhere.
  const DmaCell reference =
      run_dma_cell(transfers, bytes, nullptr, deflt, "default");

  util::Table dma_table("R1a: " + std::to_string(transfers) +
                        " x 64 KiB DMA writes, stall+abort rate x policy");
  dma_table.set_header({"rate", "policy", "faults", "retries",
                        "recovery (ms)", "elapsed (ms)", "eff MB/s"});
  std::vector<DmaCell> dma_cells;
  for (const double rate : rates) {
    for (const auto& [pname, pol] : policies) {
      sim::FaultPlan plan;
      plan.seed = 2026;
      plan.with_rate(sim::FaultKind::kDmaStall, rate / 2)
          .with_rate(sim::FaultKind::kDmaAbort, rate / 2);
      DmaCell cell = run_dma_cell(transfers, bytes, &plan, pol, pname);
      cell.rate = rate;
      dma_table.add_row({util::Table::fmt(rate, 2), pname,
                         std::to_string(cell.faults),
                         std::to_string(cell.retries),
                         util::Table::fmt(cell.recovery_ms, 3),
                         util::Table::fmt(cell.elapsed_ms, 2),
                         util::Table::fmt(cell.mbps, 1)});
      dma_cells.push_back(std::move(cell));
    }
  }
  dma_table.print();

  // Zero-cost-when-off: the rate-0 cell (injector bound, plan inert)
  // must be picosecond-identical to the reference build without one.
  const DmaCell& zero = dma_cells.front();
  bench::expect(zero.elapsed_ps == reference.elapsed_ps &&
                    zero.faults == 0 && zero.retries == 0,
                "faults disabled: driver ledger bit-identical to the "
                "no-injector build");
  const DmaCell& heavy = dma_cells.back();  // 0.2 rate, patient policy
  bench::expect(heavy.faults > 0 && heavy.retries > 0,
                "non-zero rate actually faults and retries");
  bench::expect(heavy.recovery_ms > 0.0 && heavy.mbps < reference.mbps,
                "recovery overhead shows up as lost effective bandwidth");

  // Retries land on the timeline, not just in driver counters.
  {
    core::AtlantisSystem sys("crate");
    sim::FaultPlan plan;
    plan.inject(sim::FaultKind::kDmaStall, "pci/acb0", 1);
    sim::FaultInjector inj(plan);
    sys.set_fault_injector(&inj);
    core::AtlantisDriver drv(sys, sys.add_acb("acb0"));
    (void)drv.try_dma_write(bytes);
    const sim::ResourceStats st = sys.timeline().stats(sys.pci_segment());
    bench::expect(st.faults == 1 && st.retries == 1 && st.retry_time > 0,
                  "fault, retry and recovery time visible in the "
                  "timeline's per-resource stats");
    std::ostringstream trace;
    sys.timeline().export_chrome_trace(trace);
    bench::expect(trace.str().find("backoff") != std::string::npos,
                  "backoff transactions appear in the Chrome trace");
  }

  // --- Part B: S-Link error rate on the detector-fed 2-board scan -----
  trt::DetectorGeometry geo;
  geo.layers = 20;
  geo.straws_per_layer = 200;
  // 2816 patterns: 2 passes per board on the 704-bit datapath, 4 when a
  // single survivor has to carry the whole bank — so a drop-out actually
  // costs compute time instead of hiding in the pass quantization.
  trt::PatternBank bank(geo, 2816);
  trt::EventGenerator gen(bank, trt::EventParams{});
  std::vector<trt::Event> events;
  for (int i = 0; i < n_events; ++i) events.push_back(gen.generate());

  const TrtCell trt_ref = run_trt_cell(bank, events, nullptr);
  const std::vector<double> link_rates = {0.0, 0.25, 0.5, 1.0};
  util::Table trt_table("R1b: detector-fed 2-board TRT scan, " +
                        std::to_string(n_events) +
                        " events, S-Link LDERR rate sweep");
  trt_table.set_header({"lderr rate", "retransmits", "recovery (ms)",
                        "total (ms)", "events/s"});
  std::vector<TrtCell> trt_cells;
  for (const double rate : link_rates) {
    sim::FaultPlan plan;
    plan.seed = 4711;
    plan.with_rate(sim::FaultKind::kSlinkError, rate);
    TrtCell cell = run_trt_cell(bank, events, &plan);
    cell.rate = rate;
    trt_table.add_row({util::Table::fmt(rate, 2),
                       std::to_string(cell.retransmits),
                       util::Table::fmt(cell.recovery_ms, 3),
                       util::Table::fmt(cell.total_ms, 2),
                       util::Table::fmt(cell.events_per_s, 0)});
    trt_cells.push_back(std::move(cell));
  }
  trt_table.print();

  bench::expect(trt_cells.front().total_ms == trt_ref.total_ms &&
                    trt_cells.front().retransmits == 0,
                "zero-rate scan identical to the no-injector scan");
  const TrtCell& noisy = trt_cells.back();
  bench::expect(noisy.retransmits > 0 && noisy.recovery_ms > 0.0,
                "LDERR bursts cost visible retransmissions");
  // The retransmission occupies the link under the (longer) scan, so it
  // must never *shorten* the schedule; its real cost is the accounted
  // recovery time on the link resource.
  bench::expect(noisy.total_ms >= trt_cells.front().total_ms,
                "link recovery never speeds the scan up");
  bool all_correct = true;
  for (const TrtCell& c : trt_cells) all_correct = all_correct && c.correct;
  bench::expect(all_correct,
                "every faulted scan still produces the reference histogram");

  // --- Part C: board drop-out and graceful degradation ----------------
  sim::FaultPlan dropout_plan;
  dropout_plan.inject(sim::FaultKind::kBoardDropout, "board/acb1", 1);
  const TrtCell degraded = run_trt_cell(bank, events, &dropout_plan);
  util::Table deg_table("R1c: whole-board drop-out on the 2-board scan");
  deg_table.set_header({"configuration", "boards", "events/s", "degraded",
                        "correct"});
  deg_table.add_row({"clean", "2", util::Table::fmt(trt_ref.events_per_s, 0),
                     "no", "yes"});
  deg_table.add_row({"acb1 dropped", std::to_string(degraded.active_boards),
                     util::Table::fmt(degraded.events_per_s, 0),
                     degraded.degraded ? "yes" : "no",
                     degraded.correct ? "yes" : "no"});
  deg_table.print();

  bench::expect(degraded.degraded && degraded.active_boards == 1,
                "drop-out masks the board and flags the run degraded");
  bench::expect(degraded.correct,
                "the survivor absorbs the dead board's slice: histograms "
                "stay correct");
  bench::expect(degraded.events_per_s < trt_ref.events_per_s,
                "degraded mode costs throughput, not correctness");

  // --- artifact --------------------------------------------------------
  std::ofstream json("BENCH_fault.json");
  json << "{\n  \"transfers\": " << transfers
       << ",\n  \"dma_sweep\": [";
  for (std::size_t i = 0; i < dma_cells.size(); ++i) {
    const DmaCell& c = dma_cells[i];
    json << (i != 0 ? "," : "") << "\n    {\"rate\": " << c.rate
         << ", \"policy\": \"" << c.policy << "\", \"faults\": " << c.faults
         << ", \"retries\": " << c.retries
         << ", \"recovery_ms\": " << c.recovery_ms
         << ", \"elapsed_ms\": " << c.elapsed_ms
         << ", \"effective_mbps\": " << c.mbps << "}";
  }
  json << "\n  ],\n  \"trt_events\": " << n_events
       << ",\n  \"slink_sweep\": [";
  for (std::size_t i = 0; i < trt_cells.size(); ++i) {
    const TrtCell& c = trt_cells[i];
    json << (i != 0 ? "," : "") << "\n    {\"rate\": " << c.rate
         << ", \"retransmits\": " << c.retransmits
         << ", \"recovery_ms\": " << c.recovery_ms
         << ", \"total_ms\": " << c.total_ms
         << ", \"events_per_s\": " << c.events_per_s
         << ", \"correct\": " << (c.correct ? "true" : "false") << "}";
  }
  json << "\n  ],\n  \"dropout\": {\"degraded\": "
       << (degraded.degraded ? "true" : "false")
       << ", \"active_boards\": " << degraded.active_boards
       << ", \"events_per_s\": " << degraded.events_per_s
       << ", \"clean_events_per_s\": " << trt_ref.events_per_s
       << ", \"correct\": " << (degraded.correct ? "true" : "false")
       << "}\n}\n";
  json.close();
  std::printf("\nwrote BENCH_fault.json\n");

  return bench::finish();
}

// R2 — chaos serving: what the self-healing supervisor buys under a
// fault storm.
//
// The same multi-tenant job mix runs four times under one FaultPlan —
// DMA stalls/aborts, configuration SEUs and CRC failures, whole-board
// drop-outs, service crashes — with progressively less supervision:
//
//   supervised      full loop: health scores, quarantine/probation,
//                   circuit breakers, escalating scrub, field repair,
//                   periodic checkpoints + crash restore, spare drain
//   no-breaker      same, with the reconfig/DMA circuit breakers off
//   abort-rerun     same, but checkpoint_every = 0: a service crash
//                   replays the whole run from the genesis checkpoint
//   unsupervised    a pure observer — identical availability accounting,
//                   zero healing: dead boards stay dead, failed jobs
//                   stay failed, nothing checkpoints
//
// Reported per row: availability (1 - board-downtime / board-time),
// MTTR, deadline-miss rate, goodput and the number of failed reconfig
// attempts the crate burned against flaky configuration paths. The
// gates double as the regression contract: supervision must beat the
// unsupervised baseline on availability AND MTTR, the breaker row must
// waste fewer reconfig attempts than the no-breaker row, and the
// supervised run must replay bit-identically.
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/system.hpp"
#include "serve/jobservice.hpp"
#include "serve/supervisor.hpp"
#include "sim/fault.hpp"
#include "util/status.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

using namespace atlantis;

namespace {

constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ull;

serve::JobSpec make_job(int index, util::Picoseconds compute,
                        util::Picoseconds deadline) {
  serve::JobSpec job;
  job.tenant = index % 3 == 0 ? "atlas" : (index % 3 == 1 ? "cms" : "lhcb");
  job.kind = serve::JobKind::kCustom;
  job.config = (index % 2 == 0) ? "alpha" : "beta";
  job.arrival = 0;
  job.deadline = deadline;
  job.work = [index, compute] {
    serve::JobOutcome out;
    out.checksum = kGolden * static_cast<std::uint64_t>(index + 1);
    out.compute_time = compute;
    out.dma_in_bytes = 2048;
    out.dma_out_bytes = 512;
    return out;
  };
  return job;
}

void submit_mix(serve::JobService& s, int n_jobs) {
  for (int i = 0; i < n_jobs; ++i) {
    const util::Picoseconds deadline =
        (i % 5 == 0) ? 100 * util::kMillisecond : 0;
    (void)s.submit(make_job(i, (i % 5 + 1) * util::kMicrosecond, deadline))
        .value_or_throw();
  }
}

sim::FaultPlan storm_plan() {
  sim::FaultPlan plan;
  plan.seed = 20260808;
  plan.with_rate(sim::FaultKind::kDmaStall, 0.35)
      .with_rate(sim::FaultKind::kDmaAbort, 0.20)
      .with_rate(sim::FaultKind::kSeuConfig, 0.50)
      .with_rate(sim::FaultKind::kConfigCrc, 0.30)
      .with_rate(sim::FaultKind::kBoardDropout, 0.05)
      .with_rate(sim::FaultKind::kServiceCrash, 0.04);
  return plan;
}

serve::ServeOptions storm_serve_options(int n_jobs) {
  serve::ServeOptions options;
  options.policy = serve::Policy::kPreemptive;
  options.preempt_slice = util::kMillisecond;
  options.max_queued_per_tenant = static_cast<std::size_t>(n_jobs);
  return options;
}

serve::SupervisorOptions supervised_options() {
  serve::SupervisorOptions options;
  options.dispatches_per_tick = 2;
  options.checkpoint_every = 4;
  options.repair_after = 3;
  options.max_job_retries = 1000000;
  // A twitchier reconfig breaker than the library default: under this
  // storm's CRC rate the health score and the default breaker trip at
  // about the same window, which hides the breaker's contribution. Two
  // failures in a window with a long escalating open is the "stop
  // hammering the config port" deployment the bench is contrasting.
  options.reconfig_breaker.failure_threshold = 2;
  options.reconfig_breaker.base_open_ticks = 4;
  return options;
}

serve::SupervisorOptions unsupervised_options() {
  serve::SupervisorOptions options;
  options.dispatches_per_tick = 2;
  options.enable_breakers = false;
  options.enable_healing = false;
  options.repair_after = 0;      // dead boards stay dead
  options.max_job_retries = 0;   // failed jobs stay failed
  return options;
}

struct ChaosCell {
  std::string mode;
  std::uint64_t served = 0;
  std::uint64_t lost = 0;  // submitted jobs with no kOk result anywhere
  double availability = 0.0;  // over the common mission horizon (below)
  double own_availability = 0.0;  // supervisor's own-horizon figure
  double mttr_ms = 0.0;
  double miss_rate = 0.0;  // share of deadline jobs late or lost
  double goodput = 0.0;    // served per modelled second
  std::uint64_t reconfig_failures = 0;  // failed reconfig attempts burned
  std::uint64_t crashes = 0;
  std::uint64_t restores = 0;
  std::uint64_t quarantines = 0;
  std::uint64_t drained = 0;
  std::uint64_t fault_events = 0;
  // Raw figures for the common-horizon renormalization.
  util::Picoseconds elapsed_ps = 0;   // cumulative serving time
  util::Picoseconds downtime_ps = 0;  // board-time dead or quarantined
  double repair_total_ps = 0.0;       // mttr * recoveries
  std::uint64_t recoveries = 0;
  int dead_at_end = 0;  // boards still dead when the run finished
  std::string fingerprint;  // ledger + report, for the replay gate
};

std::string serialize(const std::vector<serve::JobRecord>& records) {
  std::ostringstream os;
  for (const serve::JobRecord& r : records) {
    os << r.id << '|' << r.tenant << '|' << r.config << '|' << r.board << '|'
       << r.start << '|' << r.finish << '|' << r.preemptions << '|'
       << r.migrated << '|' << util::error_name(r.error) << '|'
       << r.outcome.checksum << '\n';
  }
  return os.str();
}

/// One storm run under one supervision level. The spare crate (attached
/// for every healing mode) runs without an injector: it models the
/// known-good crate disaster traffic drains to.
ChaosCell run_mode(const std::string& mode, int n_jobs,
                   const serve::SupervisorOptions& sup_options,
                   bool with_spare) {
  const sim::FaultPlan plan = storm_plan();
  sim::FaultInjector injector(plan);
  core::AtlantisSystem sys("crate");
  core::AtlantisSystem spare_sys("spare");
  for (int i = 0; i < 3; ++i) sys.add_acb("acb" + std::to_string(i));
  spare_sys.add_acb("spare0");
  sys.set_fault_injector(&injector);
  serve::JobService service(sys, storm_serve_options(n_jobs));
  serve::JobService spare(spare_sys, storm_serve_options(n_jobs));
  for (serve::JobService* s : {&service, &spare}) {
    s->register_config(hw::Bitstream{"alpha", {}, nullptr, 1.0, {}});
    s->register_config(hw::Bitstream{"beta", {}, nullptr, 1.0, {}});
  }
  submit_mix(service, n_jobs);

  serve::Supervisor sup(service, sup_options);
  if (with_spare) sup.set_spare(&spare);
  const serve::SupervisorReport& rep = sup.run();

  ChaosCell cell;
  cell.mode = mode;
  std::uint64_t deadline_jobs = 0;
  std::uint64_t deadline_bad = 0;
  util::Picoseconds makespan = 0;
  for (const serve::JobService* s : {&service, &spare}) {
    for (const serve::JobRecord& r : s->jobs()) {
      if (r.migrated) continue;  // finished (or not) on the spare's ledger
      const bool ok = r.error == util::ErrorCode::kOk;
      if (ok) {
        ++cell.served;
        makespan = std::max(makespan, r.finish);
      }
      if (r.deadline > 0) {
        ++deadline_jobs;
        if (!ok || r.finish > r.deadline) ++deadline_bad;
      }
    }
  }
  cell.lost = static_cast<std::uint64_t>(n_jobs) - cell.served;
  cell.own_availability = rep.availability;
  cell.elapsed_ps = rep.elapsed;
  cell.downtime_ps = rep.downtime;
  cell.recoveries = rep.recoveries;
  cell.repair_total_ps = static_cast<double>(rep.mttr) *
                         static_cast<double>(rep.recoveries);
  for (int i = 0; i < service.board_count(); ++i) {
    if (service.board_dead(i)) ++cell.dead_at_end;
  }
  cell.mttr_ms = util::ps_to_ms(rep.mttr);
  cell.miss_rate = deadline_jobs == 0
                       ? 0.0
                       : static_cast<double>(deadline_bad) /
                             static_cast<double>(deadline_jobs);
  cell.goodput = makespan == 0 ? 0.0
                               : static_cast<double>(cell.served) /
                                     (static_cast<double>(makespan) * 1e-12);
  for (int i = 0; i < service.board_count(); ++i) {
    cell.reconfig_failures += service.driver(i).config_retries() +
                              service.switcher(i).reconfig_retries();
  }
  cell.crashes = rep.crashes;
  cell.restores = rep.restores;
  cell.quarantines = rep.quarantines;
  cell.drained = rep.drained_jobs;
  cell.fault_events = injector.log().size();
  std::ostringstream fp;
  fp << serialize(service.jobs()) << serialize(spare.jobs()) << rep.ticks
     << '|' << rep.crashes << '|' << rep.restores << '|' << rep.quarantines
     << '|' << rep.readmissions << '|' << rep.repairs << '|' << rep.scrubs
     << '|' << rep.downtime << '|' << rep.mttr << '|' << rep.availability;
  cell.fingerprint = fp.str();
  sys.set_fault_injector(nullptr);
  return cell;
}

}  // namespace

int main() {
  bench::banner("R2",
                "chaos serving: supervised vs unsupervised under a storm");

  // No smoke shrink: the storm's stochastic gates (a crash must hit, the
  // breaker must trip) need the full 150-job horizon, and the whole
  // four-mode sweep is tens of milliseconds of modelled discrete events.
  const int n_jobs = 150;
  std::printf("storm: %d jobs, 3-board crate + 1-board spare, plan seed "
              "20260808\n",
              n_jobs);

  serve::SupervisorOptions no_breaker = supervised_options();
  no_breaker.enable_breakers = false;
  serve::SupervisorOptions abort_rerun = supervised_options();
  abort_rerun.checkpoint_every = 0;  // crash -> replay from genesis

  std::vector<ChaosCell> cells;
  cells.push_back(
      run_mode("supervised", n_jobs, supervised_options(), true));
  cells.push_back(run_mode("no-breaker", n_jobs, no_breaker, true));
  cells.push_back(run_mode("abort-rerun", n_jobs, abort_rerun, true));
  cells.push_back(
      run_mode("unsupervised", n_jobs, unsupervised_options(), false));

  // Apples to apples: score every mode over the same mission time — the
  // longest cumulative serving time any mode needed. A crate that
  // finished early with live boards just idles (no penalty); one that
  // "finished" early because its boards died and the rest of the work
  // failed keeps paying for the dead boards until the mission ends.
  util::Picoseconds mission = 0;
  for (const ChaosCell& c : cells) mission = std::max(mission, c.elapsed_ps);
  for (ChaosCell& c : cells) {
    const double extension = static_cast<double>(c.dead_at_end) *
                             static_cast<double>(mission - c.elapsed_ps);
    const double board_time = 3.0 * static_cast<double>(mission);
    const double down = static_cast<double>(c.downtime_ps) + extension;
    c.availability = std::max(0.0, 1.0 - down / board_time);
    const double recoveries =
        static_cast<double>(std::max<std::uint64_t>(c.recoveries, 1));
    c.mttr_ms = (c.repair_total_ps + extension) * 1e-9 / recoveries;
  }

  util::Table table("R2: one storm, four supervision levels");
  table.set_header({"mode", "served", "lost", "avail", "mttr (ms)",
                    "miss rate", "goodput/s", "reconf fails", "crashes",
                    "quarantines"});
  for (const ChaosCell& c : cells) {
    table.add_row({c.mode, std::to_string(c.served), std::to_string(c.lost),
                   util::Table::fmt(100.0 * c.availability, 2) + "%",
                   util::Table::fmt(c.mttr_ms, 2),
                   util::Table::fmt(100.0 * c.miss_rate, 1) + "%",
                   util::Table::fmt(c.goodput, 0),
                   std::to_string(c.reconfig_failures),
                   std::to_string(c.crashes),
                   std::to_string(c.quarantines)});
  }
  table.print();

  const ChaosCell& sup = cells[0];
  const ChaosCell& nobrk = cells[1];
  const ChaosCell& abort = cells[2];
  const ChaosCell& unsup = cells[3];

  bench::expect(unsup.fault_events > 0 && sup.fault_events > 0,
                "the storm actually stormed in every mode");
  bench::expect(sup.lost == 0 && abort.lost == 0 && nobrk.lost == 0,
                "every supervised mode serves all " +
                    std::to_string(n_jobs) + " jobs despite the storm");
  bench::expect(unsup.lost > 0,
                "the unsupervised crate loses jobs to the same storm");
  bench::expect(sup.availability > unsup.availability,
                "supervision strictly improves availability (" +
                    util::Table::fmt(100.0 * sup.availability, 2) + "% vs " +
                    util::Table::fmt(100.0 * unsup.availability, 2) + "%)");
  bench::expect(sup.mttr_ms < unsup.mttr_ms,
                "supervision strictly improves MTTR (" +
                    util::Table::fmt(sup.mttr_ms, 2) + " ms vs " +
                    util::Table::fmt(unsup.mttr_ms, 2) + " ms)");
  bench::expect(sup.reconfig_failures < nobrk.reconfig_failures,
                "circuit breakers burn fewer failed reconfig attempts (" +
                    std::to_string(sup.reconfig_failures) + " vs " +
                    std::to_string(nobrk.reconfig_failures) + ")");
  bench::expect(sup.crashes > 0 && sup.restores > 0,
                "service crashes hit and checkpoint restores recovered");

  // Replay: the supervised storm is bit-identical under the same plan —
  // ledger, spare ledger and every supervision counter.
  const ChaosCell replay =
      run_mode("supervised", n_jobs, supervised_options(), true);
  bench::expect(replay.fingerprint == sup.fingerprint,
                "supervised storm replays bit-identically");

  // --- artifact --------------------------------------------------------
  std::ofstream json("BENCH_chaos.json");
  json << "{\n  \"jobs\": " << n_jobs << ",\n  \"boards\": 3"
       << ",\n  \"plan_seed\": 20260808,\n  \"modes\": [";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const ChaosCell& c = cells[i];
    json << (i != 0 ? "," : "") << "\n    {\"mode\": \"" << c.mode
         << "\", \"served\": " << c.served << ", \"lost\": " << c.lost
         << ", \"availability\": " << c.availability
         << ", \"availability_own_horizon\": " << c.own_availability
         << ", \"elapsed_ms\": " << util::ps_to_ms(c.elapsed_ps)
         << ", \"dead_boards_at_end\": " << c.dead_at_end
         << ", \"mttr_ms\": " << c.mttr_ms
         << ", \"deadline_miss_rate\": " << c.miss_rate
         << ", \"goodput_jobs_per_s\": " << c.goodput
         << ", \"failed_reconfig_attempts\": " << c.reconfig_failures
         << ", \"crashes\": " << c.crashes << ", \"restores\": " << c.restores
         << ", \"quarantines\": " << c.quarantines
         << ", \"drained_jobs\": " << c.drained
         << ", \"fault_events\": " << c.fault_events << "}";
  }
  json << "\n  ],\n  \"replay_identical\": "
       << (replay.fingerprint == sup.fingerprint ? "true" : "false")
       << "\n}\n";
  json.close();
  std::printf("\nwrote BENCH_chaos.json\n");

  return bench::finish();
}

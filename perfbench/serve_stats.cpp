#include "serve_stats.hpp"

#include <algorithm>
#include <string>

#include "core/system.hpp"
#include "sim/timeline.hpp"

namespace perfbench {

using atlantis::serve::JobRecord;
using atlantis::serve::JobService;

void LedgerSummary::add(const JobRecord& rec) {
  if (rec.migrated) return;
  if (rec.error != atlantis::util::ErrorCode::kOk || rec.finish <= 0) return;
  ++served;
  // A board whose cursor is ahead of a job's arrival starts it at the
  // cursor, so the sojourn is the larger of the two spans (the same
  // definition bench_c1_cluster reports).
  sojourn_ps.push_back(static_cast<double>(
      std::max(rec.finish - rec.arrival, rec.finish - rec.start)));
  makespan = std::max(makespan, rec.finish);
  if (rec.deadline > 0 && rec.finish <= rec.deadline) ++deadline_met;
}

void add_model_metrics(Pass& pass, LedgerSummary ledger,
                       std::uint64_t submitted, std::uint64_t deadline_submitted) {
  std::vector<double>& sojourn = ledger.sojourn_ps;
  std::sort(sojourn.begin(), sojourn.end());
  const double served_ratio =
      submitted == 0 ? 0.0
                     : static_cast<double>(ledger.served) / static_cast<double>(submitted);
  const double met_ratio = deadline_submitted == 0
                               ? 0.0
                               : static_cast<double>(ledger.deadline_met) /
                                     static_cast<double>(deadline_submitted);
  const double makespan_s = static_cast<double>(ledger.makespan) * 1e-12;
  pass.model["model_p50_ms"] = {quantile_sorted(sojourn, 0.50) * 1e-9, "ms"};
  pass.model["model_p99_ms"] = {quantile_sorted(sojourn, 0.99) * 1e-9, "ms"};
  pass.model["model_jobs_per_s"] = {
      makespan_s > 0 ? static_cast<double>(ledger.served) / makespan_s : 0.0, "1/s"};
  pass.model["served_ratio"] = {served_ratio, "ratio"};
  pass.model["deadline_met_ratio"] = {met_ratio, "ratio"};
  pass.counts["serve.model.samples"] = {static_cast<double>(sojourn.size()), "count"};
  pass.counts["serve.model.p999_ms"] = {quantile_sorted(sojourn, 0.999) * 1e-9, "ms"};
  pass.counts["serve.model.samples_beyond_p999"] = {
      static_cast<double>(samples_beyond(sojourn.size(), 0.999)), "count"};
  pass.counts["serve.error_ratio"] = {1.0 - served_ratio, "ratio"};
  pass.counts["serve.deadline_miss_ratio"] = {1.0 - met_ratio, "ratio"};
}

void add_service_counts(Metrics& counts, const std::vector<JobService*>& services) {
  struct Resource {
    double busy_ps = 0, queue_ps = 0, capacity_ps = 0, txns = 0;
  };
  Resource pci, compute, reconfig;
  double hits = 0, misses = 0, switches = 0, partials = 0, regions = 0;
  double reconfig_ps = 0, dma_retries = 0, txns_total = 0, records = 0;
  for (JobService* service : services) {
    const atlantis::sim::Timeline& tl = service->system().timeline();
    const double horizon = static_cast<double>(tl.horizon());
    for (const atlantis::sim::ResourceStats& rs : tl.all_stats()) {
      const auto ends_with = [&](const std::string& suffix) {
        return rs.name.size() >= suffix.size() &&
               rs.name.compare(rs.name.size() - suffix.size(), suffix.size(), suffix) == 0;
      };
      Resource* r = ends_with("/cpci") ? &pci : ends_with("/design") ? &compute : nullptr;
      if (r == nullptr) continue;
      r->busy_ps += static_cast<double>(rs.busy);
      r->queue_ps += static_cast<double>(rs.queue_delay);
      r->capacity_ps += horizon * rs.channels;
      r->txns += static_cast<double>(rs.transactions);
    }
    // Reconfigurations hold each board's configuration port but are
    // posted without a shared resource; account them from the log.
    for (const atlantis::sim::Transaction& t : tl.transactions()) {
      if (t.kind != atlantis::sim::TxnKind::kReconfig) continue;
      reconfig.busy_ps += static_cast<double>(t.duration());
      reconfig.txns += 1;
    }
    reconfig.capacity_ps += horizon * service->board_count();
    txns_total += static_cast<double>(tl.transactions().size());
    records += static_cast<double>(service->jobs().size());
    for (int b = 0; b < service->board_count(); ++b) {
      const atlantis::core::TaskSwitcher& sw = service->switcher(b);
      hits += static_cast<double>(sw.cache_hits());
      misses += static_cast<double>(sw.cache_misses());
      switches += static_cast<double>(sw.switch_count());
      partials += static_cast<double>(sw.partial_switches());
      regions += static_cast<double>(sw.regions_loaded());
      reconfig_ps += static_cast<double>(sw.total_switch_time());
      dma_retries += static_cast<double>(service->driver(b).dma_retries());
    }
  }
  const auto put = [&](const std::string& key, const Resource& r) {
    counts["sim.timeline." + key + ".busy_ms"] = {r.busy_ps * 1e-9, "ms"};
    counts["sim.timeline." + key + ".queue_ms"] = {r.queue_ps * 1e-9, "ms"};
    counts["sim.timeline." + key + ".util"] = {
        r.capacity_ps > 0 ? r.busy_ps / r.capacity_ps : 0.0, "ratio"};
    counts["sim.timeline." + key + ".txns"] = {r.txns, "count"};
  };
  put("pci", pci);
  put("compute", compute);
  put("reconfig", reconfig);
  counts["sim.timeline.transactions_total"] = {txns_total, "count"};
  counts["serve.ledger.records"] = {records, "count"};
  counts["core.taskswitch.cache_hit_rate"] = {
      hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio"};
  counts["core.taskswitch.full_reconfigs"] = {switches - hits - partials, "count"};
  counts["core.taskswitch.partial_reconfigs"] = {partials, "count"};
  counts["core.taskswitch.regions_loaded"] = {regions, "count"};
  counts["core.taskswitch.reconfig_ms"] = {reconfig_ps * 1e-9, "ms"};
  counts["core.driver.dma_retries"] = {dma_retries, "count"};
}

double timed_saves(const atlantis::sim::Snapshottable& state,
                   std::vector<std::uint8_t>& bytes) {
  constexpr double kBudgetMs = 25.0;
  constexpr int kMaxSaves = 50;
  std::vector<double> ms;
  double total = 0.0;
  while (ms.empty() || (total < kBudgetMs && ms.size() < kMaxSaves)) {
    const Clock::time_point t0 = Clock::now();
    atlantis::sim::SnapshotWriter w;
    state.save_state(w);
    ms.push_back(seconds_since(t0) * 1e3);
    total += ms.back();
    if (total >= kBudgetMs || ms.size() == kMaxSaves) bytes = w.bytes();
  }
  return median(ms);
}

void mix_ledger(Fnv& acc, const JobService& service) {
  acc.mix(static_cast<std::uint64_t>(service.jobs().size()));
  for (const JobRecord& r : service.jobs()) {
    acc.mix(r.id);
    acc.mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(r.board)));
    acc.mix(static_cast<std::uint64_t>(r.start));
    acc.mix(static_cast<std::uint64_t>(r.finish));
    acc.mix(static_cast<std::uint64_t>(r.error));
    acc.mix(r.outcome.checksum);
  }
}

}  // namespace perfbench

// Reductions over the serving layer's public ledgers, reports and stat
// APIs into the benchmark's metric maps. Shared by every workload that
// serves through serve::JobService (directly, under a Supervisor, or as
// shards of a Cluster).
#pragma once

#include <cstdint>
#include <vector>

#include "common.hpp"
#include "serve/jobservice.hpp"
#include "sim/snapshot.hpp"

namespace perfbench {

/// Modelled outcome of a set of ledger entries.
struct LedgerSummary {
  std::vector<double> sojourn_ps;  // served jobs: arrival -> result DMA done
  std::uint64_t served = 0;
  std::uint64_t deadline_met = 0;  // served no later than their deadline
  atlantis::util::Picoseconds makespan = 0;  // latest served finish

  /// Folds one ledger entry in. Jobs that moved to another service are
  /// skipped (their receiving ledger carries them).
  void add(const atlantis::serve::JobRecord& rec);
};

/// Fills the modelled end-to-end figures (model_*, served_ratio,
/// deadline_met_ratio) and their per-layer companions (sample counts,
/// error and deadline-miss ratios). Refused jobs count against both
/// ratios: a request that is not served misses any latency limit.
void add_model_metrics(Pass& pass, LedgerSummary ledger,
                       std::uint64_t submitted, std::uint64_t deadline_submitted);

/// Task-switch, timeline, driver and ledger counts summed over services
/// (core.taskswitch.*, sim.timeline.*, core.driver.dma_retries,
/// serve.ledger.records). All modelled or counted, so deterministic.
void add_service_counts(Metrics& counts,
                        const std::vector<atlantis::serve::JobService*>& services);

/// Saves `state` until at least 25 ms of saving has been timed (once for
/// large states, a dozen times for small ones); returns the median save
/// time in ms and stores the last stream in `bytes`.
double timed_saves(const atlantis::sim::Snapshottable& state,
                   std::vector<std::uint8_t>& bytes);

/// Digest of a service ledger's schedule and results (ids, boards, start
/// and finish times, errors, checksums).
void mix_ledger(Fnv& acc, const atlantis::serve::JobService& service);

}  // namespace perfbench

// Admission control and per-configuration queues of the serving layer.
//
// Jobs are admitted against a per-tenant backlog quota (the crate must
// not let one tenant starve the rest of queue memory), then parked in
// the FIFO queue of the configuration they need. The scheduler drains
// whole batches from one queue at a time — that is what amortizes the
// FPGA reconfiguration a queue switch costs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "serve/job.hpp"
#include "util/units.hpp"

namespace atlantis::serve {

/// Scheduling discipline of the JobService.
enum class Policy {
  /// Drain whole same-configuration batches per board visit — the
  /// reconfiguration-amortizing default.
  kBatched,
  /// Earliest-deadline-first with slice-quantum preemption: a running
  /// job is checkpointed (compute progress kept) whenever a strictly
  /// earlier deadline is waiting, and resumed later from where it
  /// stopped — possibly on another board.
  kPreemptive,
  /// Like kPreemptive, but preemption discards progress: the victim
  /// re-pays its full compute (and its input DMA) when re-dispatched.
  /// The baseline the snapshot benchmark compares checkpointing against.
  kAbortRerun,
};

/// Tuning knobs of the JobService.
struct ServeOptions {
  /// Jobs of one configuration dispatched per board visit, at least 1.
  /// 1 disables batching (every alternating job pays a reconfiguration).
  int max_batch = 8;
  /// Admission control: pending (queued, not yet dispatched) jobs one
  /// tenant may hold; submit() past it fails with kOverloaded.
  std::uint64_t max_queued_per_tenant = 1'000'000;
  /// Per-board bitstream cache capacity (0 disables the cache). A hit
  /// activates the staged context at TaskSwitcher's default fraction
  /// of a full configuration (1/64).
  std::size_t cache_capacity = 4;
  /// Serve strictly in submission order instead of draining one
  /// configuration's queue at a time — the reconfigure-per-job baseline
  /// the serving benchmark compares batching against.
  bool fifo_order = false;
  /// Differential region loading on cache misses (TaskSwitcher
  /// set_differential). Only bites for configurations registered with
  /// region signatures; bit-identical to the full-configure path
  /// otherwise. Off gives the A/B baseline for the serving benchmark.
  bool differential_reconfig = true;
  /// Scheduling discipline. The preemptive policies ignore fifo_order
  /// (job order is deadline-driven) but keep every other knob.
  Policy policy = Policy::kBatched;
  /// Preemption quantum of the preemptive policies: a running job yields
  /// a preemption opportunity every `preempt_slice` of modelled compute.
  /// Must be positive.
  util::Picoseconds preempt_slice = 2'000'000'000;  // 2 ms
};

/// FIFO queues keyed by configuration name, with a running count of
/// the jobs they hold. Deterministic by construction: std::map keeps
/// the configuration iteration order stable, and every queue preserves
/// submission order. A drained queue stays in the map, empty, so the
/// next wave reuses it; every query skips empty queues.
class ConfigQueues {
 public:
  void push_back(const std::string& config, JobId id) {
    queues_[config].push_back(id);
    ++total_;
  }
  /// Re-queues at the FRONT, preserving original order of `ids` — used
  /// when a board dies with a batch assembled but not served.
  void push_front(const std::string& config, std::span<const JobId> ids) {
    auto& q = queues_[config];
    q.insert(q.begin(), ids.begin(), ids.end());
    total_ += ids.size();
  }
  JobId pop_front(const std::string& config) {
    auto& q = queues_.at(config);
    const JobId id = q.front();
    q.pop_front();
    --total_;
    return id;
  }

  /// Removes one specific id from a configuration's queue (the
  /// preemptive scheduler pulls by deadline, not position). Returns
  /// false when the id is not queued under that configuration.
  bool erase(const std::string& config, JobId id) {
    const auto it = queues_.find(config);
    if (it == queues_.end()) return false;
    auto& q = it->second;
    const auto pos = std::find(q.begin(), q.end(), id);
    if (pos == q.end()) return false;
    q.erase(pos);
    --total_;
    return true;
  }

  /// Every queued job with its configuration, in (configuration, FIFO)
  /// order — the candidate list the EDF picker scans.
  std::vector<std::pair<std::string, JobId>> all() const {
    std::vector<std::pair<std::string, JobId>> out;
    out.reserve(total());
    for (const auto& [config, q] : queues_) {
      for (const JobId id : q) out.emplace_back(config, id);
    }
    return out;
  }

  bool empty() const { return total_ == 0; }
  std::size_t depth(const std::string& config) const {
    const auto it = queues_.find(config);
    return it == queues_.end() ? 0 : it->second.size();
  }
  std::size_t total() const { return total_; }

  /// The configuration whose queue head is the oldest job overall —
  /// strict submission order (the fifo_order baseline). Empty when
  /// nothing is queued.
  const std::string& pick_fifo() const {
    const std::string* best = &none();
    JobId best_id = ~JobId{0};
    for (const auto& [config, q] : queues_) {
      if (!q.empty() && q.front() < best_id) {
        best_id = q.front();
        best = &config;
      }
    }
    return *best;
  }

  /// The non-empty queue the scheduler should serve next: the resident
  /// configuration when it still has work (switch-free), otherwise the
  /// deepest queue, ties broken by configuration name — all
  /// deterministic regardless of submission interleaving. Empty when
  /// nothing is queued.
  const std::string& pick(const std::string& resident) const {
    const auto home = queues_.find(resident);
    if (home != queues_.end() && !home->second.empty()) return home->first;
    const std::string* best = &none();
    std::size_t best_depth = 0;
    for (const auto& [config, q] : queues_) {
      if (q.size() > best_depth) {
        best = &config;
        best_depth = q.size();
      }
    }
    return *best;
  }

 private:
  static const std::string& none() {
    static const std::string empty;
    return empty;
  }

  std::map<std::string, std::deque<JobId>> queues_;
  std::size_t total_ = 0;
};

}  // namespace atlantis::serve

// Job model of the ATLANTIS serving layer.
//
// One crate time-multiplexes heterogeneous workloads — TRT event
// blocks, image-processing tiles and custom jobs — across the same
// FPGA boards via the task switcher (the paper's central claim). A job
// is the unit of that multiplexing: which tenant asked, which
// configuration (bitstream) it needs resident, how much data moves over
// PCI, and a pure work functor that produces the functional result plus
// the modelled compute time.
//
// The functor contract is what makes the scheduler's determinism
// guarantee possible: `work` must be a pure function of the values
// captured at submit time (no shared mutable state, no timeline access,
// no fault draws), because the service evaluates batches on a worker
// pool whose size must not be observable in any result or schedule.
// Everything stateful — reconfiguration, DMA, fault opportunities —
// happens on the scheduling thread.
//
// This header is intentionally header-only and depends only on util/,
// so the application libraries can provide job adapters without
// linking against the serve library.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "util/fnv.hpp"
#include "util/status.hpp"
#include "util/units.hpp"

namespace atlantis::serve {

/// Workload taxonomy (one per application adapter, plus custom).
enum class JobKind {
  kTrtEvent,  // one TRT event block through the LUT histogrammer
  kImgTile,   // one 2-D filtering tile
  kCustom,
};

/// Stable lowercase name ("trt_event", "img_tile", ...).
inline const char* job_kind_name(JobKind kind) {
  switch (kind) {
    case JobKind::kTrtEvent: return "trt_event";
    case JobKind::kImgTile: return "img_tile";
    case JobKind::kCustom: return "custom";
  }
  return "custom";
}

/// What one job's work functor produces: the functional result digest
/// and the modelled hardware cost the scheduler turns into timeline
/// transactions.
struct JobOutcome {
  std::uint64_t checksum = 0;     // digest of the functional output
  util::Picoseconds compute_time = 0;  // modelled on-board compute
  std::uint64_t dma_in_bytes = 0;      // host -> board payload
  std::uint64_t dma_out_bytes = 0;     // board -> host result
};

using JobId = std::uint64_t;

/// FNV-1a digest over a container of integral values — the shared
/// result-checksum of the job adapters, so "same functional output"
/// is one number the determinism tests can compare.
template <typename Container>
std::uint64_t digest(const Container& values) {
  util::Fnv acc;
  for (const auto& v : values) acc.mix(static_cast<std::uint64_t>(v));
  return acc.h;
}

/// One submitted job. `config` names the bitstream that must be
/// resident before `work` may run; the scheduler batches jobs of equal
/// `config` to amortize reconfiguration. `arrival` is when the job
/// entered the service (modelled time; queue wait is measured from it).
struct JobSpec {
  std::string tenant;
  JobKind kind = JobKind::kCustom;
  std::string config;
  util::Picoseconds arrival = 0;
  /// Absolute completion deadline (modelled time); 0 = none. The
  /// preemptive policy schedules earliest-deadline-first and counts a
  /// finish past this as a deadline miss.
  util::Picoseconds deadline = 0;
  std::function<JobOutcome()> work;
};

/// The service's ledger entry for one job, filled as it moves through
/// queue -> batch -> board. A failed job's reason is its `error`.
struct JobRecord {
  JobId id = 0;  // its index in the ledger
  std::string tenant;
  JobKind kind = JobKind::kCustom;
  std::string config;
  int board = -1;  // ACB index it ran on; -1 = never dispatched
  util::Picoseconds arrival = 0;
  util::Picoseconds start = 0;   // service start on the board
  util::Picoseconds finish = 0;  // result DMA complete
  util::Picoseconds deadline = 0;  // from the spec; 0 = none
  std::uint32_t preemptions = 0;   // times this job was slice-preempted
  bool migrated = false;  // checkpointed out and restored on another service
  util::ErrorCode error = util::ErrorCode::kOk;  // kOk when served
  JobOutcome outcome;

  /// Time from arrival to service start; 0 before the first dispatch.
  util::Picoseconds queue_wait() const {
    return start > arrival ? start - arrival : 0;
  }
};

}  // namespace atlantis::serve

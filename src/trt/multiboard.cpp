#include "trt/multiboard.hpp"

#include <algorithm>
#include <cmath>

#include "util/bitops.hpp"
#include "util/status.hpp"
#include "util/worker_pool.hpp"

namespace atlantis::trt {
namespace {

/// One board's functional work: histogram the pattern slice [lo, hi)
/// (the columns its memory modules hold) into counts[lo..hi). Each
/// straw's pattern list is sorted, so the slice is a contiguous range.
void histogram_slice(const PatternBank& bank, const Event& ev,
                     std::int32_t lo, std::int32_t hi,
                     std::uint16_t* counts) {
  for (const std::int32_t s : ev.hits) {
    const auto& list = bank.straw_patterns(s);
    const auto begin = std::lower_bound(list.begin(), list.end(), lo);
    const auto end = std::lower_bound(begin, list.end(), hi);
    for (auto it = begin; it != end; ++it) {
      ++counts[static_cast<std::size_t>(*it)];
    }
  }
}

}  // namespace

MultiBoardResult histogram_multiboard(const PatternBank& bank,
                                      const Event& ev,
                                      const MultiBoardConfig& cfg,
                                      core::AtlantisSystem& system) {
  ATLANTIS_CHECK(cfg.boards >= 1, "need at least one board");
  ATLANTIS_CHECK(cfg.modules_per_board >= 1 && cfg.modules_per_board <= 4,
                 "1..4 mezzanine modules per board");
  if (system.acb_count() < cfg.boards) {
    throw util::Error("system has " + std::to_string(system.acb_count()) +
                      " ACBs but the configuration needs " +
                      std::to_string(cfg.boards));
  }
  if (system.aib_count() < 1) {
    throw util::Error("event broadcast needs an AIB as backplane source");
  }

  MultiBoardResult r;

  // Board health: each configured board gets one drop-out opportunity per
  // run (drawn here, on the scheduling thread — never in pool workers, so
  // the outcome is independent of the worker-pool size). A board that
  // dropped out in an earlier run stays masked. Survivors absorb the dead
  // boards' pattern slices: the histogram stays complete, the run is
  // flagged degraded.
  std::vector<int> alive;
  alive.reserve(static_cast<std::size_t>(cfg.boards));
  for (int b = 0; b < cfg.boards; ++b) {
    core::AcbBoard& board = system.acb(b);
    board.draw_dropout();
    if (board.alive()) {
      alive.push_back(b);
    } else {
      r.degraded = true;
      r.masked_boards.push_back(board.name());
    }
  }
  if (alive.empty()) {
    throw util::Error("every configured ACB has dropped out; the TRT scan "
                      "has no surviving board");
  }
  const int active = static_cast<int>(alive.size());
  r.active_boards = active;

  r.patterns_per_board = static_cast<int>(util::ceil_div(
      static_cast<std::uint64_t>(bank.pattern_count()),
      static_cast<std::uint64_t>(active)));
  // Functional result: each surviving board histogramms its pattern slice
  // on the worker pool (the boards really do run concurrently); the
  // concatenation of the slices is exactly the reference histogram.
  r.histogram.counts.assign(static_cast<std::size_t>(bank.pattern_count()),
                            0);
  util::WorkerPool& pool =
      cfg.pool != nullptr ? *cfg.pool : util::WorkerPool::shared();
  pool.parallel_for(active, [&](int k) {
    const auto lo = static_cast<std::int32_t>(k * r.patterns_per_board);
    const auto hi = std::min<std::int32_t>(
        lo + r.patterns_per_board, bank.pattern_count());
    if (lo < hi) histogram_slice(bank, ev, lo, hi, r.histogram.counts.data());
  });

  core::Backplane& bp = system.backplane();
  const int src_slot = system.aib_slot(0);

  // The run is scheduled on the crate timeline: one track per surviving
  // board, the backplane channels and each board's design clock as shared
  // resources. Re-running on the same system appends after everything
  // already recorded, so the epoch is the current horizon.
  sim::Timeline& tl = system.timeline();
  const util::Picoseconds epoch = tl.horizon();
  std::vector<sim::TrackId> tracks;
  tracks.reserve(static_cast<std::size_t>(active));
  for (const int b : alive) {
    tracks.push_back(tl.add_track("trt/" + system.acb(b).name()));
  }

  // Per-run S-Link recovery accounting: the link's retransmission count
  // is lifetime, so capture it before the streams are posted and report
  // the delta. A detector-fed board's stream is the event's hit words
  // between a begin and an end marker.
  const std::uint64_t stream_words =
      static_cast<std::uint64_t>(ev.hits.size()) + 2;
  std::vector<std::uint64_t> retrans_before;
  if (cfg.detector_fed) {
    for (const int b : alive) {
      retrans_before.push_back(system.acb(b).slink().retransmissions());
    }
  }

  // Phase 1: image delivery. Host-fed boards get the full bit image over
  // their own backplane channel; with the default 4x32-bit configuration
  // up to four boards stream in parallel (more boards than channels
  // arbitrate FIFO on the shared channel). Detector-fed boards receive
  // the event over their own S-Links, overlapped with the scan.
  const std::uint64_t image_bytes = util::ceil_div(
      static_cast<std::uint64_t>(bank.geometry().straw_count()), 8);
  std::vector<util::Picoseconds> ready(static_cast<std::size_t>(active),
                                       epoch);
  if (!cfg.detector_fed) {
    util::Picoseconds last_arrival = epoch;
    for (int k = 0; k < active; ++k) {
      const int b = alive[static_cast<std::size_t>(k)];
      const int channel = k % bp.channel_count();
      const sim::Transaction& txn =
          bp.post_transfer(tracks[static_cast<std::size_t>(k)], src_slot,
                           system.acb_slot(b), channel, image_bytes, epoch,
                           "image broadcast");
      ready[static_cast<std::size_t>(k)] = txn.end;
      last_arrival = std::max(last_arrival, txn.end);
    }
    r.broadcast_time = last_arrival - epoch;
  }

  // Phase 2: parallel histogramming of the slices, each board starting
  // as soon as its image arrived.
  std::vector<util::Picoseconds> done(static_cast<std::size_t>(active),
                                      epoch);
  for (int k = 0; k < active; ++k) {
    const int b = alive[static_cast<std::size_t>(k)];
    TrtHwConfig board_cfg;
    board_cfg.clock_mhz = cfg.clock_mhz;
    board_cfg.ram_width_bits = 176 * cfg.modules_per_board;
    board_cfg.include_readout = false;  // collection is phase 3
    // Build a per-board cycle count for its slice of the patterns.
    const auto straws =
        static_cast<std::uint64_t>(bank.geometry().straw_count());
    const double passes = std::ceil(static_cast<double>(r.patterns_per_board) /
                                    board_cfg.ram_width_bits);
    const auto cycles = static_cast<std::uint64_t>(
        static_cast<double>(straws) * passes + board_cfg.pipeline_depth);
    const util::Picoseconds t =
        static_cast<util::Picoseconds>(cycles) *
        util::period_from_mhz(cfg.clock_mhz);
    r.compute_time = std::max(r.compute_time, t);
    const sim::Transaction& scan = tl.post(
        tracks[static_cast<std::size_t>(k)], sim::TxnKind::kCompute,
        "scan slice " + std::to_string(k),
        system.acb(b).compute_resource(),
        ready[static_cast<std::size_t>(k)], t);
    done[static_cast<std::size_t>(k)] = scan.end;
    if (cfg.detector_fed) {
      // The S-Link stream (begin marker, hit words, end marker) occupies
      // the board's link while the scan consumes it; the board is done
      // when the slower of the two finishes. The link clock matches the
      // design clock, so with full-image streaming the scan dominates.
      // An injected LDERR burst turns the stream into two posts (the
      // corrupted pass and its retransmission), pushing the board's
      // completion out by the wasted link time.
      const sim::Transaction& stream =
          system.acb(b).slink().post_stream(
              tracks[static_cast<std::size_t>(k)], stream_words, epoch,
              "detector feed");
      done[static_cast<std::size_t>(k)] =
          std::max(done[static_cast<std::size_t>(k)], stream.end);
    }
  }

  // Phase 3: collect the partial histograms (16-bit counters) back over
  // the backplane, serialized onto one channel at the collector — the
  // timeline's FIFO arbitration on channel 0 is that serialization.
  const std::uint64_t hist_bytes =
      static_cast<std::uint64_t>(r.patterns_per_board) * 2;
  util::Picoseconds finish = epoch;
  for (int k = 0; k < active; ++k) {
    const int b = alive[static_cast<std::size_t>(k)];
    const sim::Transaction& txn = bp.post_transfer(
        tracks[static_cast<std::size_t>(k)], system.acb_slot(b), src_slot, 0,
        hist_bytes, done[static_cast<std::size_t>(k)],
        "collect slice " + std::to_string(k));
    r.collect_time += txn.duration();
    finish = std::max(finish, txn.end);
  }

  if (cfg.detector_fed) {
    // Each board posted one stream this run, and a retransmission wastes
    // exactly one pass of it.
    for (int k = 0; k < active; ++k) {
      hw::SlinkChannel& link =
          system.acb(alive[static_cast<std::size_t>(k)]).slink();
      const std::uint64_t retransmits =
          link.retransmissions() - retrans_before[static_cast<std::size_t>(k)];
      r.slink_retransmits += retransmits;
      r.recovery_time += static_cast<util::Picoseconds>(retransmits) *
                         link.transfer_time(stream_words);
    }
  }

  // End-to-end span of the whole schedule, including any pipelining of
  // early collections under late scans the phase sums cannot see.
  r.total_time = finish - epoch;
  return r;
}

}  // namespace atlantis::trt

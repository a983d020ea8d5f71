// Crate-wide discrete-event timeline.
//
// The paper's headline numbers are end-to-end times — "algorithm plus
// I/O" (§3) — and the crate's interconnect is shared: every board's DMA
// crosses the one 32-bit/33 MHz CompactPCI segment, backplane channels
// are granted per transfer, SDRAM banks serve one burst at a time. A
// scatter of per-component scalar ledgers cannot show two boards
// contending for the bus or compute overlapping I/O, so every timing
// model in the crate posts typed Transactions onto this one scheduler
// instead of returning a bare util::Picoseconds.
//
// The model is transaction-level discrete event: a Transaction requests
// `service` time on a Resource no earlier than `post` time; the resource
// arbitrates FIFO over its channels (capacity > 1 models the 8 SDRAM
// banks or the four 32-bit backplane channels), so the granted `start`
// may be later than `post` — that difference is the queuing delay the
// scalar ledgers could never see. Actors (drivers, boards) keep their
// own cursor: sequential calls chain end-to-start, asynchronous calls
// post without advancing the cursor and join at wait(), which is how
// compute/DMA overlap is expressed.
//
// Observability: every transaction is kept; export_chrome_trace() writes
// Chrome-trace/Perfetto JSON (one track per resource, one per actor) and
// stats() reports per-resource utilization, queue delay and bytes.
//
// Labels: post() copies each label into chunked storage the timeline
// owns, and the Transaction holds a view of it. Chunks never move, so a
// label stays readable for the timeline's life: across growth of the
// log and across a move of the timeline (copying one is deleted; the
// copy's views would point into the original).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "sim/snapshot.hpp"
#include "util/units.hpp"

namespace atlantis::sim {

/// What a transaction models; the catalogue of event phases the trace
/// schema test checks against.
enum class TxnKind {
  kPciDma,        // block DMA over the CompactPCI segment
  kTargetAccess,  // single-word PCI target-mode access
  kAabChannel,    // backplane channel burst
  kSlinkStream,   // S-Link word stream
  kSdramBurst,    // SDRAM bank burst
  kSramBurst,     // synchronous-SRAM burst
  kReconfig,      // FPGA (partial) reconfiguration
  kCompute,       // design-clock compute on a board
  kHost,          // host-CPU work
  kBackoff,       // recovery wait between retry attempts
  kQueueWait,     // job waiting in a service queue (serve layer)
  kOther,
};

/// Stable lowercase name used in traces and tables.
const char* txn_kind_name(TxnKind kind);

struct ResourceId {
  int value = -1;
  bool valid() const { return value >= 0; }
  bool operator==(const ResourceId&) const = default;
};

struct TrackId {
  int value = -1;
  bool valid() const { return value >= 0; }
  bool operator==(const TrackId&) const = default;
};

/// One scheduled transaction. `post` is when the actor requested it,
/// `start` is when the resource granted it (start - post = queuing
/// delay), `end` = start + service time. `label` views storage the
/// posting Timeline owns (file comment).
struct Transaction {
  std::uint64_t id = 0;
  TxnKind kind = TxnKind::kOther;
  std::string_view label;
  TrackId track;        // posting actor
  ResourceId resource;  // invalid when no shared resource is involved
  util::Picoseconds post = 0;
  util::Picoseconds start = 0;
  util::Picoseconds end = 0;
  std::uint64_t bytes = 0;
  /// Configuration regions moved by a kReconfig transaction (0 = a
  /// monolithic load, or not a reconfiguration at all). Lets traces and
  /// benches separate full-bitstream loads from differential ones.
  std::uint32_t regions = 0;

  util::Picoseconds queue_delay() const { return start - post; }
  util::Picoseconds duration() const { return end - start; }
};
// The log grows by memmove.
static_assert(std::is_trivially_copyable_v<Transaction>);

/// Aggregate view of one resource over the whole run.
struct ResourceStats {
  std::string name;
  int channels = 1;
  std::uint64_t transactions = 0;
  std::uint64_t bytes = 0;
  util::Picoseconds busy = 0;         // sum of service durations
  util::Picoseconds queue_delay = 0;  // sum of start - post
  util::Picoseconds first_start = 0;
  util::Picoseconds last_end = 0;

  // Fault/recovery accounting (populated by record_fault/record_retry):
  // how often transactions on this resource faulted, how many retries the
  // recovery layer issued, and the time those retries waited in backoff
  // plus retransmission.
  std::uint64_t faults = 0;
  std::uint64_t retries = 0;
  util::Picoseconds retry_time = 0;

  /// Busy fraction of one channel over [0, horizon] (can exceed 1 for
  /// multi-channel resources; divide by `channels` for the mean).
  double utilization(util::Picoseconds horizon) const {
    if (horizon <= 0) return 0.0;
    return static_cast<double>(busy) / static_cast<double>(horizon);
  }
  double mbps() const { return util::mb_per_s(bytes, last_end - first_start); }
};

class Timeline : public Snapshottable {
 public:
  Timeline() = default;
  Timeline(const Timeline&) = delete;
  Timeline& operator=(const Timeline&) = delete;
  Timeline(Timeline&&) = default;
  Timeline& operator=(Timeline&&) = default;

  /// Registers a shared resource with `channels` independent servers
  /// (1 = the CompactPCI segment; 4 = the default backplane channel
  /// grant; 8 = SDRAM banks).
  ResourceId add_resource(std::string name, int channels = 1);

  /// Registers an actor (driver, board, bench phase) for attribution.
  TrackId add_track(std::string name);

  /// Posts a transaction requesting `service` time on `resource` no
  /// earlier than `not_before`. With an invalid resource the transaction
  /// starts exactly at `not_before` (private hardware, no arbitration);
  /// otherwise the earliest-free channel is granted FIFO. `label` is
  /// copied. Returns the scheduled transaction (valid until the next
  /// post()).
  const Transaction& post(TrackId track, TxnKind kind, std::string_view label,
                          ResourceId resource, util::Picoseconds not_before,
                          util::Picoseconds service, std::uint64_t bytes = 0,
                          std::uint32_t regions = 0);

  /// Latest end over all transactions (the crate-wide makespan).
  util::Picoseconds horizon() const { return horizon_; }
  /// Latest end over one actor's transactions.
  util::Picoseconds track_horizon(TrackId track) const;

  const std::vector<Transaction>& transactions() const { return txns_; }
  const Transaction& txn(std::uint64_t id) const;

  int resource_count() const { return static_cast<int>(resources_.size()); }
  int track_count() const { return static_cast<int>(tracks_.size()); }
  const std::string& resource_name(ResourceId id) const;
  const std::string& track_name(TrackId id) const;

  ResourceStats stats(ResourceId id) const;
  std::vector<ResourceStats> all_stats() const;

  /// Fault/recovery bookkeeping: a transaction on `id` faulted, or a
  /// retry was issued and spent `recovery` (backoff + retransmission)
  /// recovering. The recovery layer calls these next to the transactions
  /// it posts, so a fault sweep's stats() table shows where the recovery
  /// time went per resource.
  void record_fault(ResourceId id);
  void record_retry(ResourceId id, util::Picoseconds recovery);

  /// Snapshottable: writes/restores the complete timeline — resources
  /// with their channel free-times and stats, tracks, every transaction
  /// and the horizon — under a "sim/timeline" section. load_state fully
  /// replaces the current contents; ResourceId/TrackId handles held by
  /// callers stay valid only when the restored stream was taken from an
  /// identically registered timeline (same add_resource/add_track
  /// order), which load_state verifies by count and name. The restored
  /// labels go into fresh storage; the old labels are freed only once
  /// the load succeeded, so a load that throws leaves every label
  /// readable.
  void save_state(SnapshotWriter& w) const override;
  void load_state(SnapshotReader& r) override;

  /// Chrome-trace/Perfetto JSON: complete events ("ph":"X") with
  /// microsecond timestamps, one named thread per resource and one per
  /// actor track (resource-less transactions land on the actor thread).
  /// Loads directly in Perfetto / chrome://tracing.
  void export_chrome_trace(std::ostream& out) const;
  /// Convenience: writes the trace to `path`; returns false on I/O error.
  bool export_chrome_trace_file(const std::string& path) const;

 private:
  struct Resource {
    std::string name;
    // Next free time per channel; arbitration grants the earliest-free.
    std::vector<util::Picoseconds> free_at;
    ResourceStats stats;
  };
  struct Track {
    std::string name;
    util::Picoseconds horizon = 0;
  };
  /// Append-only label storage. Chunks start at a few KiB, so a small
  /// crate stays small, and double up to a cap.
  class Labels {
   public:
    std::string_view store(std::string_view label);
    /// Keeps `other`'s chunks alive too.
    void adopt(Labels&& other);

   private:
    struct Chunk {
      std::unique_ptr<char[]> bytes;
      std::size_t size = 0;
      std::size_t used = 0;
    };
    static constexpr std::size_t kFirstChunk = 4 << 10;
    static constexpr std::size_t kMaxChunk = 64 << 10;
    std::vector<Chunk> chunks_;  // the last one takes new labels
  };

  /// `labels` receives the labels a load reads.
  template <typename Self, typename Stream, typename Store>
  static void walk(Self& self, Stream& s, Store& labels);

  std::vector<Resource> resources_;
  std::vector<Track> tracks_;
  std::vector<Transaction> txns_;
  Labels labels_;
  util::Picoseconds horizon_ = 0;
};

}  // namespace atlantis::sim

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
// Observability: the timeline keeps a log of the transactions it posted
// itself. The log is a trace, not scheduler state: a snapshot carries
// each resource's channel free times and stats, the track names, the
// horizon and how many transactions were posted, never the log. Loading a
// snapshot rolls the log back to the restored count when this timeline
// posted it (a crash restore onto the timeline that took the
// checkpoint); otherwise (a twin) the log starts empty at that count, so
// a twin's trace starts at the restore point. export_chrome_trace()
// writes the log as Chrome-trace/Perfetto JSON (one track per resource,
// one per actor) and stats() reports per-resource utilization, queue
// delay and bytes over the whole run.
//
// Labels: post() copies each label into chunked storage the timeline
// owns, and the Transaction holds a view of it. Chunks never move, so a
// label stays readable for the timeline's life: across growth of the
// log and across a move of the timeline (copying one is deleted; the
// copy's views would point into the original). A load reads no label;
// the labels of entries a rollback cut stay in their chunks.
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
  kReconfig,      // FPGA (partial) reconfiguration
  kCompute,       // design-clock compute on a board
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

/// Aggregate view of one resource over the whole run. Faults and
/// retries are counted by the component that decides them (the driver
/// for DMA, the S-Link channel for its streams), not here.
struct ResourceStats {
  std::string name;
  int channels = 1;
  std::uint64_t transactions = 0;
  std::uint64_t bytes = 0;
  util::Picoseconds busy = 0;         // sum of service durations
  util::Picoseconds queue_delay = 0;  // sum of start - post

  /// Busy fraction of one channel over [0, horizon] (can exceed 1 for
  /// multi-channel resources; divide by `channels` for the mean).
  double utilization(util::Picoseconds horizon) const {
    if (horizon <= 0) return 0.0;
    return static_cast<double>(busy) / static_cast<double>(horizon);
  }
  bool operator==(const ResourceStats&) const = default;
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

  /// The log: this timeline's posts with ids [first_id, posted()) in
  /// id order (file comment).
  const std::vector<Transaction>& transactions() const { return txns_; }
  /// The logged transaction numbered `id`; throws for an id outside the
  /// log.
  const Transaction& txn(std::uint64_t id) const;
  /// Transactions posted so far, across restores: the id of the next
  /// post.
  std::uint64_t posted() const { return first_id_ + txns_.size(); }

  int resource_count() const { return static_cast<int>(resources_.size()); }
  int track_count() const { return static_cast<int>(tracks_.size()); }
  const std::string& track_name(TrackId id) const;

  ResourceStats stats(ResourceId id) const;
  std::vector<ResourceStats> all_stats() const;

  /// Snapshottable: writes/restores the scheduler state — resources
  /// with their channel free-times and stats, the track names, the
  /// posted count and the horizon — under a "sim/timeline"
  /// section; the log is not in the stream. ResourceId/TrackId handles
  /// held by callers stay valid only when the restored stream was taken
  /// from an identically registered timeline (same add_resource/add_track
  /// order), which load_state verifies by count and name. With k the
  /// restored count, load_state keeps the logged entries below k when
  /// the log reaches k, and otherwise empties it so the next post is
  /// numbered k. The section is read into a staging copy and committed,
  /// and the log cut, only after the whole section read, so a load that
  /// throws leaves the scheduler state, the log and every label as they
  /// were.
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
  /// Append-only label storage. Chunks start at a few KiB, so a small
  /// crate stays small, and double up to a cap.
  class Labels {
   public:
    std::string_view store(std::string_view label);

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

  /// `posted` is the posted count the stream carries.
  template <typename Self, typename Stream, typename Count>
  static void walk(Self& self, Stream& s, Count& posted);

  std::vector<Resource> resources_;
  std::vector<std::string> tracks_;  // actor names, by TrackId
  std::vector<Transaction> txns_;
  std::uint64_t first_id_ = 0;  // id of txns_[0]
  Labels labels_;
  util::Picoseconds horizon_ = 0;
};

}  // namespace atlantis::sim

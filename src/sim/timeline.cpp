#include "sim/timeline.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <ostream>

#include "util/status.hpp"

namespace atlantis::sim {

const char* txn_kind_name(TxnKind kind) {
  switch (kind) {
    case TxnKind::kPciDma: return "pci_dma";
    case TxnKind::kTargetAccess: return "target_access";
    case TxnKind::kAabChannel: return "aab_channel";
    case TxnKind::kSlinkStream: return "slink_stream";
    case TxnKind::kReconfig: return "reconfig";
    case TxnKind::kCompute: return "compute";
    case TxnKind::kBackoff: return "backoff";
    case TxnKind::kQueueWait: return "queue_wait";
    case TxnKind::kOther: return "other";
  }
  return "other";
}

ResourceId Timeline::add_resource(std::string name, int channels) {
  ATLANTIS_CHECK(channels >= 1, "resource needs at least one channel");
  Resource r;
  r.name = std::move(name);
  r.free_at.assign(static_cast<std::size_t>(channels), 0);
  r.stats.name = r.name;
  r.stats.channels = channels;
  resources_.push_back(std::move(r));
  return ResourceId{static_cast<int>(resources_.size() - 1)};
}

TrackId Timeline::add_track(std::string name) {
  tracks_.push_back(std::move(name));
  return TrackId{static_cast<int>(tracks_.size() - 1)};
}

std::string_view Timeline::Labels::store(std::string_view label) {
  if (label.empty()) return {};
  if (chunks_.empty() ||
      chunks_.back().size - chunks_.back().used < label.size()) {
    const std::size_t grown =
        chunks_.empty() ? kFirstChunk
                        : std::min(2 * chunks_.back().size, kMaxChunk);
    const std::size_t size = std::max(grown, label.size());
    chunks_.push_back({std::make_unique_for_overwrite<char[]>(size), size, 0});
  }
  Chunk& chunk = chunks_.back();
  char* const at = chunk.bytes.get() + chunk.used;
  std::memcpy(at, label.data(), label.size());
  chunk.used += label.size();
  return {at, label.size()};
}

const Transaction& Timeline::post(TrackId track, TxnKind kind,
                                  std::string_view label, ResourceId resource,
                                  util::Picoseconds not_before,
                                  util::Picoseconds service,
                                  std::uint64_t bytes,
                                  std::uint32_t regions) {
  ATLANTIS_CHECK(track.valid() && track.value < track_count(),
                 "post() needs a registered track");
  ATLANTIS_CHECK(not_before >= 0 && service >= 0,
                 "transaction times must be non-negative");
  Transaction t;
  t.id = posted();
  t.kind = kind;
  t.label = labels_.store(label);
  t.track = track;
  t.resource = resource;
  t.post = not_before;
  t.bytes = bytes;
  t.regions = regions;
  if (resource.valid()) {
    ATLANTIS_CHECK(resource.value < resource_count(),
                   "post() on an unregistered resource");
    Resource& r = resources_[static_cast<std::size_t>(resource.value)];
    // FIFO grant on the earliest-free channel.
    auto ch = std::min_element(r.free_at.begin(), r.free_at.end());
    t.start = std::max(not_before, *ch);
    t.end = t.start + service;
    *ch = t.end;
    ResourceStats& s = r.stats;
    s.busy += service;
    s.queue_delay += t.queue_delay();
    s.bytes += bytes;
    ++s.transactions;
  } else {
    t.start = not_before;
    t.end = t.start + service;
  }
  horizon_ = std::max(horizon_, t.end);
  txns_.push_back(t);
  return txns_.back();
}

const Transaction& Timeline::txn(std::uint64_t id) const {
  ATLANTIS_CHECK(id >= first_id_ && id < posted(),
                 "transaction id outside the log");
  return txns_[static_cast<std::size_t>(id - first_id_)];
}

const std::string& Timeline::track_name(TrackId id) const {
  ATLANTIS_CHECK(id.valid() && id.value < track_count(), "unknown track");
  return tracks_[static_cast<std::size_t>(id.value)];
}

ResourceStats Timeline::stats(ResourceId id) const {
  ATLANTIS_CHECK(id.valid() && id.value < resource_count(),
                 "unknown resource");
  return resources_[static_cast<std::size_t>(id.value)].stats;
}

template <typename Self, typename Stream, typename Count>
void Timeline::walk(Self& self, Stream& s, Count& posted) {
  s.section("sim/timeline", [&] {
    s.expect_u32(self.resources_.size(), "timeline resource count");
    for (auto& res : self.resources_) {
      s.expect_string(res.name, "timeline resource");
      s.expect_u32(res.free_at.size(), "timeline channel count");
      for (auto& t : res.free_at) s.i64(t);
      auto& st = res.stats;
      s.u64(st.transactions);
      s.u64(st.bytes);
      s.i64(st.busy);
      s.i64(st.queue_delay);
    }
    // Tracks grow lazily (tenant tracks appear at first dispatch), so a
    // snapshot may carry more tracks than the twin has created — and a
    // rollback restore may carry fewer than the live timeline grew
    // since the checkpoint. Both directions resize; components that own
    // late track ids restore them from the same stream.
    s.seq32(self.tracks_, [&](auto& name) { s.string(name); });
    s.u64(posted);
    s.i64(self.horizon_);
  });
}

void Timeline::save_state(SnapshotWriter& w) const {
  const std::uint64_t posted = this->posted();
  walk(*this, w, posted);
}

void Timeline::load_state(SnapshotReader& r) {
  // The walk fills a staging copy of the scheduler state; nothing is
  // committed, and the log is not cut, until the whole section read.
  struct Staged {
    std::vector<Resource> resources_;
    std::vector<std::string> tracks_;
    util::Picoseconds horizon_;
  } staged{resources_, tracks_, horizon_};
  std::uint64_t k = 0;
  walk(staged, r, k);
  resources_ = std::move(staged.resources_);
  tracks_ = std::move(staged.tracks_);
  horizon_ = staged.horizon_;
  if (first_id_ <= k && k <= posted()) {
    txns_.resize(static_cast<std::size_t>(k - first_id_));  // a rollback
  } else {
    txns_.clear();  // a twin: its log starts at the restore point
    first_id_ = k;
  }
}

std::vector<ResourceStats> Timeline::all_stats() const {
  std::vector<ResourceStats> out;
  out.reserve(resources_.size());
  for (const Resource& r : resources_) out.push_back(r.stats);
  return out;
}

namespace {

void write_json_string(std::ostream& out, std::string_view s) {
  out << '"';
  for (const char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out << ' ';  // control characters never appear in our labels
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

double ps_to_trace_us(util::Picoseconds t) {
  return static_cast<double>(t) / 1.0e6;
}

}  // namespace

void Timeline::export_chrome_trace(std::ostream& out) const {
  // Track layout: tid 0..R-1 are resources, tid R..R+T-1 are actor
  // tracks. Stable across runs of the same system construction order.
  const int resource_base = 0;
  const int track_base = resource_count();
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  auto sep = [&] {
    if (!first) out << ",\n";
    first = false;
  };
  for (int r = 0; r < resource_count(); ++r) {
    sep();
    out << "  {\"ph\": \"M\", \"pid\": 1, \"tid\": " << (resource_base + r)
        << ", \"name\": \"thread_name\", \"args\": {\"name\": ";
    write_json_string(out, "res:" + resources_[static_cast<std::size_t>(r)].name);
    out << "}}";
  }
  for (int t = 0; t < track_count(); ++t) {
    sep();
    out << "  {\"ph\": \"M\", \"pid\": 1, \"tid\": " << (track_base + t)
        << ", \"name\": \"thread_name\", \"args\": {\"name\": ";
    write_json_string(out, "actor:" + tracks_[static_cast<std::size_t>(t)]);
    out << "}}";
  }
  // Complete events, sorted by start so every track is monotonic.
  std::vector<const Transaction*> order;
  order.reserve(txns_.size());
  for (const Transaction& t : txns_) order.push_back(&t);
  std::stable_sort(order.begin(), order.end(),
                   [](const Transaction* a, const Transaction* b) {
                     return a->start < b->start;
                   });
  for (const Transaction* t : order) {
    const int tid = t->resource.valid() ? resource_base + t->resource.value
                                        : track_base + t->track.value;
    sep();
    out << "  {\"ph\": \"X\", \"pid\": 1, \"tid\": " << tid << ", \"name\": ";
    write_json_string(out, t->label.empty() ? txn_kind_name(t->kind)
                                            : t->label);
    out << ", \"cat\": ";
    write_json_string(out, txn_kind_name(t->kind));
    out << ", \"ts\": " << ps_to_trace_us(t->start)
        << ", \"dur\": " << ps_to_trace_us(t->duration())
        << ", \"args\": {\"bytes\": " << t->bytes
        << ", \"regions\": " << t->regions
        << ", \"queue_delay_us\": " << ps_to_trace_us(t->queue_delay())
        << ", \"actor\": ";
    write_json_string(out, track_name(t->track));
    out << "}}";
  }
  out << "\n]}\n";
}

bool Timeline::export_chrome_trace_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  export_chrome_trace(out);
  return static_cast<bool>(out);
}

}  // namespace atlantis::sim

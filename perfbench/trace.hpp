// In-memory span recorder for the traced run.
//
// Spans are recorded by the benchmark around its calls into each layer
// (submit, run, tick, save, restore, work functors). A span's parent is
// the span open on the scheduling thread when it started, so work
// functors evaluated on pool threads hang under the run()/tick() that
// dispatched them. Spans of one request carry the benchmark's own
// request sequence number, which links a job's submit and work spans
// (Chrome-trace flow events). A layer's self time is its spans' duration
// minus the part of each interval its child spans cover.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

class Tracer {
 public:
  static constexpr std::uint32_t kRoot = 0xffffffffu;

  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t req = 0;  // 0 = not tied to one request
    std::uint32_t parent = kRoot;
    std::uint32_t tid = 0;
  };

  Tracer() : epoch_(Clock::now()) {}

  /// Opens a span on the scheduling thread; it becomes the parent of
  /// spans started until close(). Returns its id.
  std::uint32_t open(const char* name, std::uint64_t req = 0);
  /// Closes span `id` and restores `previous` as the open span.
  void close(std::uint32_t id, std::uint32_t previous);
  std::uint32_t current() const { return current_.load(std::memory_order_acquire); }

  /// Records a finished span from any thread under the currently open
  /// span.
  void record(const char* name, Clock::time_point start, Clock::time_point end,
              std::uint64_t req = 0);

  /// Drops every span (the next pass starts a fresh trace).
  void clear();

  // Queries; call only while no span is being recorded.
  std::vector<double> durations_us(const std::string& name) const;
  double total_ms(const std::string& name) const;
  std::uint64_t count(const std::string& name) const;
  /// Summed self time of every span called `name`.
  double self_ms(const std::string& name) const;

  /// Chrome-trace JSON ("ph":"X" slices plus "s"/"t"/"f" flow events
  /// joining the spans of each request). Spans of requests numbered above
  /// `max_req` are left out to bound the file. Returns false on I/O error.
  bool write_chrome_trace(const std::string& path, std::uint64_t max_req) const;

 private:
  std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count();
  }

  const Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
  std::atomic<std::uint32_t> current_{kRoot};
};

/// RAII span; a null tracer makes it a no-op (the untraced run).
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, std::uint64_t req = 0) : tracer_(tracer) {
    if (tracer_ != nullptr) {
      previous_ = tracer_->current();
      id_ = tracer_->open(name, req);
    }
  }
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close(id_, previous_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  std::uint32_t id_ = Tracer::kRoot;
  std::uint32_t previous_ = Tracer::kRoot;
};

/// Wraps a job's work functor so each call records a `name` span tied to
/// request `req`. Used only in traced passes.
template <typename Functor>
auto traced_work(Tracer* tracer, const char* name, std::uint64_t req, Functor inner) {
  return [tracer, name, req, inner = std::move(inner)]() {
    const Clock::time_point start = Clock::now();
    auto out = inner();
    tracer->record(name, start, Clock::now(), req);
    return out;
  };
}

}  // namespace perfbench

#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

namespace perfbench {
namespace {

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

}  // namespace

std::uint32_t Tracer::open(const char* name, std::uint64_t req) {
  Span span;
  span.name = name;
  span.req = req;
  span.parent = current();
  span.tid = thread_index();
  std::uint32_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    span.start_ns = ns(Clock::now());
    id = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back(span);
  }
  current_.store(id, std::memory_order_release);
  return id;
}

void Tracer::close(std::uint32_t id, std::uint32_t previous) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[id].end_ns = ns(Clock::now());
  }
  current_.store(previous, std::memory_order_release);
}

void Tracer::record(const char* name, Clock::time_point start,
                    Clock::time_point end, std::uint64_t req) {
  Span span;
  span.name = name;
  span.start_ns = ns(start);
  span.end_ns = ns(end);
  span.req = req;
  span.parent = current();
  span.tid = thread_index();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.clear();
}

std::vector<double> Tracer::durations_us(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
  }
  return out;
}

double Tracer::total_ms(const std::string& name) const {
  double total = 0.0;
  for (const double us : durations_us(name)) total += us;
  return total * 1e-3;
}

std::uint64_t Tracer::count(const std::string& name) const {
  return durations_us(name).size();
}

double Tracer::self_ms(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::vector<std::uint32_t>> children(spans_.size());
  for (std::uint32_t i = 0; i < spans_.size(); ++i) {
    const std::uint32_t p = spans_[i].parent;
    if (p != kRoot && p < spans_.size()) children[p].push_back(i);
  }
  std::int64_t self_ns = 0;
  for (std::uint32_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (name != s.name) continue;
    // Union of the child intervals clipped to the span: children may run
    // concurrently on pool threads, so they can overlap each other.
    std::vector<std::pair<std::int64_t, std::int64_t>> parts;
    for (const std::uint32_t c : children[i]) {
      const std::int64_t lo = std::max(s.start_ns, spans_[c].start_ns);
      const std::int64_t hi = std::min(s.end_ns, spans_[c].end_ns);
      if (hi > lo) parts.emplace_back(lo, hi);
    }
    std::sort(parts.begin(), parts.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;
    for (const auto& [lo, hi] : parts) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    self_ns += (s.end_ns - s.start_ns) - covered;
  }
  return static_cast<double>(self_ns) * 1e-6;
}

bool Tracer::write_chrome_trace(const std::string& path, std::uint64_t max_req) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
  bool first = true;
  const auto sep = [&] {
    if (!first) std::fputs(",\n", f);
    first = false;
  };
  std::map<std::uint64_t, std::vector<std::uint32_t>> by_req;
  for (std::uint32_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.req > max_req) continue;
    sep();
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"req\":%llu,"
                 "\"span\":%u,\"parent\":%d}}",
                 s.name, s.tid, static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                 static_cast<unsigned long long>(s.req), i,
                 s.parent == kRoot ? -1 : static_cast<int>(s.parent));
    if (s.req != 0) by_req[s.req].push_back(i);
  }
  for (const auto& [req, ids] : by_req) {
    if (ids.size() < 2) continue;
    for (std::size_t k = 0; k < ids.size(); ++k) {
      const Span& s = spans_[ids[k]];
      const char* ph = k == 0 ? "s" : (k + 1 == ids.size() ? "f" : "t");
      sep();
      std::fprintf(f,
                   "{\"name\":\"request\",\"cat\":\"request\",\"ph\":\"%s\",%s"
                   "\"id\":%llu,\"pid\":1,\"tid\":%u,\"ts\":%.3f}",
                   ph, k == 0 ? "" : "\"bp\":\"e\",",
                   static_cast<unsigned long long>(req), s.tid,
                   static_cast<double>(s.start_ns) * 1e-3);
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench

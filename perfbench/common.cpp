#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "util/worker_pool.hpp"

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

std::uint64_t samples_beyond(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return n > rank ? n - rank : 0;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib * 1024.0 / 1e6;
    }
  }
  return 0.0;
}

void add_pool_stats(Metrics& host, double work_s) {
  const auto stats = atlantis::util::WorkerPool::shared().worker_stats();
  // A fixed set of four names (the shared pool is min(cores, 4) wide);
  // absent workers read 0.
  for (std::size_t w = 0; w < 4; ++w) {
    const bool present = w < stats.size();
    const double busy_s = present ? static_cast<double>(stats[w].busy_ns) * 1e-9 : 0.0;
    host["util.worker_pool.util_w" + std::to_string(w)] = {
        work_s > 0 ? busy_s / work_s : 0.0, "ratio"};
    host["util.worker_pool.tasks_w" + std::to_string(w)] = {
        present ? static_cast<double>(stats[w].tasks) : 0.0, "count"};
  }
}

}  // namespace perfbench

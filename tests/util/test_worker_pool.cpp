// WorkerPool: index coverage, per-worker accounting, nested calls and
// exception safety.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/worker_pool.hpp"

namespace atlantis::util {
namespace {

std::uint64_t total_tasks(const WorkerPool& pool) {
  std::uint64_t tasks = 0;
  for (const WorkerPool::WorkerStats& s : pool.worker_stats()) {
    tasks += s.tasks;
  }
  return tasks;
}

TEST(WorkerPool, CoversEveryIndexExactlyOnce) {
  WorkerPool pool(4);
  for (const int n : {0, 1, 3, 4, 7, 64, 1000}) {
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n > 0 ? n : 1));
    for (auto& h : hits) h.store(0);
    pool.parallel_for(n, [&](int i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    });
    int total = 0;
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
          << "n=" << n << " index " << i;
      total += hits[static_cast<std::size_t>(i)].load();
    }
    EXPECT_EQ(total, n > 0 ? n : 0);
  }
}

TEST(WorkerPool, WorkerStatsAccountForEveryTask) {
  WorkerPool pool(4);
  EXPECT_EQ(pool.worker_stats().size(), 4u);
  pool.reset_worker_stats();

  const int n = 1024;
  std::atomic<int> ran{0};
  pool.parallel_for(n, [&](int) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), n);
  // Per-index dispatch: every index is one task, wherever it landed.
  EXPECT_EQ(total_tasks(pool), static_cast<std::uint64_t>(n));
}

TEST(WorkerPool, SerialFallbackChargesTheCaller) {
  WorkerPool pool(1);  // helpers_.empty(): serial path
  pool.reset_worker_stats();
  pool.parallel_for(10, [](int) {});
  const auto stats = pool.worker_stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].tasks, 10u);
}

TEST(WorkerPool, NestedParallelForRunsInlineOnTheTaskThread) {
  WorkerPool pool(4);
  WorkerPool other(2);
  constexpr int kOuter = 8;
  constexpr int kInner = 16;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  for (auto& h : hits) h.store(0);
  std::atomic<int> off_thread{0};
  std::atomic<int> out_of_order{0};
  pool.reset_worker_stats();
  other.reset_worker_stats();

  pool.parallel_for(kOuter, [&](int o) {
    const std::thread::id task_thread = std::this_thread::get_id();
    int expected = 0;
    const auto inner = [&](int i) {
      if (std::this_thread::get_id() != task_thread) off_thread.fetch_add(1);
      if (i != expected++) out_of_order.fetch_add(1);
      hits[static_cast<std::size_t>(o * kInner + i)].fetch_add(1);
    };
    // Nested on the same pool and on another pool: both run here.
    pool.parallel_for(kInner / 2, inner);
    other.parallel_for(kInner / 2,
                       [&](int i) { inner(i + kInner / 2); });
  });

  EXPECT_EQ(off_thread.load(), 0);
  EXPECT_EQ(out_of_order.load(), 0);
  for (std::size_t k = 0; k < hits.size(); ++k) {
    EXPECT_EQ(hits[k].load(), 1) << "index " << k;
  }
  // Only the outer tasks count; the nested indices leave no trace.
  EXPECT_EQ(total_tasks(pool), static_cast<std::uint64_t>(kOuter));
  EXPECT_EQ(total_tasks(other), 0u);
}

TEST(WorkerPool, ThrowingTaskRunsEveryIndexAndRethrowsOnTheCaller) {
  WorkerPool pool(4);
  constexpr int kN = 64;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  const auto body = [&](int i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1);
    if (i % 5 == 2) throw std::out_of_range("task " + std::to_string(i));
  };
  EXPECT_THROW(pool.parallel_for(kN, body), std::out_of_range);
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
  }

  // The pool survives: the next job runs every index and returns cleanly.
  std::atomic<int> ran{0};
  pool.reset_worker_stats();
  pool.parallel_for(kN, [&](int) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), kN);
  EXPECT_EQ(total_tasks(pool), static_cast<std::uint64_t>(kN));
}

}  // namespace
}  // namespace atlantis::util

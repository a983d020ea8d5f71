// Small fixed worker pool for coarse independent tasks: whole cluster
// shards (serve::Cluster::run), a batch's job functors
// (JobService::serve_batch) and per-board TRT slices.
//
// parallel_for(n, fn) runs fn(0..n-1) across the workers and the calling
// thread and returns when every index has completed — the return is the
// barrier callers rely on. The pool is deliberately simple: one job at a
// time, indices handed out under one mutex, completion signalled through
// a condition variable, so it is easy to reason about under TSan.
//
// Nesting: a parallel_for issued from inside a running task (of any
// pool) runs its indices inline on that thread, in index order, and
// leaves the worker counters alone. The task already holds its share of
// the machine, so a shard drain's batches evaluate serially inside the
// drain while a top-level caller's batches still spread over the pool.
//
// Exceptions: a task that throws does not stop the others. Every index
// still runs, and once all have finished the first exception caught is
// rethrown on the caller; the pool stays usable. A nested inline call is
// a plain loop, so a throw there leaves it at once for the enclosing
// task.
//
// Granularity: each index costs one mutex round-trip and, when helpers
// sleep, a futex wake — microseconds — so a task must be far larger
// than that: a shard drain or a gate-level job, never one ~100 ns
// simulator step. Helpers briefly spin for the next job before
// sleeping, and per-worker utilization counters (worker_stats) make the
// grain visible in the benches.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace atlantis::util {

class WorkerPool {
 public:
  /// Work done by one worker since the last reset_worker_stats().
  /// Worker 0 is the calling thread; 1..size()-1 are the helpers.
  struct WorkerStats {
    std::uint64_t tasks = 0;    // indices executed
    std::uint64_t busy_ns = 0;  // wall time spent inside the functor
  };

  /// `threads` is the total worker count including the caller;
  /// 0 picks min(hardware_concurrency, 4) — "a small worker pool".
  explicit WorkerPool(int threads = 0);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Total workers participating in a parallel_for (helpers + caller).
  int size() const { return static_cast<int>(helpers_.size()) + 1; }

  /// Runs fn(i) for every i in [0, n); returns when all have finished.
  /// The calling thread participates. Called from inside a task, runs
  /// inline (file comment); rethrows the first exception a task threw.
  void parallel_for(int n, const std::function<void(int)>& fn);

  /// Per-worker counters since the last reset (snapshot; call while no
  /// parallel_for is in flight for exact totals). Index 0 = caller.
  std::vector<WorkerStats> worker_stats() const;
  void reset_worker_stats();

  /// Process-wide pool shared by the cluster, the job service and
  /// multiboard runs.
  static WorkerPool& shared();

 private:
  void worker_loop(int wid);
  /// Runs indices of the current job as worker `wid` until none are left
  /// to hand out. Called and returns with `lk` held.
  void drain(int wid, std::unique_lock<std::mutex>& lk);

  std::vector<std::thread> helpers_;
  mutable std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(int)>* job_ = nullptr;  // guarded by mutex_
  int job_n_ = 0;
  int next_index_ = 0;       // guarded by mutex_
  int remaining_ = 0;        // indices not yet completed
  std::exception_ptr error_;  // first throw of the job; guarded by mutex_
  bool stop_ = false;
  std::vector<WorkerStats> stats_;  // guarded by mutex_
  // Lock-free signals for the helpers' pre-sleep spin: bumped/set under
  // mutex_ by the publisher, read unlocked by spinning helpers.
  std::atomic<std::uint64_t> job_gen_{0};
  std::atomic<bool> stopping_{false};
};

}  // namespace atlantis::util

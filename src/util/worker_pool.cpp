#include "util/worker_pool.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

namespace atlantis::util {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Yield iterations a helper burns waiting for the next job before it
// sleeps on the condition variable. Back-to-back batches post a job every
// few microseconds; staying runnable across that gap avoids a futex
// sleep/wake round-trip per batch.
constexpr int kIdleSpins = 512;

// Set while this thread runs a pool task (of any pool): a parallel_for
// issued from inside the task runs inline instead of posting a job.
thread_local bool t_in_task = false;

}  // namespace

WorkerPool::WorkerPool(int threads) {
  if (threads <= 0) {
    const unsigned hc = std::thread::hardware_concurrency();
    threads = static_cast<int>(std::min(4u, std::max(1u, hc)));
  }
  stats_.resize(static_cast<std::size_t>(threads));
  // The caller is worker 0; spawn the helpers.
  for (int i = 1; i < threads; ++i) {
    helpers_.emplace_back([this, i] { worker_loop(i); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lk(mutex_);
    stop_ = true;
    stopping_.store(true, std::memory_order_release);
  }
  start_cv_.notify_all();
  for (std::thread& t : helpers_) t.join();
}

std::vector<WorkerPool::WorkerStats> WorkerPool::worker_stats() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return stats_;
}

void WorkerPool::reset_worker_stats() {
  std::lock_guard<std::mutex> lk(mutex_);
  std::fill(stats_.begin(), stats_.end(), WorkerStats{});
}

void WorkerPool::parallel_for(int n, const std::function<void(int)>& fn) {
  if (n <= 0) return;
  if (t_in_task) {  // nested: the enclosing task's thread runs it all
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }
  std::unique_lock<std::mutex> lk(mutex_);
  job_ = &fn;
  job_n_ = n;
  next_index_ = 0;
  remaining_ = n;
  if (!helpers_.empty() && n > 1) {
    job_gen_.fetch_add(1, std::memory_order_release);
    lk.unlock();
    start_cv_.notify_all();
    lk.lock();
  }
  drain(0, lk);
  done_cv_.wait(lk, [&] { return remaining_ == 0; });
  job_ = nullptr;  // fn's frame is about to die; helpers are idle again
  const std::exception_ptr error = std::exchange(error_, nullptr);
  lk.unlock();
  if (error) std::rethrow_exception(error);
}

void WorkerPool::drain(int wid, std::unique_lock<std::mutex>& lk) {
  while (job_ != nullptr && next_index_ < job_n_) {
    const std::function<void(int)>& fn = *job_;
    const int i = next_index_++;
    lk.unlock();
    const std::uint64_t t0 = now_ns();
    std::exception_ptr error;
    t_in_task = true;
    try {
      fn(i);
    } catch (...) {
      error = std::current_exception();
    }
    t_in_task = false;
    const std::uint64_t dt = now_ns() - t0;
    lk.lock();
    if (error && !error_) error_ = std::move(error);
    stats_[static_cast<std::size_t>(wid)].tasks += 1;
    stats_[static_cast<std::size_t>(wid)].busy_ns += dt;
    if (--remaining_ == 0) done_cv_.notify_all();
  }
}

void WorkerPool::worker_loop(int wid) {
  std::unique_lock<std::mutex> lk(mutex_);
  for (;;) {
    if (!stop_ && (job_ == nullptr || next_index_ >= job_n_)) {
      // Nothing to do right now: spin briefly on the (lock-free) job
      // generation before committing to a condition-variable sleep.
      const std::uint64_t seen = job_gen_.load(std::memory_order_acquire);
      lk.unlock();
      for (int spin = 0; spin < kIdleSpins; ++spin) {
        if (stopping_.load(std::memory_order_acquire) ||
            job_gen_.load(std::memory_order_acquire) != seen) {
          break;
        }
        std::this_thread::yield();
      }
      lk.lock();
    }
    start_cv_.wait(
        lk, [&] { return stop_ || (job_ != nullptr && next_index_ < job_n_); });
    if (stop_) return;
    drain(wid, lk);
  }
}

WorkerPool& WorkerPool::shared() {
  static WorkerPool pool;
  return pool;
}

}  // namespace atlantis::util

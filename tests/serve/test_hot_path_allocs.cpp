// Allocation budget of the serving hot path: once a cluster is warm,
// submitting a job and serving it must not touch the heap. Its own
// binary, because it replaces the global operator new with a counting
// one.
//
// Sanitizer builds interpose operator new themselves, so there the
// replacement is compiled out and the test skips.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "serve/cluster.hpp"
#include "util/units.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define ATLANTIS_SANITIZED_NEW 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define ATLANTIS_SANITIZED_NEW 1
#endif
#endif

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

#ifndef ATLANTIS_SANITIZED_NEW
namespace {
void* counted(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  size = size == 0 ? 1 : size;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

// Every replaceable form; the nothrow ones forward to these.
void* operator new(std::size_t n) { return counted(n, 0); }
void* operator new[](std::size_t n) { return counted(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#endif

namespace atlantis {
namespace {

constexpr int kConfigs = 4;
constexpr int kWave = 200;
constexpr int kWarmupWaves = 8;
constexpr int kMeasuredWaves = 24;

/// One wave of trivial jobs over two tenants and every configuration;
/// built before counting starts, so only the serving stack is measured.
std::vector<serve::JobSpec> make_wave(int first) {
  static const std::string tenants[] = {"atlas", "cms"};
  static const std::string configs[] = {"cfg0", "cfg1", "cfg2", "cfg3"};
  std::vector<serve::JobSpec> wave(kWave);
  for (int i = 0; i < kWave; ++i) {
    const int index = first + i;
    serve::JobSpec& job = wave[static_cast<std::size_t>(i)];
    job.tenant = tenants[index % 2];
    job.config = configs[index % kConfigs];
    job.arrival = index * 10 * util::kMicrosecond;
    const auto user = static_cast<std::uint64_t>(index);
    job.work = [user] {
      serve::JobOutcome out;
      out.checksum = 0x9e3779b97f4a7c15ull * (user + 1);
      out.compute_time = static_cast<util::Picoseconds>(5 + user % 7) *
                         util::kMicrosecond;
      out.dma_in_bytes = 2048;
      out.dma_out_bytes = 256;
      return out;
    };
  }
  return wave;
}

TEST(HotPathAllocations, AWarmClusterSubmitsAndServesWithoutTheHeap) {
#ifdef ATLANTIS_SANITIZED_NEW
  GTEST_SKIP() << "a sanitizer interposes operator new; nothing to count";
#endif
  serve::ClusterOptions options;
  // Every QoS gate stays on, with room for more than a wave, so
  // nothing is refused and every job is served.
  options.max_pending_per_shard = 2 * kWave;
  serve::Cluster cluster(options);
  for (int s = 0; s < 2; ++s) cluster.add_shard();
  for (int c = 0; c < kConfigs; ++c) {
    cluster.register_config(
        hw::Bitstream{"cfg" + std::to_string(c), {}, nullptr, 1.0, {}});
  }

  std::uint64_t submit_allocs = 0, run_allocs = 0, jobs = 0;
  for (int wave = 0; wave < kWarmupWaves + kMeasuredWaves; ++wave) {
    std::vector<serve::JobSpec> specs = make_wave(wave * kWave);
    const bool measured = wave >= kWarmupWaves;
    const std::uint64_t before_submit = g_allocations.load();
    for (serve::JobSpec& spec : specs) {
      ASSERT_TRUE(cluster.submit(std::move(spec)).ok());
    }
    const std::uint64_t before_run = g_allocations.load();
    const serve::ClusterReport& report = cluster.run();
    const std::uint64_t after_run = g_allocations.load();
    ASSERT_EQ(report.served, static_cast<std::uint64_t>(kWave));
    if (!measured) continue;
    submit_allocs += before_run - before_submit;
    run_allocs += after_run - before_run;
    jobs += kWave;
  }
  const double per_job = static_cast<double>(submit_allocs + run_allocs) /
                         static_cast<double>(jobs);
  EXPECT_LT(per_job, 1.0) << submit_allocs << " allocations in submit and "
                          << run_allocs << " in run over " << jobs << " jobs";
}

}  // namespace
}  // namespace atlantis

// Cache-line-isolated storage for state one thread writes at a high rate.
//
// Objects built back to back on one thread — a pool of simulators
// elaborated before the workers start, say — get heap blocks that the
// allocator packs next to each other. When different threads then step
// them, each write to one object's buffer invalidates a neighbour's
// cache line on the other core: the objects share nothing, yet run at
// the speed of a contended line. A CacheLineVector starts on a line
// boundary and owns whole lines, so it never shares one.
#pragma once

#include <cstddef>
#include <new>
#include <vector>

namespace atlantis::util {

inline constexpr std::size_t kCacheLine = 64;

template <typename T>
struct CacheLineAllocator {
  using value_type = T;

  CacheLineAllocator() = default;
  template <typename U>
  CacheLineAllocator(const CacheLineAllocator<U>&) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(bytes(n), std::align_val_t{kCacheLine}));
  }
  void deallocate(T* p, std::size_t n) {
    ::operator delete(p, bytes(n), std::align_val_t{kCacheLine});
  }
  friend bool operator==(const CacheLineAllocator&,
                         const CacheLineAllocator&) {
    return true;
  }

 private:
  /// n elements, rounded up to whole lines.
  static std::size_t bytes(std::size_t n) {
    return (n * sizeof(T) + kCacheLine - 1) / kCacheLine * kCacheLine;
  }
};

template <typename T>
using CacheLineVector = std::vector<T, CacheLineAllocator<T>>;

}  // namespace atlantis::util

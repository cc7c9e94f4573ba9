// Page-granular allocation for the cache's slot arena and tag row, the
// multi-megabyte arrays on the fold hot path. They are mapped straight from
// the OS rather than taken from the heap, so every page goes back to the OS
// when a cache is freed instead of lingering in the allocator (peak RSS).
#pragma once

#include <cstddef>
#include <new>

namespace perfq {

/// mmap `bytes` of zeroed anonymous memory (rounded up to page size).
/// Throws std::bad_alloc on failure.
[[nodiscard]] void* map_pages(std::size_t bytes);

/// Release a map_pages() region. `bytes` must match the allocation request.
void unmap_pages(void* p, std::size_t bytes) noexcept;

/// Stateless STL allocator over map_pages().
template <typename T>
class PageAllocator {
 public:
  using value_type = T;

  PageAllocator() = default;
  template <typename U>
  PageAllocator(const PageAllocator<U>&) {}  // NOLINT

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(map_pages(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    unmap_pages(p, n * sizeof(T));
  }

  friend bool operator==(const PageAllocator&, const PageAllocator&) {
    return true;
  }
};

}  // namespace perfq

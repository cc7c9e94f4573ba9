// Fixed-capacity single-producer/single-consumer ring buffer.
//
// This is the record conduit of the threaded executor
// (src/runtime/threaded_executor.hpp): the caller thread is the sole
// producer of each shard's ring and the shard worker its sole consumer, so
// the ring needs no locks — just one release store per publish and one
// acquire load per consume (the classic Lamport queue with cached
// counterparts, as in DPDK-style forwarders) — and delivers in FIFO order.
//
// Layout notes:
//   - head_ (consumer cursor) and tail_ (producer cursor) live on separate
//     cache lines so the two threads never false-share.
//   - Each side keeps a *cached* copy of the other side's cursor on its own
//     line and only re-reads the shared atomic when the cached value says the
//     ring looks full/empty, which keeps steady-state cross-core traffic to
//     the unavoidable data lines.
//   - Indices increase monotonically (mod 2^64) and are masked into the slot
//     array; capacity is rounded up to a power of two.
#pragma once

#include <atomic>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace perfq {

/// Destructive interference distance. The C++17 constant is not constexpr-
/// portable across our toolchains; 64 bytes is correct for every x86-64 and
/// almost every aarch64 part we target.
inline constexpr std::size_t kCacheLineBytes = 64;

template <typename T>
class SpscRing {
 public:
  /// `capacity` is rounded up to the next power of two (min 2).
  explicit SpscRing(std::size_t capacity) {
    if (capacity == 0) throw ConfigError{"SpscRing: zero capacity"};
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    mask_ = cap - 1;
    slots_.resize(cap);
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  [[nodiscard]] std::size_t capacity() const { return mask_ + 1; }

  /// Producer side: move as many of `items` into the ring as fit right now.
  /// Returns the number consumed from `items` (0 when full). Publishing is a
  /// single release store, so a batch becomes visible to the consumer at once.
  std::size_t push_bulk(std::span<T> items) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    std::size_t free = capacity() - (tail - cached_head_);
    if (free < items.size()) {
      cached_head_ = head_.load(std::memory_order_acquire);
      free = capacity() - (tail - cached_head_);
    }
    const std::size_t n = free < items.size() ? free : items.size();
    for (std::size_t i = 0; i < n; ++i) {
      slots_[(tail + i) & mask_] = std::move(items[i]);
    }
    if (n > 0) tail_.store(tail + n, std::memory_order_release);
    return n;
  }

  bool try_push(T&& item) { return push_bulk({&item, 1}) == 1; }

  /// Consumer side: move up to `out.size()` items out of the ring. Returns
  /// the number produced (0 when empty).
  std::size_t pop_bulk(std::span<T> out) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    std::size_t avail = cached_tail_ - head;
    if (avail == 0) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      avail = cached_tail_ - head;
      if (avail == 0) return 0;
    }
    const std::size_t n = avail < out.size() ? avail : out.size();
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = std::move(slots_[(head + i) & mask_]);
    }
    head_.store(head + n, std::memory_order_release);
    return n;
  }

  bool try_pop(T& out) { return pop_bulk({&out, 1}) == 1; }

  /// Consumer-side emptiness check (exact for the consumer; a hint for
  /// anyone else).
  [[nodiscard]] bool empty() const {
    return head_.load(std::memory_order_acquire) ==
           tail_.load(std::memory_order_acquire);
  }

  /// Approximate occupancy, readable from any thread (exact only when both
  /// sides are quiescent). Used by the drain watchdog's diagnostic dump.
  [[nodiscard]] std::size_t size_approx() const {
    return tail_.load(std::memory_order_acquire) -
           head_.load(std::memory_order_acquire);
  }

 private:
  std::size_t mask_ = 0;
  std::vector<T> slots_;
  alignas(kCacheLineBytes) std::atomic<std::size_t> head_{0};  ///< consumer cursor
  alignas(kCacheLineBytes) std::size_t cached_tail_ = 0;       ///< consumer's view of tail_
  alignas(kCacheLineBytes) std::atomic<std::size_t> tail_{0};  ///< producer cursor
  alignas(kCacheLineBytes) std::size_t cached_head_ = 0;       ///< producer's view of head_
};

}  // namespace perfq

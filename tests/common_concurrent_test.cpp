// Concurrency primitives of the threaded executor: the SPSC record ring and
// the page-granular allocation behind the cache's slot arena. The threaded
// ring test is one the CI ThreadSanitizer job gates on.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <thread>
#include <vector>

#include "common/page_alloc.hpp"
#include "common/spsc_ring.hpp"

namespace perfq {
namespace {

TEST(SpscRing, RoundsCapacityUpToPowerOfTwo) {
  SpscRing<int> ring(100);
  EXPECT_EQ(ring.capacity(), 128u);
  EXPECT_THROW(SpscRing<int>(0), ConfigError);
}

TEST(SpscRing, SingleThreadFifoWithWraparound) {
  SpscRing<int> ring(8);
  int expected = 0;
  int next = 0;
  // Push/pop far more items than the capacity so the cursors wrap the slot
  // array (and, with small masks, exercise the cached-counterpart refresh).
  while (expected < 1000) {
    while (next < 1000 && ring.try_push(int{next})) ++next;
    int got = -1;
    ASSERT_TRUE(ring.try_pop(got));
    EXPECT_EQ(got, expected);
    ++expected;
  }
  EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, RejectsPushWhenFullAndPopWhenEmpty) {
  SpscRing<int> ring(2);
  EXPECT_TRUE(ring.try_push(1));
  EXPECT_TRUE(ring.try_push(2));
  EXPECT_FALSE(ring.try_push(3));
  int got = 0;
  EXPECT_TRUE(ring.try_pop(got));
  EXPECT_TRUE(ring.try_pop(got));
  EXPECT_FALSE(ring.try_pop(got));
}

TEST(SpscRing, TwoThreadsPreserveOrderUnderBulkTransfer) {
  constexpr std::uint64_t kItems = 200'000;
  SpscRing<std::uint64_t> ring(1024);

  std::thread producer([&ring] {
    std::vector<std::uint64_t> batch;
    std::uint64_t next = 0;
    while (next < kItems) {
      batch.clear();
      const std::uint64_t n = std::min<std::uint64_t>(64, kItems - next);
      for (std::uint64_t i = 0; i < n; ++i) batch.push_back(next + i);
      std::span<std::uint64_t> pending(batch);
      while (!pending.empty()) {
        const std::size_t pushed = ring.push_bulk(pending);
        pending = pending.subspan(pushed);
        if (pushed == 0) std::this_thread::yield();
      }
      next += n;
    }
  });

  std::uint64_t expected = 0;
  std::array<std::uint64_t, 48> buf{};
  while (expected < kItems) {
    const std::size_t n = ring.pop_bulk({buf.data(), buf.size()});
    if (n == 0) {
      std::this_thread::yield();
      continue;
    }
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(buf[i], expected) << "ring reordered or corrupted items";
      ++expected;
    }
  }
  producer.join();
  EXPECT_TRUE(ring.empty());
}

TEST(PageAllocator, BacksVectors) {
  std::vector<int, PageAllocator<int>> v;
  v.resize(1 << 20);  // 4 MiB
  v[0] = 42;
  v[v.size() - 1] = 43;
  EXPECT_EQ(v[0], 42);
  EXPECT_EQ(v[v.size() - 1], 43);
  // mmap'd memory arrives zeroed.
  EXPECT_EQ(v[v.size() / 2], 0);
}

}  // namespace
}  // namespace perfq

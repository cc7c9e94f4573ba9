// Eviction-policy extension tests: victim selection semantics per policy,
// and the key invariant that merge exactness is policy-independent (the
// merge must be correct no matter *which* entry the cache chooses to evict).
#include <gtest/gtest.h>

#include <memory>

#include "fig2_corpus.hpp"
#include "kvstore/kvstore.hpp"
#include "trace/simple.hpp"

namespace perfq::kv {
namespace {

std::shared_ptr<const FoldKernel> count_kernel() {
  return compiled_kernel("SELECT 5tuple, COUNT GROUPBY 5tuple");
}

Key key_of(std::uint32_t flow) {
  const auto rec = trace::RecordBuilder{}.flow_index(flow).build();
  const auto bytes = rec.pkt.flow.to_bytes();
  return Key{std::span<const std::byte>{bytes.data(), bytes.size()}};
}

PacketRecord rec_of(std::uint32_t flow) {
  return trace::RecordBuilder{}.flow_index(flow).build();
}

TEST(EvictionPolicy, FifoIgnoresHits) {
  // Insert 1, 2; touch 1; insert 3. LRU evicts 2, FIFO evicts 1.
  for (const auto policy : {EvictionPolicy::kLru, EvictionPolicy::kFifo}) {
    Cache cache(CacheGeometry::fully_associative(2),
                count_kernel(), 1, policy);
    std::vector<Key> evicted;
    cache.set_eviction_sink([&](EvictedValue&& ev) { evicted.push_back(ev.key); });
    cache.process(key_of(1), rec_of(1));
    cache.process(key_of(2), rec_of(2));
    cache.process(key_of(1), rec_of(1));  // hit on 1
    cache.process(key_of(3), rec_of(3));  // forces an eviction
    ASSERT_EQ(evicted.size(), 1u) << to_cstring(policy);
    if (policy == EvictionPolicy::kLru) {
      EXPECT_EQ(evicted[0], key_of(2)) << "LRU must evict the untouched key";
    } else {
      EXPECT_EQ(evicted[0], key_of(1)) << "FIFO must evict the oldest insert";
    }
  }
}

TEST(EvictionPolicy, RandomIsDeterministicPerSeed) {
  auto run = [](std::uint64_t seed) {
    Cache cache(CacheGeometry::fully_associative(4),
                count_kernel(), seed,
                EvictionPolicy::kRandom);
    std::vector<std::string> evicted;
    cache.set_eviction_sink(
        [&](EvictedValue&& ev) { evicted.push_back(ev.key.to_hex()); });
    for (std::uint32_t i = 0; i < 64; ++i) cache.process(key_of(i), rec_of(i));
    return evicted;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

TEST(EvictionPolicy, RandomEvictsWithinTheRightBucket) {
  // With per-bucket layout, a random victim must still come from the full
  // bucket of the arriving key (occupancy invariants hold).
  Cache cache(CacheGeometry::set_associative(32, 4),
              count_kernel(), 3, EvictionPolicy::kRandom);
  std::uint64_t evictions = 0;
  cache.set_eviction_sink([&](EvictedValue&&) { ++evictions; });
  for (std::uint32_t i = 0; i < 4096; ++i) cache.process(key_of(i), rec_of(i));
  EXPECT_EQ(cache.occupancy(), 32u);
  EXPECT_EQ(evictions + cache.occupancy(), 4096u);
}

class PolicyMergeTest : public ::testing::TestWithParam<EvictionPolicy> {};

TEST_P(PolicyMergeTest, MergeExactUnderAnyPolicy) {
  const EvictionPolicy policy = GetParam();
  const auto kernel = compiled_kernel(fig2_source("count_sum"));
  KeyValueStore split(CacheGeometry::set_associative(32, 4), kernel, 11, policy);
  ReferenceStore reference(kernel);

  Rng rng(policy == EvictionPolicy::kLru ? 1u : 2u);
  for (int i = 0; i < 20000; ++i) {
    const auto f = static_cast<std::uint32_t>(rng.below(300));
    const auto rec = trace::RecordBuilder{}
                         .flow_index(f)
                         .len(64 + static_cast<std::uint32_t>(rng.below(1000)),
                              10)
                         .build();
    const auto bytes = rec.pkt.flow.to_bytes();
    const Key key{std::span<const std::byte>{bytes.data(), bytes.size()}};
    split.process(key, rec);
    reference.process(key, rec);
  }
  split.flush(Nanos{1});
  EXPECT_GT(split.cache().stats().evictions, 1000u);

  reference.for_each([&](const Key& key, const StateVector& want) {
    const StateVector* got = split.read(key);
    ASSERT_NE(got, nullptr);
    EXPECT_DOUBLE_EQ((*got)[0], want[0]);
    EXPECT_DOUBLE_EQ((*got)[1], want[1]);
  });
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyMergeTest,
                         ::testing::Values(EvictionPolicy::kLru,
                                           EvictionPolicy::kFifo,
                                           EvictionPolicy::kRandom),
                         [](const ::testing::TestParamInfo<EvictionPolicy>& p) {
                           return to_cstring(p.param);
                         });

}  // namespace
}  // namespace perfq::kv

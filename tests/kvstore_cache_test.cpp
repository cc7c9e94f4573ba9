// Cache mechanics: geometries, LRU behaviour, eviction accounting (Fig. 4),
// and the tag-probed index: cross-checks against an unordered_map shadow,
// hash decorrelation, and the zero-allocation steady state. Then the pull
// path: a flushed cache against a fresh one, the flush counters, and the
// heap blocks a flush and a table materialization allocate.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <unordered_map>

#include "common/error.hpp"
#include "fig2_corpus.hpp"
#include "kvstore/cache.hpp"
#include "kvstore/kvstore.hpp"
#include "runtime/collection.hpp"
#include "trace/simple.hpp"

// Counting global allocator: lets tests assert that steady-state
// Cache::process performs zero heap allocations (tag-probed index + pooled
// aux arena), and count the blocks a pull allocates. Counts every new/delete
// in the test binary; tests snapshot the counter around the region of
// interest.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace perfq::kv {
namespace {

Key key_of(std::uint32_t flow) {
  const auto rec = trace::RecordBuilder{}.flow_index(flow).build();
  const auto bytes = rec.pkt.flow.to_bytes();
  return Key{std::span<const std::byte>{bytes.data(), bytes.size()}};
}

PacketRecord rec_of(std::uint32_t flow, std::int64_t t = 0) {
  return trace::RecordBuilder{}
      .flow_index(flow)
      .times(Nanos{t}, Nanos{t + 100})
      .build();
}

std::shared_ptr<const FoldKernel> count_kernel() {
  return compiled_kernel("SELECT 5tuple, COUNT GROUPBY 5tuple");
}

TEST(CacheGeometry, ThreePaperGeometries) {
  const auto hash = CacheGeometry::hash_table(1024);
  EXPECT_EQ(hash.num_buckets, 1024u);
  EXPECT_EQ(hash.associativity, 1u);

  const auto full = CacheGeometry::fully_associative(1024);
  EXPECT_EQ(full.num_buckets, 1u);
  EXPECT_EQ(full.associativity, 1024u);

  const auto eight = CacheGeometry::set_associative(1024, 8);
  EXPECT_EQ(eight.num_buckets, 128u);
  EXPECT_EQ(eight.associativity, 8u);
  EXPECT_EQ(eight.total_slots(), 1024u);
}

TEST(CacheGeometry, PaperPairArithmetic) {
  // §4: 128-bit pairs; 8 Mbit = 2^16 pairs ... 256 Mbit = 2^21 pairs.
  EXPECT_EQ(pairs_for_mbits(8.0, 128), 1u << 16);
  EXPECT_EQ(pairs_for_mbits(32.0, 128), 1u << 18);
  EXPECT_EQ(pairs_for_mbits(256.0, 128), 1u << 21);
  EXPECT_DOUBLE_EQ(mbits_for_pairs(1u << 18, 128), 32.0);
}

TEST(CacheGeometry, InvalidConfigsRejected) {
  EXPECT_THROW((void)CacheGeometry::hash_table(0), ConfigError);
  EXPECT_THROW((void)CacheGeometry::set_associative(10, 3), ConfigError);
  EXPECT_THROW((void)CacheGeometry::fully_associative(0), ConfigError);
}

TEST(Cache, HitsAndInitializations) {
  Cache cache(CacheGeometry::fully_associative(4), count_kernel());
  cache.process(key_of(1), rec_of(1));
  cache.process(key_of(1), rec_of(1));
  cache.process(key_of(2), rec_of(2));
  EXPECT_EQ(cache.stats().packets, 3u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().initializations, 2u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.occupancy(), 2u);
  const auto v = cache.peek(key_of(1));
  ASSERT_TRUE(v.has_value());
  EXPECT_DOUBLE_EQ((*v)[0], 2.0);
}

TEST(Cache, FullyAssociativeEvictsGlobalLru) {
  Cache cache(CacheGeometry::fully_associative(2), count_kernel());
  std::vector<Key> evicted;
  cache.set_eviction_sink([&](EvictedValue&& ev) { evicted.push_back(ev.key); });

  cache.process(key_of(1), rec_of(1));  // LRU order: 1
  cache.process(key_of(2), rec_of(2));  // 1, 2
  cache.process(key_of(1), rec_of(1));  // 2, 1 (1 refreshed)
  cache.process(key_of(3), rec_of(3));  // evicts 2
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], key_of(2));
  EXPECT_TRUE(cache.peek(key_of(1)).has_value());
  EXPECT_TRUE(cache.peek(key_of(3)).has_value());
  EXPECT_FALSE(cache.peek(key_of(2)).has_value());
}

TEST(Cache, HashTableEvictsOnCollision) {
  // m = 1: any two keys mapping to one bucket collide; with 1 bucket every
  // distinct key evicts the previous one.
  Cache cache(CacheGeometry{1, 1}, count_kernel());
  std::uint64_t evictions = 0;
  cache.set_eviction_sink([&](EvictedValue&&) { ++evictions; });
  cache.process(key_of(1), rec_of(1));
  cache.process(key_of(2), rec_of(2));
  cache.process(key_of(1), rec_of(1));
  EXPECT_EQ(evictions, 2u);
  EXPECT_EQ(cache.stats().evictions, 2u);
}

TEST(Cache, EvictedValueCarriesEpochMetadata) {
  Cache cache(CacheGeometry::fully_associative(1), count_kernel());
  std::vector<EvictedValue> evicted;
  cache.set_eviction_sink([&](EvictedValue&& ev) {
    evicted.push_back(std::move(ev));
  });
  cache.process(key_of(7), rec_of(7, 1000));
  cache.process(key_of(7), rec_of(7, 2000));
  cache.process(key_of(8), rec_of(8, 3000));  // evicts 7
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].key, key_of(7));
  EXPECT_EQ(evicted[0].packets, 2u);
  EXPECT_DOUBLE_EQ(evicted[0].state[0], 2.0);
  EXPECT_EQ(evicted[0].first_tin, Nanos{1000});
  EXPECT_EQ(evicted[0].evict_time, Nanos{3000});
  EXPECT_FALSE(evicted[0].final_flush);
}

TEST(Cache, FlushEmitsEverythingAndMarksFinal) {
  // Fully associative so 5 keys can never collide into capacity evictions.
  Cache cache(CacheGeometry::fully_associative(8), count_kernel());
  std::uint64_t flushed = 0;
  cache.set_eviction_sink([&](EvictedValue&& ev) {
    if (ev.final_flush) ++flushed;
  });
  for (std::uint32_t f = 0; f < 5; ++f) cache.process(key_of(f), rec_of(f));
  cache.flush(Nanos{99});
  EXPECT_EQ(flushed, 5u);
  EXPECT_EQ(cache.occupancy(), 0u);
  EXPECT_EQ(cache.stats().flushes, 5u);
}

TEST(Cache, ReinsertAfterEvictionStartsFreshEpoch) {
  // §3.2: "a subsequent packet from the evicted key is treated as a packet
  // from a new key".
  Cache cache(CacheGeometry{1, 1}, count_kernel());
  cache.set_eviction_sink([](EvictedValue&&) {});
  cache.process(key_of(1), rec_of(1));
  cache.process(key_of(1), rec_of(1));
  cache.process(key_of(2), rec_of(2));  // evicts 1 (count 2)
  cache.process(key_of(1), rec_of(1));  // fresh epoch
  const auto v = cache.peek(key_of(1));
  ASSERT_TRUE(v.has_value());
  EXPECT_DOUBLE_EQ((*v)[0], 1.0);
}

TEST(Cache, SetAssociativeIsolatesBuckets) {
  // With many buckets and few keys per bucket, no evictions occur until a
  // specific bucket overflows; filling m+1 keys of one bucket must evict
  // exactly one entry, and only from that bucket.
  const CacheGeometry geom = CacheGeometry::set_associative(64, 4);
  auto kernel = count_kernel();
  Cache cache(geom, kernel, /*hash_seed=*/42);

  // Find 5 keys landing in the same bucket.
  std::vector<std::uint32_t> same_bucket;
  std::uint64_t target_bucket = 0;
  for (std::uint32_t f = 0; same_bucket.size() < 5 && f < 100000; ++f) {
    const std::uint64_t b = reduce_range(key_of(f).hash(42), geom.num_buckets);
    if (same_bucket.empty()) {
      target_bucket = b;
      same_bucket.push_back(f);
    } else if (b == target_bucket) {
      same_bucket.push_back(f);
    }
  }
  ASSERT_EQ(same_bucket.size(), 5u);

  std::uint64_t evictions = 0;
  cache.set_eviction_sink([&](EvictedValue&&) { ++evictions; });
  for (const auto f : same_bucket) cache.process(key_of(f), rec_of(f));
  EXPECT_EQ(evictions, 1u) << "bucket overflow must evict exactly its LRU";
  EXPECT_FALSE(cache.peek(key_of(same_bucket[0])).has_value())
      << "oldest key in the bucket is the victim";
}

TEST(Cache, RejectsNullKernel) {
  EXPECT_THROW(Cache(CacheGeometry::fully_associative(2), nullptr), ConfigError);
}

TEST(Cache, EvictionFractionMatchesCounts) {
  Cache cache(CacheGeometry{1, 1}, count_kernel());
  cache.set_eviction_sink([](EvictedValue&&) {});
  for (std::uint32_t i = 0; i < 10; ++i) cache.process(key_of(i), rec_of(i));
  // 10 packets, 9 evictions (first init does not evict).
  EXPECT_DOUBLE_EQ(cache.stats().eviction_fraction(), 0.9);
}

// ------------------------------------------- tag-probed index validation --

/// Reference model of the pre-refactor cache semantics: a std::unordered_map
/// shadow tracking (key -> expected count state) plus hit/miss/eviction
/// tallies. The tag-probed cache must match it event for event.
TEST(Cache, TagProbeMatchesShadowMapOverZipfTrace) {
  constexpr std::uint64_t kRecords = 1'000'000;
  constexpr std::uint32_t kFlows = 40'000;
  const auto records = trace::zipf_records(kRecords, kFlows, 1.1, 2024);

  const CacheGeometry geom = CacheGeometry::set_associative(1 << 12, 8);
  Cache cache(geom, count_kernel());

  // Shadow state: resident value per key, plus merged evicted totals.
  std::unordered_map<Key, double> resident;
  std::unordered_map<Key, double> evicted_totals;
  std::uint64_t evictions = 0;
  std::uint64_t flushes = 0;
  cache.set_eviction_sink([&](EvictedValue&& ev) {
    const auto it = resident.find(ev.key);
    ASSERT_NE(it, resident.end()) << "eviction of a key the shadow lost";
    ASSERT_DOUBLE_EQ(ev.state[0], it->second)
        << "evicted count diverges from shadow";
    evicted_totals[ev.key] += ev.state[0];
    resident.erase(it);
    if (ev.final_flush) {
      ++flushes;
    } else {
      ++evictions;
    }
  });

  std::uint64_t hits = 0;
  std::uint64_t inits = 0;
  for (const auto& rec : records) {
    const auto bytes = rec.pkt.flow.to_bytes();
    const Key key{std::span<const std::byte>{bytes.data(), bytes.size()}};
    const bool was_resident = resident.count(key) > 0;
    cache.process(key, rec);
    if (was_resident) {
      ++hits;
    } else {
      ++inits;
    }
    resident[key] += 1.0;
    // Spot-check resident state through the tag probe (every 1009th record
    // to keep the O(n) peek affordable over a 1M trace).
    if ((hits + inits) % 1009 == 0) {
      const auto v = cache.peek(key);
      ASSERT_TRUE(v.has_value());
      ASSERT_DOUBLE_EQ((*v)[0], resident[key]);
    }
  }

  EXPECT_EQ(cache.stats().hits, hits);
  EXPECT_EQ(cache.stats().initializations, inits);
  EXPECT_EQ(cache.stats().evictions, evictions);
  EXPECT_EQ(cache.occupancy(), resident.size());

  // Final flush: every resident entry must emerge exactly once with the
  // shadow's value (asserted in the sink), and totals must cover the trace.
  cache.flush(Nanos{1});
  EXPECT_EQ(cache.stats().flushes, flushes);
  EXPECT_EQ(cache.occupancy(), 0u);
  EXPECT_TRUE(resident.empty());
  double total = 0.0;
  for (const auto& [key, count] : evicted_totals) total += count;
  EXPECT_DOUBLE_EQ(total, static_cast<double>(kRecords));
}

TEST(Cache, StdHashDecorrelatedFromBucketHash) {
  // std::hash<Key> (backing store) must not mirror the cache's bucket
  // placement: keys colliding in one structure shouldn't automatically
  // collide in the other (satellite of the tag-probe refactor; the old
  // default seeds were effectively correlated).
  constexpr std::uint64_t kBuckets = 1 << 10;
  std::uint64_t same = 0;
  std::uint64_t checked = 0;
  for (std::uint32_t f = 0; f < 20000; f += 2) {
    const Key a = key_of(f);
    const Key b = key_of(f + 1);
    const bool cache_collide =
        reduce_range(a.hash(0x5eedcafe), kBuckets) ==
        reduce_range(b.hash(0x5eedcafe), kBuckets);
    if (!cache_collide) continue;
    ++checked;
    same += reduce_range(std::hash<Key>{}(a), kBuckets) ==
            reduce_range(std::hash<Key>{}(b), kBuckets);
  }
  // Under independence, P(map collision | cache collision) = 1/kBuckets;
  // allow generous slack but rule out correlation.
  EXPECT_GT(checked, 0u);
  EXPECT_LT(same, checked / 4 + 2);
  // And equal keys still agree, with the cached hash intact.
  const Key k = key_of(7);
  EXPECT_EQ(std::hash<Key>{}(k), std::hash<Key>{}(key_of(7)));
  EXPECT_EQ(k.hash(), k.raw_hash());
  EXPECT_NE(std::hash<Key>{}(k), static_cast<std::size_t>(k.raw_hash()));
}

TEST(Cache, SteadyStateProcessAllocatesNothingForConstAKernels) {
  // Acceptance criterion: with the compiled kernel of an h = 0 GROUPBY, the
  // per-packet path — tag probe, fold, LRU touch, even capacity evictions —
  // must not touch the heap once the cache is warm. (h > 0 folds such as
  // outofseq log each epoch's boundary records, so they allocate.)
  const auto records = trace::zipf_records(200'000, 4000, 1.1, 7);
  std::vector<Key> keys;
  keys.reserve(records.size());
  for (const auto& rec : records) {
    const auto bytes = rec.pkt.flow.to_bytes();
    keys.emplace_back(std::span<const std::byte>{bytes.data(), bytes.size()});
  }

  for (const char* source :
       {"SELECT 5tuple, COUNT GROUPBY 5tuple", fig2_source("count_sum"),
        fig2_source("ewma"), fig2_source("nonmt")}) {
    SCOPED_TRACE(source);
    const auto kernel = compiled_kernel(source);
    ASSERT_EQ(kernel->history_window(), 0u);
    Cache cache(CacheGeometry::set_associative(1 << 10, 8), kernel);
    cache.set_eviction_sink({});

    // Warm up: fill buckets so the steady state includes eviction traffic.
    for (std::size_t i = 0; i < 100'000; ++i) {
      cache.process(keys[i], records[i]);
    }

    const std::uint64_t before = g_allocations.load();
    for (std::size_t i = 100'000; i < records.size(); ++i) {
      cache.process(keys[i], records[i]);
    }
    const std::uint64_t after = g_allocations.load();
    EXPECT_EQ(after - before, 0u)
        << "steady-state Cache::process allocated on the heap";
    EXPECT_GT(cache.stats().evictions, 0u)
        << "workload too small to exercise the eviction path";
  }
}

// ------------------------------------------------------------ the pull --

/// One entry as an eviction sink sees it, to compare two caches event by
/// event.
struct Emitted {
  Key key;
  double count = 0;
  std::uint64_t packets = 0;
  Nanos first_tin;
  Nanos evict_time;
  bool final_flush = false;

  friend bool operator==(const Emitted&, const Emitted&) = default;
};

Cache::EvictionSink record_into(std::vector<Emitted>& out) {
  return [&out](EvictedValue&& ev) {
    out.push_back(Emitted{ev.key, ev.state[0], ev.packets, ev.first_tin,
                          ev.evict_time, ev.final_flush});
  };
}

TEST(Cache, FlushedCacheBehavesLikeAFreshOne) {
  // The flush empties tags, bucket lists and the n = 1 side index in one
  // sweep. Afterwards the cache must evict the same victims, emit the same
  // entries in the same order and answer peek() the same as a cache that
  // never held anything. Phase 1 fills buckets only up to their ways, so no
  // policy evicts and kRandom's victim stream is untouched when phase 2
  // starts on both caches.
  constexpr std::uint64_t kSeed = 42;
  for (const CacheGeometry geom : {CacheGeometry::set_associative(256, 4),
                                   CacheGeometry::fully_associative(64)}) {
    for (const EvictionPolicy policy :
         {EvictionPolicy::kLru, EvictionPolicy::kFifo, EvictionPolicy::kRandom}) {
      SCOPED_TRACE(geom.to_string() + " " + to_cstring(policy));
      Cache flushed(geom, count_kernel(), kSeed, policy);
      Cache fresh(geom, count_kernel(), kSeed, policy);
      std::vector<Emitted> a;
      std::vector<Emitted> b;
      flushed.set_eviction_sink(record_into(a));
      fresh.set_eviction_sink(record_into(b));

      std::vector<std::uint64_t> fill(geom.num_buckets, 0);
      std::vector<std::uint32_t> phase1;
      for (std::uint32_t f = 0;
           phase1.size() < geom.total_slots() * 3 / 4 && f < 100'000; ++f) {
        const std::uint64_t bucket =
            reduce_range(key_of(f).hash(kSeed), geom.num_buckets);
        if (fill[bucket] == geom.associativity) continue;
        ++fill[bucket];
        phase1.push_back(f);
      }
      // Three rounds with different strides, so LRU lists get reordered.
      for (std::size_t round = 0; round < 3; ++round) {
        for (std::size_t i = round; i < phase1.size(); i += round + 1) {
          flushed.process(key_of(phase1[i]),
                          rec_of(phase1[i], static_cast<std::int64_t>(round)));
        }
      }
      ASSERT_EQ(flushed.stats().evictions, 0u);
      flushed.flush(Nanos{50});
      ASSERT_EQ(a.size(), phase1.size());
      ASSERT_EQ(flushed.occupancy(), 0u);
      a.clear();
      const CacheStats before = flushed.stats();

      const auto records = trace::zipf_records(20'000, 1'000, 1.1, 9);
      for (const auto& rec : records) {
        const auto bytes = rec.pkt.flow.to_bytes();
        const Key key{std::span<const std::byte>{bytes.data(), bytes.size()}};
        flushed.process(key, rec);
        fresh.process(key, rec);
      }
      EXPECT_GT(fresh.stats().evictions, 0u);
      EXPECT_EQ(a, b) << "capacity evictions differ";
      EXPECT_EQ(flushed.stats().hits - before.hits, fresh.stats().hits);
      EXPECT_EQ(flushed.stats().initializations - before.initializations,
                fresh.stats().initializations);
      EXPECT_EQ(flushed.stats().evictions - before.evictions,
                fresh.stats().evictions);
      EXPECT_EQ(flushed.occupancy(), fresh.occupancy());
      for (std::uint32_t f = 0; f < 1'100; ++f) {
        EXPECT_EQ(flushed.peek(key_of(f)), fresh.peek(key_of(f))) << f;
      }
      a.clear();
      b.clear();
      flushed.flush(Nanos{1 << 30});
      fresh.flush(Nanos{1 << 30});
      EXPECT_EQ(a, b) << "the next flush emits different entries or order";
    }
  }
}

TEST(Cache, FlushCountersAndBackingWrites) {
  // flushes counts entries written back, occupancy drops to zero, and every
  // eviction and flushed entry is one backing-store write, flush after
  // flush (the refresh pattern).
  KeyValueStore store(CacheGeometry::set_associative(256, 4), count_kernel());
  const auto records = trace::zipf_records(30'000, 2'000, 1.1, 3);
  std::uint64_t flushed = 0;
  for (std::size_t part = 0; part < 3; ++part) {
    for (std::size_t i = part * 10'000; i < (part + 1) * 10'000; ++i) {
      const auto bytes = records[i].pkt.flow.to_bytes();
      store.process(Key{std::span<const std::byte>{bytes.data(), bytes.size()}},
                    records[i]);
    }
    const std::size_t resident = store.cache().occupancy();
    ASSERT_GT(resident, 0u);
    store.flush(Nanos{static_cast<std::int64_t>(part + 1) << 40});
    flushed += resident;
    const CacheStats& stats = store.cache().stats();
    EXPECT_EQ(stats.flushes, flushed);
    EXPECT_EQ(store.cache().occupancy(), 0u);
    EXPECT_EQ(store.backing().writes(), stats.evictions + stats.flushes);
    EXPECT_EQ(store.backing().capacity_writes(), stats.evictions);
    EXPECT_EQ(store.backing().packets(), (part + 1) * 10'000);
  }
  store.flush(Nanos{std::int64_t{1} << 50});  // nothing resident: nothing written
  EXPECT_EQ(store.cache().stats().flushes, flushed);
  EXPECT_EQ(store.backing().writes(),
            store.cache().stats().evictions + flushed);
}

TEST(Cache, StoreFlushAllocatesAConstantNumberOfBlocks) {
  // KeyValueStore::flush presizes the backing store for every resident key,
  // so flushing N const-A entries (whose merge allocates nothing per key)
  // costs the same few blocks whatever N is, not ~log2 N regrowths.
  std::array<std::uint64_t, 2> blocks{};
  const std::array<std::uint32_t, 2> sizes{1'000, 16'000};
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    KeyValueStore store(CacheGeometry::set_associative(1 << 16, 8),
                        count_kernel());
    for (std::uint32_t f = 0; f < sizes[i]; ++f) {
      store.process(key_of(f), rec_of(f));
    }
    const std::uint64_t before = g_allocations.load();
    store.flush(Nanos{1});
    blocks[i] = g_allocations.load() - before;
    ASSERT_EQ(store.backing().key_count(), sizes[i]);
  }
  EXPECT_EQ(blocks[0], blocks[1]);
  EXPECT_LE(blocks[1], 2u) << "one entry array and one index";
}

TEST(Cache, MaterializeAllocatesOneBlockPerRowPlusAConstant) {
  // Each row is allocated once at its final width; everything else (the
  // row order, the row array, the table) is a constant number of blocks.
  const compiler::CompiledProgram program =
      compiler::compile_source(fig2_source("count_sum"), kFig2Params);
  const compiler::SwitchQueryPlan& plan = program.switch_plans.at(0);
  std::array<std::uint64_t, 2> extra{};
  const std::array<std::uint32_t, 2> sizes{500, 8'000};
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    KeyValueStore store(CacheGeometry::set_associative(1 << 12, 8),
                        plan.kernel);
    for (std::uint32_t f = 0; f < sizes[i]; ++f) {
      const PacketRecord rec = rec_of(f);
      store.process(compiler::extract_key(plan, rec), rec);
    }
    store.flush(Nanos{1});
    const std::uint64_t before = g_allocations.load();
    const runtime::ResultTable table =
        runtime::materialize_switch_table(program, plan, store.backing());
    const std::uint64_t blocks = g_allocations.load() - before;
    ASSERT_EQ(table.row_count(), sizes[i]);
    ASSERT_GE(blocks, sizes[i]);
    extra[i] = blocks - sizes[i];
  }
  EXPECT_EQ(extra[0], extra[1]);
  EXPECT_LT(extra[1], 32u);
}

}  // namespace
}  // namespace perfq::kv

// Parameterized invariant sweeps over the cache: accounting identities that
// must hold for EVERY (geometry, policy, workload skew) combination.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <tuple>

#include "common/rng.hpp"
#include "fig2_corpus.hpp"
#include "kvstore/kvstore.hpp"
#include "trace/simple.hpp"

namespace perfq::kv {
namespace {

struct SweepCase {
  std::string name;
  CacheGeometry geometry;
  EvictionPolicy policy;
  double zipf_s;
};

std::vector<SweepCase> sweep_cases() {
  std::vector<SweepCase> out;
  const std::vector<std::pair<std::string, CacheGeometry>> geometries{
      {"hash64", CacheGeometry::hash_table(64)},
      {"full64", CacheGeometry::fully_associative(64)},
      {"way4x16", CacheGeometry::set_associative(64, 4)},
      {"way8x4", CacheGeometry::set_associative(32, 8)},
      {"single", CacheGeometry{1, 1}},
  };
  const std::vector<std::pair<std::string, EvictionPolicy>> policies{
      {"lru", EvictionPolicy::kLru},
      {"fifo", EvictionPolicy::kFifo},
      {"rand", EvictionPolicy::kRandom},
  };
  for (const auto& [gn, g] : geometries) {
    for (const auto& [pn, p] : policies) {
      for (const double s : {0.0, 1.1}) {
        out.push_back(
            SweepCase{gn + "_" + pn + (s == 0.0 ? "_uniform" : "_zipf"), g, p, s});
      }
    }
  }
  return out;
}

class CacheInvariantTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(CacheInvariantTest, AccountingIdentitiesHold) {
  const SweepCase& c = GetParam();
  const auto kernel = compiled_kernel("SELECT 5tuple, COUNT GROUPBY 5tuple");
  Cache cache(c.geometry, kernel, 0xABCD, c.policy);

  std::uint64_t sink_events = 0;
  double evicted_count_sum = 0.0;
  cache.set_eviction_sink([&](EvictedValue&& ev) {
    ++sink_events;
    evicted_count_sum += ev.state[0];
    EXPECT_GT(ev.packets, 0u);
    EXPECT_LE(ev.first_tin, ev.evict_time);
  });

  const auto records = trace::zipf_records(8000, 300, c.zipf_s, 17);
  for (const auto& rec : records) {
    const auto bytes = rec.pkt.flow.to_bytes();
    cache.process(
        Key{std::span<const std::byte>{bytes.data(), bytes.size()}}, rec);
  }

  const CacheStats& s = cache.stats();
  // Identity 1: every packet is a hit or an initialization.
  EXPECT_EQ(s.hits + s.initializations, s.packets);
  EXPECT_EQ(s.packets, records.size());
  // Identity 2: occupancy = installs - departures.
  EXPECT_EQ(cache.occupancy(), s.initializations - s.evictions);
  // Identity 3: occupancy bounded by capacity.
  EXPECT_LE(cache.occupancy(), c.geometry.total_slots());
  // Identity 4: sink saw exactly the capacity evictions so far.
  EXPECT_EQ(sink_events, s.evictions);

  cache.flush(Nanos{std::int64_t{1} << 60});
  // Identity 5: after flush everything left through the sink, and the per-
  // key counts sum to the total packet count (conservation of packets).
  EXPECT_EQ(cache.occupancy(), 0u);
  EXPECT_EQ(sink_events, s.evictions + s.flushes);
  EXPECT_DOUBLE_EQ(evicted_count_sum, static_cast<double>(records.size()));
}

TEST_P(CacheInvariantTest, SplitStoreConservesPacketsEndToEnd) {
  const SweepCase& c = GetParam();
  const auto kernel = compiled_kernel("SELECT 5tuple, COUNT GROUPBY 5tuple");
  KeyValueStore store(c.geometry, kernel, 0xABCD, c.policy);
  const auto records = trace::zipf_records(6000, 200, c.zipf_s, 29);
  for (const auto& rec : records) {
    const auto bytes = rec.pkt.flow.to_bytes();
    store.process(Key{std::span<const std::byte>{bytes.data(), bytes.size()}},
                  rec);
  }
  store.flush(Nanos{std::int64_t{1} << 60});
  double total = 0.0;
  store.backing().for_each(
      [&](const Key&, const StateVector& v, bool) { total += v[0]; });
  EXPECT_DOUBLE_EQ(total, static_cast<double>(records.size()))
      << "merged per-key counts must sum to the packet count";
  EXPECT_EQ(store.backing().writes(),
            store.cache().stats().evictions + store.cache().stats().flushes);
}

INSTANTIATE_TEST_SUITE_P(Sweep, CacheInvariantTest,
                         ::testing::ValuesIn(sweep_cases()),
                         [](const ::testing::TestParamInfo<SweepCase>& p) {
                           return p.param.name;
                         });

// ---- BackingStore container contract ---------------------------------------
// The backing store is a flat entry array under an open-addressing index that
// grows by re-indexing. A seeded schedule of direct absorbs over more than
// 10^5 keys, with re-absorbs, crosses a dozen index growths and is checked
// against a std::map model after every phase.

/// Per-key model of one store: the merged (count, bytes) of a linear fold and
/// the number of absorbs, which is the segment count of a non-linear one.
struct ModelEntry {
  double count = 0;
  double bytes = 0;
  std::size_t absorbs = 0;
};
using Model = std::map<std::uint64_t, ModelEntry>;

Key model_key(std::uint64_t id) {
  const std::uint64_t v[] = {id};
  const std::uint8_t w[] = {8};
  return Key::pack(v, w);
}

/// One eviction of `id` carrying `n` packets of `len` bytes each, as a
/// const-A, h = 0 fold (S_h = S_0 = 0) evicts it.
EvictedValue model_eviction(std::uint64_t id, std::uint64_t n, double len) {
  EvictedValue ev;
  ev.key = model_key(id);
  ev.state = StateVector(2);
  ev.state[0] = static_cast<double>(n);
  ev.state[1] = static_cast<double>(n) * len;
  ev.state_after_h = StateVector(2);
  ev.packets = n;
  ev.first_tin = Nanos{static_cast<std::int64_t>(id)};
  ev.evict_time = Nanos{static_cast<std::int64_t>(id) + 1};
  return ev;
}

struct Absorb {
  std::uint64_t id;
  std::uint64_t n;
  double len;
};

constexpr std::uint64_t kIds = 120'000;

/// 3·10^5 absorbs over ids [0, kIds): ~1.1·10^5 distinct keys, most of them
/// absorbed more than once.
std::vector<Absorb> absorb_schedule(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Absorb> out(300'000);
  for (Absorb& a : out) {
    a = Absorb{rng.below(kIds), 1 + rng.below(50),
               static_cast<double>(64 + rng.below(1400))};
  }
  return out;
}

void absorb_all(BackingStore& store, Model& model, std::span<const Absorb> schedule) {
  for (const Absorb& a : schedule) {
    store.absorb(model_eviction(a.id, a.n, a.len));
    ModelEntry& m = model[a.id];
    m.count += static_cast<double>(a.n);
    m.bytes += static_cast<double>(a.n) * a.len;
    ++m.absorbs;
  }
}

/// Every contract the engines read the store through, against the model.
void expect_matches(const BackingStore& store, const Model& model, bool linear) {
  std::size_t valid = 0;
  for (const auto& [id, m] : model) valid += linear || m.absorbs == 1;
  EXPECT_EQ(store.key_count(), model.size());
  EXPECT_EQ(store.accuracy().total_keys, model.size());
  EXPECT_EQ(store.accuracy().valid_keys, valid);

  std::vector<int> visits(kIds);
  const auto id_of = [](const Key& key) {
    std::uint64_t id = 0;
    for (const std::byte b : key.bytes()) id = (id << 8) | std::to_integer<std::uint64_t>(b);
    return id;
  };
  store.for_each([&](const Key& key, const StateVector& v, bool ok) {
    const std::uint64_t id = id_of(key);
    const auto it = model.find(id);
    ASSERT_NE(it, model.end()) << "for_each visited a key never absorbed";
    ++visits[id];
    EXPECT_EQ(ok, linear || it->second.absorbs == 1);
    if (linear) {
      EXPECT_EQ(v[0], it->second.count);
      EXPECT_EQ(v[1], it->second.bytes);
    }
  });
  for (const auto& [id, m] : model) {
    ASSERT_EQ(visits[id], 1) << "for_each visited key " << id << " " << visits[id] << " times";
  }

  const std::vector<ExportedEntry> exported = store.export_entries();
  ASSERT_EQ(exported.size(), model.size());
  std::vector<int> exports(kIds);
  for (const ExportedEntry& e : exported) {
    const std::uint64_t id = id_of(e.key);
    const ModelEntry& m = model.at(id);
    ASSERT_EQ(++exports[id], 1) << "export_entries repeated key " << id;
    EXPECT_EQ(e.valid, linear || m.absorbs == 1);
    EXPECT_EQ(e.segments.size(), linear ? 0 : m.absorbs);
    if (linear) {
      EXPECT_EQ(e.value[0], m.count);
      EXPECT_EQ(e.value[1], m.bytes);
    }
  }

  for (const auto& [id, m] : model) {
    const Key key = model_key(id);
    const StateVector* v = store.lookup(key);
    ASSERT_NE(v, nullptr) << "absorbed key " << id << " reads as absent";
    if (linear) {
      EXPECT_EQ((*v)[0], m.count);
      EXPECT_EQ((*v)[1], m.bytes);
    } else {
      ASSERT_NE(store.segments(key), nullptr);
      EXPECT_EQ(store.segments(key)->size(), m.absorbs);
    }
    EXPECT_EQ(store.valid(key), linear || m.absorbs == 1);
  }
  // Every id of the schedule's range the model never saw, and some past it.
  for (std::uint64_t id = 0; id < kIds + 10'000; ++id) {
    if (model.count(id) != 0) continue;
    const Key key = model_key(id);
    ASSERT_EQ(store.lookup(key), nullptr) << "absent key " << id << " reads as present";
    EXPECT_EQ(store.segments(key), nullptr);
    EXPECT_FALSE(store.valid(key));
  }
}

class BackingStoreContractTest : public ::testing::TestWithParam<bool> {};

TEST_P(BackingStoreContractTest, MatchesMapModelAcrossGrowthAndCopies) {
  const bool linear = GetParam();
  const auto kernel =
      compiled_kernel(fig2_source(linear ? "count_sum" : "nonmt"));
  const std::vector<Absorb> schedule = absorb_schedule(0xB5);
  const std::span<const Absorb> first(schedule.data(), schedule.size() / 2);
  const std::span<const Absorb> second(schedule.data() + first.size(),
                                       schedule.size() - first.size());

  BackingStore store(kernel);
  Model model;
  absorb_all(store, model, first);
  expect_matches(store, model, linear);

  // The snapshot path: absorb into a copy (reserved, as the engines do, and
  // plain); the original must not change.
  BackingStore reserved = store;
  reserved.reserve(store.key_count() + 4096);
  BackingStore plain = store;
  Model copy_model = model;
  absorb_all(reserved, copy_model, second);
  Model plain_model = model;
  absorb_all(plain, plain_model, second);
  expect_matches(store, model, linear);
  expect_matches(reserved, copy_model, linear);
  expect_matches(plain, plain_model, linear);
  EXPECT_GE(copy_model.size(), 100'000u) << "schedule must cover 10^5 keys";

  absorb_all(store, model, second);
  expect_matches(store, model, linear);
  EXPECT_EQ(store.writes(), schedule.size());
}

INSTANTIATE_TEST_SUITE_P(Folds, BackingStoreContractTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& p) {
                           return p.param ? std::string{"linear"}
                                          : std::string{"nonlinear"};
                         });

}  // namespace
}  // namespace perfq::kv

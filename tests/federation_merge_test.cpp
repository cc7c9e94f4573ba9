// Federated merge correctness: §3.2's mergeability analysis lifted from one
// switch's cache/backing split to a fabric of independent stores.
//
// Three properties are pinned here, differentially and bit-for-bit:
//
//   1. Classification — every compiled GROUPBY shape lands in the
//      documented MergeCapability class (additive / single-source).
//   2. Merge-order determinism — the FederatedStore's reduced result is
//      BYTE-identical no matter which order sources are absorbed in:
//      shuffled, incremental (reads interleaved between absorbs), batched,
//      and with re-absorbed (replaced) sources.
//   3. Exactness — additive kernels reduce to exactly the value of one
//      unbounded reference table fed every record, however the records
//      interleave across sources; single-source kernels are exact
//      when each key's stream lives on one source, and keys that straddle
//      sources are invalidated with one correct segment per source.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "fig2_corpus.hpp"
#include "kvstore/federated.hpp"
#include "kvstore/kvstore.hpp"
#include "trace/simple.hpp"

namespace perfq::kv {
namespace {

Key key_for(const PacketRecord& rec) {
  const auto bytes = rec.pkt.flow.to_bytes();
  return Key{std::span<const std::byte>{bytes.data(), bytes.size()}};
}

std::uint32_t flow_of(const PacketRecord& rec) {
  return rec.pkt.flow.src_ip - 0x0A000000u;  // inverse of flow_index()
}

/// Random records over `flows` keys (same recipe as kvstore_merge_test).
std::vector<PacketRecord> random_records(std::uint64_t count,
                                         std::uint32_t flows,
                                         std::uint64_t seed,
                                         double drop_prob = 0.02) {
  Rng rng(seed);
  std::vector<PacketRecord> out;
  out.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto f = static_cast<std::uint32_t>(rng.below(flows));
    const auto t = static_cast<std::int64_t>(i) * 1000;
    trace::RecordBuilder b;
    b.flow_index(f).uniq(i + 1);
    const auto len = static_cast<std::uint32_t>(64 + rng.below(1400));
    b.len(len, len - 54);
    if (rng.chance(drop_prob)) {
      b.dropped_at(Nanos{t});
    } else {
      b.times(Nanos{t},
              Nanos{t + 1 + static_cast<std::int64_t>(rng.below(100000))});
    }
    b.queue(static_cast<std::uint32_t>(f % 7),
            static_cast<std::uint32_t>(rng.below(64)));
    b.seq(static_cast<std::uint32_t>(i * 1460));
    out.push_back(b.build());
  }
  return out;
}

/// Partition a record stream across `n` per-source stores by `pick(rec, i)`,
/// then flush and export each one. Tiny caches keep eviction pressure high
/// so exports carry real backing-store state, not just cache residue.
struct Sources {
  std::vector<std::unique_ptr<KeyValueStore>> stores;
  std::vector<StoreExport> exports;
};

template <typename Pick>
Sources partition(const std::vector<PacketRecord>& records, std::size_t n,
                  std::shared_ptr<const FoldKernel> kernel, Pick&& pick) {
  Sources out;
  std::vector<std::uint64_t> counts(n, 0);
  for (std::size_t s = 0; s < n; ++s) {
    out.stores.push_back(std::make_unique<KeyValueStore>(
        CacheGeometry::set_associative(16, 2), kernel));
  }
  for (std::size_t i = 0; i < records.size(); ++i) {
    const std::size_t s = pick(records[i], i) % n;
    out.stores[s]->process(key_for(records[i]), records[i]);
    ++counts[s];
  }
  const Nanos end{static_cast<std::int64_t>(records.size()) * 1000};
  for (std::size_t s = 0; s < n; ++s) {
    out.stores[s]->flush(end);
    out.exports.push_back(StoreExport{"q", counts[s], end,
                                      out.stores[s]->backing().export_entries()});
  }
  return out;
}

/// The federated result flattened to a canonical, byte-comparable form:
/// rows sorted by key bytes, values as raw double bit patterns (so +0/-0
/// or NaN drift would fail the comparison, not slip through ==).
using Row = std::tuple<std::string, std::vector<std::uint64_t>, bool>;

std::vector<Row> rows_of(const FederatedStore& fed) {
  std::vector<Row> rows;
  fed.for_each([&](const Key& key, const StateVector& value, bool valid) {
    const auto kb = key.bytes();
    std::string ks(reinterpret_cast<const char*>(kb.data()), kb.size());
    std::vector<std::uint64_t> bits(value.dims());
    for (std::size_t d = 0; d < value.dims(); ++d) {
      const double v = value[d];
      std::memcpy(&bits[d], &v, sizeof(double));
    }
    rows.emplace_back(std::move(ks), std::move(bits), valid);
  });
  std::sort(rows.begin(), rows.end());
  return rows;
}

struct FedCase {
  std::string name;
  std::shared_ptr<const FoldKernel> kernel;
  MergeCapability expected;
};

/// Compiled Fig. 2 folds; CompiledGroupBys pins each one's class.
std::vector<FedCase> fed_cases() {
  return {
      {"count", compiled_kernel("SELECT 5tuple, COUNT GROUPBY 5tuple"),
       MergeCapability::kAdditive},
      {"sum_len",
       compiled_kernel("SELECT 5tuple, SUM(pkt_len) GROUPBY 5tuple"),
       MergeCapability::kAdditive},
      {"count_sum", compiled_kernel(fig2_source("count_sum")),
       MergeCapability::kAdditive},
      {"ewma", compiled_kernel(fig2_source("ewma"), {{"alpha", 0.25}}),
       MergeCapability::kSingleSource},
      {"nonmt", compiled_kernel(fig2_source("nonmt")),
       MergeCapability::kSingleSource},
  };
}

/// One compiled GROUPBY shape: its select list, and what the compiled
/// kernel must report. A const-A shape's A is diagonal: `a_diagonal`.
struct CompiledShape {
  const char* select;
  Linearity linearity;
  std::size_t history;
  std::vector<double> a_diagonal;
  MergeCapability merge;
};

TEST(FederatedClassification, CompiledGroupBys) {
  // A GROUPBY's aggregations share one state vector: it is linear iff every
  // aggregation is, const-A iff every one is, its history window is the
  // longest, and it is only as mergeable as its weakest member.
  constexpr const char* kFolds = R"(
def counter (cnt, (pkt_len)):
    cnt = cnt + 1

def ewma (lat_est, (tin, tout)):
    lat_est = (1 - alpha) * lat_est + alpha * (tout - tin)

def outofseq ((lastseq, oos_count), (tcpseq, payload_len)):
    if lastseq + 1 != tcpseq: oos_count = oos_count + 1
    lastseq = tcpseq + payload_len

def nonmt ((maxseq, nm_count), (tcpseq)):
    if maxseq > tcpseq: nm_count = nm_count + 1
    maxseq = max(maxseq, tcpseq)

def gear (acc, (pkt_len)):
    if pkt_len > 500:
        acc = 2 * acc
    else:
        acc = acc + 1
)";
  constexpr auto kConstA = Linearity::kLinearConstA;
  constexpr auto kAdditive = MergeCapability::kAdditive;
  constexpr auto kSingle = MergeCapability::kSingleSource;
  const CompiledShape shapes[] = {
      {"COUNT", kConstA, 0, {1}, kAdditive},
      {"SUM(pkt_len)", kConstA, 0, {1}, kAdditive},
      {"COUNT, SUM(pkt_len)", kConstA, 0, {1, 1}, kAdditive},
      {"ewma", kConstA, 0, {0.875}, kSingle},
      {"nonmt", Linearity::kNotLinear, 0, {}, kSingle},
      {"COUNT, ewma", kConstA, 0, {1, 0.875}, kSingle},
      {"ewma, COUNT", kConstA, 0, {0.875, 1}, kSingle},
      {"COUNT, outofseq", kConstA, 1, {1, 0, 1}, kSingle},
      {"COUNT, nonmt", Linearity::kNotLinear, 0, {}, kSingle},
      {"COUNT, gear", Linearity::kLinear, 0, {}, kSingle},
      {"counter, COUNT", kConstA, 0, {1, 1}, kAdditive},
      {"COUNT, SUM(pkt_len), ewma, outofseq", kConstA, 1, {1, 1, 0.875, 0, 1},
       kSingle},
  };
  for (const CompiledShape& shape : shapes) {
    SCOPED_TRACE(shape.select);
    const auto compiled = compiled_kernel(std::string{kFolds} +
                                          "\nSELECT 5tuple, " + shape.select +
                                          " GROUPBY 5tuple");
    const FoldKernel& kernel = *compiled;
    EXPECT_EQ(kernel.linearity(), shape.linearity);
    EXPECT_EQ(kernel.history_window(), shape.history);
    if (shape.linearity == kConstA) {
      SmallMatrix want(shape.a_diagonal.size());
      for (std::size_t d = 0; d < shape.a_diagonal.size(); ++d) {
        want.at(d, d) = shape.a_diagonal[d];
      }
      EXPECT_TRUE(kernel.constant_a() == want);
    }
    EXPECT_EQ(merge_capability(kernel), shape.merge);
  }
}

class FederatedMergeOrder : public ::testing::TestWithParam<FedCase> {};

/// Core merge-order property: every absorb schedule yields byte-identical
/// rows — including incremental schedules where reads happen between
/// absorbs, and schedules that re-absorb a source (replacement semantics).
TEST_P(FederatedMergeOrder, ByteIdenticalUnderAnyAbsorbOrder) {
  const auto& c = GetParam();
  const auto records = random_records(20000, 300, /*seed=*/0xFED0 + 7);
  constexpr std::size_t kSources = 5;
  auto srcs = partition(records, kSources, c.kernel,
                        [](const PacketRecord& rec, std::size_t) {
                          return static_cast<std::size_t>(rec.pkt.pkt_uniq);
                        });

  // Canonical: absorb in ascending source id, read once.
  FederatedStore canonical{c.kernel};
  for (std::size_t s = 0; s < kSources; ++s) {
    canonical.absorb(static_cast<std::uint32_t>(s), srcs.exports[s]);
  }
  const auto want = rows_of(canonical);
  ASSERT_FALSE(want.empty());
  EXPECT_EQ(canonical.records(), records.size());
  EXPECT_EQ(canonical.source_count(), kSources);

  // Shuffled batch orders.
  Rng rng(0xBEEF);
  std::vector<std::size_t> order{0, 1, 2, 3, 4};
  for (int round = 0; round < 8; ++round) {
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.below(i)]);
    }
    FederatedStore fed{c.kernel};
    for (const std::size_t s : order) {
      fed.absorb(static_cast<std::uint32_t>(s), srcs.exports[s]);
    }
    EXPECT_EQ(rows_of(fed), want) << c.name << " round " << round;
  }

  // Incremental: force a full reduction between every absorb. The reduced
  // view must converge to the same bytes as the batched schedule.
  FederatedStore incremental{c.kernel};
  for (std::size_t s = kSources; s > 0; --s) {
    incremental.absorb(static_cast<std::uint32_t>(s - 1), srcs.exports[s - 1]);
    (void)rows_of(incremental);
    (void)incremental.accuracy();
  }
  EXPECT_EQ(rows_of(incremental), want) << c.name << " incremental";

  // Re-absorb: a source's later export REPLACES its earlier contribution,
  // so double-absorbing the same export is a no-op.
  FederatedStore replayed{c.kernel};
  replayed.absorb(0, srcs.exports[0]);
  for (std::size_t s = 0; s < kSources; ++s) {
    replayed.absorb(static_cast<std::uint32_t>(s), srcs.exports[s]);
  }
  replayed.absorb(2, srcs.exports[2]);
  EXPECT_EQ(rows_of(replayed), want) << c.name << " re-absorb";
  EXPECT_EQ(replayed.records(), records.size());
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, FederatedMergeOrder, ::testing::ValuesIn(fed_cases()),
    [](const auto& info) { return info.param.name; });

/// Additive kernels: the federated reduction over arbitrarily interleaved
/// per-source streams equals an unbounded reference table fed every record —
/// bit-for-bit (counters and sums of integer-valued fields).
TEST(FederatedExactness, MergeableKernelsMatchGlobalReference) {
  for (const auto& c : fed_cases()) {
    if (c.expected == MergeCapability::kSingleSource) continue;
    const auto records = random_records(25000, 400, /*seed=*/0x51AB);
    auto srcs = partition(records, 4, c.kernel,
                          [](const PacketRecord&, std::size_t i) { return i; });

    ReferenceStore reference{c.kernel};
    for (const auto& rec : records) reference.process(key_for(rec), rec);

    FederatedStore fed{c.kernel};
    for (std::size_t s = 0; s < srcs.exports.size(); ++s) {
      fed.absorb(static_cast<std::uint32_t>(s), srcs.exports[s]);
    }
    ASSERT_EQ(fed.key_count(), reference.key_count()) << c.name;
    const AccuracyStats acc = fed.accuracy();
    EXPECT_EQ(acc.valid_keys, acc.total_keys) << c.name;

    std::size_t checked = 0;
    reference.for_each([&](const Key& key, const StateVector& want) {
      const auto got = fed.read(key);
      ASSERT_TRUE(got.has_value()) << c.name;
      ASSERT_EQ(got->dims(), want.dims());
      for (std::size_t d = 0; d < want.dims(); ++d) {
        EXPECT_EQ((*got)[d], want[d])
            << c.name << " dim " << d << " not bit-exact";
      }
      EXPECT_TRUE(fed.valid(key));
      EXPECT_TRUE(fed.segments(key).empty());
      ++checked;
    });
    EXPECT_EQ(checked, reference.key_count());
  }
}

/// Single-source kernels stay exact when every key's stream lives on one
/// source — the partition a fabric induces when the key includes a
/// switch-owned dimension (e.g. GROUPBY qid).
TEST(FederatedExactness, SingleSourceExactWhenKeysDoNotStraddle) {
  const auto kernel = compiled_kernel(fig2_source("ewma"), {{"alpha", 0.25}});
  const auto records = random_records(20000, 256, /*seed=*/0xE13A,
                                      /*drop_prob=*/0.0);
  auto srcs = partition(records, 4, kernel,
                        [](const PacketRecord& rec, std::size_t) {
                          return static_cast<std::size_t>(flow_of(rec));
                        });

  ReferenceStore reference{kernel};
  for (const auto& rec : records) reference.process(key_for(rec), rec);

  FederatedStore fed{kernel};
  for (std::size_t s = 0; s < srcs.exports.size(); ++s) {
    fed.absorb(static_cast<std::uint32_t>(s), srcs.exports[s]);
  }
  ASSERT_EQ(fed.key_count(), reference.key_count());
  const AccuracyStats acc = fed.accuracy();
  EXPECT_EQ(acc.valid_keys, acc.total_keys);

  reference.for_each([&](const Key& key, const StateVector& want) {
    const auto got = fed.read(key);
    ASSERT_TRUE(got.has_value());
    EXPECT_TRUE(fed.valid(key));
    // Bit-exact pass-through of the owning source's own value. The key's
    // first four bytes are the big-endian src_ip (0x0A000000 + flow index).
    const auto kb = key.bytes();
    std::uint32_t ip = 0;
    for (int b = 0; b < 4; ++b) {
      ip = (ip << 8) | std::to_integer<std::uint32_t>(kb[b]);
    }
    const std::size_t owner = (ip - 0x0A000000u) % srcs.stores.size();
    const StateVector* own = srcs.stores[owner]->read(key);
    ASSERT_NE(own, nullptr);
    for (std::size_t d = 0; d < want.dims(); ++d) {
      EXPECT_EQ((*got)[d], (*own)[d]) << "pass-through must be bit-exact";
      // ...which is itself the §3.2-exact per-stream EWMA (ULP-close to a
      // straight reference: the backing merge recomposes affine pieces).
      const double rel = std::abs((*got)[d] - want[d]) /
                         std::max(1.0, std::abs(want[d]));
      EXPECT_LT(rel, 1e-9);
    }
  });
}

/// Keys that DO straddle sources under a single-source kernel: invalidated,
/// with one synthesized segment per source whose value is that source's own
/// (exact) per-stream result — §3.2's escape hatch at fabric scope.
TEST(FederatedExactness, StraddlingKeysInvalidatedWithPerSourceSegments) {
  const auto kernel = compiled_kernel(fig2_source("ewma"), {{"alpha", 0.5}});
  const auto records = random_records(6000, 40, /*seed=*/0xDEAD,
                                      /*drop_prob=*/0.0);
  constexpr std::size_t kSources = 3;
  std::vector<std::map<std::string, std::size_t>> seen_by(kSources);
  auto srcs = partition(records, kSources, kernel,
                        [&](const PacketRecord& rec, std::size_t i) {
                          const std::size_t s = i % kSources;
                          const Key key = key_for(rec);  // bytes() views the Key
                          const auto kb = key.bytes();
                          ++seen_by[s][std::string(
                              reinterpret_cast<const char*>(kb.data()),
                              kb.size())];
                          return s;
                        });

  FederatedStore fed{kernel};
  for (std::size_t s = 0; s < kSources; ++s) {
    fed.absorb(static_cast<std::uint32_t>(s), srcs.exports[s]);
  }

  std::size_t straddlers = 0;
  fed.for_each([&](const Key& key, const StateVector&, bool valid) {
    const auto kb = key.bytes();
    const std::string ks(reinterpret_cast<const char*>(kb.data()), kb.size());
    std::size_t owners = 0;
    std::uint64_t packets = 0;
    for (const auto& m : seen_by) {
      if (const auto it = m.find(ks); it != m.end()) {
        ++owners;
        packets += it->second;
      }
    }
    ASSERT_GE(owners, 1u);
    EXPECT_EQ(valid, owners == 1) << "validity must track source spread";
    const auto segs = fed.segments(key);
    if (owners == 1) {
      EXPECT_TRUE(segs.empty());
    } else {
      ++straddlers;
      ASSERT_EQ(segs.size(), owners)
          << "one synthesized segment per contributing source";
      std::uint64_t seg_packets = 0;
      for (const auto& seg : segs) seg_packets += seg.packets;
      EXPECT_EQ(seg_packets, packets);
      // Each segment must be that source's own exact per-stream value.
      std::size_t si = 0;
      for (std::size_t s = 0; s < kSources; ++s) {
        if (seen_by[s].find(ks) == seen_by[s].end()) continue;
        const StateVector* own = srcs.stores[s]->read(key);
        ASSERT_NE(own, nullptr);
        for (std::size_t d = 0; d < own->dims(); ++d) {
          EXPECT_EQ(segs[si].value[d], (*own)[d]);
        }
        ++si;
      }
    }
  });
  EXPECT_GT(straddlers, 20u) << "round-robin must actually straddle keys";
  const AccuracyStats acc = fed.accuracy();
  EXPECT_EQ(acc.total_keys - acc.valid_keys, straddlers);
}

/// Non-linear kernels carry their real per-epoch segments through the
/// federation: the merged segment list is the concatenation of each
/// source's own backing-store segments, in ascending source order.
TEST(FederatedExactness, NonLinearSegmentsConcatenateAcrossSources) {
  const auto kernel = compiled_kernel(fig2_source("nonmt"));
  const auto records = random_records(4000, 24, /*seed=*/0xC0DE);
  constexpr std::size_t kSources = 2;
  auto srcs = partition(records, kSources, kernel,
                        [](const PacketRecord&, std::size_t i) { return i; });

  FederatedStore fed{kernel};
  for (std::size_t s = 0; s < kSources; ++s) {
    fed.absorb(static_cast<std::uint32_t>(s), srcs.exports[s]);
  }

  std::size_t multi = 0;
  fed.for_each([&](const Key& key, const StateVector&, bool valid) {
    std::vector<ValueSegment> want;
    std::size_t owners = 0;
    for (std::size_t s = 0; s < kSources; ++s) {
      const auto* segs = srcs.stores[s]->backing().segments(key);
      if (segs == nullptr || segs->empty()) continue;
      ++owners;
      want.insert(want.end(), segs->begin(), segs->end());
    }
    const auto got = fed.segments(key);
    if (owners <= 1 && want.size() <= 1) {
      EXPECT_TRUE(valid);
      return;
    }
    ++multi;
    EXPECT_FALSE(valid);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].start, want[i].start);
      EXPECT_EQ(got[i].end, want[i].end);
      EXPECT_EQ(got[i].packets, want[i].packets);
      for (std::size_t d = 0; d < want[i].value.dims(); ++d) {
        EXPECT_EQ(got[i].value[d], want[i].value[d]);
      }
    }
  });
  EXPECT_GT(multi, 10u) << "workload must exercise multi-segment keys";
}

}  // namespace
}  // namespace perfq::kv

// Merge correctness: the central claim of §3.2.
//
// For every linear-in-state fold, the split cache+backing-store design must
// produce *exactly* the same per-key values as an unbounded reference table,
// no matter how hostile the eviction pattern. These are differential
// property tests: random workloads, tiny caches (maximum eviction pressure),
// every geometry, the compiled kernels of the Fig. 2 linear folds.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fig2_corpus.hpp"
#include "kvstore/kvstore.hpp"
#include "trace/simple.hpp"

namespace perfq::kv {
namespace {

Key key_for(const PacketRecord& rec) {
  const auto bytes = rec.pkt.flow.to_bytes();
  return Key{std::span<const std::byte>{bytes.data(), bytes.size()}};
}

/// Random records over `flows` keys with randomized latencies/lengths/seqs.
std::vector<PacketRecord> random_records(std::uint64_t count, std::uint32_t flows,
                                         std::uint64_t seed,
                                         double drop_prob = 0.02) {
  Rng rng(seed);
  std::vector<PacketRecord> out;
  std::vector<std::uint32_t> next_seq(flows, 0);
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
      b.times(Nanos{t}, Nanos{t + 1 + static_cast<std::int64_t>(rng.below(100000))});
    }
    b.queue(0, static_cast<std::uint32_t>(rng.below(64)));
    // Mostly in-order sequence numbers with occasional jumps/repeats.
    std::uint32_t seq = next_seq[f];
    if (rng.chance(0.05)) {
      seq += 1000;  // skip ahead
    } else if (rng.chance(0.05) && next_seq[f] > 1500) {
      seq -= 1500;  // retransmit-ish
    } else {
      next_seq[f] += len - 54;
    }
    b.seq(seq);
    out.push_back(b.build());
  }
  return out;
}

double expect_close(double a, double b) {
  const double scale = std::max({1.0, std::abs(a), std::abs(b)});
  return std::abs(a - b) / scale;
}

struct MergeCase {
  std::string name;
  std::shared_ptr<const FoldKernel> kernel;
  CacheGeometry geometry;
};

class LinearMergeTest : public ::testing::TestWithParam<MergeCase> {};

TEST_P(LinearMergeTest, SplitStoreMatchesReferenceExactly) {
  const MergeCase& c = GetParam();
  ASSERT_TRUE(is_linear(c.kernel->linearity())) << c.name;

  KeyValueStore split(c.geometry, c.kernel);
  ReferenceStore reference(c.kernel);

  const auto records = random_records(20000, 200, /*seed=*/0xABCD);
  for (const auto& rec : records) {
    const Key key = key_for(rec);
    split.process(key, rec);
    reference.process(key, rec);
  }
  split.flush(Nanos{1'000'000'000});

  EXPECT_GT(split.cache().stats().evictions, 100u)
      << "test must actually stress eviction/merge";

  std::size_t checked = 0;
  reference.for_each([&](const Key& key, const StateVector& want) {
    const StateVector* got = split.read(key);
    ASSERT_NE(got, nullptr) << "key missing from backing store";
    ASSERT_EQ(got->dims(), want.dims());
    for (std::size_t d = 0; d < want.dims(); ++d) {
      if (std::isinf(want[d])) {
        EXPECT_EQ((*got)[d], want[d]) << c.name << " dim " << d;
        continue;
      }
      EXPECT_LT(expect_close((*got)[d], want[d]), 1e-9)
          << c.name << " dim " << d << ": merged " << (*got)[d] << " vs ref "
          << want[d];
    }
    ++checked;
  });
  EXPECT_EQ(checked, split.backing().key_count());
}

/// `SELECT 5tuple, <select> GROUPBY 5tuple` over Fig. 2's ewma and
/// outofseq. This ewma skips drops: A = I for a drop, so A varies per
/// packet and the cache keeps a running product.
std::string groupby(const std::string& select) {
  return R"(
def ewma (lat_est, (tin, tout)):
    if tout != infinity:
        lat_est = (1 - alpha) * lat_est + alpha * (tout - tin)

def outofseq ((lastseq, oos_count), (tcpseq, payload_len)):
    if lastseq + 1 != tcpseq: oos_count = oos_count + 1
    lastseq = tcpseq + payload_len

SELECT 5tuple, )" +
         select + " GROUPBY 5tuple";
}

/// Every linear Fig. 2 fold, alone and combined in one GROUPBY.
std::vector<std::pair<std::string, std::shared_ptr<const FoldKernel>>>
linear_kernels() {
  return {
      {"count", compiled_kernel(groupby("COUNT"))},
      {"sum", compiled_kernel(groupby("SUM(pkt_len)"))},
      {"count_sum", compiled_kernel(fig2_source("count_sum"))},
      {"ewma", compiled_kernel(groupby("ewma"))},
      {"outofseq", compiled_kernel(fig2_source("outofseq"))},
      {"perc", compiled_kernel(fig2_source("perc"), {{"K", 32.0}})},
      {"sum_lat", compiled_kernel(fig2_source("sum_lat"))},
      {"combined", compiled_kernel(groupby("COUNT, ewma, outofseq"),
                                   {{"alpha", 0.25}})},
      // SUM(tout) turns +infinity at a key's first dropped packet; at
      // that key's next merge the infinite delta component must stay in
      // its column, through identity A (COUNT) and a running product
      // (EWMA) alike: a zero coefficient times infinity is NaN.
      {"count_sumtout", compiled_kernel(groupby("COUNT, SUM(tout)"))},
      {"ewma_sumtout", compiled_kernel(groupby("ewma, SUM(tout)"))},
  };
}

std::vector<MergeCase> merge_cases() {
  std::vector<MergeCase> cases;
  const std::vector<std::pair<std::string, CacheGeometry>> geometries{
      {"hash", CacheGeometry::hash_table(64)},
      {"full", CacheGeometry::fully_associative(64)},
      {"8way", CacheGeometry::set_associative(64, 8)},
  };
  const auto kernels = linear_kernels();
  for (const auto& [gname, geom] : geometries) {
    for (const auto& [kname, kernel] : kernels) {
      cases.push_back(MergeCase{kname + "_" + gname, kernel, geom});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllKernelsAllGeometries, LinearMergeTest,
                         ::testing::ValuesIn(merge_cases()),
                         [](const ::testing::TestParamInfo<MergeCase>& param) {
                           return param.param.name;
                         });

TEST(MergeEwma, PaperFormulaReproduced) {
  // §3.2 derives: s_correct = s_new + (1-alpha)^N (s_d - s_0). Verify the
  // implementation against a hand-rolled evaluation of that exact formula.
  const double alpha = 0.25;
  const auto kernel = compiled_kernel(fig2_source("ewma"), {{"alpha", alpha}});
  KeyValueStore split(CacheGeometry{1, 1}, kernel);  // 1 slot: evict per key

  const auto r1 = trace::RecordBuilder{}.flow_index(1).times(0_ns, 1000_ns).build();
  const auto r2 = trace::RecordBuilder{}.flow_index(1).times(0_ns, 3000_ns).build();
  const auto other = trace::RecordBuilder{}.flow_index(2).times(0_ns, 500_ns).build();
  const Key k1 = key_for(r1);

  split.process(k1, r1);      // s_d after this epoch: alpha*1000
  split.process(key_for(other), other);  // evicts key 1
  split.process(k1, r2);      // new epoch: s_new = alpha*3000, N = 1
  split.flush(Nanos{1});

  const double sd = alpha * 1000.0;
  const double snew = alpha * 3000.0;
  const double expected = snew + std::pow(1 - alpha, 1) * (sd - 0.0);
  const StateVector* got = split.read(k1);
  ASSERT_NE(got, nullptr);
  EXPECT_NEAR((*got)[0], expected, 1e-12);
}

TEST(MergeOutOfSeq, BoundaryPacketCorrected) {
  // The first packet of a post-eviction epoch evaluates its predicate
  // against a re-initialized lastseq; the merge must repair that using the
  // logged boundary record (footnote 4's bounded history).
  const auto kernel = compiled_kernel(fig2_source("outofseq"));
  KeyValueStore split(CacheGeometry{1, 1}, kernel);
  ReferenceStore reference(kernel);

  auto mk = [](std::uint32_t flow, std::uint32_t seq, std::uint32_t payload) {
    return trace::RecordBuilder{}
        .flow_index(flow)
        .seq(seq)
        .len(payload + 54, payload)
        .build();
  };
  // Flow 1 sends a perfectly in-order stream, interleaved with flow 2 to
  // force evictions between every packet.
  std::vector<PacketRecord> recs;
  std::uint32_t seq = 1000;
  for (int i = 0; i < 6; ++i) {
    recs.push_back(mk(1, seq, 100));
    seq += 100;
    recs.push_back(mk(2, 5000 + static_cast<std::uint32_t>(i), 50));
  }
  for (const auto& rec : recs) {
    split.process(key_for(rec), rec);
    reference.process(key_for(rec), rec);
  }
  split.flush(Nanos{1});

  const Key k1 = key_for(recs[0]);
  const StateVector* got = split.read(k1);
  const StateVector* want = reference.read(k1);
  ASSERT_NE(got, nullptr);
  ASSERT_NE(want, nullptr);
  EXPECT_DOUBLE_EQ((*got)[0], (*want)[0]) << "lastseq";
  EXPECT_DOUBLE_EQ((*got)[1], (*want)[1]) << "oos_count";
}

TEST(MergeNonLinear, SegmentsAccumulateAndInvalidate) {
  const auto kernel = compiled_kernel(fig2_source("nonmt"));
  KeyValueStore split(CacheGeometry{1, 1}, kernel);

  auto mk = [](std::uint32_t flow, std::uint32_t seq) {
    return trace::RecordBuilder{}.flow_index(flow).seq(seq).build();
  };
  const Key k1 = key_for(mk(1, 0));

  split.process(k1, mk(1, 100));
  split.process(key_for(mk(2, 0)), mk(2, 1));  // evict flow 1 (segment 1)
  split.process(k1, mk(1, 50));                // new epoch
  split.flush(Nanos{10});                      // segment 2

  EXPECT_FALSE(split.backing().valid(k1)) << "two segments => invalid";
  const auto* segs = split.backing().segments(k1);
  ASSERT_NE(segs, nullptr);
  EXPECT_EQ(segs->size(), 2u);
  const auto acc = split.backing().accuracy();
  EXPECT_EQ(acc.total_keys, 2u);
  EXPECT_EQ(acc.valid_keys, 1u);  // flow 2 was evicted only once (flush)
  EXPECT_DOUBLE_EQ(acc.accuracy(), 0.5);
}

TEST(MergeNonLinear, SingleEpochKeysStayValid) {
  const auto kernel = compiled_kernel(fig2_source("nonmt"));
  KeyValueStore split(CacheGeometry::fully_associative(16), kernel);
  const auto records = random_records(100, 8, 7);
  for (const auto& rec : records) split.process(key_for(rec), rec);
  split.flush(Nanos{1});
  EXPECT_DOUBLE_EQ(split.backing().accuracy().accuracy(), 1.0)
      << "no capacity evictions => every key valid";
}

TEST(TransformConsistency, LinearKernelsMatchTheirUpdates) {
  // Property: for every linear kernel, A·S + B == update(S) on random input.
  Rng rng(99);
  const auto records = random_records(500, 10, 3);
  for (const auto& [name, kernel] : linear_kernels()) {
    const std::size_t h = kernel->history_window();
    for (std::size_t i = h; i + 1 < records.size(); ++i) {
      StateVector state(kernel->state_dims());
      for (std::size_t d = 0; d < state.dims(); ++d) {
        state[d] = static_cast<double>(rng.below(1000));
      }
      const std::span<const PacketRecord> window{&records[i - h], h + 1};
      EXPECT_TRUE(transform_matches_update(*kernel, state, window))
          << kernel->name() << " at record " << i;
    }
  }
}

}  // namespace
}  // namespace perfq::kv

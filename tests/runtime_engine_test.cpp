// End-to-end query engine tests: every Fig. 2 example query runs through
// parse -> analyze -> compile -> key-value store -> collection layer, and the
// results are checked against independently computed ground truth.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

#include "common/error.hpp"
#include "runtime_test_util.hpp"
#include "trace/simple.hpp"

namespace perfq::runtime {
namespace {

using compiler::compile_source;

EngineConfig small_cache_config() {
  EngineConfig config;
  // Tiny cache: every query endures heavy eviction, exercising the merge.
  config.geometry = kv::CacheGeometry::set_associative(16, 4);
  return config;
}

std::vector<PacketRecord> mixed_workload(std::uint64_t count, std::uint32_t flows,
                                         std::uint64_t seed,
                                         double drop_prob = 0.05) {
  Rng rng(seed);
  std::vector<PacketRecord> out;
  std::vector<std::uint32_t> seq(flows, 1000);
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto f = static_cast<std::uint32_t>(rng.below(flows));
    const auto t = static_cast<std::int64_t>(i) * 500;
    const auto payload = static_cast<std::uint32_t>(64 + rng.below(1200));
    trace::RecordBuilder b;
    b.flow_index(f).uniq(i + 1).len(payload + 54, payload).seq(seq[f]);
    seq[f] += payload;
    b.queue(f % 4, static_cast<std::uint32_t>(rng.below(100)));
    if (rng.chance(drop_prob)) {
      b.dropped_at(Nanos{t});
    } else {
      b.times(Nanos{t}, Nanos{t + 200 + static_cast<std::int64_t>(rng.below(2000))});
    }
    out.push_back(b.build());
  }
  return out;
}

TEST(Engine, PerFlowCountersMatchGroundTruth) {
  auto engine = build_engine(
      compile_source("SELECT COUNT, SUM(pkt_len) GROUPBY srcip"), kSerial,
      small_cache_config());
  const auto records = mixed_workload(5000, 40, 1);
  std::map<std::uint32_t, std::pair<std::uint64_t, std::uint64_t>> truth;
  for (const auto& rec : records) {
    engine->process(rec);
    auto& [cnt, bytes] = truth[rec.pkt.flow.src_ip];
    ++cnt;
    bytes += rec.pkt.pkt_len;
  }
  engine->finish(Nanos{1'000'000'000});

  const ResultTable& result = engine->result();
  EXPECT_EQ(result.row_count(), truth.size());
  const std::size_t ip_col = result.column("srcip");
  const std::size_t cnt_col = result.column("COUNT");
  const std::size_t sum_col = result.column("SUM(pkt_len)");
  for (const auto& row : result.rows()) {
    const auto ip = static_cast<std::uint32_t>(row[ip_col]);
    ASSERT_TRUE(truth.count(ip) > 0);
    EXPECT_DOUBLE_EQ(row[cnt_col], static_cast<double>(truth[ip].first));
    EXPECT_DOUBLE_EQ(row[sum_col], static_cast<double>(truth[ip].second));
  }
  // Sanity: the tiny cache actually evicted.
  EXPECT_GT(engine->store_stats()[0].cache.evictions, 0u);
}

TEST(Engine, AggregatesOfAggregatesMatchGroundTruth) {
  // On the switch, a fold whose state is named like a field sits beside a
  // SUM of that field. The collection layer sums R1's COUNT and SUM columns
  // and keeps ten values per key: tables have no state-width limit.
  const std::string source =
      "def f (pkt_len, (tin)):\n"
      "    pkt_len = pkt_len + 1\n"
      "R1 = SELECT srcip, qid, f, COUNT, SUM(pkt_len) GROUPBY srcip, qid\n"
      "R2 = SELECT qid, COUNT, SUM(COUNT), SUM(SUM(pkt_len)), SUM(pkt_len), "
      "SUM(COUNT * 2), SUM(COUNT * 3), SUM(COUNT * 4), SUM(COUNT * 5), "
      "SUM(COUNT * 6), SUM(COUNT * 7) FROM R1 GROUPBY qid\n";
  auto engine =
      build_engine(compile_source(source), kSerial, small_cache_config());
  const auto records = mixed_workload(5000, 40, 3);
  struct Truth {
    std::set<std::uint32_t> flows;
    double packets = 0;
    double bytes = 0;
  };
  std::map<std::uint32_t, Truth> truth;  // by qid
  std::map<std::uint32_t, std::pair<double, double>> per_flow;  // by srcip
  for (const auto& rec : records) {
    engine->process(rec);
    Truth& t = truth[rec.qid];
    t.flows.insert(rec.pkt.flow.src_ip);
    t.packets += 1;
    t.bytes += rec.pkt.pkt_len;
    per_flow[rec.pkt.flow.src_ip].first += 1;
    per_flow[rec.pkt.flow.src_ip].second += rec.pkt.pkt_len;
  }
  engine->finish(Nanos{1'000'000'000});

  const ResultTable& r1 = engine->table("R1");
  ASSERT_EQ(r1.row_count(), per_flow.size());
  for (const auto& row : r1.rows()) {
    const auto& [packets, bytes] =
        per_flow.at(static_cast<std::uint32_t>(row[r1.column("srcip")]));
    EXPECT_EQ(row[r1.column("pkt_len")], packets);
    EXPECT_EQ(row[r1.column("COUNT")], packets);
    EXPECT_EQ(row[r1.column("SUM(pkt_len)")], bytes);
  }
  const ResultTable& r2 = engine->table("R2");
  ASSERT_EQ(r2.row_count(), truth.size());
  for (const auto& row : r2.rows()) {
    const auto qid = static_cast<std::uint32_t>(row[r2.column("qid")]);
    const Truth& t = truth.at(qid);
    EXPECT_EQ(row[r2.column("COUNT")], static_cast<double>(t.flows.size()));
    EXPECT_EQ(row[r2.column("SUM(COUNT)")], t.packets);
    EXPECT_EQ(row[r2.column("SUM(SUM(pkt_len))")], t.bytes);
    EXPECT_EQ(row[r2.column("SUM(pkt_len)")], t.packets);
    EXPECT_EQ(row[r2.column("SUM(COUNT * 7)")], 7 * t.packets);
  }
}

TEST(Engine, LatencyEwmaQueryRunsAndIsLinear) {
  auto engine = build_engine(compile_source(R"(
def ewma (lat_est, (tin, tout)):
    lat_est = (1 - alpha) * lat_est + alpha * (tout - tin)

SELECT 5tuple, ewma GROUPBY 5tuple
)",
                                            {{"alpha", 0.25}}),
                             kSerial, small_cache_config());
  // No drops: the literal fold would fold infinities into the average.
  const auto records = mixed_workload(4000, 25, 2, /*drop_prob=*/0.0);
  std::map<FiveTuple, double> truth;
  for (const auto& rec : records) {
    engine->process(rec);
    auto [it, inserted] = truth.try_emplace(rec.pkt.flow, 0.0);
    it->second = 0.75 * it->second +
                 0.25 * static_cast<double>((rec.tout - rec.tin).count());
  }
  engine->finish(Nanos{1});

  const auto stats = engine->store_stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_TRUE(kv::is_linear(stats[0].linearity));
  EXPECT_GT(stats[0].cache.evictions, 0u);

  const ResultTable& result = engine->result();
  EXPECT_EQ(result.row_count(), truth.size());
  const std::size_t srcip = result.column("srcip");
  const std::size_t lat = result.column("lat_est");
  std::size_t checked = 0;
  for (const auto& row : result.rows()) {
    for (const auto& [tuple, want] : truth) {
      if (static_cast<double>(tuple.src_ip) == row[srcip]) {
        EXPECT_NEAR(row[lat], want, 1e-6 * std::max(1.0, want));
        ++checked;
        break;
      }
    }
  }
  EXPECT_EQ(checked, truth.size());
}

TEST(Engine, WhereFiltersInput) {
  auto engine = build_engine(
      compile_source("SELECT COUNT GROUPBY srcip WHERE proto == TCP"), kSerial,
      small_cache_config());
  auto tcp = trace::RecordBuilder{}.flow_index(1).build();
  auto udp = trace::RecordBuilder{}.flow_index(2).build();
  udp.pkt.flow.proto = static_cast<std::uint8_t>(IpProto::kUdp);
  engine->process(tcp);
  engine->process(udp);
  engine->process(tcp);
  engine->finish(Nanos{1});
  EXPECT_EQ(engine->result().row_count(), 1u);
  EXPECT_DOUBLE_EQ(engine->result().rows()[0][1], 2.0);
}

TEST(Engine, PerFlowLossRateJoin) {
  // Fig. 2 "Per-flow loss rate": R2.COUNT / R1.COUNT via JOIN.
  auto engine = build_engine(compile_source(R"(
R1 = SELECT COUNT GROUPBY 5tuple
R2 = SELECT COUNT GROUPBY 5tuple WHERE tout == infinity
R3 = SELECT R2.COUNT / R1.COUNT FROM R1 JOIN R2 ON 5tuple
)"), kSerial, small_cache_config());
  const auto records = mixed_workload(6000, 30, 3, /*drop_prob=*/0.1);
  std::map<FiveTuple, std::pair<double, double>> truth;  // total, dropped
  for (const auto& rec : records) {
    engine->process(rec);
    auto& [total, dropped] = truth[rec.pkt.flow];
    total += 1.0;
    if (rec.dropped()) dropped += 1.0;
  }
  engine->finish(Nanos{1});

  const ResultTable& r3 = engine->result();
  const std::size_t srcip = r3.column("srcip");
  const std::size_t ratio = r3.column("R2.COUNT / R1.COUNT");
  std::size_t with_drops = 0;
  for (const auto& [tuple, counts] : truth) {
    if (counts.second > 0) ++with_drops;
  }
  EXPECT_EQ(r3.row_count(), with_drops) << "join is inner: drop-free flows absent";
  for (const auto& row : r3.rows()) {
    bool found = false;
    for (const auto& [tuple, counts] : truth) {
      if (static_cast<double>(tuple.src_ip) == row[srcip]) {
        EXPECT_NEAR(row[ratio], counts.second / counts.first, 1e-12);
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found);
  }
}

TEST(Engine, HighLatencyFlowsComposition) {
  // Fig. 2 "Per-flow high latency packets": GROUPBY pkt_uniq on the switch,
  // then GROUPBY 5tuple over the result in the collection layer.
  auto engine = build_engine(compile_source(R"(
def sum_lat (lat, (tin, tout)): lat = lat + tout - tin

R1 = SELECT pkt_uniq, sum_lat GROUPBY pkt_uniq
R2 = SELECT 5tuple FROM R1 GROUPBY 5tuple WHERE lat > 1500
)"), kSerial, small_cache_config());
  const auto records = mixed_workload(3000, 20, 4, /*drop_prob=*/0.0);
  std::map<FiveTuple, double> truth;  // # high-latency packets per flow
  for (const auto& rec : records) {
    engine->process(rec);
    if (static_cast<double>((rec.tout - rec.tin).count()) > 1500.0) {
      truth[rec.pkt.flow] += 1.0;
    }
  }
  engine->finish(Nanos{1});

  const ResultTable& r2 = engine->result();
  EXPECT_EQ(r2.row_count(), truth.size());
  const std::size_t srcip = r2.column("srcip");
  const std::size_t count = r2.column("COUNT");
  for (const auto& row : r2.rows()) {
    bool found = false;
    for (const auto& [tuple, want] : truth) {
      if (static_cast<double>(tuple.src_ip) == row[srcip]) {
        EXPECT_DOUBLE_EQ(row[count], want);
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found);
  }
}

TEST(Engine, HighPercentileQueueQuery) {
  // Fig. 2 "High 99th percentile queue size".
  auto engine = build_engine(compile_source(R"(
def perc ((tot, high), qin):
    if qin > K: high = high + 1
    tot = tot + 1

R1 = SELECT qid, perc GROUPBY qid
R2 = SELECT * FROM R1 WHERE perc.high / perc.tot > 0.2
)",
                                            {{"K", 80.0}}),
                             kSerial, small_cache_config());
  const auto records = mixed_workload(4000, 16, 5);
  std::map<std::uint32_t, std::pair<double, double>> truth;  // qid -> tot, high
  for (const auto& rec : records) {
    engine->process(rec);
    auto& [tot, high] = truth[rec.qid];
    tot += 1.0;
    if (rec.qsize > 80) high += 1.0;
  }
  engine->finish(Nanos{1});

  std::size_t expected = 0;
  for (const auto& [qid, th] : truth) {
    if (th.second / th.first > 0.2) ++expected;
  }
  EXPECT_EQ(engine->result().row_count(), expected);
}

TEST(Engine, StreamSelectSinkCollectsMatches) {
  auto engine = build_engine(
      compile_source("SELECT srcip, qid FROM T WHERE tout - tin > 1000"),
      kSerial, small_cache_config());
  std::uint64_t expected = 0;
  const auto records = mixed_workload(2000, 10, 6, 0.0);
  for (const auto& rec : records) {
    engine->process(rec);
    if ((rec.tout - rec.tin).count() > 1000) ++expected;
  }
  engine->finish(Nanos{1});
  EXPECT_EQ(engine->result().row_count(), expected);
  EXPECT_EQ(engine->result().schema().size(), 2u);
}

TEST(Engine, NonLinearQueryTracksAccuracy) {
  auto engine = build_engine(compile_source(R"(
def nonmt ((maxseq, nm_count), (tcpseq)):
    if maxseq > tcpseq: nm_count = nm_count + 1
    maxseq = max(maxseq, tcpseq)

SELECT 5tuple, nonmt GROUPBY 5tuple WHERE proto == TCP
)"), kSerial, [] {
                       EngineConfig c;
                       c.geometry = kv::CacheGeometry::set_associative(16, 4);
                       return c;
                     }());
  // Phase 1: ten flows that never return after phase 2 begins -> they are
  // evicted exactly once and stay valid. Phase 2: 96 churning flows over a
  // 64-slot cache -> mostly invalid. Accuracy must land strictly in (0, 1).
  for (const auto& rec : trace::round_robin_records(100, 10)) {
    engine->process(rec);
  }
  Rng rng(7);
  std::vector<std::uint32_t> seq(96, 1000);
  for (std::uint64_t i = 0; i < 5000; ++i) {
    const auto f = static_cast<std::uint32_t>(rng.below(96));
    auto rec = trace::RecordBuilder{}
                   .flow_index(1000 + f)
                   .seq(seq[f])
                   .times(Nanos{static_cast<std::int64_t>(i) * 100},
                          Nanos{static_cast<std::int64_t>(i) * 100 + 50})
                   .build();
    seq[f] += rec.pkt.payload_len;
    engine->process(rec);
  }
  engine->finish(Nanos{1});

  const auto stats = engine->store_stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].linearity, kv::Linearity::kNotLinear);
  EXPECT_GT(stats[0].cache.evictions, 0u);
  EXPECT_LT(stats[0].accuracy.accuracy(), 1.0)
      << "with heavy eviction some keys must be invalid";
  EXPECT_GT(stats[0].accuracy.accuracy(), 0.0);
}

TEST(Engine, OutOfSeqEndToEndMatchesGroundTruth) {
  auto engine = build_engine(compile_source(R"(
def outofseq ((lastseq, oos_count), (tcpseq, payload_len)):
    if lastseq + 1 != tcpseq: oos_count = oos_count + 1
    lastseq = tcpseq + payload_len

SELECT 5tuple, outofseq GROUPBY 5tuple WHERE proto == TCP
)"), kSerial, small_cache_config());
  const auto records = mixed_workload(4000, 24, 8, 0.0);
  std::map<FiveTuple, std::pair<double, double>> truth;  // lastseq, count
  for (const auto& rec : records) {
    engine->process(rec);
    auto [it, inserted] = truth.try_emplace(rec.pkt.flow, 0.0, 0.0);
    auto& [lastseq, oos] = it->second;
    if (lastseq + 1.0 != static_cast<double>(rec.pkt.tcp_seq)) oos += 1.0;
    lastseq = static_cast<double>(rec.pkt.tcp_seq) +
              static_cast<double>(rec.pkt.payload_len);
  }
  engine->finish(Nanos{1});

  const auto stats = engine->store_stats();
  EXPECT_GT(stats[0].cache.evictions, 100u) << "must stress the h=1 merge";

  const ResultTable& result = engine->result();
  EXPECT_EQ(result.row_count(), truth.size());
  const std::size_t srcip = result.column("srcip");
  const std::size_t oos_col = result.column("oos_count");
  for (const auto& row : result.rows()) {
    for (const auto& [tuple, want] : truth) {
      if (static_cast<double>(tuple.src_ip) == row[srcip]) {
        EXPECT_DOUBLE_EQ(row[oos_col], want.second);
        break;
      }
    }
  }
}

TEST(Engine, NamedIntermediateTablesAccessible) {
  auto engine = build_engine(compile_source(R"(
R1 = SELECT COUNT GROUPBY srcip
R2 = SELECT srcip, COUNT FROM R1 WHERE COUNT > 2
)"), kSerial, small_cache_config());
  for (const auto& rec : mixed_workload(100, 5, 9)) engine->process(rec);
  engine->finish(Nanos{1});
  EXPECT_GE(engine->table("R1").row_count(), engine->table("R2").row_count());
  EXPECT_THROW((void)engine->table("R9"), QueryError);
}

TEST(Engine, BatchProcessingMatchesScalarExactly) {
  // process_batch (up-front key extraction + bucket prefetch) must be
  // observationally identical to per-record process(): same result tables,
  // same cache statistics, same refresh count.
  const char* source = R"(
def ewma (lat_est, (tin, tout)):
    lat_est = (1 - alpha) * lat_est + alpha * (tout - tin)

R1 = SELECT 5tuple, ewma GROUPBY 5tuple
R2 = SELECT srcip, qid FROM T WHERE tout - tin > 1000
)";
  const auto records = mixed_workload(5000, 40, 21);

  EngineConfig config = small_cache_config();
  config.refresh_interval = Nanos{200'000};  // exercise mid-batch refreshes

  auto scalar = build_engine(
      compile_source(source, {{"alpha", 0.125}}), kSerial, config);
  for (const auto& rec : records) scalar->process(rec);
  scalar->finish(Nanos{1'000'000'000});

  auto batched = build_engine(
      compile_source(source, {{"alpha", 0.125}}), kSerial, config);
  batched->process_batch(records);
  batched->finish(Nanos{1'000'000'000});

  EXPECT_EQ(batched->records_processed(), scalar->records_processed());
  EXPECT_EQ(batched->refresh_count(), scalar->refresh_count());
  const auto ss = scalar->store_stats();
  const auto bs = batched->store_stats();
  ASSERT_EQ(ss.size(), bs.size());
  for (std::size_t i = 0; i < ss.size(); ++i) {
    EXPECT_EQ(bs[i].cache.packets, ss[i].cache.packets);
    EXPECT_EQ(bs[i].cache.hits, ss[i].cache.hits);
    EXPECT_EQ(bs[i].cache.evictions, ss[i].cache.evictions);
    EXPECT_EQ(bs[i].backing_writes, ss[i].backing_writes);
  }
  for (const char* table : {"R1", "R2"}) {
    const ResultTable& st = scalar->table(table);
    const ResultTable& bt = batched->table(table);
    ASSERT_EQ(bt.row_count(), st.row_count()) << table;
    for (std::size_t r = 0; r < st.row_count(); ++r) {
      const auto& srow = st.rows()[r];
      const auto& brow = bt.rows()[r];
      ASSERT_EQ(brow.size(), srow.size());
      for (std::size_t c = 0; c < srow.size(); ++c) {
        EXPECT_EQ(brow[c], srow[c]) << table << " row " << r << " col " << c;
      }
    }
  }
}

TEST(Engine, ApiMisuseThrows) {
  auto engine = build_engine(
      compile_source("SELECT COUNT GROUPBY srcip"), kSerial);
  EXPECT_THROW((void)engine->result(), Error);  // before finish
  engine->finish(Nanos{1});
  EXPECT_THROW(engine->process(trace::RecordBuilder{}.build()), Error);
}

TEST(Engine, ComputedKeyGroupByMatchesGroundTruth) {
  // A computed-key GROUPBY (expression component alongside a plain field)
  // must take the expression-tree extraction path — a mixed plan's key is
  // not plain — and still produce exactly the grouping the expression
  // defines.
  auto engine = build_engine(
      compile_source("SELECT COUNT GROUPBY srcip, pkt_len / 256"), kSerial,
      small_cache_config());
  EXPECT_FALSE(engine->program().switch_plans.at(0).key_layout.plain);
  const auto records = mixed_workload(5000, 40, 7);
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> truth;
  for (const auto& rec : records) {
    engine->process(rec);
    // Same truncation as extract_key: the expression value as an unsigned
    // integer (pkt_len / 256 is nonnegative, so plain truncation).
    const auto bucket = static_cast<std::uint64_t>(
        static_cast<double>(rec.pkt.pkt_len) / 256.0);
    ++truth[{rec.pkt.flow.src_ip, bucket}];
  }
  engine->finish(Nanos{1'000'000'000});

  const ResultTable& result = engine->result();
  ASSERT_EQ(result.row_count(), truth.size());
  const std::size_t ip_col = result.column("srcip");
  const std::size_t bucket_col = result.column("pkt_len / 256");
  const std::size_t cnt_col = result.column("COUNT");
  for (const auto& row : result.rows()) {
    const auto key = std::make_pair(
        static_cast<std::uint64_t>(row[ip_col]),
        static_cast<std::uint64_t>(row[bucket_col]));
    ASSERT_TRUE(truth.count(key) > 0)
        << "unexpected group (" << key.first << ", " << key.second << ")";
    EXPECT_EQ(static_cast<std::uint64_t>(row[cnt_col]), truth[key]);
  }
}

TEST(Engine, FinishTwiceAndProcessAfterFinishThrowCleanly) {
  const auto records = mixed_workload(200, 10, 33);
  auto engine = build_engine(
      compile_source("SELECT COUNT GROUPBY srcip"), kSerial);
  engine->process_batch(records);
  engine->finish(Nanos{1'000'000'000});
  EXPECT_NO_THROW((void)engine->result());
  EXPECT_THROW(engine->finish(Nanos{2'000'000'000}), Error);
  EXPECT_THROW(engine->process(records[0]), Error);
  EXPECT_THROW(engine->process_batch(records), Error);
  // The failed calls must not have corrupted the finished state.
  EXPECT_NO_THROW((void)engine->result());
  EXPECT_EQ(engine->records_processed(), 200u);
}

}  // namespace
}  // namespace perfq::runtime

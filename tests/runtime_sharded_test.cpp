// Shard equivalence: the threaded executor must reproduce the inline one
// exactly.
//
// The strong property (and why it holds): shard s's cache is precisely the
// bucket slice [s·n/N, (s+1)·n/N) of the configured n-bucket cache — same
// bucket contents, same LRU order, same capacity evictions, same in-band
// flush times — so for linear kernels the per-key epoch sequence absorbed by
// the backing store is identical and the exact merge gives BIT-IDENTICAL
// results (exact double equality, no tolerance), and for non-linear kernels
// the per-key value-segment sets and AccuracyStats are identical too.
#include <gtest/gtest.h>

#include <map>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "fig2_corpus.hpp"
#include "runtime_test_util.hpp"
#include "trace/flow_session.hpp"

namespace perfq::runtime {
namespace {

std::vector<PacketRecord> workload() { return test_workload(); }

/// Small cache (8 buckets x 8 ways) so capacity evictions and merges are
/// exercised heavily; 8 buckets divide evenly into 1, 2 and 8 shards.
EngineConfig engine_config(Nanos refresh) {
  EngineConfig config;
  config.geometry = kv::CacheGeometry::set_associative(64, 8);
  config.refresh_interval = refresh;
  return config;
}

/// The inline reference engine.
std::unique_ptr<Engine> build_single(compiler::CompiledProgram program,
                                     Nanos refresh) {
  return build_engine(std::move(program), kSerial, engine_config(refresh));
}

/// A threaded engine with small rings, so back-pressure is exercised.
std::unique_ptr<Engine> build_sharded(compiler::CompiledProgram program,
                                      std::size_t shards, Nanos refresh) {
  return build_engine(
      std::move(program), Topology{"threaded", shards}, engine_config(refresh),
      [](EngineBuilder& b) { b.ring_capacity(512).dispatch_batch(64); });
}

/// Feed `records` in `batch`-sized process_batch() calls.
void feed(Engine& engine, std::span<const PacketRecord> records,
          std::size_t batch) {
  for (std::size_t base = 0; base < records.size(); base += batch) {
    engine.process_batch(
        records.subspan(base, std::min(batch, records.size() - base)));
  }
}

void run_equivalence(const Fig2Query& entry, std::size_t shards,
                     Nanos refresh) {
  const std::string context = std::string(entry.name) + " shards=" +
                              std::to_string(shards) +
                              " refresh=" + std::to_string(refresh.count());
  const auto records = workload();

  auto single = build_single(
      compiler::compile_source(entry.source, kFig2Params), refresh);
  single->process_batch(records);
  single->finish(12_s);

  auto sharded = build_sharded(
      compiler::compile_source(entry.source, kFig2Params), shards, refresh);
  feed(*sharded, records, /*batch=*/777);
  sharded->finish(12_s);

  EXPECT_EQ(sharded->records_processed(), single->records_processed());
  EXPECT_EQ(sharded->refresh_count(), single->refresh_count()) << context;
  expect_tables_bit_identical(single->result(), sharded->result(), context);

  // Aggregated cache/backing counters must match the single engine's.
  const auto ss = single->store_stats();
  const auto hs = sharded->store_stats();
  ASSERT_EQ(hs.size(), ss.size());
  for (std::size_t i = 0; i < ss.size(); ++i) {
    EXPECT_EQ(hs[i].cache.packets, ss[i].cache.packets) << context;
    EXPECT_EQ(hs[i].cache.hits, ss[i].cache.hits) << context;
    EXPECT_EQ(hs[i].cache.initializations, ss[i].cache.initializations)
        << context;
    EXPECT_EQ(hs[i].cache.evictions, ss[i].cache.evictions) << context;
    EXPECT_EQ(hs[i].cache.flushes, ss[i].cache.flushes) << context;
    EXPECT_EQ(hs[i].backing_writes, ss[i].backing_writes) << context;
    EXPECT_EQ(hs[i].backing_capacity_writes, ss[i].backing_capacity_writes)
        << context;
    EXPECT_EQ(hs[i].backing_packets, ss[i].backing_packets) << context;
    EXPECT_EQ(hs[i].keys, ss[i].keys) << context;
    EXPECT_EQ(hs[i].accuracy.total_keys, ss[i].accuracy.total_keys) << context;
    EXPECT_EQ(hs[i].accuracy.valid_keys, ss[i].accuracy.valid_keys) << context;
  }

  // Non-linear kernels: the per-key value-segment sets must be identical
  // (same epoch boundaries, same per-epoch values, same validity). After
  // finish() export_store() reads each final backing store directly.
  if (!entry.linear) {
    const std::string& name = single->program().switch_plans.at(0).name;
    const kv::StoreExport want = single->export_store(name, 12_s);
    const kv::StoreExport got = sharded->export_store(name, 12_s);
    ASSERT_EQ(got.entries.size(), want.entries.size()) << context;
    std::unordered_map<kv::Key, const kv::ExportedEntry*> got_by_key;
    for (const kv::ExportedEntry& e : got.entries) got_by_key[e.key] = &e;
    for (const kv::ExportedEntry& w : want.entries) {
      const auto it = got_by_key.find(w.key);
      ASSERT_NE(it, got_by_key.end()) << context;
      const kv::ExportedEntry& g = *it->second;
      ASSERT_EQ(g.segments.size(), w.segments.size()) << context;
      for (std::size_t s = 0; s < w.segments.size(); ++s) {
        EXPECT_EQ(g.segments[s].start, w.segments[s].start) << context;
        EXPECT_EQ(g.segments[s].end, w.segments[s].end) << context;
        EXPECT_EQ(g.segments[s].packets, w.segments[s].packets) << context;
        EXPECT_TRUE(g.segments[s].value == w.segments[s].value) << context;
      }
      EXPECT_EQ(g.valid, w.valid) << context;
    }
    EXPECT_GT(want.entries.size(), 0u) << context;
  }
}

TEST(ShardedEngine, Fig2CorpusBitIdenticalAcrossShardCounts) {
  for (const auto& entry : kFig2Corpus) {
    for (const std::size_t shards : {1u, 2u, 8u}) {
      run_equivalence(entry, shards, /*refresh=*/0_s);
    }
  }
}

TEST(ShardedEngine, Fig2CorpusBitIdenticalWithPeriodicRefresh) {
  for (const auto& entry : kFig2Corpus) {
    for (const std::size_t shards : {2u, 8u}) {
      run_equivalence(entry, shards, /*refresh=*/1_s);
    }
  }
  // Aggressive refresh — many in-band flushes interleaved with records — on
  // the counter, a representative linear kernel and the non-linear one.
  run_equivalence(kFig2Corpus[0], 8, /*refresh=*/100_ms);
  run_equivalence(kFig2Corpus[2], 8, /*refresh=*/100_ms);
  run_equivalence(kFig2Corpus[4], 8, /*refresh=*/100_ms);
}

TEST(ShardedEngine, MultiQueryProgramWithJoinAndStreamSink) {
  // Programs with several switch queries route each record per query key —
  // collection-layer JOINs and stream sinks must still match exactly.
  const char* source = R"(
R1 = SELECT COUNT GROUPBY 5tuple
R2 = SELECT COUNT GROUPBY 5tuple WHERE tout == infinity
R3 = SELECT R2.COUNT / R1.COUNT FROM R1 JOIN R2 ON 5tuple
)";
  const auto records = workload();
  auto single = build_single(compiler::compile_source(source), 0_s);
  single->process_batch(records);
  single->finish(12_s);

  auto sharded = build_sharded(compiler::compile_source(source), 4, 0_s);
  sharded->process_batch(records);
  sharded->finish(12_s);

  for (const char* table : {"R1", "R2", "R3"}) {
    expect_tables_bit_identical(single->table(table), sharded->table(table),
                                table);
  }
}

TEST(ShardedEngine, SmallAndRaggedBatches) {
  // Batches far smaller than the dispatch batch leave most rings without a
  // message; every record must still fold, in order, on its shard.
  const auto records = workload();
  auto single = build_single(
      compiler::compile_source(kFig2Corpus[0].source, kFig2Params), 0_s);
  single->process_batch(records);
  single->finish(12_s);

  auto sharded = build_sharded(
      compiler::compile_source(kFig2Corpus[0].source, kFig2Params), 2, 0_s);
  // Ragged delivery: 1-record batches, then 3, then one big tail.
  std::span<const PacketRecord> span(records);
  for (std::size_t i = 0; i < 10 && i < span.size(); ++i) {
    sharded->process_batch(span.subspan(i, 1));
  }
  std::size_t base = std::min<std::size_t>(10, span.size());
  while (base + 3 < span.size() && base < 40) {
    sharded->process_batch(span.subspan(base, 3));
    base += 3;
  }
  sharded->process_batch(span.subspan(base));
  sharded->finish(12_s);

  expect_tables_bit_identical(single->result(), sharded->result(),
                              "ragged batches");
}

TEST(ShardedEngine, RejectsGeometryNotDivisibleByShards) {
  const auto count_by_srcip = [] {
    return compiler::compile_source("SELECT COUNT GROUPBY srcip");
  };
  EXPECT_THROW(EngineBuilder(count_by_srcip())
                   .geometry(kv::CacheGeometry::fully_associative(64))  // n = 1
                   .sharded(2)
                   .build(),
               ConfigError);
}

TEST(ShardedEngine, RejectsZeroShards) {
  EXPECT_THROW(
      EngineBuilder(compiler::compile_source("SELECT COUNT GROUPBY srcip"))
          .sharded(0)
          .build(),
      ConfigError);
}

TEST(ShardedEngine, FinishTwiceAndProcessAfterFinishThrowCleanly) {
  const auto records = workload();
  auto engine = build_sharded(
      compiler::compile_source("SELECT COUNT GROUPBY srcip"), 2, 0_s);
  engine->process_batch(std::span<const PacketRecord>(records).first(100));
  engine->finish(12_s);
  EXPECT_NO_THROW((void)engine->result());
  EXPECT_THROW(engine->finish(12_s), Error);
  EXPECT_THROW(engine->process(records[0]), Error);
  EXPECT_THROW(engine->process_batch(std::span<const PacketRecord>(records)),
               Error);
  // The failed calls must not have corrupted the finished state.
  EXPECT_NO_THROW((void)engine->result());
  EXPECT_EQ(engine->records_processed(), 100u);
}

TEST(ShardedEngine, ComputedKeyProgramMatchesSingleEngine) {
  // Computed-key GROUPBYs take the expression-tree path of the one packer:
  // the caller extracts the key just for its hash and the worker
  // re-extracts it on its own core. Results must still be bit-identical.
  const char* source = "SELECT COUNT GROUPBY srcip, pkt_len / 256";
  const auto records = workload();
  auto single = build_single(compiler::compile_source(source), 0_s);
  single->process_batch(records);
  single->finish(12_s);

  auto sharded = build_sharded(compiler::compile_source(source), 8, 0_s);
  feed(*sharded, records, /*batch=*/777);
  sharded->finish(12_s);

  EXPECT_FALSE(sharded->program().switch_plans.at(0).key_layout.plain);
  expect_tables_bit_identical(single->result(), sharded->result(),
                              "computed key");
}

// ---- key classes -----------------------------------------------------------

constexpr const char* kNonMtDef = R"(def nonmt ((maxseq, nm_count), (tcpseq)):
    if maxseq > tcpseq: nm_count = nm_count + 1
    maxseq = max(maxseq, tcpseq)
)";

/// One on-switch GROUPBY per entry, keyed so the program forms five key
/// classes: the 5-tuple (three queries, NONE admitting no record), the
/// computed key pkt_len / 256 (two), srcip (one), and dstip (33 queries, one
/// more than a class holds, so it splits 32 + 1).
std::vector<std::pair<std::string, std::string>> key_class_queries() {
  std::vector<std::pair<std::string, std::string>> queries = {
      {"TCP", "SELECT 5tuple, COUNT GROUPBY 5tuple WHERE proto == TCP"},
      {"NMT", "SELECT 5tuple, nonmt GROUPBY 5tuple WHERE tout != infinity"},
      {"NONE", "SELECT 5tuple, COUNT GROUPBY 5tuple WHERE pkt_len > 100000"},
      {"LEN", "SELECT COUNT GROUPBY pkt_len / 256"},
      {"LENSUM", "SELECT SUM(tin) GROUPBY pkt_len / 256 WHERE qsize > 2"},
      {"SRC", "SELECT srcip, COUNT GROUPBY srcip"}};
  for (int i = 0; i < 33; ++i) {
    queries.emplace_back("W" + std::to_string(i),
                         "SELECT dstip, COUNT, SUM(pkt_len) GROUPBY dstip "
                         "WHERE pkt_len > " + std::to_string(40 * i));
  }
  return queries;
}

std::string key_class_source(
    const std::vector<std::pair<std::string, std::string>>& queries) {
  std::string source = kNonMtDef;
  for (const auto& [name, query] : queries) {
    source += name + " = " + query + "\n";
  }
  return source;
}

TEST(ShardedEngine, KeyClassesMatchEachQueryRunAlone) {
  const auto records = workload();
  const auto queries = key_class_queries();
  const std::string source = key_class_source(queries);
  // Ring messages the caller must push: one per record and class with an
  // admitting member (NONE admits nothing; W0 admits every record).
  std::uint64_t messages = 0;
  for (const PacketRecord& rec : records) {
    const bool five_tuple = rec.pkt.flow.proto ==
                                static_cast<std::uint8_t>(IpProto::kTcp) ||
                            !rec.dropped();
    messages += (five_tuple ? 1 : 0) + 3 + (rec.pkt.pkt_len > 1280 ? 1 : 0);
  }

  for (const Nanos refresh : {0_s, 100_ms}) {
    // The oracle: every query alone in its own serial engine.
    std::vector<ResultTable> alone;
    for (const auto& [name, query] : queries) {
      auto engine = build_single(
          compiler::compile_source(std::string{kNonMtDef} + name + " = " +
                                   query + "\n"),
          refresh);
      engine->process_batch(records);
      engine->finish(12_s);
      alone.push_back(engine->table(name));
    }
    struct Run {
      std::size_t shards;
      std::size_t batch;
    };
    for (const Run run : {Run{0, 777}, Run{1, 777}, Run{2, 777}, Run{4, 777},
                          Run{0, 1}, Run{2, 1}}) {
      const std::string context =
          "shards=" + std::to_string(run.shards) +
          " batch=" + std::to_string(run.batch) +
          " refresh=" + std::to_string(refresh.count());
      auto engine =
          run.shards == 0
              ? build_single(compiler::compile_source(source), refresh)
              : build_sharded(compiler::compile_source(source), run.shards,
                              refresh);
      feed(*engine, records, run.batch);
      engine->finish(12_s);
      for (std::size_t q = 0; q < queries.size(); ++q) {
        expect_tables_bit_identical(alone[q],
                                    engine->table(queries[q].first),
                                    context + " " + queries[q].first);
      }
      EXPECT_EQ(engine->table("NONE").row_count(), 0u) << context;
      std::uint64_t pushed = 0;
      for (const RingMetrics& r : engine->metrics().rings) pushed += r.records;
      EXPECT_EQ(pushed, run.shards > 0 ? messages : 0u) << context;
    }
  }
}

}  // namespace
}  // namespace perfq::runtime

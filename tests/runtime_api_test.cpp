// The one engine surface: EngineBuilder (the only construction path, for
// both executors), runtime::Engine, and the pluggable StreamSink layer
// (which SELECTs get a sink, capped table sink overflow, callback batch
// boundaries, ring sink, and sink equivalence across both executors over the
// Fig. 2 fold corpus).
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "runtime/engine_builder.hpp"
#include "runtime_test_util.hpp"
#include "trace/flow_session.hpp"

namespace perfq::runtime {
namespace {

std::vector<PacketRecord> workload() {
  return test_workload(/*seed=*/321, /*num_flows=*/200,
                       /*mean_flow_pkts=*/20.0, /*duration=*/5_s);
}

/// Small geometry so evictions happen; 64 buckets divide into 1/2/4/8 shards.
kv::CacheGeometry small_geometry() {
  return kv::CacheGeometry::set_associative(64, 8);
}

// ---- builder ----------------------------------------------------------------

TEST(EngineBuilder, BuildsSerialEngineByDefaultAndShardedOnRequest) {
  auto serial = EngineBuilder(compiler::compile_source("SELECT COUNT GROUPBY srcip"))
                    .geometry(small_geometry())
                    .build();
  const EngineMetrics inline_metrics = serial->metrics();
  EXPECT_EQ(inline_metrics.engine, "serial");
  EXPECT_TRUE(inline_metrics.shards.empty());
  EXPECT_TRUE(inline_metrics.rings.empty());

  auto sharded = EngineBuilder(compiler::compile_source("SELECT COUNT GROUPBY srcip"))
                     .geometry(small_geometry())
                     .sharded(4)
                     .build();
  const EngineMetrics threaded_metrics = sharded->metrics();
  EXPECT_EQ(threaded_metrics.engine, "sharded");
  EXPECT_EQ(threaded_metrics.shards.size(), 4u);
  EXPECT_EQ(threaded_metrics.rings.size(), 4u);  // one ring per shard
  // Tear the sharded pipeline down cleanly without a finish().
}

TEST(EngineBuilder, SerialAndShardedAgreeThroughTheInterface) {
  const auto records = workload();
  const char* source = R"(
def ewma (lat_est, (tin, tout)):
    lat_est = (1 - alpha) * lat_est + alpha * (tout - tin)

R1 = SELECT 5tuple, COUNT, ewma GROUPBY 5tuple
)";
  const std::map<std::string, double> params{{"alpha", 0.125}};

  std::vector<std::unique_ptr<Engine>> engines;
  engines.push_back(EngineBuilder(compiler::compile_source(source, params))
                        .geometry(small_geometry())
                        .build());
  engines.push_back(EngineBuilder(compiler::compile_source(source, params))
                        .geometry(small_geometry())
                        .sharded(4)
                        .build());
  engines.push_back(EngineBuilder(compiler::compile_source(source, params))
                        .geometry(small_geometry())
                        .sharded(2)
                        .build());
  for (auto& engine : engines) {
    engine->process_batch(records);
    engine->finish(6_s);
    EXPECT_EQ(engine->records_processed(), records.size());
  }
  for (std::size_t i = 1; i < engines.size(); ++i) {
    expect_tables_bit_identical(engines[0]->result(), engines[i]->result(),
                                "engine " + std::to_string(i));
  }
}

TEST(EngineBuilder, KnobsReachTheEngine) {
  const auto records = workload();
  auto engine =
      EngineBuilder(compiler::compile_source("R1 = SELECT COUNT GROUPBY srcip"))
          .geometry(kv::CacheGeometry::set_associative(16, 2))
          .refresh(500_ms)
          .build();
  engine->process_batch(records);
  EXPECT_GT(engine->refresh_count(), 0u);
  engine->finish(6_s);
  const auto stats = engine->store_stats();
  ASSERT_EQ(stats.size(), 1u);
  // The 32-slot geometry must thrash (200 flows), proving it replaced the
  // 2^19-slot default.
  EXPECT_GT(stats[0].cache.evictions, 0u);
}

TEST(EngineBuilder, RejectsShardedKnobsWithoutSharded) {
  const auto build_with = [](auto&& apply) {
    EngineBuilder builder(compiler::compile_source("SELECT COUNT GROUPBY srcip"));
    apply(builder);
    return builder.build();
  };
  EXPECT_THROW(build_with([](EngineBuilder& b) { b.ring_capacity(64); }),
               ConfigError);
  EXPECT_THROW(build_with([](EngineBuilder& b) { b.dispatch_batch(8); }),
               ConfigError);
  // And the engine-level validation still fires through the builder.
  EXPECT_THROW(
      build_with([](EngineBuilder& b) { b.sharded(2).dispatch_batch(0); }),
      ConfigError);
}

TEST(EngineBuilder, BuildTwiceThrows) {
  EngineBuilder builder(compiler::compile_source("SELECT COUNT GROUPBY srcip"));
  auto engine = builder.build();
  ASSERT_NE(engine, nullptr);
  EXPECT_THROW((void)builder.build(), ConfigError);
}

TEST(EngineBuilder, RejectsUnknownStreamSinkNames) {
  // No stream query named S in the program.
  EXPECT_THROW((void)EngineBuilder(
                   compiler::compile_source("SELECT COUNT GROUPBY srcip"))
                   .stream_sink("S", std::make_shared<TableStreamSink>())
                   .build(),
               ConfigError);
  // A GROUPBY name is not a stream SELECT either.
  EXPECT_THROW((void)EngineBuilder(compiler::compile_source(
                   "R1 = SELECT COUNT GROUPBY srcip"))
                   .stream_sink("R1", std::make_shared<TableStreamSink>())
                   .build(),
               ConfigError);
  // Same validation on the sharded path.
  EXPECT_THROW((void)EngineBuilder(compiler::compile_source(
                   "SELECT COUNT GROUPBY srcip"))
                   .sharded(2)
                   .stream_sink("S", std::make_shared<TableStreamSink>())
                   .build(),
               ConfigError);
}

// ---- stream sinks -----------------------------------------------------------

/// A program with one stream SELECT (named S) and one GROUPBY (named R1, the
/// primary result), sharing the Fig. 2 fold definitions.
struct SinkCase {
  const char* name;
  const char* source;
};
const SinkCase kSinkCorpus[] = {
    {"counter", R"(
def counter (cnt, (pkt_len)):
    cnt = cnt + 1

S = SELECT srcip, pkt_len FROM T WHERE pkt_len > 300
R1 = SELECT 5tuple, counter GROUPBY 5tuple
)"},
    {"ewma", R"(
def ewma (lat_est, (tin, tout)):
    lat_est = (1 - alpha) * lat_est + alpha * (tout - tin)

S = SELECT srcip, dstip, tout - tin FROM T WHERE tout != infinity
R1 = SELECT 5tuple, ewma GROUPBY 5tuple
)"},
    {"outofseq", R"(
def outofseq ((lastseq, oos_count), (tcpseq, payload_len)):
    if lastseq + 1 != tcpseq: oos_count = oos_count + 1
    lastseq = tcpseq + payload_len

S = SELECT srcip, tcpseq FROM T WHERE proto == TCP
R1 = SELECT 5tuple, outofseq GROUPBY 5tuple
)"},
    {"nonmt", R"(
def nonmt ((maxseq, nm_count), (tcpseq)):
    if maxseq > tcpseq: nm_count = nm_count + 1
    maxseq = max(maxseq, tcpseq)

S = SELECT qid, qin FROM T WHERE qin > 3
R1 = SELECT 5tuple, nonmt GROUPBY 5tuple
)"},
};
const std::map<std::string, double> kSinkParams{{"alpha", 0.125}};

std::unique_ptr<Engine> build_case(const SinkCase& entry, bool sharded,
                                   std::shared_ptr<StreamSink> sink) {
  EngineBuilder builder(compiler::compile_source(entry.source, kSinkParams));
  builder.geometry(small_geometry());
  if (sink != nullptr) builder.stream_sink("S", std::move(sink));
  if (sharded) builder.sharded(4);
  return builder.build();
}

TEST(StreamSinks, UserTableSinkReportsOverflow) {
  const auto records = workload();
  for (const bool sharded : {false, true}) {
    // Uncapped default sink first: the full row stream.
    auto full = build_case(kSinkCorpus[0], sharded, nullptr);
    full->process_batch(records);
    full->finish(6_s);
    const ResultTable& all_rows = full->table("S");
    ASSERT_GT(all_rows.row_count(), 32u) << "workload too small to overflow";

    auto sink = std::make_shared<TableStreamSink>(/*max_rows=*/32);
    auto engine = build_case(kSinkCorpus[0], sharded, sink);
    engine->process_batch(records);
    engine->finish(6_s);
    EXPECT_TRUE(sink->saturated());
    EXPECT_EQ(sink->rows_dropped(), all_rows.row_count() - 32);
    // The capped table is exactly the stream's first 32 rows.
    ASSERT_EQ(sink->table().row_count(), 32u);
    for (std::size_t r = 0; r < 32; ++r) {
      EXPECT_EQ(sink->table().rows()[r], all_rows.rows()[r]) << "row " << r;
    }
    // A table-buffering user sink is materialized like the default one.
    expect_tables_bit_identical(sink->table(), engine->table("S"),
                                "user table sink");
  }
}

TEST(StreamSinks, OnlyUnconsumedSelectsGetASink) {
  // A feeds the GROUPBY and B feeds C: neither streams. C and D do, and
  // each gets exactly one sink on either executor.
  const char* source = R"(
A = SELECT srcip, pkt_len FROM T WHERE pkt_len > 100
R1 = SELECT srcip, COUNT FROM A GROUPBY srcip
B = SELECT srcip, dstip, qid FROM T WHERE qid == 1
C = SELECT srcip FROM B WHERE dstip > 0
D = SELECT dstip, pkt_len FROM T WHERE pkt_len > 1000
)";
  const auto records = workload();
  for (const bool sharded : {false, true}) {
    const std::string context = sharded ? "sharded" : "serial";
    EngineBuilder builder(compiler::compile_source(source));
    builder.geometry(small_geometry());
    if (sharded) builder.sharded(4);
    auto engine = builder.build();
    engine->process_batch(records);
    std::vector<std::string> streams;
    for (const StreamSinkMetrics& m : engine->metrics().streams) {
      streams.push_back(m.query);
    }
    EXPECT_EQ(streams, (std::vector<std::string>{"C", "D"})) << context;
    engine->finish(6_s);
    EXPECT_NO_THROW((void)engine->table("C")) << context;
    EXPECT_NO_THROW((void)engine->table("D")) << context;
    EXPECT_THROW((void)engine->table("A"), QueryError) << context;
    EXPECT_THROW((void)engine->table("B"), QueryError) << context;
  }
}

TEST(StreamSinks, CallbackSinkSeesOneBatchPerProcessBatchCall) {
  const auto records = workload();
  ASSERT_GT(records.size(), 500u);
  for (const bool sharded : {false, true}) {
    const std::string context = sharded ? "sharded" : "serial";
    std::vector<std::size_t> batch_sizes;
    std::vector<std::vector<double>> rows;
    std::size_t finishes = 0;
    auto sink = std::make_shared<CallbackStreamSink>(
        [&](const StreamBatch& batch) {
          EXPECT_EQ(batch.query, "S");
          ASSERT_NE(batch.schema, nullptr);
          EXPECT_FALSE(batch.rows.empty());
          batch_sizes.push_back(batch.rows.size());
          for (const auto& row : batch.rows) rows.push_back(row);
        },
        [&] { ++finishes; });
    auto engine = build_case(kSinkCorpus[0], sharded, sink);

    // Ragged delivery: every process_batch call with >= 1 matching row must
    // produce exactly one callback batch carrying those rows.
    const std::span<const PacketRecord> span(records);
    std::size_t expected_batches = 0;
    std::vector<std::size_t> expected_sizes;
    std::size_t base = 0;
    for (const std::size_t n : {std::size_t{1}, std::size_t{7},
                                std::size_t{64}, span.size() - 72}) {
      std::size_t matching = 0;
      for (std::size_t i = base; i < base + n; ++i) {
        if (span[i].pkt.pkt_len > 300) ++matching;
      }
      engine->process_batch(span.subspan(base, n));
      base += n;
      if (matching > 0) {
        ++expected_batches;
        expected_sizes.push_back(matching);
      }
    }
    ASSERT_EQ(base, span.size());
    EXPECT_EQ(batch_sizes, expected_sizes) << context;
    EXPECT_EQ(batch_sizes.size(), expected_batches) << context;

    EXPECT_EQ(finishes, 0u);
    engine->finish(6_s);
    EXPECT_EQ(finishes, 1u) << context;

    // Row content: exactly the matching records, in record order.
    std::vector<std::vector<double>> expected_rows;
    for (const auto& rec : records) {
      if (rec.pkt.pkt_len > 300) {
        expected_rows.push_back(
            {static_cast<double>(rec.pkt.flow.src_ip),
             static_cast<double>(rec.pkt.pkt_len)});
      }
    }
    EXPECT_EQ(rows, expected_rows) << context;

    // Pass-through sinks do not materialize a table for the stream query.
    EXPECT_THROW((void)engine->table("S"), QueryError) << context;
    // ...but the rest of the program is unaffected.
    EXPECT_NO_THROW((void)engine->table("R1")) << context;
  }
}

TEST(StreamSinks, SinkEquivalenceAcrossCorpusAndEngines) {
  // Table sink (default), user table sink, and callback sink must observe
  // the exact same row stream — and serial/sharded engines must agree —
  // across the Fig. 2 fold corpus.
  const auto records = workload();
  for (const SinkCase& entry : kSinkCorpus) {
    std::vector<std::vector<double>> reference_rows;  // from serial default
    for (const bool sharded : {false, true}) {
      const std::string context =
          std::string(entry.name) + (sharded ? "/sharded" : "/serial");

      auto with_default = build_case(entry, sharded, nullptr);
      auto table_sink = std::make_shared<TableStreamSink>();
      auto with_table = build_case(entry, sharded, table_sink);
      std::vector<std::vector<double>> callback_rows;
      auto with_callback = build_case(
          entry, sharded,
          std::make_shared<CallbackStreamSink>([&](const StreamBatch& batch) {
            for (const auto& row : batch.rows) callback_rows.push_back(row);
          }));

      for (Engine* engine :
           {with_default.get(), with_table.get(), with_callback.get()}) {
        engine->process_batch(records);
        engine->finish(6_s);
      }

      const ResultTable& default_rows = with_default->table("S");
      expect_tables_bit_identical(default_rows, table_sink->table(), context);
      ASSERT_EQ(callback_rows.size(), default_rows.row_count()) << context;
      for (std::size_t r = 0; r < callback_rows.size(); ++r) {
        EXPECT_EQ(callback_rows[r], default_rows.rows()[r])
            << context << " row " << r;
      }
      // The engines also agree between themselves.
      if (reference_rows.empty()) {
        reference_rows = callback_rows;
      } else {
        EXPECT_EQ(callback_rows, reference_rows) << context;
      }
      // And the stream machinery never perturbs the aggregate path.
      expect_tables_bit_identical(with_default->table("R1"),
                                  with_table->table("R1"), context);
    }
  }
}

TEST(StreamSinks, RingSinkKeepsNewestRowsAndCounts) {
  const auto records = workload();
  auto ring = std::make_shared<RingStreamSink>(/*capacity=*/64);
  auto engine = build_case(kSinkCorpus[0], /*sharded=*/false, ring);

  // Mid-run drain: the monitoring pull on streams.
  const std::span<const PacketRecord> span(records);
  engine->process_batch(span.first(span.size() / 2));
  std::vector<std::vector<double>> drained;
  const std::size_t mid_drained = ring->drain(drained);
  EXPECT_LE(mid_drained, 64u);
  EXPECT_GT(mid_drained, 0u);

  engine->process_batch(span.subspan(span.size() / 2));
  engine->finish(6_s);

  // Compute the full matching stream; the ring must hold its tail.
  std::vector<std::vector<double>> expected;
  for (const auto& rec : records) {
    if (rec.pkt.pkt_len > 300) {
      expected.push_back({static_cast<double>(rec.pkt.flow.src_ip),
                          static_cast<double>(rec.pkt.pkt_len)});
    }
  }
  ring->drain(drained);
  ASSERT_LE(drained.size(), 64u);
  const std::size_t tail = drained.size();
  for (std::size_t r = 0; r < tail; ++r) {
    EXPECT_EQ(drained[r], expected[expected.size() - tail + r]) << "row " << r;
  }
  // Everything that flowed through and did not fit was counted as dropped
  // (rows drained mid-run were not "dropped").
  EXPECT_EQ(mid_drained + ring->dropped() + tail, expected.size());
}

}  // namespace
}  // namespace perfq::runtime

// Mid-run snapshot() — the paper's §3.2 application pull — property-tested
// for exactness at record boundaries.
//
// The contract (engine_api.hpp): a snapshot taken after feeding a record
// prefix equals, bit for bit, the table a fresh engine fed the same prefix
// would produce from finish() at the same timestamp — live cache contents
// merged over the backing store with the exact-merge machinery. The sharded
// engine must agree with the serial engine at every boundary (at its in-band
// snapshot marker each shard worker copies its slice of the store, cache
// overlaid on its own backing store, and the N disjoint copies read as one),
// and taking snapshots must not perturb any engine's final results.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "runtime/engine_builder.hpp"
#include "fig2_corpus.hpp"
#include "runtime_test_util.hpp"
#include "trace/flow_session.hpp"

namespace perfq::runtime {
namespace {

std::vector<PacketRecord> workload() { return test_workload(); }

/// Small cache (64 x 8) so evictions/merges hit on every prefix; divides
/// into 1 and 4 shards.
kv::CacheGeometry small_geometry() {
  return kv::CacheGeometry::set_associative(64, 8);
}

EngineBuilder builder_for(const Fig2Query& entry, Nanos refresh) {
  EngineBuilder builder(compiler::compile_source(entry.source, kFig2Params));
  builder.geometry(small_geometry()).refresh(refresh);
  return builder;
}

/// The property: at K record boundaries, every engine's snapshot equals the
/// fresh-engine-finish oracle over the same prefix, bit for bit.
void run_snapshot_property(const Fig2Query& entry, Nanos refresh) {
  const auto records = workload();
  const std::span<const PacketRecord> span(records);
  // K = 4 uneven boundaries (plus the trivial 0 boundary) to stress partial
  // epochs, plus the full-trace boundary.
  const std::size_t boundaries[] = {0, 997, span.size() / 3,
                                    span.size() / 2 + 13, span.size()};

  struct UnderTest {
    std::string label;
    std::unique_ptr<Engine> engine;
  };
  std::vector<UnderTest> engines;
  for (const Topology& topo : kTopologies) {
    EngineBuilder b = builder_for(entry, refresh);
    if (topo.shards > 0) b.sharded(topo.shards);
    engines.push_back({topo.name, b.build()});
  }

  std::size_t fed = 0;
  for (const std::size_t boundary : boundaries) {
    ASSERT_GE(boundary, fed);
    const auto chunk = span.subspan(fed, boundary - fed);
    const Nanos stamp = 20_s + Nanos{static_cast<std::int64_t>(boundary)};
    for (auto& ut : engines) ut.engine->process_batch(chunk);
    fed = boundary;

    // Oracle: a fresh engine over exactly this prefix, finished at the
    // snapshot timestamp.
    auto oracle = builder_for(entry, refresh).build();
    oracle->process_batch(span.first(boundary));
    oracle->finish(stamp);
    const ResultTable& want = oracle->table("R1");

    for (auto& ut : engines) {
      const std::string context = std::string(entry.name) + "/" + ut.label +
                                  " refresh=" +
                                  std::to_string(refresh.count()) +
                                  " boundary=" + std::to_string(boundary);
      const EngineSnapshot snap = ut.engine->snapshot("R1", stamp);
      EXPECT_EQ(snap.records, boundary) << context;
      EXPECT_EQ(snap.time, stamp) << context;
      expect_tables_bit_identical(want, snap.table, context);
    }
  }

  // Snapshots must not have perturbed anything: all engines still finish to
  // the untouched reference's exact result.
  auto reference = builder_for(entry, refresh).build();
  reference->process_batch(span);
  reference->finish(12_s);
  for (auto& ut : engines) {
    ut.engine->finish(12_s);
    expect_tables_bit_identical(reference->table("R1"),
                                ut.engine->table("R1"),
                                std::string(entry.name) + "/" + ut.label +
                                    " post-snapshot finish");
    EXPECT_EQ(ut.engine->refresh_count(), reference->refresh_count());
  }
}

TEST(Snapshot, MatchesFreshEngineFinishAtEveryBoundary) {
  for (const Fig2Query& entry : kFig2Corpus) {
    run_snapshot_property(entry, /*refresh=*/0_s);
  }
}

TEST(Snapshot, MatchesWithPeriodicRefreshRunning) {
  for (const Fig2Query& entry : kFig2Corpus) {
    run_snapshot_property(entry, /*refresh=*/1_s);
  }
}

TEST(Snapshot, RepeatedSnapshotsAtTheSameBoundaryAgree) {
  // Two back-to-back pulls with no records in between must return the same
  // table (and exercise the sharded same-seq marker path).
  const auto records = workload();
  for (const bool sharded : {false, true}) {
    EngineBuilder builder = builder_for(kFig2Corpus[0], 0_s);
    if (sharded) builder.sharded(4);
    auto engine = builder.build();
    engine->process_batch(records);
    const EngineSnapshot a = engine->snapshot("R1", 11_s);
    const EngineSnapshot b = engine->snapshot("R1", 11_s);
    expect_tables_bit_identical(a.table, b.table,
                                sharded ? "sharded" : "serial");
    engine->finish(12_s);
  }
}

TEST(Snapshot, ErrorsAreCleanOnBothEngines) {
  const char* source = R"(
S = SELECT srcip, pkt_len FROM T WHERE pkt_len > 300
R1 = SELECT COUNT GROUPBY srcip
)";
  for (const bool sharded : {false, true}) {
    EngineBuilder builder{compiler::compile_source(source)};
    builder.geometry(small_geometry());
    if (sharded) builder.sharded(2);
    auto engine = builder.build();
    // Unknown query.
    EXPECT_THROW((void)engine->snapshot("R9", 1_s), QueryError);
    // Stream SELECTs have no store to snapshot (their rows go to sinks).
    EXPECT_THROW((void)engine->snapshot("S", 1_s), QueryError);
    // After finish, snapshot is no longer available.
    engine->finish(1_s);
    EXPECT_THROW((void)engine->snapshot("R1", 2_s), Error);
  }
}

}  // namespace
}  // namespace perfq::runtime

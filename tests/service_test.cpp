// The dynamic attach/detach contract (engine_api.hpp, "Query lifecycle
// contract") and the multi-tenant service on top of it:
//
//   - THE ORACLE PROPERTY: a query attached at record boundary K produces
//     tables bit-identical to a fresh engine fed only the post-attach
//     suffix, on the serial engine and across sharded topologies,
//     whether it ends by detach mid-stream or by finish() — and the
//     pre-existing queries are not perturbed by either.
//   - Detach releases resources: a counting allocator proves the detached
//     tenant's backing store, plan and scratch go back to the heap.
//   - Admission control: the die-area budget admits exactly to the line,
//     rejects cleanly past it, and detach refunds the charge.
//   - The socket-facing line protocol and the loopback server round trip.
//
// This suite runs under TSan in CI: the concurrency tests (metrics polling
// and stream draining against live attach/detach) are the witnesses for the
// topology-mutex design.
#include <gtest/gtest.h>
#include <malloc.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <new>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/metrics_export.hpp"
#include "query_vocabulary.hpp"
#include "runtime/engine_builder.hpp"
#include "runtime_test_util.hpp"
#include "service/line_protocol.hpp"
#include "service/query_service.hpp"
#include "service/server.hpp"

// ---- counting allocator ----------------------------------------------------
// Global live-byte accounting for the detach-releases-memory proof. Uses
// malloc_usable_size so new/delete pairs balance exactly regardless of how
// the allocator rounds. (The cache slot arena is page-allocated and thus
// invisible here either way; what this measures is the heap side of a
// tenant: backing-store nodes, plan storage, fold-core scratch.)
namespace {
std::atomic<std::int64_t> g_live_bytes{0};

void* counted_alloc(std::size_t n) {
  void* p = std::malloc(n);
  if (p == nullptr) throw std::bad_alloc{};
  g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  return p;
}
void* counted_alloc_aligned(std::size_t n, std::size_t align) {
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align, n) !=
      0) {
    throw std::bad_alloc{};
  }
  g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  return p;
}
void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc_aligned(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc_aligned(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}

namespace perfq::runtime {
namespace {

const std::map<std::string, double> kParams = {{"alpha", 0.125}, {"K", 50}};

constexpr const char* kBaseSource = R"(
def counter (cnt, (pkt_len)):
    cnt = cnt + 1

BASE = SELECT 5tuple, counter GROUPBY 5tuple
)";

constexpr const char* kEwmaSource = R"(
def ewma (lat_est, (tin, tout)):
    lat_est = (1 - alpha) * lat_est + alpha * (tout - tin)

SELECT 5tuple, ewma GROUPBY 5tuple
)";

// Non-linear (max has no merge function): exercises the segment machinery.
constexpr const char* kNonMtSource = R"(
def nonmt ((maxseq, nm_count), (tcpseq)):
    if maxseq > tcpseq: nm_count = nm_count + 1
    maxseq = max(maxseq, tcpseq)

SELECT 5tuple, nonmt GROUPBY 5tuple
)";

constexpr const char* kStreamSource =
    "DROPS = SELECT srcip, dstport WHERE tout == infinity\n";

/// Small shared geometry: 8 buckets x 8 ways thrashes on the workload and
/// divides evenly into 1 and 4 shards.
const kv::CacheGeometry kGeom = kv::CacheGeometry::set_associative(64, 8);

std::unique_ptr<Engine> make_engine(const char* source, const Topology& topo,
                                    Nanos refresh) {
  EngineConfig config;
  config.geometry = kGeom;
  config.refresh_interval = refresh;
  return build_engine(compiler::compile_source(source, kParams), topo, config,
                      [](EngineBuilder& b) {
                        b.ring_capacity(512).dispatch_batch(64);
                      });
}

/// Feed with deliberately uneven batch sizes so attach boundaries never line
/// up with dispatch or ring granularity.
void feed_uneven(Engine& engine, std::span<const PacketRecord> records) {
  static constexpr std::size_t kSizes[] = {1, 7, 64, 3, 256, 31};
  std::size_t i = 0;
  std::size_t k = 0;
  while (i < records.size()) {
    const std::size_t n =
        std::min(kSizes[k++ % std::size(kSizes)], records.size() - i);
    engine.process_batch(records.subspan(i, n));
    i += n;
  }
}

/// Oracle: a fresh serial engine fed only the suffix, finished at `end`.
ResultTable oracle_table(const char* source,
                         std::span<const PacketRecord> suffix, Nanos refresh,
                         Nanos end) {
  auto engine = make_engine(source, kSerial, refresh);
  feed_uneven(*engine, suffix);
  engine->finish(end);
  return engine->result();
}

// ---- the oracle property ---------------------------------------------------

enum class EndMode { kDetachMidRun, kFinish };

void run_attach_oracle(const char* tenant_source, const Topology& topo,
                       std::size_t attach_at, Nanos refresh, EndMode mode,
                       const std::vector<PacketRecord>& records,
                       const ResultTable& base_control) {
  const Nanos end = 12_s;
  // Mid-run detach leaves a >1000-record tail that keeps folding through the
  // freed slot; kFinish keeps the tenant resident to the end of the window.
  const std::size_t detach_at =
      mode == EndMode::kDetachMidRun
          ? std::min(records.size() - 1001, attach_at + 4000)
          : records.size();
  ASSERT_LT(attach_at, detach_at);
  const std::string context =
      std::string{topo.name} + " attach@" + std::to_string(attach_at) +
      " detach@" + std::to_string(detach_at) +
      " refresh=" + std::to_string(refresh.count());

  const std::span<const PacketRecord> all{records};
  auto engine = make_engine(kBaseSource, topo, refresh);
  feed_uneven(*engine, all.subspan(0, attach_at));

  AttachOptions options;
  options.name = "tenant";
  options.geometry = kGeom;
  engine->attach_query(compiler::compile_source(tenant_source, kParams),
                       options);
  EXPECT_EQ(engine->records_processed(), attach_at) << context;

  ResultTable tenant_table{lang::Schema{}};
  if (mode == EndMode::kDetachMidRun) {
    feed_uneven(*engine, all.subspan(attach_at, detach_at - attach_at));
    // Neighbor-detach non-perturbation, observed live: the base query's
    // snapshot is bit-identical just before and just after the detach.
    const EngineSnapshot before = engine->snapshot("BASE", end);
    tenant_table = engine->detach_query("tenant", end);
    const EngineSnapshot after = engine->snapshot("BASE", end);
    expect_tables_bit_identical(before.table, after.table,
                                context + " base around detach");
    feed_uneven(*engine, all.subspan(detach_at));
    engine->finish(end);
  } else {
    feed_uneven(*engine, all.subspan(attach_at));
    engine->finish(end);
    tenant_table = engine->table("tenant");
  }

  const ResultTable want = oracle_table(
      tenant_source, all.subspan(attach_at, detach_at - attach_at), refresh,
      end);
  expect_tables_bit_identical(want, tenant_table, context + " tenant");
  expect_tables_bit_identical(base_control, engine->table("BASE"),
                              context + " base unperturbed");
}

TEST(AttachOracle, LinearTenantBitIdenticalToSuffixOracle) {
  const auto records = test_workload();
  ASSERT_GT(records.size(), 6000u);
  // Refresh off: the tenant's flush boundaries (its own evictions + the end
  // flush) depend only on the suffix, so even the non-FP-exact ewma merge is
  // bit-identical to the oracle. Control: the base program alone over the
  // whole window (one serial control serves every topology).
  auto control = make_engine(kBaseSource, kSerial, 0_s);
  control->process_batch(records);
  control->finish(12_s);
  const ResultTable base_control = control->result();

  for (const Topology& topo : kTopologies) {
    for (const std::size_t attach_at :
         {std::size_t{0}, std::size_t{937}, records.size() - 3}) {
      run_attach_oracle(kEwmaSource, topo, attach_at, 0_s, EndMode::kFinish,
                        records, base_control);
    }
    for (const std::size_t attach_at : {std::size_t{1}, std::size_t{937}}) {
      run_attach_oracle(kEwmaSource, topo, attach_at, 0_s,
                        EndMode::kDetachMidRun, records, base_control);
    }
  }
}

TEST(AttachOracle, RefreshOnTenantBitIdenticalForExactMerges) {
  const auto records = test_workload();
  // With periodic refresh ON the resident engine and the suffix oracle flush
  // at different absolute times (the refresh clock anchors at each engine's
  // first record — see the lifecycle contract), so bit-identity additionally
  // needs an FP-exact merge: an integer counter, not ewma.
  auto control = make_engine(kBaseSource, kSerial, 1_s);
  control->process_batch(records);
  control->finish(12_s);
  const ResultTable base_control = control->result();

  for (const Topology& topo : kTopologies) {
    run_attach_oracle(kBaseSource, topo, 937, 1_s, EndMode::kFinish, records,
                      base_control);
    run_attach_oracle(kBaseSource, topo, 937, 1_s, EndMode::kDetachMidRun,
                      records, base_control);
  }
}

TEST(AttachOracle, NonLinearTenantMatchesWithAlignedFlushTimes) {
  const auto records = test_workload();
  // Non-linear kernels have no merge function: equivalence needs matching
  // flush times, so refresh stays off and detach/finish share `end`.
  auto control = make_engine(kBaseSource, kSerial, 0_s);
  control->process_batch(records);
  control->finish(12_s);
  const ResultTable base_control = control->result();

  for (const Topology& topo : kTopologies) {
    run_attach_oracle(kNonMtSource, topo, 937, 0_s, EndMode::kFinish, records,
                      base_control);
    run_attach_oracle(kNonMtSource, topo, 937, 0_s, EndMode::kDetachMidRun,
                      records, base_control);
  }
}

TEST(AttachOracle, StreamTenantRowsMatchSuffixOracle) {
  const auto records = test_workload();
  const std::span<const PacketRecord> all{records};
  const std::size_t attach_at = 937;
  const ResultTable want =
      oracle_table(kStreamSource, all.subspan(attach_at), 0_s, 12_s);
  for (const Topology& topo : {kSerial, Topology{"s4", 4}}) {
    auto engine = make_engine(kBaseSource, topo, 0_s);
    feed_uneven(*engine, all.subspan(0, attach_at));
    AttachOptions options;
    options.name = "drops";
    engine->attach_query(compiler::compile_source(kStreamSource, kParams),
                         options);
    feed_uneven(*engine, all.subspan(attach_at));
    engine->finish(12_s);
    expect_tables_bit_identical(want, engine->table("drops"),
                                std::string{topo.name} + " stream tenant");
  }
}

TEST(AttachOracle, KeyClassTenantsJoinAndLeave) {
  // A 5-tuple tenant joins BASE's key class mid-run and leaves; two srcip
  // tenants form a class of their own, and its first member (whose plan
  // extracts the class key) leaves before the second. After each detach
  // every resident is byte-identical and each tenant equals its suffix
  // oracle.
  const char* first_source = "SELECT srcip, COUNT GROUPBY srcip";
  const char* second_source =
      "SELECT srcip, SUM(pkt_len) GROUPBY srcip WHERE proto == TCP";
  const auto records = test_workload();
  const std::span<const PacketRecord> all{records};
  const Nanos end = 12_s;
  auto control = make_engine(kBaseSource, kSerial, 0_s);
  control->process_batch(records);
  control->finish(end);
  const ResultTable base_control = control->result();

  const auto attach = [](Engine& engine, const char* name,
                         const char* source) {
    AttachOptions options;
    options.name = name;
    options.geometry = kGeom;
    engine.attach_query(compiler::compile_source(source, kParams), options);
  };
  for (const Topology& topo : kTopologies) {
    const std::string context{topo.name};
    auto engine = make_engine(kBaseSource, topo, 0_s);
    feed_uneven(*engine, all.subspan(0, 937));
    attach(*engine, "joiner", kEwmaSource);
    attach(*engine, "first", first_source);
    feed_uneven(*engine, all.subspan(937, 2000 - 937));
    attach(*engine, "second", second_source);
    feed_uneven(*engine, all.subspan(2000, 4000 - 2000));

    EngineSnapshot base = engine->snapshot("BASE", end);
    const ResultTable joiner = engine->detach_query("joiner", end);
    expect_tables_bit_identical(base.table,
                                engine->snapshot("BASE", end).table,
                                context + " base around joiner detach");
    feed_uneven(*engine, all.subspan(4000, 5000 - 4000));

    base = engine->snapshot("BASE", end);
    const EngineSnapshot second = engine->snapshot("second", end);
    const ResultTable first = engine->detach_query("first", end);
    expect_tables_bit_identical(base.table,
                                engine->snapshot("BASE", end).table,
                                context + " base around first detach");
    expect_tables_bit_identical(second.table,
                                engine->snapshot("second", end).table,
                                context + " second around first detach");
    feed_uneven(*engine, all.subspan(5000));
    engine->finish(end);

    expect_tables_bit_identical(
        oracle_table(kEwmaSource, all.subspan(937, 4000 - 937), 0_s, end),
        joiner, context + " joiner");
    expect_tables_bit_identical(
        oracle_table(first_source, all.subspan(937, 5000 - 937), 0_s, end),
        first, context + " first");
    expect_tables_bit_identical(
        oracle_table(second_source, all.subspan(2000), 0_s, end),
        engine->table("second"), context + " second");
    expect_tables_bit_identical(base_control, engine->table("BASE"),
                                context + " base unperturbed");
  }
}

// ---- validation: clean rejection, never degraded state ---------------------

TEST(AttachValidation, RejectsNonAttachableProgramsWithoutStateChange) {
  auto engine = make_engine(kBaseSource, Topology{"s4", 4}, 0_s);
  const auto records = test_workload();
  engine->process_batch(std::span{records}.subspan(0, 2000));

  AttachOptions options;
  options.name = "t";
  // Multi-result program (two switch plans).
  EXPECT_THROW(engine->attach_query(
                   compiler::compile_source("R1 = SELECT COUNT GROUPBY 5tuple\n"
                                            "R2 = SELECT COUNT GROUPBY qid\n",
                                            kParams),
                   options),
               ConfigError);
  // Collection layer downstream of the GROUPBY.
  EXPECT_THROW(
      engine->attach_query(
          compiler::compile_source(
              "R1 = SELECT COUNT GROUPBY 5tuple\n"
              "R2 = SELECT * FROM R1 WHERE COUNT > K\n",
              kParams),
          options),
      ConfigError);
  // Name collisions: base query, then a live tenant.
  options.name = "BASE";
  EXPECT_THROW(engine->attach_query(
                   compiler::compile_source(kEwmaSource, kParams), options),
               ConfigError);
  options.name = "t";
  engine->attach_query(compiler::compile_source(kEwmaSource, kParams),
                       options);
  EXPECT_THROW(engine->attach_query(
                   compiler::compile_source(kEwmaSource, kParams), options),
               ConfigError);
  // Sharded slice constraint: buckets must divide into shards.
  options.name = "odd";
  options.geometry = kv::CacheGeometry::set_associative(66, 2);  // 33 buckets
  EXPECT_THROW(engine->attach_query(
                   compiler::compile_source(kEwmaSource, kParams), options),
               ConfigError);
  // Detach of base-program and unknown names.
  EXPECT_THROW((void)engine->detach_query("BASE", 1_s), ConfigError);
  EXPECT_THROW((void)engine->detach_query("nosuch", 1_s), QueryError);

  // None of the rejections perturbed the engine: it still folds and ends.
  engine->process_batch(std::span{records}.subspan(2000, 1000));
  engine->finish(12_s);
  EXPECT_EQ(engine->records_processed(), 3000u);
  EXPECT_GT(engine->table("t").row_count(), 0u);
}

TEST(AttachValidation, RejectsControlBytesInNamesWithoutStateChange) {
  const auto records = test_workload();
  const std::span<const PacketRecord> all{records};
  auto control = make_engine(kBaseSource, kSerial, 0_s);
  control->process_batch(all);
  control->finish(12_s);
  for (const Topology& topo : kTopologies) {
    const std::string context = topo.name;
    auto engine = make_engine(kBaseSource, topo, 0_s);
    engine->process_batch(all.subspan(0, 2000));
    for (const char* name : {"c\x01x", "del\x7f", "\x1b[0m", "two\nlines"}) {
      AttachOptions options;
      options.name = name;
      EXPECT_THROW(engine->attach_query(
                       compiler::compile_source(kEwmaSource, kParams), options),
                   ConfigError)
          << context;
      EXPECT_THROW(engine->attach_query(
                       compiler::compile_source(kStreamSource, kParams),
                       options),
                   ConfigError)
          << context;
    }
    // Nothing was attached, and the base query folds on undisturbed.
    const std::vector<StoreStats> stats = engine->store_stats();
    ASSERT_EQ(stats.size(), 1u) << context;
    EXPECT_EQ(stats[0].name, "BASE") << context;
    EXPECT_TRUE(engine->metrics().streams.empty()) << context;
    engine->process_batch(all.subspan(2000));
    engine->finish(12_s);
    expect_tables_bit_identical(control->result(), engine->result(),
                                context + " base after rejected attaches");
  }
}

TEST(AttachValidation, AttachEpochRecordedInStatsAndMetrics) {
  auto engine = make_engine(kBaseSource, kSerial, 0_s);
  const auto records = test_workload();
  engine->process_batch(std::span{records}.subspan(0, 1234));
  AttachOptions options;
  options.name = "late";
  options.geometry = kGeom;
  engine->attach_query(compiler::compile_source(kEwmaSource, kParams),
                       options);
  bool seen = false;
  for (const StoreStats& s : engine->store_stats()) {
    if (s.name != "late") continue;
    seen = true;
    EXPECT_TRUE(s.attached);
    EXPECT_EQ(s.attach_records, 1234u);
  }
  EXPECT_TRUE(seen);
  const std::string prom = obs::metrics_to_prometheus(engine->metrics());
  EXPECT_NE(prom.find("perfq_store_attached{query=\"late\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("perfq_store_attach_records{query=\"late\"} 1234"),
            std::string::npos);
  EXPECT_NE(prom.find("perfq_store_attached{query=\"BASE\"} 0"),
            std::string::npos);
  const std::string json = obs::metrics_to_json(engine->metrics());
  EXPECT_NE(json.find("store_attach_records"), std::string::npos);
}

TEST(AttachOracle, TwoCopiesOfOneCompiledTenantFoldBitIdentically) {
  // A compiled program is a value: two copies of one compilation attach
  // under two names and fold the same records into bit-identical tables.
  // Each attach renames only its own copy's plan, so the shared analysis
  // keeps the result name it was compiled with.
  const auto records = test_workload();
  const std::span<const PacketRecord> all{records};
  const char* source = R"(
def ewma (lat_est, (tin, tout)):
    lat_est = (1 - alpha) * lat_est + alpha * (tout - tin)

LAT = SELECT 5tuple, COUNT, ewma GROUPBY 5tuple WHERE tout != infinity
)";
  const compiler::CompiledProgram tenant =
      compiler::compile_source(source, kParams);
  for (const Topology& topo : kTopologies) {
    const std::string context = topo.name;
    auto engine = make_engine(kBaseSource, topo, 0_s);
    feed_uneven(*engine, all.subspan(0, 937));
    AttachOptions options;
    options.geometry = kGeom;
    for (const char* name : {"left", "right"}) {
      options.name = name;
      engine->attach_query(tenant, options);
    }
    feed_uneven(*engine, all.subspan(937));
    engine->finish(12_s);
    EXPECT_GT(engine->table("left").row_count(), 0u) << context;
    expect_tables_bit_identical(engine->table("left"), engine->table("right"),
                                context + " copies");
    EXPECT_EQ(tenant.switch_plans.front().name, "LAT") << context;
    EXPECT_EQ(tenant.analysis->queries.back().def.result_name, "LAT")
        << context;
  }
}

// ---- detach releases resources ---------------------------------------------

TEST(DetachResources, HeapReturnsToBaselineAfterDetach) {
  // Base program is a pass-through stream (callback sink, nothing retained)
  // so repeated feeds don't grow base-side state; the only durable growth
  // between the measurement points is the attached tenant.
  auto sink = std::make_shared<CallbackStreamSink>([](const StreamBatch&) {});
  EngineBuilder builder(compiler::compile_source(kStreamSource, kParams));
  builder.geometry(kGeom).stream_sink("DROPS", std::move(sink));
  auto engine = builder.build();
  const auto records = test_workload();

  const auto cycle = [&] {
    AttachOptions options;
    options.name = "t1";
    options.geometry = kGeom;
    engine->attach_query(compiler::compile_source(kEwmaSource, kParams),
                         options);
    engine->process_batch(records);
    return engine->detach_query("t1", 20_s);
  };

  // Warmup: grows every retained capacity (engine scratch, vector slack)
  // to its steady state so the measured cycle is allocation-neutral.
  { const ResultTable t = cycle(); }
  const std::int64_t baseline = g_live_bytes.load(std::memory_order_relaxed);

  std::int64_t mid = 0;
  {
    AttachOptions options;
    options.name = "t1";
    options.geometry = kGeom;
    engine->attach_query(compiler::compile_source(kEwmaSource, kParams),
                         options);
    engine->process_batch(records);
    mid = g_live_bytes.load(std::memory_order_relaxed);
    const ResultTable t = engine->detach_query("t1", 20_s);
    EXPECT_GT(t.row_count(), 0u);
  }
  const std::int64_t after = g_live_bytes.load(std::memory_order_relaxed);

  // The live tenant holds real heap (backing-store nodes for ~400 keys,
  // plan + program storage); after detach it is all returned.
  EXPECT_GT(mid - baseline, 16 * 1024) << "tenant heap not measurable";
  EXPECT_LE(after - baseline, 4 * 1024)
      << "detach leaked ~" << (after - baseline) << " bytes";
}

// ---- the service: admission, protocol, server ------------------------------

service::QueryService make_service(std::size_t shards = 0) {
  EngineBuilder builder(compiler::compile_source(kBaseSource, kParams));
  builder.geometry(kGeom);
  if (shards > 0) builder.sharded(shards);
  service::ServiceConfig config;
  config.tenant_geometry = kGeom;
  return service::QueryService(builder.build(), config);
}

TEST(QueryService, AdmissionAdmitsToTheLineAndRefundsOnDetach) {
  EngineBuilder builder(compiler::compile_source(kBaseSource, kParams));
  builder.geometry(kGeom);
  service::ServiceConfig config;
  config.tenant_geometry = kGeom;
  // Budget exactly one tenant: ewma state is 1 dim over a 13-byte 5-tuple
  // key, so one 64-slot slice prices to slots x (104 + 64) bits.
  const double one = config.budget.price(
      kGeom.total_slots(),
      analysis::AdmissionBudget::bits_per_pair(13, 1));
  config.budget.max_die_fraction = one * 1.5;
  service::QueryService svc(builder.build(), config);

  const auto records = test_workload();
  svc.process_batch(std::span{records}.subspan(0, 500));

  const service::TenantInfo first = svc.attach("t1", kEwmaSource);
  EXPECT_DOUBLE_EQ(first.die_fraction, one);
  EXPECT_EQ(first.attach_records, 500u);
  EXPECT_THROW(svc.attach("t2", kEwmaSource), ConfigError);
  EXPECT_EQ(svc.tenants().size(), 1u);  // rejected attach left no tenant
  EXPECT_DOUBLE_EQ(svc.used_die_fraction(), one);

  // The engine was not perturbed by the rejection: ingest continues.
  svc.process_batch(std::span{records}.subspan(500, 500));

  { const ResultTable t = svc.detach("t1"); }
  EXPECT_DOUBLE_EQ(svc.used_die_fraction(), 0.0);
  const service::TenantInfo again = svc.attach("t2", kEwmaSource);
  EXPECT_EQ(again.attach_records, 1000u);
  svc.process_batch(std::span{records}.subspan(1000, 1000));
  svc.finish();
  EXPECT_GT(svc.table("t2").row_count(), 0u);
}

TEST(QueryService, TenantPastTheCapIsRejectedWithoutStateChange) {
  service::QueryService svc = make_service();
  const auto records = test_workload();
  svc.process_batch(std::span{records}.subspan(0, 500));
  // Stream tenants are free, so the cap is reached with the budget at zero.
  for (std::size_t i = 0; i < service::kMaxTenants; ++i) {
    (void)svc.attach("s" + std::to_string(i), kStreamSource);
  }
  const std::size_t stores = svc.metrics().queries.size();
  const std::size_t streams = svc.metrics().streams.size();
  EXPECT_EQ(streams, service::kMaxTenants);

  // The 65th tenant, admissible on its own, is refused before pricing.
  EXPECT_THROW(svc.attach("switch", kEwmaSource), ConfigError);
  EXPECT_THROW(svc.attach("stream", kStreamSource), ConfigError);
  EXPECT_EQ(svc.tenants().size(), service::kMaxTenants);
  EXPECT_DOUBLE_EQ(svc.used_die_fraction(), 0.0);
  const EngineMetrics m = svc.metrics();
  EXPECT_EQ(m.queries.size(), stores);
  EXPECT_EQ(m.streams.size(), streams);

  // Detaching one frees its place.
  { const ResultTable t = svc.detach("s0"); }
  EXPECT_GT(svc.attach("switch", kEwmaSource).die_fraction, 0.0);
  EXPECT_EQ(svc.tenants().size(), service::kMaxTenants);
}

TEST(QueryService, StreamTenantDrainsConcurrentlyWithIngest) {
  service::QueryService svc = make_service();
  const auto records = test_workload();
  const std::span<const PacketRecord> all{records};
  svc.process_batch(all.subspan(0, 100));
  const service::TenantInfo info =
      svc.attach("drops", "SELECT srcip, dstport WHERE tout == infinity\n");
  EXPECT_EQ(info.kind, AttachKind::kStreamSelect);
  EXPECT_DOUBLE_EQ(info.die_fraction, 0.0);

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> drained{0};
  std::thread drainer([&] {
    std::vector<std::vector<double>> rows;
    while (!done.load(std::memory_order_acquire)) {
      drained.fetch_add(svc.drain("drops", rows),
                        std::memory_order_relaxed);
    }
  });
  for (std::size_t i = 100; i < records.size(); i += 512) {
    svc.process_batch(all.subspan(i, std::min<std::size_t>(512, records.size() - i)));
  }
  done.store(true, std::memory_order_release);
  drainer.join();

  // Post-quiescence accounting: delivered == drained + still-buffered +
  // ring-dropped.
  std::vector<std::vector<double>> rows;
  const std::uint64_t tail = svc.drain("drops", rows);
  const auto metrics = svc.metrics();
  ASSERT_EQ(metrics.streams.size(), 1u);
  EXPECT_TRUE(metrics.streams[0].attached);
  EXPECT_GT(metrics.streams[0].rows_delivered, 0u);
  EXPECT_EQ(metrics.streams[0].rows_delivered,
            drained.load() + tail + metrics.streams[0].rows_dropped);
  { const ResultTable t = svc.detach("drops"); }
  EXPECT_THROW(svc.drain("drops", rows), ConfigError);
}

TEST(QueryService, ConcurrentClientsAgainstShardedIngest) {
  service::QueryService svc = make_service(/*shards=*/4);
  const auto records = test_workload();
  const std::span<const PacketRecord> all{records};

  std::atomic<bool> ingest_done{false};
  std::thread ingest([&] {
    for (std::size_t i = 0; i < records.size(); i += 256) {
      svc.process_batch(
          all.subspan(i, std::min<std::size_t>(256, records.size() - i)));
    }
    ingest_done.store(true, std::memory_order_release);
  });
  std::thread client([&] {
    for (int i = 0; i < 10; ++i) {
      svc.attach("c", kEwmaSource);
      (void)svc.snapshot("c");
      (void)svc.snapshot("BASE");
      const ResultTable t = svc.detach("c");
    }
  });
  std::thread monitor([&] {
    while (!ingest_done.load(std::memory_order_acquire)) {
      (void)obs::metrics_to_prometheus(svc.metrics());
    }
  });
  ingest.join();
  client.join();
  monitor.join();
  svc.finish();
  EXPECT_EQ(svc.records_processed(), records.size());
}

TEST(LineProtocol, CommandsRoundTrip) {
  service::QueryService svc = make_service();
  const auto records = test_workload();
  svc.process_batch(records);

  EXPECT_EQ(service::execute_line(svc, "PING").to_wire(), "OK 0\n");
  const auto attach = service::execute_line(
      svc, "ATTACH t1 SELECT 5tuple, COUNT GROUPBY 5tuple");
  ASSERT_TRUE(attach.ok) << attach.error;
  EXPECT_NE(attach.lines.at(0).find("kind=switch"), std::string::npos);
  // Escaped multi-line source (a def block) through the one-line transport.
  const std::string multi = service::escape_source(std::string(kEwmaSource));
  EXPECT_NE(multi.find("\\n"), std::string::npos);
  EXPECT_EQ(service::unescape_source(multi), kEwmaSource);
  const auto attach2 = service::execute_line(svc, "ATTACH t2 " + multi);
  ASSERT_TRUE(attach2.ok) << attach2.error;

  const auto list = service::execute_line(svc, "LIST");
  ASSERT_TRUE(list.ok);
  ASSERT_EQ(list.lines.size(), 3u);  // two tenants + the budget line
  const auto snap = service::execute_line(svc, "SNAPSHOT t1");
  ASSERT_TRUE(snap.ok);
  EXPECT_GT(snap.lines.size(), 3u);
  const auto prom = service::execute_line(svc, "PROM");
  ASSERT_TRUE(prom.ok);

  const auto bad = service::execute_line(svc, "DETACH nosuch");
  EXPECT_FALSE(bad.ok);
  EXPECT_NE(bad.to_wire().find("ERR "), std::string::npos);
  const auto unknown = service::execute_line(svc, "FROBNICATE");
  EXPECT_FALSE(unknown.ok);

  EXPECT_TRUE(service::execute_line(svc, "DETACH t1").ok);
  EXPECT_TRUE(service::execute_line(svc, "DETACH t2").ok);
  EXPECT_TRUE(service::execute_line(svc, "SHUTDOWN").shutdown);
}

TEST(LineProtocol, AttachRejectsControlBytesInNames) {
  service::QueryService svc = make_service();
  const auto records = test_workload();
  svc.process_batch(records);
  const double used = svc.used_die_fraction();
  for (const char* line :
       {"ATTACH c\x01x SELECT COUNT GROUPBY srcip",
        "ATTACH del\x7f SELECT COUNT GROUPBY srcip",
        "ATTACH s\x02 SELECT srcip, dstport WHERE tout == infinity"}) {
    const service::Response reply = service::execute_line(svc, line);
    EXPECT_FALSE(reply.ok);
    EXPECT_EQ(reply.to_wire().rfind("ERR ", 0), 0u);
  }
  EXPECT_TRUE(svc.tenants().empty());
  const service::Response list = service::execute_line(svc, "LIST");
  ASSERT_TRUE(list.ok);
  ASSERT_EQ(list.lines.size(), 1u);  // the budget line only
  EXPECT_EQ(list.lines[0].rfind("budget ", 0), 0u);
  EXPECT_DOUBLE_EQ(svc.used_die_fraction(), used);
}

TEST(LineProtocol, AttachPastTheStateWidthGetsErrAndChargesNothing) {
  // Nine values per key: the switch keeps at most kv::kMaxStateDims (8).
  service::QueryService svc = make_service();
  const auto records = test_workload();
  svc.process_batch(records);
  const service::Response before = service::execute_line(svc, "LIST");
  ASSERT_TRUE(before.ok);
  const service::Response reply = service::execute_line(
      svc,
      "ATTACH wide SELECT srcip, COUNT, SUM(pkt_len), SUM(tin), SUM(tout), "
      "SUM(qsize), SUM(tcpseq), SUM(dstport), SUM(srcport), SUM(payload_len) "
      "GROUPBY srcip");
  EXPECT_FALSE(reply.ok);
  const std::string wire = reply.to_wire();
  EXPECT_EQ(wire.rfind("ERR ", 0), 0u) << wire;
  EXPECT_NE(wire.find("keeps 9 values per key"), std::string::npos) << wire;
  EXPECT_NE(wire.find("at most 8"), std::string::npos) << wire;
  EXPECT_TRUE(svc.tenants().empty());
  const service::Response after = service::execute_line(svc, "LIST");
  ASSERT_TRUE(after.ok);
  EXPECT_EQ(after.lines, before.lines);
}

TEST(LineProtocol, AttachPastTheKeyWidthGetsErrOnEveryExecutor) {
  // A 33-byte key: one past kv::Key's capacity. The rejection must leave
  // the engine as it was, so a resident tenant still folds and snapshots.
  const auto records = test_workload();
  const std::span<const PacketRecord> all{records};
  for (const std::size_t shards : {std::size_t{0}, std::size_t{2}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    service::QueryService svc = make_service(shards);
    svc.process_batch(all.subspan(0, 2000));
    ASSERT_TRUE(service::execute_line(
                    svc, "ATTACH resident SELECT srcip, COUNT GROUPBY srcip")
                    .ok);
    const double used = svc.used_die_fraction();
    const service::Response before = service::execute_line(svc, "LIST");
    ASSERT_TRUE(before.ok);
    const service::Response reply = service::execute_line(
        svc,
        "ATTACH wide SELECT 5tuple, pkt_uniq, pkt_path, tcpseq, qid, COUNT "
        "GROUPBY 5tuple, pkt_uniq, pkt_path, tcpseq, qid");
    EXPECT_FALSE(reply.ok);
    const std::string wire = reply.to_wire();
    EXPECT_EQ(wire.rfind("ERR ", 0), 0u) << wire;
    EXPECT_NE(wire.find("at most 32 bytes"), std::string::npos) << wire;
    EXPECT_DOUBLE_EQ(svc.used_die_fraction(), used);
    const service::Response after = service::execute_line(svc, "LIST");
    ASSERT_TRUE(after.ok);
    EXPECT_EQ(after.lines, before.lines);

    svc.process_batch(all.subspan(2000, 2000));
    const service::Response snap =
        service::execute_line(svc, "SNAPSHOT resident");
    ASSERT_TRUE(snap.ok) << snap.error;
    EXPECT_GT(snap.lines.size(), 1u);
  }
}

// ---- execute_line fuzz ------------------------------------------------------

bool is_control_byte(char c) {
  const auto byte = static_cast<unsigned char>(c);
  return byte < 0x20 || byte == 0x7f;
}

/// `text` with control bytes spelled as \xNN, for failure messages.
std::string printable(std::string_view text) {
  std::string out;
  for (const char c : text) {
    if (is_control_byte(c)) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\x%02x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

/// The reply must frame as "OK n" plus n payload lines free of control
/// bytes, or as exactly one "ERR ..." line.
void expect_framed(const std::string& wire, const std::string& request) {
  const std::string context = "request: " + printable(request) +
                              "\n  reply: " + printable(wire);
  ASSERT_FALSE(wire.empty()) << context;
  ASSERT_EQ(wire.back(), '\n') << context;
  std::vector<std::string> lines;
  std::size_t start = 0;
  for (std::size_t nl = wire.find('\n'); nl != std::string::npos;
       start = nl + 1, nl = wire.find('\n', start)) {
    lines.push_back(wire.substr(start, nl - start));
  }
  if (lines[0].rfind("ERR ", 0) == 0) {
    EXPECT_EQ(lines.size(), 1u) << context;
    return;
  }
  ASSERT_EQ(lines[0].rfind("OK ", 0), 0u) << context;
  EXPECT_EQ(lines.size(), 1 + std::stoul(lines[0].substr(3))) << context;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    EXPECT_TRUE(std::none_of(lines[i].begin(), lines[i].end(),
                             is_control_byte))
        << "payload line " << i << " carries a control byte; " << context;
  }
}

/// A program assembled from the vocabulary's tokens: usually an attachable
/// GROUPBY or stream SELECT, sometimes one the compiler rejects. Tokens are
/// appended one draw at a time, so the sequence is the same on every
/// compiler.
std::string vocabulary_program(Rng& rng) {
  std::string out = "SELECT ";
  const auto add = [&](std::initializer_list<const char*> tokens) {
    out += tokens.begin()[rng.below(tokens.size())];
  };
  if (rng.chance(0.6)) {
    add({"COUNT", "COUNT, SUM(tout)"});
    out += " GROUPBY ";
    add({"srcip", "dstip", "5tuple"});
  } else {
    add({"srcip", "srcip, dstip", "tout - tin"});
    out += " FROM T";
  }
  if (rng.chance(0.5)) {
    out += " WHERE ";
    add({"srcip", "dstip", "tout", "tin"});
    out += ' ';
    add({"==", "!=", "<", ">"});
    out += ' ';
    add({"1", "0.5", "1ms", "infinity"});
  }
  return out;
}

TEST(LineProtocolFuzz, RandomLinesKeepTheFraming) {
  // A live serial service driven by seeded random request lines: protocol
  // verbs (and a few non-verbs), tenant names from a pool that includes
  // control bytes, query text from the language's vocabulary, and ingest
  // between commands.
  service::QueryService svc = make_service();
  const auto records = test_workload();
  const std::span<const PacketRecord> all{records};
  const std::vector<std::string> verbs{
      "PING",  "ATTACH", "ATTACH", "ATTACH", "DETACH", "SNAPSHOT", "DRAIN",
      "LIST",  "STATS",  "JSON",   "PROM",   "SHUTDOWN", "BOGUS",  ""};
  const std::vector<std::string> names{
      "t1", "t2", "t3", "BASE", "c\x01x", "del\x7f", "\x1b[0m", "bell\x07"};
  Rng rng(14);
  std::size_t fed = 0;
  for (int i = 0; i < 3000 && !::testing::Test::HasFailure(); ++i) {
    if (fed < all.size() && rng.chance(0.25)) {
      const std::size_t n =
          std::min<std::size_t>(1 + rng.below(64), all.size() - fed);
      svc.process_batch(all.subspan(fed, n));
      fed += n;
    }
    std::string line = verbs[rng.below(verbs.size())];
    if (rng.chance(0.9)) line += " " + names[rng.below(names.size())];
    if (line.rfind("ATTACH", 0) == 0) {
      const std::string text = rng.chance(0.5)
                                   ? vocabulary_program(rng)
                                   : random_soup(rng, 1 + rng.below(20));
      line += " " + service::escape_source(text);
    }
    std::string wire;
    try {
      wire = service::execute_line(svc, line).to_wire();
    } catch (const std::exception& e) {
      ADD_FAILURE() << "escaped execute_line: " << e.what()
                    << "\n  request: " << printable(line);
      break;
    }
    expect_framed(wire, line);
  }
  EXPECT_EQ(service::execute_line(svc, "PING").to_wire(), "OK 0\n");
  const service::Response list = service::execute_line(svc, "LIST");
  EXPECT_TRUE(list.ok);
  expect_framed(list.to_wire(), "LIST");
}

TEST(QueryServer, LoopbackSocketRoundTrip) {
  service::QueryService svc = make_service();
  const auto records = test_workload();
  svc.process_batch(records);
  service::QueryServer server(svc, /*port=*/0);
  ASSERT_GT(server.port(), 0);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server.port());
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  const std::string request =
      "PING\nATTACH t1 SELECT 5tuple, COUNT GROUPBY 5tuple\nLIST\nQUIT\n";
  ASSERT_EQ(::write(fd, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  std::string reply;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) break;
    reply.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  EXPECT_NE(reply.find("OK 0\n"), std::string::npos);           // PING
  EXPECT_NE(reply.find("attached 't1'"), std::string::npos);    // ATTACH
  EXPECT_NE(reply.find("tenant 't1'"), std::string::npos);      // LIST
  EXPECT_FALSE(server.shutdown_requested());
  server.stop();
  EXPECT_EQ(svc.tenants().size(), 1u);
}

/// A loopback client connection to `port` (fails the test on error). Reads
/// time out after 10 s, so a server that never answers fails the test
/// instead of hanging it.
int connect_client(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  const timeval timeout{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
  return fd;
}

void send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    off += static_cast<std::size_t>(n);
  }
}

/// Everything the server sends until it closes the connection.
std::string read_to_eof(int fd) {
  std::string reply;
  char chunk[4096];
  for (ssize_t n; (n = ::read(fd, chunk, sizeof(chunk))) > 0;) {
    reply.append(chunk, static_cast<std::size_t>(n));
  }
  return reply;
}

/// One fresh session: send `request`, half-close, return the whole reply.
std::string round_trip(std::uint16_t port, const std::string& request) {
  const int fd = connect_client(port);
  send_all(fd, request);
  ::shutdown(fd, SHUT_WR);
  std::string reply = read_to_eof(fd);
  ::close(fd);
  return reply;
}

TEST(QueryServer, ClientClosingWithRepliesPendingCostsOnlyItsSession) {
  // Pipeline 2000 PROM requests and half-close, then close with the replies
  // unread. The close resets a connection the server already saw end
  // (CLOSE_WAIT), so the server's next send fails with EPIPE, which must end
  // that one session, not SIGPIPE the whole process.
  service::QueryService svc = make_service();
  svc.process_batch(test_workload());
  service::QueryServer server(svc, /*port=*/0);

  const int fd = connect_client(server.port());
  std::string burst;
  for (int i = 0; i < 2000; ++i) burst += "PROM\n";
  send_all(fd, burst);
  ::shutdown(fd, SHUT_WR);
  char first[2];
  ASSERT_EQ(::read(fd, first, sizeof(first)), 2);  // the server is replying
  ::close(fd);

  // Fresh clients keep getting served while the dead session unwinds.
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(round_trip(server.port(), "PING\n"), "OK 0\n");
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  server.stop();
}

TEST(QueryServer, OverLongLineGetsErrAndOtherSessionsKeepWorking) {
  service::QueryService svc = make_service();
  svc.process_batch(test_workload());
  service::QueryServer server(svc, /*port=*/0);
  const int bystander = connect_client(server.port());

  // One byte past the cap, no newline: ERR, then the server hangs up.
  const std::string unterminated(service::QueryServer::kMaxLineBytes + 1, 'A');
  const int fd = connect_client(server.port());
  send_all(fd, "PING\n" + unterminated);
  const std::string reply = read_to_eof(fd);
  ::close(fd);
  EXPECT_EQ(reply.rfind("OK 0\nERR ", 0), 0u) << reply;
  EXPECT_NE(reply.find("longer than"), std::string::npos) << reply;

  // A terminated line past the cap is refused the same way.
  const std::string terminated =
      round_trip(server.port(), std::string(service::QueryServer::kMaxLineBytes + 1, 'B') + "\n");
  EXPECT_EQ(terminated.rfind("ERR ", 0), 0u) << terminated;
  EXPECT_NE(terminated.find("longer than"), std::string::npos) << terminated;

  // The session opened before, and a fresh one, are unaffected.
  send_all(bystander, "PING\n");
  ::shutdown(bystander, SHUT_WR);
  EXPECT_EQ(read_to_eof(bystander), "OK 0\n");
  ::close(bystander);
  EXPECT_EQ(round_trip(server.port(), "PING\n"), "OK 0\n");
  server.stop();
}

/// One reply line (through its newline) from an open session.
std::string read_line(int fd) {
  std::string line;
  char c = 0;
  while (::read(fd, &c, 1) == 1) {
    line += c;
    if (c == '\n') break;
  }
  return line;
}

/// This process's virtual size, in kB (VmSize in /proc/self/status).
std::int64_t vm_size_kb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmSize:", 0) == 0) return std::stoll(line.substr(7));
  }
  return -1;
}

TEST(QueryServer, FinishedSessionsAreReaped) {
  // Every session thread maps its own stack until it is joined. A server
  // that joins only in stop() grows by a stack per client ever served.
  service::QueryService svc = make_service();
  service::QueryServer server(svc, /*port=*/0);
  ASSERT_EQ(round_trip(server.port(), "PING\nQUIT\n"), "OK 0\nOK 0\n");
  const std::int64_t before = vm_size_kb();
  ASSERT_GT(before, 0);
  for (int i = 0; i < 300; ++i) {
    ASSERT_EQ(round_trip(server.port(), "PING\nQUIT\n"), "OK 0\nOK 0\n");
  }
  EXPECT_LT(vm_size_kb() - before, 256 * 1024) << "dead sessions kept mapped";
  server.stop();
}

TEST(QueryServer, SessionPastTheCapGetsErrAndClosedOnesFreeTheirPlace) {
  service::QueryService svc = make_service();
  service::QueryServer server(svc, /*port=*/0);
  std::vector<int> open;
  for (std::size_t i = 0; i < service::QueryServer::kMaxSessions; ++i) {
    open.push_back(connect_client(server.port()));
    send_all(open.back(), "PING\n");
    ASSERT_EQ(read_line(open.back()), "OK 0\n") << "session " << i;
  }

  // One past the cap: refused (the server speaks first), and only that
  // connection pays.
  const int extra = connect_client(server.port());
  const std::string refused = read_to_eof(extra);
  ::close(extra);
  EXPECT_EQ(refused.rfind("ERR ", 0), 0u) << refused;
  EXPECT_NE(refused.find("too many sessions"), std::string::npos) << refused;
  send_all(open.front(), "PING\n");
  EXPECT_EQ(read_line(open.front()), "OK 0\n");

  // A closed session no longer counts: once its thread is done, a new
  // client is served. Until then a try may be refused, and a refusal may
  // reset the connection, so the tries ignore send and read errors.
  send_all(open.back(), "QUIT\n");
  EXPECT_EQ(read_line(open.back()), "OK 0\n");
  ::close(open.back());
  open.pop_back();
  const auto try_ping = [&server] {
    const int fd = connect_client(server.port());
    (void)::send(fd, "PING\n", 5, MSG_NOSIGNAL);
    ::shutdown(fd, SHUT_WR);
    std::string reply = read_to_eof(fd);
    ::close(fd);
    return reply;
  };
  std::string reply;
  for (int attempt = 0; attempt < 500 && reply != "OK 0\n"; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    reply = try_ping();
  }
  EXPECT_EQ(reply, "OK 0\n");

  for (const int fd : open) ::close(fd);
  server.stop();
}

}  // namespace
}  // namespace perfq::runtime

// Network-wide queries, proven against an all-packets oracle (the PR's
// headline property): a FabricEngine running one engine per switch of a
// leaf-spine fabric must produce results BIT-IDENTICAL to a single oracle
// engine fed every switch's records in global emission order —
//
//   - for additive kernels (COUNT/SUM and their collection-layer JOINs):
//     over {2x2, 4x4} topologies x {serial, sharded} per-switch engines x
//     {refresh off, refresh on}, with evicting caches;
//   - for order-sensitive kernels (EWMA) and non-linear kernels (nonmt)
//     keyed by qid (every key owned by exactly one switch): refresh off;
//   - for network-wide MID-RUN snapshots against a fresh oracle fed the
//     same global record prefix;
//   - for fabric-wide dynamic attach/detach through FabricService,
//     including §3.3 admission control.
//
// The oracle sees exactly the records the taps see: the Network's global
// telemetry sink fires for every port, so the capture is filtered to
// records whose queue is owned by an instrumented switch (host egress
// ports emit telemetry too but are never tapped).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "federation/fabric_engine.hpp"
#include "runtime/engine_builder.hpp"
#include "runtime_test_util.hpp"
#include "service/fabric_service.hpp"

namespace perfq::federation {
namespace {

using compiler::compile_source;

compiler::CompiledProgram compile_ewma() {
  return compile_source(R"(
def ewma (lat_est, (tin, tout)):
    lat_est = (1 - alpha) * lat_est + alpha * (tout - tin)

SELECT qid, ewma GROUPBY qid WHERE tout != infinity
)",
                        {{"alpha", 0.25}});
}

/// The shared fabric config scaled up so the oracle comparison covers a
/// meaningful record volume (tens of thousands of per-switch records, with
/// constant eviction under the small test geometries).
trace::FabricTraceConfig big_fabric_config(std::uint64_t seed,
                                           std::uint32_t leaves = 2,
                                           std::uint32_t spines = 2) {
  trace::FabricTraceConfig c = runtime::fabric_test_config(seed, leaves, spines);
  c.num_flows = 1200;
  c.duration = Nanos{3'000'000};
  return c;
}

constexpr const char* kAdditiveSrc = R"(
R1 = SELECT COUNT, SUM(pkt_len) GROUPBY 5tuple
R2 = SELECT COUNT GROUPBY 5tuple WHERE tout == infinity
R3 = SELECT R2.COUNT / R1.COUNT FROM R1 JOIN R2 ON 5tuple
)";

constexpr const char* kNonmtSrc = R"(
def nonmt ((maxseq, nm_count), (tcpseq)):
    if maxseq > tcpseq: nm_count = nm_count + 1
    maxseq = max(maxseq, tcpseq)

SELECT qid, nonmt GROUPBY qid WHERE proto == TCP
)";

/// One fabric run: topology + traffic from the shared generator, a global
/// oracle capture, and a FabricEngine over every switch.
struct FabricRun {
  explicit FabricRun(const trace::FabricTraceConfig& config,
                     compiler::CompiledProgram program,
                     FabricOptions options = {}) {
    net.set_telemetry_sink([this](const PacketRecord& rec) {
      captured.push_back(rec);
    });
    (void)runtime::build_test_fabric(net, config);
    fabric = std::make_unique<FabricEngine>(net, std::move(program),
                                            std::move(options));
  }

  /// The oracle's view of the capture: records of switch-owned queues only
  /// (optionally a prefix/range), in global emission order.
  [[nodiscard]] std::vector<PacketRecord> oracle_records(
      std::size_t begin = 0, std::size_t end = SIZE_MAX) const {
    std::vector<PacketRecord> out;
    for (std::size_t i = begin; i < captured.size() && i < end; ++i) {
      if (!net.node_is_host(net.queue_owner(captured[i].qid))) {
        out.push_back(captured[i]);
      }
    }
    return out;
  }

  net::Network net;
  std::vector<PacketRecord> captured;
  std::unique_ptr<FabricEngine> fabric;
};

/// A finished oracle engine over `records` (always serial, refresh off:
/// additive results are flush-schedule independent, and the single-source
/// suites pin refresh-off semantics — see fabric_engine.hpp's FP caveat).
std::unique_ptr<runtime::Engine> run_oracle(
    compiler::CompiledProgram program, const std::vector<PacketRecord>& records,
    Nanos now, kv::CacheGeometry geometry = kv::CacheGeometry::set_associative(
                   1u << 10, 4)) {
  runtime::EngineBuilder builder{std::move(program)};
  builder.geometry(geometry);
  auto oracle = builder.build();
  oracle->process_batch(records);
  oracle->finish(now);
  return oracle;
}

struct FabricCase {
  std::string name;
  std::uint32_t leaves = 2;
  std::uint32_t spines = 2;
  std::size_t shards = 0;
  Nanos refresh{0};
};

class FederatedOracle : public ::testing::TestWithParam<FabricCase> {};

/// Headline: additive GROUPBYs (and the JOIN built on them) federate
/// bit-for-bit against the all-packets oracle, with per-switch caches small
/// enough that eviction/merge runs constantly.
TEST_P(FederatedOracle, AdditiveProgramBitIdentical) {
  const auto& p = GetParam();
  FabricOptions options;
  options.shards = p.shards;
  options.refresh_interval = p.refresh;
  options.geometry = kv::CacheGeometry::set_associative(256, 4);
  FabricRun run(big_fabric_config(77, p.leaves, p.spines),
                compile_source(kAdditiveSrc), options);

  run.net.run_all();
  const Nanos end = run.net.now();
  run.fabric->finish(end);

  const auto oracle_in = run.oracle_records();
  ASSERT_GT(oracle_in.size(), 10'000u) << "workload too small to mean much";
  EXPECT_EQ(run.fabric->records(), oracle_in.size());
  const auto oracle = run_oracle(compile_source(kAdditiveSrc), oracle_in, end);

  runtime::expect_tables_bit_identical(oracle->table("R1"),
                                       run.fabric->table("R1"), "R1");
  runtime::expect_tables_bit_identical(oracle->table("R2"),
                                       run.fabric->table("R2"), "R2");
  runtime::expect_tables_bit_identical(oracle->result(), run.fabric->result(),
                                       "R3 (collection layer)");

  // 5tuple keys straddle switches, yet additive federation stays fully valid.
  const FederatedResult& fed = run.fabric->federated("R1");
  EXPECT_EQ(fed.capability, kv::MergeCapability::kAdditive);
  EXPECT_EQ(fed.accuracy.valid_keys, fed.accuracy.total_keys);
  EXPECT_EQ(fed.records, oracle_in.size());
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, FederatedOracle,
    ::testing::Values(FabricCase{"serial_2x2"},
                      FabricCase{"serial_2x2_refresh", 2, 2, 0, Nanos{150'000}},
                      FabricCase{"sharded_2x2", 2, 2, 2},
                      FabricCase{"serial_4x4", 4, 4},
                      FabricCase{"sharded_4x4_refresh", 4, 4, 2,
                                 Nanos{150'000}}),
    [](const auto& info) { return info.param.name; });

/// Order-sensitive fold (EWMA), keyed by qid: every key's whole stream
/// lives on the switch owning that queue, so federation is the exact
/// pass-through case — bit-identical to the oracle with refresh off and a
/// no-evict geometry (eviction schedules differ between one global engine
/// and per-switch engines; see the merge-test suite for the evicting case).
TEST(FederatedSingleSource, EwmaByQidBitIdentical) {
  for (const std::size_t shards : {std::size_t{0}, std::size_t{2}}) {
    FabricOptions options;
    options.shards = shards;
    options.geometry = kv::CacheGeometry::set_associative(1u << 12, 8);
    FabricRun run(runtime::fabric_test_config(99), compile_ewma(),
                  options);
    run.net.run_all();
    const Nanos end = run.net.now();
    run.fabric->finish(end);

    const auto oracle_in = run.oracle_records();
    const auto oracle =
        run_oracle(compile_ewma(), oracle_in, end,
                   kv::CacheGeometry::set_associative(1u << 12, 8));
    runtime::expect_tables_bit_identical(
        oracle->result(), run.fabric->result(),
        "ewma by qid, shards=" + std::to_string(shards));

    const FederatedResult& fed = run.fabric->federated("result");
    EXPECT_EQ(fed.capability, kv::MergeCapability::kSingleSource);
    EXPECT_EQ(fed.accuracy.valid_keys, fed.accuracy.total_keys)
        << "qid keys must never straddle switches";
    EXPECT_GT(fed.accuracy.total_keys, 4u);
  }
}

/// Non-linear fold by qid: same single-source argument, plus the validity
/// accounting the paper's Fig. 6 semantics require.
TEST(FederatedSingleSource, NonLinearByQidBitIdentical) {
  FabricOptions options;
  options.geometry = kv::CacheGeometry::set_associative(1u << 12, 8);
  FabricRun run(runtime::fabric_test_config(101), compile_source(kNonmtSrc),
                options);
  run.net.run_all();
  const Nanos end = run.net.now();
  run.fabric->finish(end);

  const auto oracle =
      run_oracle(compile_source(kNonmtSrc), run.oracle_records(), end,
                 kv::CacheGeometry::set_associative(1u << 12, 8));
  runtime::expect_tables_bit_identical(oracle->result(), run.fabric->result(),
                                       "nonmt by qid");
  const FederatedResult& fed = run.fabric->federated("result");
  EXPECT_EQ(fed.accuracy.valid_keys, fed.accuracy.total_keys);
}

/// Network-wide mid-run snapshots: at several pause points, the federated
/// snapshot must equal a FRESH oracle engine fed exactly the global record
/// prefix emitted so far — and taking snapshots must not perturb the final
/// result (same no-perturbation contract as Engine::snapshot).
TEST(FederatedSnapshot, MidRunEqualsOracleOverSamePrefix) {
  FabricOptions options;
  options.geometry = kv::CacheGeometry::set_associative(256, 4);
  FabricRun run(runtime::fabric_test_config(77), compile_source(kAdditiveSrc),
                options);

  for (const std::int64_t pause : {500'000, 1'000'000, 1'500'000}) {
    run.net.run_until(Nanos{pause});
    const Nanos now = run.net.now();
    const FederatedResult fed = run.fabric->snapshot("R1", now);
    const auto prefix = run.oracle_records();
    EXPECT_EQ(fed.records, prefix.size());
    const auto oracle = run_oracle(compile_source(kAdditiveSrc), prefix, now);
    runtime::expect_tables_bit_identical(
        oracle->table("R1"), fed.table,
        "snapshot at t=" + std::to_string(pause));
  }

  run.net.run_all();
  const Nanos end = run.net.now();
  run.fabric->finish(end);
  const auto oracle =
      run_oracle(compile_source(kAdditiveSrc), run.oracle_records(), end);
  runtime::expect_tables_bit_identical(oracle->result(), run.fabric->result(),
                                       "final result after snapshots");
}

/// Fabric-wide dynamic attach/detach through the multi-tenant front end:
/// a tenant attached mid-run federates exactly the records emitted after
/// its (fabric-wide, tap-flushed) attach epoch; detach returns the exact
/// window result; admission control rejects over-budget tenants before any
/// switch engine is touched.
TEST(FabricServiceTest, AttachSnapshotDetachExactWindows) {
  FabricOptions options;
  options.geometry = kv::CacheGeometry::set_associative(256, 4);
  FabricRun run(runtime::fabric_test_config(77), compile_source(kAdditiveSrc),
                options);

  service::ServiceConfig cfg;
  cfg.tenant_geometry = kv::CacheGeometry::set_associative(1u << 10, 4);
  service::FabricService svc(*run.fabric, cfg);

  run.net.run_until(Nanos{800'000});
  const std::size_t attach_idx = run.captured.size();
  const auto info = svc.attach("tenant", "SELECT COUNT GROUPBY srcip");
  EXPECT_GT(info.die_fraction, 0.0);
  EXPECT_NEAR(svc.used_die_fraction(), info.die_fraction, 1e-12);
  ASSERT_EQ(svc.tenants().size(), 1u);

  // Mid-run tenant snapshot over the records since the attach epoch.
  run.net.run_until(Nanos{1'200'000});
  const FederatedResult snap = svc.snapshot("tenant");
  {
    const auto window = run.oracle_records(attach_idx);
    const auto oracle = run_oracle(
        compile_source("SELECT COUNT GROUPBY srcip"), window, snap.time);
    runtime::expect_tables_bit_identical(oracle->result(), snap.table,
                                         "tenant mid-run snapshot");
  }

  // Detach mid-run: the federated final table covers exactly the attach →
  // detach window, and the budget is released.
  run.net.run_until(Nanos{1'600'000});
  const std::size_t detach_idx_probe = run.captured.size();
  const FederatedResult final_result = svc.detach("tenant");
  // detach flushes taps first, so no record after the probe point can have
  // been folded (the event loop is paused between run_until steps).
  const auto window = run.oracle_records(attach_idx, detach_idx_probe);
  const auto oracle = run_oracle(compile_source("SELECT COUNT GROUPBY srcip"),
                                 window, final_result.time);
  runtime::expect_tables_bit_identical(oracle->result(), final_result.table,
                                       "tenant detach window");
  // FederatedResult::records counts the source ENGINES' records at export
  // (engine lifetime, not tenant window).
  EXPECT_EQ(final_result.records, run.oracle_records(0, detach_idx_probe).size());
  EXPECT_NEAR(svc.used_die_fraction(), 0.0, 1e-12);
  EXPECT_TRUE(svc.tenants().empty());

  // Admission control: a budget too small for any tenant rejects cleanly
  // and leaves the fabric untouched.
  service::ServiceConfig tiny;
  tiny.budget.max_die_fraction = 1e-9;
  service::FabricService strict(*run.fabric, tiny);
  EXPECT_THROW((void)strict.attach("hog", "SELECT COUNT GROUPBY srcip"),
               ConfigError);
  EXPECT_NEAR(strict.used_die_fraction(), 0.0, 1e-12);

  // Stream SELECT tenants are per-switch state: rejected at fabric level.
  EXPECT_THROW((void)svc.attach("stream", "SELECT srcip, qid FROM T"),
               ConfigError);

  // The base program still finishes exactly (attach/detach did not perturb).
  run.net.run_all();
  const Nanos end = run.net.now();
  run.fabric->finish(end);
  const auto base_oracle =
      run_oracle(compile_source(kAdditiveSrc), run.oracle_records(), end);
  runtime::expect_tables_bit_identical(base_oracle->result(),
                                       run.fabric->result(),
                                       "base program after tenant churn");
}

/// Admission's tenant cap on the fabric front end: tiny slices keep 64
/// tenants far inside the budget, and the 65th is refused before any switch
/// engine sees it.
TEST(FabricServiceTest, TenantPastTheCapIsRejectedWithoutStateChange) {
  FabricRun run(runtime::fabric_test_config(77), compile_source(kAdditiveSrc));
  service::FabricService svc(*run.fabric);
  run.net.run_until(Nanos{400'000});
  const kv::CacheGeometry tiny = kv::CacheGeometry::set_associative(8, 4);
  for (std::size_t i = 0; i < service::kMaxTenants; ++i) {
    (void)svc.attach("t" + std::to_string(i), "SELECT COUNT GROUPBY srcip",
                     tiny);
  }
  const double used = svc.used_die_fraction();
  EXPECT_GT(used, 0.0);
  const std::size_t stores = run.fabric->engine(0).store_stats().size();

  EXPECT_THROW((void)svc.attach("late", "SELECT COUNT GROUPBY srcip", tiny),
               ConfigError);
  EXPECT_EQ(svc.tenants().size(), service::kMaxTenants);
  EXPECT_DOUBLE_EQ(svc.used_die_fraction(), used);
  for (std::size_t i = 0; i < run.fabric->switch_count(); ++i) {
    EXPECT_EQ(run.fabric->engine(i).store_stats().size(), stores)
        << run.fabric->switch_label(i);
  }
  EXPECT_THROW((void)run.fabric->snapshot("late", Nanos{400'000}), QueryError);

  // Detaching one frees its place.
  (void)svc.detach("t0");
  (void)svc.attach("late", "SELECT COUNT GROUPBY srcip", tiny);
  EXPECT_EQ(svc.tenants().size(), service::kMaxTenants);
  run.net.run_all();
  run.fabric->finish(run.net.now());
}

/// Programs are values: every switch engine runs a copy of the fabric's
/// program that shares its one analysis, and a fabric-attached tenant's
/// per-switch copies share the tenant's.
TEST(FabricEngineTest, SwitchEnginesShareOneAnalysis) {
  FabricRun run(runtime::fabric_test_config(77), compile_source(kAdditiveSrc));
  const std::size_t n = run.fabric->switch_count();
  ASSERT_GT(n, 1u);
  const auto& analysis = run.fabric->program().analysis;
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(run.fabric->engine(i).program().analysis, analysis)
        << run.fabric->switch_label(i);
  }

  const compiler::CompiledProgram tenant =
      compile_source("SELECT COUNT GROUPBY srcip");
  EXPECT_EQ(tenant.analysis.use_count(), 1);
  runtime::AttachOptions options;
  options.name = "tenant";
  run.net.run_until(Nanos{400'000});
  run.fabric->attach_query(tenant, options);
  // The caller's program, the fabric's copy and one copy per switch engine.
  EXPECT_EQ(tenant.analysis.use_count(), static_cast<long>(n + 2));
  (void)run.fabric->detach_query("tenant", run.fabric->end_time());
  EXPECT_EQ(tenant.analysis.use_count(), 1);
  run.net.run_all();
  run.fabric->finish(run.net.now());
}

/// Per-switch metrics + fabric rollup through the shared obs:: exporters.
TEST(FabricMetricsTest, RollupSumsSwitchesAndExportersLabelThem) {
  FabricOptions options;
  options.geometry = kv::CacheGeometry::set_associative(256, 4);
  FabricRun run(runtime::fabric_test_config(77), compile_source(kAdditiveSrc),
                options);
  run.net.run_all();
  run.fabric->finish(run.net.now());

  const FabricMetrics m = run.fabric->metrics();
  ASSERT_EQ(m.switches.size(), run.fabric->switch_count());
  std::uint64_t sum = 0;
  for (const auto& [label, em] : m.switches) {
    EXPECT_FALSE(label.empty());
    sum += em.records;
  }
  EXPECT_EQ(m.rollup.records, sum);
  EXPECT_EQ(sum, run.fabric->records());
  EXPECT_EQ(m.rollup.engine, "fabric");

  const std::string json = fabric_metrics_to_json(m);
  EXPECT_NE(json.find("\"switch\""), std::string::npos);
  const std::string prom = fabric_metrics_to_prometheus(m);
  EXPECT_NE(prom.find("switch=\""), std::string::npos);
  EXPECT_NE(prom.find("records"), std::string::npos);
}

/// The rollup pools its switches through each stats struct's `+=`: every
/// additive sample a switch engine exports (visit_metrics) sums, across the
/// switches, to the rollup's sample of the same name and labels. Per-thread
/// state, quantiles, ratios, flags and attach epochs do not add.
TEST(FabricMetricsTest, RollupIsTheSumOfItsSwitches) {
  FabricOptions options;
  options.shards = 2;
  options.geometry = kv::CacheGeometry::set_associative(256, 4);
  options.refresh_interval = Nanos{250'000};
  FabricRun run(runtime::fabric_test_config(77), compile_source(kAdditiveSrc),
                options);
  run.net.run_until(Nanos{1'000'000});
  (void)run.fabric->snapshot("R1", run.net.now());
  run.net.run_all();
  run.fabric->finish(run.net.now());

  const auto additive = [](std::string_view name) {
    const auto ends_with = [&](std::string_view suffix) {
      return name.size() >= suffix.size() &&
             name.substr(name.size() - suffix.size()) == suffix;
    };
    return !name.starts_with("shard_") && !name.starts_with("ring_") &&
           !ends_with("_p50_ns") && !ends_with("_p99_ns") &&
           name != "store_accuracy" && name != "engine_faulted" &&
           name != "stream_saturated" && !ends_with("_attached") &&
           !ends_with("_attach_records");
  };
  using Sample = std::pair<std::string, obs::MetricLabels>;
  const auto collect = [&](const runtime::EngineMetrics& em,
                           std::map<Sample, double>& into) {
    obs::visit_metrics(em, [&](std::string_view name,
                               const obs::MetricLabels& labels, double value) {
      if (additive(name)) into[{std::string{name}, labels}] += value;
    });
  };

  const FabricMetrics m = run.fabric->metrics();
  ASSERT_EQ(m.switches.size(), 4u);
  std::map<Sample, double> switches;
  for (const auto& [label, em] : m.switches) {
    EXPECT_GT(em.absorb_ns.count, 0u) << label;
    collect(em, switches);
  }
  std::map<Sample, double> rollup;
  collect(m.rollup, rollup);

  EXPECT_GE(switches.size(), 37u);  // 4 engine, 2 x 11 store, 6 histogram, 5 ingest
  for (const auto& [sample, sum] : switches) {
    const auto it = rollup.find(sample);
    if (it == rollup.end()) {
      ADD_FAILURE() << sample.first << " is missing from the rollup";
      continue;
    }
    EXPECT_EQ(it->second, sum) << sample.first;
  }
  EXPECT_EQ(rollup.size(), switches.size());
}

/// Construction-time contract checks.
TEST(FabricEngineTest, RejectsInvalidConfigurations) {
  net::Network net;
  const auto config = runtime::fabric_test_config(77);
  const auto fabric = runtime::build_test_fabric(net, config);

  // A program with no on-switch GROUPBY has nothing to federate.
  EXPECT_THROW(FabricEngine(net, compile_source("SELECT srcip, qid FROM T")),
               ConfigError);

  // Hosts have no switch pipeline to instrument.
  FabricOptions host_opts;
  host_opts.switches = {fabric.hosts.front()};
  EXPECT_THROW(
      FabricEngine(net, compile_source(kAdditiveSrc), host_opts),
      ConfigError);

  // Duplicate switch selection.
  FabricOptions dup_opts;
  dup_opts.switches = {fabric.leaves.front(), fabric.leaves.front()};
  EXPECT_THROW(FabricEngine(net, compile_source(kAdditiveSrc), dup_opts),
               ConfigError);

  // A valid explicit subset works, labeled by node name.
  FabricOptions sub_opts;
  sub_opts.switches = {fabric.leaves.front(), fabric.spines.front()};
  FabricEngine sub(net, compile_source(kAdditiveSrc), sub_opts);
  EXPECT_EQ(sub.switch_count(), 2u);
  EXPECT_EQ(sub.switch_label(0), net.node_name(fabric.leaves.front()));
}

}  // namespace
}  // namespace perfq::federation

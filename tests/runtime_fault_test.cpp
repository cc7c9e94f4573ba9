// Failure-domain tests: fault injection (failpoints), cross-thread error
// propagation, the poisoned-state contract, and the drain watchdogs.
//
// The hard guarantees under test (engine_api.hpp "Failure semantics"):
//   - the first exception on ANY engine thread poisons the engine: every
//     subsequent call throws a structured EngineFaultError (role, shard,
//     cause) — never a hang, never std::terminate, never silent corruption;
//   - sibling threads unwind cleanly (the destructor joins everything);
//   - a wedged pipeline trips the drain watchdog, which converts the hang
//     into an EngineFaultError carrying a pipeline diagnostic dump.
//
// Failpoint-driven tests skip themselves unless the build compiled the
// sites in (-DPERFQ_FAILPOINTS=ON; the fault-matrix CI job). The sink-throw
// and misuse tests run in every build — the poisoned-state machinery itself
// is always live.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/failpoint.hpp"
#include "compiler/program.hpp"
#include "runtime/engine_builder.hpp"
#include "runtime/stream_sink.hpp"
#include "runtime_test_util.hpp"

namespace perfq::runtime {
namespace {

std::vector<PacketRecord> workload() { return test_workload(); }

/// Small cache so evictions flow; 8 buckets divide into 1 and 4 shards.
EngineConfig small_engine_config() {
  EngineConfig config;
  config.geometry = kv::CacheGeometry::set_associative(8, 2);
  return config;
}

/// Fault scenarios run over the contract matrix (inline plus threaded with
/// 1 and 4 shards) with small rings, so a fault lands mid-flow. `tune`
/// adjusts the threaded knobs further.
std::unique_ptr<Engine> build_case(
    const Topology& topo,
    const std::string& source = "SELECT COUNT GROUPBY srcip",
    const std::function<void(EngineBuilder&)>& tune = {}) {
  const auto small_rings = [&tune](EngineBuilder& b) {
    b.ring_capacity(256).dispatch_batch(32);
    if (tune) tune(b);
  };
  return build_engine(compiler::compile_source(source), topo,
                      small_engine_config(), small_rings);
}

/// Feed batches until the engine throws EngineFaultError (async faults can
/// surface a batch or two after injection). Returns the caught fault.
EngineFaultError drive_to_fault(Engine& engine,
                                std::span<const PacketRecord> records,
                                const std::string& context) {
  constexpr std::size_t kBatch = 64;
  for (int round = 0; round < 200; ++round) {
    for (std::size_t base = 0; base < records.size(); base += kBatch) {
      const std::size_t n = std::min(kBatch, records.size() - base);
      try {
        engine.process_batch(records.subspan(base, n));
      } catch (const EngineFaultError& fault) {
        return fault;
      }
    }
  }
  ADD_FAILURE() << context << ": no EngineFaultError after 200 rounds";
  return EngineFaultError{ThreadRole::kCaller, kNoShard, "unreached"};
}

/// Every post-fault call must throw the structured error — same root cause,
/// no hang, and repeatably (the poison never clears).
void expect_poisoned(Engine& engine, const std::string& context) {
  const auto records = workload();
  for (int repeat = 0; repeat < 2; ++repeat) {
    EXPECT_THROW(engine.process_batch(std::span<const PacketRecord>(records)
                                          .first(10)),
                 EngineFaultError)
        << context;
    EXPECT_THROW(engine.finish(20_s), EngineFaultError) << context;
    EXPECT_THROW((void)engine.snapshot("R1", 20_s), EngineFaultError)
        << context;
    EXPECT_THROW((void)engine.result(), EngineFaultError) << context;
    EXPECT_THROW((void)engine.store_stats(), EngineFaultError) << context;
  }
}

class FaultTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::disarm_all(); }
};

// ---- the failpoint framework itself (runs in every build) ------------------

TEST_F(FaultTest, FailpointSpecSkipAndCountSemantics) {
  // evaluate() is compiled unconditionally (only the PERFQ_FAILPOINT macro
  // is gated), so the spec machinery is testable in every build.
  failpoint::Spec spec;
  spec.action = failpoint::Action::kThrow;
  spec.skip = 2;
  spec.count = 1;
  failpoint::arm("test.site", spec);
  EXPECT_NO_THROW(failpoint::evaluate("test.site"));  // hit 1 (skipped)
  EXPECT_NO_THROW(failpoint::evaluate("test.site"));  // hit 2 (skipped)
  EXPECT_THROW(failpoint::evaluate("test.site"), FaultInjected);  // fires
  EXPECT_NO_THROW(failpoint::evaluate("test.site"));  // count exhausted
  EXPECT_EQ(failpoint::hit_count("test.site"), 4u);
  EXPECT_EQ(failpoint::fire_count("test.site"), 1u);

  failpoint::disarm("test.site");
  EXPECT_NO_THROW(failpoint::evaluate("test.site"));
  // Unknown sites are free and silent.
  EXPECT_NO_THROW(failpoint::evaluate("test.never_armed"));
  EXPECT_EQ(failpoint::hit_count("test.never_armed"), 0u);
}

TEST_F(FaultTest, FailpointRearmResetsCounters) {
  failpoint::arm("test.rearm", {});
  EXPECT_THROW(failpoint::evaluate("test.rearm"), FaultInjected);
  EXPECT_EQ(failpoint::fire_count("test.rearm"), 1u);
  failpoint::Spec sleeper;
  sleeper.action = failpoint::Action::kSleep;
  sleeper.sleep_ms = 1;
  failpoint::arm("test.rearm", sleeper);
  EXPECT_EQ(failpoint::hit_count("test.rearm"), 0u);
  EXPECT_NO_THROW(failpoint::evaluate("test.rearm"));
  EXPECT_EQ(failpoint::fire_count("test.rearm"), 1u);
}

// ---- fault injection through the engine matrix (failpoint builds) ----------

TEST_F(FaultTest, ThrowInFoldPoisonsEveryEngine) {
  if (!failpoint::compiled_in()) {
    GTEST_SKIP() << "built without PERFQ_FAILPOINTS";
  }
  const auto records = workload();
  for (const Topology& c : kTopologies) {
    failpoint::Spec spec;
    spec.skip = 100;  // let some records fold first
    failpoint::arm("fold_core.fold", spec);
    auto engine = build_case(c, "R1 = SELECT COUNT GROUPBY srcip");
    const EngineFaultError fault = drive_to_fault(*engine, records, c.name);
    EXPECT_NE(fault.cause().find("fold_core.fold"), std::string::npos)
        << c.name << ": " << fault.what();
    if (c.shards > 0) {
      // The fold runs on a shard worker; the fault must carry that origin.
      EXPECT_EQ(fault.role(), ThreadRole::kWorker) << c.name;
      EXPECT_LT(fault.shard(), c.shards) << c.name;
    } else {
      EXPECT_EQ(fault.role(), ThreadRole::kCaller) << c.name;
      EXPECT_EQ(fault.shard(), kNoShard) << c.name;
    }
    failpoint::disarm_all();
    expect_poisoned(*engine, c.name);
    // Destructor must join every surviving thread cleanly (TSan/ASan and
    // the ctest timeout police this).
  }
}

TEST_F(FaultTest, WorkerDeathUnwindsSiblings) {
  if (!failpoint::compiled_in()) {
    GTEST_SKIP() << "built without PERFQ_FAILPOINTS";
  }
  const auto records = workload();
  for (const Topology& c : kTopologies) {
    if (c.shards == 0) continue;
    failpoint::arm("sharded.ring_pop", {});  // every worker dies on entry
    auto engine = build_case(c, "R1 = SELECT COUNT GROUPBY srcip");
    const EngineFaultError fault = drive_to_fault(*engine, records, c.name);
    EXPECT_EQ(fault.role(), ThreadRole::kWorker) << c.name;
    EXPECT_LT(fault.shard(), c.shards) << c.name;
    failpoint::disarm_all();
    expect_poisoned(*engine, c.name);
  }
}

TEST_F(FaultTest, SnapshotWorkerDeathFailsTheSnapshotCall) {
  if (!failpoint::compiled_in()) {
    GTEST_SKIP() << "built without PERFQ_FAILPOINTS";
  }
  const auto records = workload();
  failpoint::arm("sharded.snapshot_worker", {});
  auto engine = build_case(Topology{"s4", 4},
                           "R1 = SELECT COUNT GROUPBY srcip");
  engine->process_batch(std::span<const PacketRecord>(records).first(500));
  try {
    (void)engine->snapshot("R1", 15_s);
    FAIL() << "snapshot over a dying worker must throw";
  } catch (const EngineFaultError& fault) {
    EXPECT_EQ(fault.role(), ThreadRole::kWorker);
    EXPECT_LT(fault.shard(), 4u);
  }
  failpoint::disarm_all();
  expect_poisoned(*engine, "snapshot worker death");
}

// ---- drain watchdogs (failpoint builds) ------------------------------------

TEST_F(FaultTest, RingStallTripsTheWatchdogWithDiagnostic) {
  if (!failpoint::compiled_in()) {
    GTEST_SKIP() << "built without PERFQ_FAILPOINTS";
  }
  // Wedge (not kill) the worker: it stalls 200 ms per poll, the ring holds
  // only 2 messages, and the watchdog deadline is 50 ms — the caller's
  // full-ring push must convert the stall into a structured fault carrying
  // the pipeline dump, and the destructor must still join the worker once
  // its stalls run out.
  failpoint::Spec stall;
  stall.action = failpoint::Action::kSleep;
  stall.sleep_ms = 200;
  failpoint::arm("sharded.ring_pop", stall);
  auto engine = build_case(
      Topology{"s1", 1}, "R1 = SELECT COUNT GROUPBY srcip",
      [](EngineBuilder& b) {
        b.ring_capacity(2).dispatch_batch(1).drain_timeout(
            std::chrono::milliseconds{50});
      });
  const auto records = workload();
  try {
    engine->process_batch(std::span<const PacketRecord>(records).first(500));
    FAIL() << "wedged pipeline must trip the watchdog";
  } catch (const EngineFaultError& fault) {
    EXPECT_EQ(fault.role(), ThreadRole::kWatchdog);
    EXPECT_NE(fault.cause().find("drain deadline exceeded"), std::string::npos)
        << fault.what();
    // The diagnostic dump names the wait and reports pipeline state.
    EXPECT_NE(fault.diagnostic().find("pipeline state at watchdog expiry"),
              std::string::npos)
        << fault.what();
    EXPECT_NE(fault.diagnostic().find("ring occupancy"), std::string::npos)
        << fault.what();
  }
  failpoint::disarm_all();
  expect_poisoned(*engine, "ring stall");
}

TEST_F(FaultTest, SnapshotStallTripsTheWatchdog) {
  if (!failpoint::compiled_in()) {
    GTEST_SKIP() << "built without PERFQ_FAILPOINTS";
  }
  // The worker stalls inside the snapshot rendezvous, past the deadline:
  // the caller's rendezvous wait must fault instead of spinning forever.
  failpoint::Spec stall;
  stall.action = failpoint::Action::kSleep;
  stall.sleep_ms = 300;
  stall.count = 1;
  failpoint::arm("sharded.snapshot_worker", stall);
  auto engine = build_case(
      Topology{"s2", 2}, "R1 = SELECT COUNT GROUPBY srcip",
      [](EngineBuilder& b) { b.drain_timeout(std::chrono::milliseconds{50}); });
  const auto records = workload();
  engine->process_batch(std::span<const PacketRecord>(records).first(200));
  try {
    (void)engine->snapshot("R1", 15_s);
    FAIL() << "stalled snapshot rendezvous must trip the watchdog";
  } catch (const EngineFaultError& fault) {
    EXPECT_EQ(fault.role(), ThreadRole::kWatchdog);
    EXPECT_FALSE(fault.diagnostic().empty()) << fault.what();
  }
  failpoint::disarm_all();
  expect_poisoned(*engine, "snapshot stall");
}

// ---- always-on poisoned-state coverage (no failpoints needed) --------------

TEST_F(FaultTest, ThrowingStreamSinkPoisonsBothEngines) {
  // A user sink callback that throws is a caller-side fault in both
  // engines (sinks run on the caller thread): the batch call throws the
  // structured error and the engine stays poisoned — it must never serve
  // results computed from a half-delivered stream.
  const char* source = R"(
S = SELECT srcip, pkt_len FROM T WHERE pkt_len > 0
R1 = SELECT COUNT GROUPBY srcip
)";
  const auto records = workload();
  for (const bool sharded : {false, true}) {
    const std::string context = sharded ? "sharded" : "serial";
    auto sink = std::make_shared<CallbackStreamSink>(
        [](const StreamBatch&) { throw std::runtime_error{"sink exploded"}; });
    EngineBuilder builder(compiler::compile_source(source));
    builder.stream_sink("S", sink);
    if (sharded) builder.sharded(2);
    auto engine = builder.build();
    try {
      engine->process_batch(std::span<const PacketRecord>(records).first(50));
      FAIL() << context << ": throwing sink must fault the batch";
    } catch (const EngineFaultError& fault) {
      EXPECT_EQ(fault.role(), ThreadRole::kCaller) << context;
      EXPECT_NE(fault.cause().find("sink exploded"), std::string::npos)
          << context << ": " << fault.what();
    }
    expect_poisoned(*engine, context);
  }
}

TEST_F(FaultTest, EngineFaultErrorIsAlsoAPlainError) {
  // Callers that only know the common error hierarchy still catch faults.
  const EngineFaultError fault{ThreadRole::kWorker, 3, "cause text", "dump"};
  EXPECT_EQ(fault.role(), ThreadRole::kWorker);
  EXPECT_EQ(fault.shard(), 3u);
  EXPECT_EQ(fault.cause(), "cause text");
  EXPECT_EQ(fault.diagnostic(), "dump");
  const std::string what = fault.what();
  EXPECT_NE(what.find("worker"), std::string::npos);
  EXPECT_NE(what.find("shard 3"), std::string::npos);
  EXPECT_NE(what.find("cause text"), std::string::npos);
  EXPECT_NE(what.find("dump"), std::string::npos);
  EXPECT_THROW(throw fault, Error);
}

TEST_F(FaultTest, DrainTimeoutIsASharedOnlyBuilderKnob) {
  EngineBuilder builder(
      compiler::compile_source("SELECT COUNT GROUPBY srcip"));
  builder.drain_timeout(std::chrono::milliseconds{100});
  EXPECT_THROW((void)builder.build(), ConfigError);

  EngineBuilder sharded_builder(
      compiler::compile_source("SELECT COUNT GROUPBY srcip"));
  sharded_builder.sharded(2).drain_timeout(std::chrono::milliseconds{100});
  EXPECT_NO_THROW((void)sharded_builder.build());
}

TEST_F(FaultTest, ArmedNothingEnginesStayClean) {
  // Sanity for instrumented builds: with no failpoint armed the matrix
  // produces identical results to the serial engine — the sites are inert.
  const auto records = workload();
  auto reference = build_case(kSerial);
  reference->process_batch(records);
  reference->finish(20_s);
  for (const Topology& c : kTopologies) {
    auto engine = build_case(c);
    engine->process_batch(records);
    engine->finish(20_s);
    expect_tables_bit_identical(reference->result(), engine->result(), c.name);
  }
}

}  // namespace
}  // namespace perfq::runtime

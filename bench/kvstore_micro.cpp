// Microbenchmarks (google-benchmark) of the key-value store primitives:
// per-packet cache operations across geometries, fold-kernel update costs
// (compiled VM vs AST-interpreted), merge cost, batched vs
// scalar engine processing, and TCAM lookup. These support the §3.3
// feasibility discussion: the per-packet work is one hash, one bucket LRU
// touch, and one small affine update — the kind of logic the paper argues is
// cheap relative to the SRAM array.
//
// Unless --benchmark_out is given, results are written to BENCH_kvstore.json
// (google-benchmark JSON) in the working directory so the perf trajectory of
// the hot path is tracked across PRs.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/hugepage.hpp"
#include "compiler/key_router.hpp"
#include "compiler/program.hpp"
#include "kvstore/kvstore.hpp"
#include "packet/wire.hpp"
#include "packet/wire_view.hpp"
#include "runtime/engine_builder.hpp"
#include "switchsim/match_compiler.hpp"
#include "trace/replay.hpp"
#include "trace/simple.hpp"

namespace {

using namespace perfq;

std::vector<PacketRecord> workload(std::uint64_t n, std::uint32_t flows) {
  return trace::zipf_records(n, flows, 1.1, 99);
}

std::vector<kv::Key> keys_of(const std::vector<PacketRecord>& records) {
  std::vector<kv::Key> keys;
  keys.reserve(records.size());
  for (const auto& rec : records) {
    const auto bytes = rec.pkt.flow.to_bytes();
    keys.emplace_back(std::span<const std::byte>{bytes.data(), bytes.size()});
  }
  return keys;
}

/// S' = S + 1, written out: BM_Cache8Way is a row of the telemetry-overhead
/// gate, which times the cache around the cheapest fold there is.
class CountKernel final : public kv::FoldKernel {
 public:
  [[nodiscard]] std::string name() const override { return "count"; }
  [[nodiscard]] std::size_t state_dims() const override { return 1; }
  [[nodiscard]] kv::StateVector initial_state() const override {
    return kv::StateVector(1);
  }
  void update(kv::StateVector& state, const PacketRecord&) const override {
    state[0] += 1.0;
  }
  [[nodiscard]] kv::Linearity linearity() const override {
    return kv::Linearity::kLinearConstA;
  }
  [[nodiscard]] kv::SmallMatrix constant_a() const override {
    return kv::SmallMatrix::identity(1);
  }
};

void BM_CacheProcess(benchmark::State& state, kv::CacheGeometry geometry) {
  const auto records = workload(1 << 16, 4096);
  const auto keys = keys_of(records);
  kv::Cache cache(geometry, std::make_shared<CountKernel>());
  cache.set_eviction_sink({});
  std::size_t i = 0;
  for (auto _ : state) {
    cache.process(keys[i], records[i]);
    if (++i == records.size()) i = 0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_CacheHashTable(benchmark::State& state) {
  BM_CacheProcess(state, kv::CacheGeometry::hash_table(1 << 12));
}
void BM_Cache8Way(benchmark::State& state) {
  BM_CacheProcess(state, kv::CacheGeometry::set_associative(1 << 12, 8));
}
void BM_CacheFullyAssociative(benchmark::State& state) {
  BM_CacheProcess(state, kv::CacheGeometry::fully_associative(1 << 12));
}
BENCHMARK(BM_CacheHashTable);
BENCHMARK(BM_Cache8Way);
BENCHMARK(BM_CacheFullyAssociative);

void BM_SplitStoreWithMerge(benchmark::State& state) {
  // Full split store (cache + merging backing store) under heavy eviction.
  const auto records = workload(1 << 16, 4096);
  const auto keys = keys_of(records);
  // The EWMA skips drops, so A varies per packet: the running-product path.
  kv::KeyValueStore store(kv::CacheGeometry::set_associative(512, 8),
                          bench::compiled_kernel(R"(
def ewma (lat_est, (tin, tout)):
    if tout != infinity:
        lat_est = (1 - alpha) * lat_est + alpha * (tout - tin)

SELECT 5tuple, ewma GROUPBY 5tuple
)",
                                                 {{"alpha", 0.125}}));
  std::size_t i = 0;
  for (auto _ : state) {
    store.process(keys[i], records[i]);
    if (++i == records.size()) i = 0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SplitStoreWithMerge);

const compiler::CompiledFoldKernel& compiled_ewma_kernel() {
  static const auto analysis = lang::analyze_source(R"(
def ewma (lat_est, (tin, tout)):
    lat_est = (1 - alpha) * lat_est + alpha * (tout - tin)

SELECT 5tuple, ewma GROUPBY 5tuple
)",
                                                    {{"alpha", 0.125}});
  static const compiler::CompiledFoldKernel kernel(analysis.folds[0], {});
  return kernel;
}

void BM_CompiledEwmaUpdate(benchmark::State& state) {
  // The bytecode VM; BM_CompiledEwmaUpdateInterpreted is its baseline.
  const compiler::CompiledFoldKernel& kernel = compiled_ewma_kernel();
  const auto records = workload(4096, 64);
  kv::StateVector s = kernel.initial_state();
  std::size_t i = 0;
  for (auto _ : state) {
    kernel.update(s, records[i]);
    benchmark::DoNotOptimize(s);
    if (++i == records.size()) i = 0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CompiledEwmaUpdate);

void BM_CompiledEwmaUpdateInterpreted(benchmark::State& state) {
  // The pre-VM reference path: per-packet AST walking. Kept as the
  // before/after counter for the fold VM.
  const compiler::CompiledFoldKernel& kernel = compiled_ewma_kernel();
  const auto records = workload(4096, 64);
  kv::StateVector s = kernel.initial_state();
  std::size_t i = 0;
  for (auto _ : state) {
    kernel.update_interpreted(s, records[i]);
    benchmark::DoNotOptimize(s);
    if (++i == records.size()) i = 0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CompiledEwmaUpdateInterpreted);

// ---- batched vs scalar engine processing ----------------------------------
// Same program, same records; the only difference is process() per record vs
// process_batch() over the whole span (up-front key extraction + bucket
// prefetch). The ratio is the batching win. Engines are built the way every
// driver builds them — through EngineBuilder, measured through the virtual
// Engine surface (the batch-level call amortizes the dispatch to nothing;
// this bench is the guard that keeps it that way).

void report_engine_metrics(benchmark::State& state,
                           const runtime::Engine& engine) {
  // The engine's own telemetry, attached as bench counters: the same run
  // yields both the throughput number and the why behind it (hit rate,
  // eviction pressure, tail latency) without a second instrumented build.
  const runtime::EngineMetrics m = engine.metrics();
  double packets = 0, hits = 0, evictions = 0;
  for (const auto& q : m.queries) {
    packets += static_cast<double>(static_cast<std::uint64_t>(q.cache.packets));
    hits += static_cast<double>(static_cast<std::uint64_t>(q.cache.hits));
    evictions +=
        static_cast<double>(static_cast<std::uint64_t>(q.cache.evictions));
  }
  state.counters["cache_hit_rate"] =
      benchmark::Counter(packets > 0 ? hits / packets : 0.0);
  state.counters["evictions"] = benchmark::Counter(evictions);
  if (m.batch_ns.count > 0) {
    state.counters["batch_p99_ns"] =
        benchmark::Counter(m.batch_ns.quantile_ns(0.99));
  }
  if (m.engine == "sharded") {
    double stalls = 0;
    for (const auto& ring : m.rings) {
      stalls += static_cast<double>(ring.push_stalls);
    }
    state.counters["ring_push_stalls"] = benchmark::Counter(stalls);
    if (m.absorb_ns.count > 0) {
      state.counters["absorb_p99_ns"] =
          benchmark::Counter(m.absorb_ns.quantile_ns(0.99));
    }
  }
}

compiler::CompiledProgram engine_bench_program() {
  // Compiled fresh per engine (CompiledProgram owns its ASTs and is
  // move-only); compile cost is outside the measured loop either way.
  return compiler::compile_source("SELECT COUNT GROUPBY 5tuple");
}

kv::CacheGeometry engine_bench_geometry() {
  // Large enough that the slot array dwarfs the LLC: scalar processing
  // stalls on one DRAM bucket fetch per packet, which is exactly the
  // latency the batched path's prefetch overlaps.
  return kv::CacheGeometry::set_associative(1 << 18, 8);
}

void BM_EngineProcessScalar(benchmark::State& state) {
  const auto records = workload(1 << 18, 1 << 20);
  const auto engine = runtime::EngineBuilder(engine_bench_program())
                          .geometry(engine_bench_geometry())
                          .build();
  std::size_t i = 0;
  for (auto _ : state) {
    engine->process(records[i]);
    if (++i == records.size()) i = 0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EngineProcessScalar);

void BM_EngineProcessBatch(benchmark::State& state) {
  const auto records = workload(1 << 18, 1 << 20);
  const auto engine = runtime::EngineBuilder(engine_bench_program())
                          .geometry(engine_bench_geometry())
                          .build();
  std::int64_t processed = 0;
  for (auto _ : state) {
    engine->process_batch(records);
    processed += static_cast<std::int64_t>(records.size());
  }
  state.SetItemsProcessed(processed);
  report_engine_metrics(state, *engine);
}
BENCHMARK(BM_EngineProcessBatch);

void BM_EngineProcessBatchHugePages(benchmark::State& state) {
  // Same as BM_EngineProcessBatch with the slot arena on 2 MiB pages: the
  // batched path's bucket prefetches are DTLB-capped at 4 KiB pages (the
  // ROADMAP open item); huge pages recover the difference.
  const auto records = workload(1 << 18, 1 << 20);
  const auto engine = runtime::EngineBuilder(engine_bench_program())
                          .geometry(engine_bench_geometry().with_huge_pages())
                          .build();
  std::int64_t processed = 0;
  for (auto _ : state) {
    engine->process_batch(records);
    processed += static_cast<std::int64_t>(records.size());
  }
  state.SetItemsProcessed(processed);
  state.counters["huge_pages_supported"] =
      benchmark::Counter(huge_pages_supported() ? 1 : 0);
}
BENCHMARK(BM_EngineProcessBatchHugePages);

// ---- sharded engine scaling ------------------------------------------------
// Same program, geometry and trace as BM_EngineProcessBatch; the argument is
// the shard (worker thread) count. Each shard owns a 1/N bucket slice, so
// the per-shard working set shrinks as N grows — on a multi-core machine the
// records/s curve is the ROADMAP "Scaling" table.

void BM_ShardedEngine(benchmark::State& state) {
  const auto records = workload(1 << 18, 1 << 20);
  const auto engine =
      runtime::EngineBuilder(engine_bench_program())
          .geometry(engine_bench_geometry().with_huge_pages())
          .sharded(static_cast<std::size_t>(state.range(0)))
          .build();
  std::int64_t processed = 0;
  for (auto _ : state) {
    const auto stats = trace::replay_into(*engine, records, /*batch=*/4096);
    processed += static_cast<std::int64_t>(stats.records);
  }
  state.SetItemsProcessed(processed);
  state.counters["shards"] =
      benchmark::Counter(static_cast<double>(state.range(0)));
  report_engine_metrics(state, *engine);
}
// Wall-clock rate: the pipeline spans several threads, so CPU-time-based
// items/s would overstate throughput on loaded machines.
BENCHMARK(BM_ShardedEngine)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_TcamLookup(benchmark::State& state) {
  const auto analysis = lang::analyze_source(
      "SELECT COUNT GROUPBY 5tuple WHERE proto == TCP and qsize > 100");
  const auto entries =
      sw::compile_where_to_tcam(*analysis.queries[0].def.where, 1);
  sw::TcamTable table;
  for (auto e : *entries) table.install(std::move(e));
  const auto records = workload(4096, 64);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(records[i]));
    if (++i == records.size()) i = 0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TcamLookup);

void BM_KeyExtractAndPack(benchmark::State& state) {
  const auto program = compiler::compile_source("SELECT COUNT GROUPBY 5tuple");
  const auto records = workload(4096, 64);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        compiler::extract_key(program.switch_plans[0], records[i]));
    if (++i == records.size()) i = 0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_KeyExtractAndPack);

void BM_KeyRouterHash(benchmark::State& state) {
  // The record-direct dispatch cost: pack the plain-field key into a stack
  // buffer and hash it, no kv::Key materialized. This is the per-record
  // serial work of the sharded dispatcher (vs BM_KeyExtractAndPack, the PR 2
  // dispatch path), i.e. the Amdahl term of multi-core scaling.
  const auto program = compiler::compile_source("SELECT COUNT GROUPBY 5tuple");
  const auto router = compiler::KeyRouter::make(program.switch_plans[0]);
  const auto records = workload(4096, 64);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(router->raw_hash(records[i]));
    if (++i == records.size()) i = 0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_KeyRouterHash);

// ---- wire-rate burst ingest ------------------------------------------------
// Capture bytes → table update with no materialized record in between.
// Frames are serialized once outside the loop; the measured work is exactly
// what a burst feed pays per frame: validate the fixed-offset headers, hash
// the key straight off the wire bytes, fold lazily.

struct WireWorkload {
  std::vector<std::vector<std::byte>> storage;  ///< owns the frame bytes
  std::vector<FrameObservation> frames;
};

WireWorkload wire_workload(std::uint64_t n, std::uint32_t flows) {
  const auto records = workload(n, flows);
  WireWorkload w;
  w.storage.reserve(records.size());
  w.frames.reserve(records.size());
  for (const auto& rec : records) {
    w.storage.push_back(wire::serialize(rec.pkt));
    FrameObservation frame;
    frame.bytes = w.storage.back();
    frame.qid = rec.qid;
    frame.tin = rec.tin;
    frame.tout = rec.tout;
    frame.qsize = rec.qsize;
    w.frames.push_back(frame);
  }
  return w;
}

void BM_WireToTable(benchmark::State& state) {
  // End-to-end lazy ingest on BM_Cache8Way's exact cache-resident config
  // (same zipf trace, same geometry): the target is the same M-records/s
  // class as prebuilt-key cache processing — the decode must stay invisible
  // next to the bucket access. Counters carry the ingest telemetry: how
  // many wire fields sema let the decode skip, and frames dropped.
  const WireWorkload w = wire_workload(1 << 16, 4096);
  auto program = compiler::compile_source("SELECT COUNT GROUPBY 5tuple");
  const double skipped =
      static_cast<double>(program.field_usage.wire_fields_skipped());
  const auto engine =
      runtime::EngineBuilder(std::move(program))
          .geometry(kv::CacheGeometry::set_associative(1 << 12, 8))
          .build();
  std::int64_t processed = 0;
  double damaged = 0;
  for (auto _ : state) {
    const auto stats = engine->process_wire_batch(w.frames);
    processed += static_cast<std::int64_t>(stats.parsed);
    damaged += static_cast<double>(stats.dropped());
  }
  state.SetItemsProcessed(processed);
  state.counters["wire_fields_skipped"] = benchmark::Counter(skipped);
  state.counters["damaged_frames"] = benchmark::Counter(damaged);
  report_engine_metrics(state, *engine);
}
BENCHMARK(BM_WireToTable);

void BM_WireToTableEager(benchmark::State& state) {
  // The materialize-per-frame reference on the identical config: parse each
  // frame into a PacketRecord, then process_batch. The BM_WireToTable ratio
  // is the lazy-decode win; kept as the before/after counter the way
  // BM_CompiledEwmaUpdateInterpreted anchors the fold VM.
  const WireWorkload w = wire_workload(1 << 16, 4096);
  const auto engine =
      runtime::EngineBuilder(
          compiler::compile_source("SELECT COUNT GROUPBY 5tuple"))
          .geometry(kv::CacheGeometry::set_associative(1 << 12, 8))
          .build();
  std::vector<PacketRecord> pending;
  pending.reserve(w.frames.size());
  std::int64_t processed = 0;
  for (auto _ : state) {
    pending.clear();
    for (const FrameObservation& frame : w.frames) {
      const auto parsed = wire::try_parse(frame.bytes);
      PacketRecord& rec = pending.emplace_back();
      rec.pkt = parsed->pkt;
      rec.qid = frame.qid;
      rec.tin = frame.tin;
      rec.tout = frame.tout;
      rec.qsize = frame.qsize;
    }
    engine->process_batch(pending);
    processed += static_cast<std::int64_t>(pending.size());
  }
  state.SetItemsProcessed(processed);
}
BENCHMARK(BM_WireToTableEager);

void BM_WireToTableDamaged(benchmark::State& state) {
  // Same burst with every 32nd frame snap-truncated: the skip-and-count
  // error path must not tax the surviving frames.
  WireWorkload w = wire_workload(1 << 16, 4096);
  for (std::size_t i = 0; i < w.storage.size(); i += 32) {
    w.storage[i].resize(10);
    w.frames[i].bytes = w.storage[i];
  }
  const auto engine =
      runtime::EngineBuilder(
          compiler::compile_source("SELECT COUNT GROUPBY 5tuple"))
          .geometry(kv::CacheGeometry::set_associative(1 << 12, 8))
          .build();
  std::int64_t processed = 0;
  double damaged = 0;
  for (auto _ : state) {
    const auto stats = engine->process_wire_batch(w.frames);
    processed += static_cast<std::int64_t>(stats.total());
    damaged += static_cast<double>(stats.dropped());
  }
  state.SetItemsProcessed(processed);  // frames offered, incl. skipped
  state.counters["damaged_frames"] = benchmark::Counter(damaged);
}
BENCHMARK(BM_WireToTableDamaged);

void BM_WireKeyHash(benchmark::State& state) {
  // Dispatch cost straight off the wire: validate + hash the plain-field
  // key at its fixed byte offsets, no record materialized. The wire-path
  // counterpart of BM_KeyRouterHash — together they bound what the sharded
  // caller saves by never building a PacketRecord before routing.
  const auto program = compiler::compile_source("SELECT COUNT GROUPBY 5tuple");
  const auto router = compiler::KeyRouter::make(program.switch_plans[0]);
  const WireWorkload w = wire_workload(4096, 64);
  std::size_t i = 0;
  for (auto _ : state) {
    const FrameObservation& frame = w.frames[i];
    benchmark::DoNotOptimize(wire::check_frame(frame.bytes));
    benchmark::DoNotOptimize(router->raw_hash(wire_record_view(frame)));
    if (++i == w.frames.size()) i = 0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_WireKeyHash);

}  // namespace

// Custom main: default --benchmark_out to BENCH_kvstore.json so every run
// leaves a machine-readable perf record unless the caller overrides it.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  bool has_fmt = false;
  for (int i = 1; i < argc; ++i) {
    // Exact-prefix matches: "--benchmark_out_format=..." alone must not
    // suppress the default output file, and an explicit format choice must
    // not be overridden by the appended default (last flag wins).
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) has_out = true;
    if (std::strncmp(argv[i], "--benchmark_out_format=", 23) == 0) {
      has_fmt = true;
    }
  }
  std::string out_flag = "--benchmark_out=BENCH_kvstore.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) args.push_back(out_flag.data());
  if (!has_out && !has_fmt) args.push_back(fmt_flag.data());
  int count = static_cast<int>(args.size());
  benchmark::Initialize(&count, args.data());
  if (benchmark::ReportUnrecognizedArguments(count, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

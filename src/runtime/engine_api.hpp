// The one engine.
//
// runtime::Engine runs a compiled program over packet records, and every
// driver (trace replay, the network simulator's telemetry sink, the REPL,
// the benches, the service) targets it. It is one mechanism — the paper's
// programmable key-value store (§3.2) — over two executors, the places
// where folding happens:
//   - InlineExecutor (the default): the caller folds each record, a
//     PacketRecord or a lazy view of a frame's bytes, into one
//     KeyValueStore per on-switch GROUPBY; evictions absorb directly.
//   - ThreadedExecutor (EngineBuilder::sharded(N)): the caller decodes each
//     wire view once and routes records through one ring per shard to N
//     shard workers, and each worker folds into its own KeyValueStore per
//     query (a bucket slice of the cache over a private backing store);
//     evictions absorb directly there too.
// Everything above the fold is written once, in Engine: the query registry,
// attach validation, the wire front (each frame checked, damaged ones
// skipped and counted, survivors viewed lazily in chunks of kFoldChunk),
// refresh-boundary detection, the stream stage, finish and the collection
// layer, result/table, telemetry and the fault gate. An executor only
// folds: the engine hands it records in order with a callback that runs
// the stream stage on each record once it is folded (or routed), calls
// refresh(now) at each boundary between them, and end_batch() once per
// call. The executor is chosen at
// construction (EngineBuilder is the only way to build an engine) and
// dispatched per batch without a virtual call; results are the same either
// way (bit-identical for linear kernels).
//
// Lifecycle:  build (EngineBuilder) → process_batch()* → finish(now) →
// result()/table(). Two reads work MID-RUN, before finish():
//   - snapshot(query, now): the paper's §3.2 application pull (below);
//   - a RingStreamSink (stream_sink.hpp) drained from another thread.
//
// ---- snapshot() consistency contract ---------------------------------------
//
// snapshot(query, now) returns the result table of one on-switch GROUPBY as
// of the current *record boundary* — the point after every record already
// passed to process_batch() and before any record of a later call. It is the
// paper's "monitoring applications can pull results" made exact:
//
//   - The snapshot reflects ALL records processed so far and NOTHING else:
//     live cache contents are merged over the backing store with the same
//     exact-merge machinery finish() uses, so for linear-in-state kernels the
//     returned table is bit-for-bit the table a fresh engine fed the same
//     record prefix would produce from finish(now). This holds for both
//     executors (the threaded one reaches the boundary with an in-band
//     marker down every ring; each worker copies its slice of the query at
//     the marker and acks — no thread is stopped, folding resumes
//     immediately after).
//   - Kernels that are NOT linear in state have no merge function (§3.2):
//     a key resident in the cache at snapshot time contributes one extra
//     value segment covering [its epoch start, now), exactly as a flush at
//     `now` would. Per-segment values are correct over their own intervals;
//     whole-window validity is the same Fig. 6 semantics finish() reports.
//   - The engine is not perturbed: caches, stats, refresh schedule and final
//     results are identical whether or not snapshots were taken.
//   - Cost: proportional to cache occupancy plus the backing store size of
//     the one query (it is copied; the threaded executor copies each shard's
//     slice on its own worker, in parallel). A monitoring-rate read, not a
//     hot path.
//   - snapshot() must be called from the processing (caller) thread, between
//     process_batch() calls; only stream-SELECT queries are excluded (their
//     rows stream through StreamSinks instead).
//
// ---- Failure semantics -----------------------------------------------------
//
// An exception escaping the engine's own machinery mid-run — a throwing user
// StreamSink, a fault injected through common/failpoint.hpp, a crashed shard
// worker — leaves the state at an arbitrary point inside a batch. There is
// no way to resume without silently corrupting results, so the engine
// implements one poisoned-state protocol (engine_fault.hpp):
//
//   - The FIRST failure wins: its description is captured in a FaultSlot
//     (role + shard + cause); later failures during the unwind are dropped.
//     The slot is also the threaded executor's stop flag, so the caller and
//     the workers unwind promptly instead of spinning on rings that will
//     never drain.
//   - The call that observes the fault throws EngineFaultError (an Error
//     subclass) carrying the faulting role ("caller", "worker",
//     "watchdog"), the shard index if any, and the original cause. Watchdog
//     faults append a pipeline diagnostic (ring occupancy, per-worker
//     state) to what().
//   - The engine is then POISONED: every subsequent process_batch(),
//     finish(), snapshot(), result(), table() and store_stats() call throws
//     the SAME EngineFaultError. No call ever hangs, returns partial
//     results, or std::terminate()s. Destruction is always safe.
//   - Argument errors thrown BEFORE any state changes (unknown snapshot
//     name, double finish, process after finish) stay ordinary
//     QueryError/ConfigError and do NOT poison the engine.
//   - The threaded executor bounds every internal wait by the builder's
//     drain_timeout (default 10 s, sharded-only knob): if the pipeline
//     cannot make progress within the deadline — a wedged ring, a stuck
//     snapshot rendezvous — a watchdog records a fault with a diagnostic
//     dump instead of blocking the caller forever.
//
// ---- Metrics coherence contract (obs/) -------------------------------------
//
// metrics() returns an EngineMetrics — the engine's own telemetry: what the
// pipeline is doing, as opposed to what the queries computed. It is always on
// (the slots cost <= 2% of throughput and burst latency on perfbench's
// hot-serial workload; CI's telemetry-overhead job enforces that bound
// against a PERFQ_TELEMETRY_OFF build) and readable from ANY thread at ANY
// time, including while process_batch() runs on another thread — it never
// blocks, perturbs, or synchronizes with the pipeline, and it is TSan-clean.
// The price of that is a relaxed coherence guarantee, which is the right one
// for a live monitor:
//
//   - Every counter is individually torn-free and monotone (single-writer
//     relaxed slots, obs/metrics.hpp); gauges (ring occupancy) are
//     instantaneous approximations.
//   - CROSS-counter invariants hold exactly at quiescent points — between
//     process_batch() calls with the inline executor, and at every
//     rendezvous (snapshot, export, attach, detach) and after finish() with
//     the threaded one. Mid-run they hold up to the records currently in
//     flight. Per query:
//       cache hits + initializations == cache packets;
//       backing_capacity_writes == cache evictions;
//       backing_writes == cache evictions + cache flushes.
//     The last two hold because every eviction and flush absorbs into the
//     backing store synchronously, on the thread that folded the key.
//   - metrics() on a POISONED engine does NOT throw: a monitor must be able
//     to observe a wedged or crashed pipeline. `faulted` is set and the
//     per-worker exit flags show which shard died.
//
// metrics_to_json() / metrics_to_prometheus() (obs/metrics_export.hpp) render
// the same enumeration of metrics — anything metrics() carries appears in
// both, by construction. obs::MetricsSampler (obs/sampler.hpp) polls
// metrics() on its own thread into a bounded time series.
//
// ---- Query lifecycle contract (dynamic attach/detach) ----------------------
//
// The engine hosts a RESIDENT program: queries can be attached and detached
// mid-stream (the paper's §3.2 operating model — operators submit queries
// while traffic flows), without stopping ingest and without perturbing the
// queries already running. src/service/query_service.hpp is the intended
// front end; the raw engine contract is:
//
//   - attach_query(program, options) accepts a SINGLE-query compiled program:
//     either one on-switch GROUPBY chain (exactly one switch plan, no
//     collection layer) or one unconsumed stream SELECT. The query runs
//     under options.name: a GROUPBY tenant's copy of the program renames
//     its switch plan, a stream tenant's entry takes the name, and the
//     shared analysis is left as compiled. The name must be non-empty, free
//     of control bytes (below 0x20, or 0x7f) and unique across every
//     resident query and base-program table. Anything else — a bad name,
//     multi-query programs, collection-layer queries, invalid geometry (the
//     threaded executor still requires num_buckets % num_shards == 0) — is
//     a clean ConfigError thrown BEFORE any state changes: a rejected attach
//     leaves the engine exactly as it was, never with degraded results.
//   - The ATTACH EPOCH is the record boundary at which attach_query returns:
//     records processed before it are out of scope for the new query by
//     contract; every record after it folds into the new query in exact
//     global order. For linear-in-state kernels the query's results are
//     therefore bit-identical to a fresh engine fed only the post-attach
//     suffix (the final table of a linear fold is independent of eviction
//     and flush timing). One float-rounding caveat: the periodic refresh
//     clock anchors at an engine's FIRST record, so the resident engine and
//     the suffix oracle flush at different absolute times — exact for folds
//     whose merge is FP-exact (integer counters/sums) and for any linear
//     fold with refresh off, ULP-level otherwise (ewma under refresh).
//     StoreStats::attach_records records the epoch.
//   - detach_query(name, now) ends the query's window at the current record
//     boundary: its cache slice is flushed at `now`, the final table is
//     materialized and returned, and every resource the attach allocated
//     (cache slice, backing store, key-class membership, plan storage) is
//     freed. Only dynamically attached queries can be detached — detaching a
//     base-program query would orphan the collection layer and is a
//     ConfigError. Resident queries are NOT perturbed: their caches are not
//     flushed and their final tables are byte-identical whether or not a
//     neighbor detached. Queries still attached at finish(now) end with the
//     window; their tables remain readable via table(name).
//   - Threading: attach_query/detach_query belong to the PROCESSING domain —
//     the caller must serialize them with process_batch()/finish()/snapshot()
//     exactly as it serializes those with each other (QueryService does this
//     with one mutex; thread identity does not matter, only serialization at
//     batch boundaries). metrics()/store_stats() stay safe from ANY thread
//     concurrently with an attach/detach — topology mutations are guarded
//     against the metrics readers, never against the hot path.
//   - Poisoned-engine interaction: attach/detach on a poisoned engine throw
//     the recorded EngineFaultError like every other mutating call.
//     Validation failures (bad program shape, name collision, over-budget
//     admission in the service layer) are argument errors — ConfigError /
//     QueryError — and do NOT poison the engine.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "compiler/program.hpp"
#include "kvstore/federated.hpp"
#include "kvstore/kvstore.hpp"
#include "obs/metrics.hpp"
#include "packet/wire_view.hpp"
#include "runtime/engine_fault.hpp"
#include "runtime/stream_sink.hpp"
#include "runtime/table.hpp"
#include "trace/ingest_stats.hpp"

namespace perfq::runtime {

/// Construction-time settings of the engine (EngineBuilder fills one; the
/// threaded executor adds ThreadedConfig).
struct EngineConfig {
  /// Cache geometry for every on-switch GROUPBY (an attached tenant may
  /// bring its own: AttachOptions::geometry).
  kv::CacheGeometry geometry = kv::CacheGeometry::set_associative(1u << 16, 8);
  /// Seed of every cache's bucket-placement hash, and so of the threaded
  /// executor's shard routing.
  static constexpr std::uint64_t hash_seed = 0x5eedcafe;
  /// In-bucket replacement policy: LRU, as in the paper. kv::Cache keeps
  /// FIFO and random replacement for the eviction-policy ablation.
  static constexpr kv::EvictionPolicy eviction_policy =
      kv::EvictionPolicy::kLru;
  /// Periodically flush caches to the backing store while processing (§3.2:
  /// "keys can be periodically evicted to ensure the backing store is
  /// fresh, and monitoring applications can pull results"). Zero disables.
  /// Thanks to the exact merge this is free of correctness cost for linear
  /// queries; refresh_count() reports how many refreshes happened.
  Nanos refresh_interval{0};
  /// User stream sinks by result name, one per stream select
  /// (CompiledProgram::stream_selects); a stream select not named here gets
  /// a default TableStreamSink, capped at 1,000,000 rows. Unknown names (or
  /// names of non-stream or consumed queries) are a ConfigError at engine
  /// construction.
  std::map<std::string, std::shared_ptr<StreamSink>> stream_sinks;
  /// Opt-in IPv4 header checksum verification on the wire ingest path
  /// (process_wire_batch). Off by default: software captures rarely carry
  /// valid checksums (offload). Failures skip-and-count as bad_checksum.
  bool verify_checksums = false;
};

/// Options for one dynamic attach (see the query lifecycle contract above).
struct AttachOptions {
  /// The resident name of the query — result table name, metrics label, and
  /// the handle detach_query() takes. Must be non-empty, free of control
  /// bytes and unique among live queries.
  std::string name;
  /// Cache slice geometry for an on-switch GROUPBY tenant; falls back to the
  /// engine's EngineConfig::geometry.
  std::optional<kv::CacheGeometry> geometry;
  /// Sink for a stream-SELECT tenant; a default TableStreamSink if empty.
  std::shared_ptr<StreamSink> sink;
};

/// How an attachable program folds: one on-switch GROUPBY with its own cache
/// slice, or one stream SELECT delivered through a StreamSink.
enum class AttachKind : std::uint8_t { kSwitchQuery, kStreamSelect };

/// Classify a program for attach_query(). Attachable programs are single-
/// result: either one on-switch GROUPBY chain (exactly one switch plan that
/// IS the program's last query — upstream SELECTs are composed into the
/// plan, nothing runs in the collection layer) or one unconsumed stream
/// SELECT chain. Throws ConfigError for everything else — multi-result
/// programs, collection-layer queries (joins, soft GROUPBYs, SELECTs over
/// aggregate results) have no per-record resident form.
[[nodiscard]] AttachKind attachable_kind(
    const compiler::CompiledProgram& program);

/// Per-switch-query statistics surfaced to the evaluation harnesses.
struct StoreStats {
  std::string name;
  kv::Linearity linearity = kv::Linearity::kNotLinear;
  kv::CacheStats cache;
  kv::AccuracyStats accuracy;
  std::uint64_t backing_writes = 0;
  std::uint64_t backing_capacity_writes = 0;
  /// Packets merged into the backing store so far (it lags cache.packets
  /// by what is cache-resident or still in a shard ring).
  std::uint64_t backing_packets = 0;
  std::size_t keys = 0;
  bool attached = false;              ///< dynamically attached (vs base program)
  std::uint64_t attach_records = 0;   ///< attach epoch (records seen before it)

  /// One store's cache and backing-store counters, read live (the name,
  /// linearity and attach fields are left for the engine to fill).
  [[nodiscard]] static StoreStats of(const kv::KeyValueStore& store);

  /// Pool `other` into these: the one place the fields are summed (a
  /// sharded query's shards, a fabric's switches). Counters add, the
  /// attached flag ORs and the attach epoch keeps the later one; the name
  /// and linearity stay.
  StoreStats& operator+=(const StoreStats& other) {
    cache += other.cache;
    accuracy += other.accuracy;
    backing_writes += other.backing_writes;
    backing_capacity_writes += other.backing_capacity_writes;
    backing_packets += other.backing_packets;
    keys += other.keys;
    attached = attached || other.attached;
    attach_records = std::max(attach_records, other.attach_records);
    return *this;
  }
};

/// A mid-run result pull, stamped with the record boundary it is exact at.
struct EngineSnapshot {
  ResultTable table;
  std::uint64_t records = 0;  ///< records processed when the snapshot ran
  Nanos time;                 ///< caller-supplied timestamp (epoch end stamp)
};

/// Per-stream-query delivery accounting (one per stream SELECT).
struct StreamSinkMetrics {
  std::string query;
  std::uint64_t rows_delivered = 0;  ///< rows offered to the sink
  std::uint64_t rows_dropped = 0;    ///< rows the sink discarded (bounded sinks)
  bool saturated = false;            ///< sink hit its bound at least once
  bool attached = false;             ///< dynamically attached (vs base program)
  std::uint64_t attach_records = 0;  ///< attach epoch (records seen before it)

  /// Pool `other` into these (a fabric's switches), as StoreStats does.
  StreamSinkMetrics& operator+=(const StreamSinkMetrics& other) {
    rows_delivered += other.rows_delivered;
    rows_dropped += other.rows_dropped;
    saturated = saturated || other.saturated;
    attached = attached || other.attached;
    attach_records = std::max(attach_records, other.attach_records);
    return *this;
  }
};

/// Per-shard pipeline accounting (threaded executor only).
struct ShardMetrics {
  std::size_t shard = 0;
  bool worker_exited = false;
  std::uint64_t idle_ns = 0;  ///< worker time spent waiting on an empty ring
};

/// One shard's SPSC input ring (threaded executor only).
struct RingMetrics {
  std::size_t shard = 0;
  std::uint64_t occupancy = 0;      ///< records queued right now (approximate)
  std::uint64_t occupancy_hwm = 0;  ///< high-water mark of occupancy
  std::uint64_t capacity = 0;
  /// Record messages sent down the ring (all pushed at every quiescent
  /// point): one per record and key class with an admitting member, so
  /// Σ records / frames is the ring-message rate.
  std::uint64_t records = 0;
  std::uint64_t push_stalls = 0;  ///< publishes that blocked on a full ring
  std::uint64_t push_stall_ns = 0;  ///< caller time blocked on a full ring
};

/// The engine's self-telemetry: everything Engine::metrics() surfaces, as
/// plain values (safe to ship across threads, serialize, diff). See the
/// metrics coherence contract in the file comment.
struct EngineMetrics {
  std::string engine;  ///< executor: "serial" (inline) or "sharded" (threaded)

  // Driver-level counters.
  std::uint64_t records = 0;    ///< records accepted by process_batch()
  std::uint64_t batches = 0;    ///< process_batch() calls
  std::uint64_t refreshes = 0;  ///< periodic cache refreshes performed
  /// Mid-run pulls served: snapshot() and mid-run export_store() calls.
  std::uint64_t snapshots = 0;
  bool faulted = false;         ///< poisoned-state protocol engaged

  // Per-query store stats (same shape store_stats() returns; valid mid-run).
  std::vector<StoreStats> queries;
  std::vector<StreamSinkMetrics> streams;

  // Threaded pipeline state (empty with the inline executor).
  std::vector<ShardMetrics> shards;
  std::vector<RingMetrics> rings;  ///< one per shard

  // Latency histograms (log2-ns buckets; see obs::HistogramSnapshot).
  obs::HistogramSnapshot batch_ns;     ///< process_batch() wall time (sampled)
  /// Latency of each pull's shared primitive: reach the record boundary and
  /// overlay the live cache on a copy of the backing store (materializing
  /// or exporting the result is not included).
  obs::HistogramSnapshot snapshot_ns;
  /// Latency of each shard's refresh or final flush into its backing
  /// stores, pooled over the shards (threaded executor only; empty until
  /// the first flush).
  obs::HistogramSnapshot absorb_ns;

  /// Wire ingest accounting: process_wire_batch() and record_ingest() —
  /// zero if no wire feed reported any.
  trace::IngestStats ingest;
};

/// The threaded executor's topology knobs, as the EngineBuilder setters of
/// the same names document them.
struct ThreadedConfig {
  std::size_t num_shards = 4;
  std::size_t ring_capacity = 4096;  ///< messages, rounded up to a power of 2
  std::size_t dispatch_batch = 256;
  std::chrono::milliseconds drain_timeout{10'000};  ///< zero disables
};

class EngineBuilder;
class InlineExecutor;
class StreamStage;
class ThreadedExecutor;

class Engine {
 public:
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Feed one packet observation (call once per record, in time order).
  /// Thin wrapper over process_batch for a single record.
  void process(const PacketRecord& rec) { process_batch({&rec, 1}); }

  /// Feed a batch of packet observations (time-ordered). Results are
  /// identical to calling process() per record; batches only enable the
  /// executors' prefetch/dispatch pipelining. Stream sinks receive matching
  /// rows in one delivery per call (stream_sink.hpp).
  void process_batch(std::span<const PacketRecord> records);

  /// Feed a burst of raw captured frames (time-ordered). Each frame is
  /// validated (wire::check_frame); damaged frames are SKIPPED AND COUNTED
  /// (never thrown on) into the returned stats, which also accumulate into
  /// metrics().ingest. Results over the surviving frames are bit-identical
  /// to parsing each frame into a PacketRecord and calling process_batch().
  /// The inline executor folds straight off the frame bytes, decoding only
  /// the fields the program reads (CompiledProgram::field_usage); the
  /// threaded one decodes each surviving frame once, into its ring message.
  trace::IngestStats process_wire_batch(
      std::span<const FrameObservation> frames);

  /// End the query window: flush caches, close stream sinks, run the
  /// collection layer. Must be called exactly once before result()/table().
  void finish(Nanos now);

  /// The program's primary result (its last query). Only after finish().
  [[nodiscard]] const ResultTable& result() const;

  /// A named intermediate/final table ("R1"). Throws if unknown or a stream
  /// intermediate that was not materialized. Only after finish().
  [[nodiscard]] const ResultTable& table(std::string_view name) const;

  /// Mid-run result pull for one on-switch GROUPBY (see the consistency
  /// contract in the file comment). `now` stamps the open epoch's end (it
  /// only affects non-linear kernels' segment intervals).
  [[nodiscard]] EngineSnapshot snapshot(std::string_view query_name,
                                        Nanos now);

  /// Lift one on-switch GROUPBY's merged store out of the engine as the
  /// cross-engine federation unit (kvstore/federated.hpp): every key's
  /// merged value/segments, stamped with the engine's record count and
  /// `now`. Mid-run it is a pull like snapshot() — live cache contents
  /// merged over a copy of the backing store at the record boundary, engine
  /// unperturbed; after finish() it reads the final backing store directly.
  /// Same serialization and poisoned-engine rules as snapshot().
  [[nodiscard]] kv::StoreExport export_store(std::string_view query_name,
                                             Nanos now);

  /// Attach one dynamically compiled query mid-stream (see the query
  /// lifecycle contract in the file comment). The program must be attachable
  /// — attachable_kind() above — and options.name free of control bytes
  /// and unique among live queries; violations are ConfigError with no
  /// state change. Folding starts at the current record boundary (the
  /// attach epoch). Must be serialized with process_batch()/finish()/
  /// snapshot() by the caller.
  void attach_query(compiler::CompiledProgram program,
                    const AttachOptions& options);

  /// Detach a dynamically attached query: its final table is the pull at
  /// `now` (what a flush at `now` would leave), then every resource the
  /// attach allocated is freed. Unknown or base-program names are a
  /// QueryError/ConfigError with no state change. Must be serialized like
  /// attach_query().
  ResultTable detach_query(std::string_view name, Nanos now);

  /// Per-query store stats. Valid mid-run (mid-run values obey the metrics
  /// coherence contract); throws EngineFaultError if the engine is poisoned.
  [[nodiscard]] std::vector<StoreStats> store_stats() const;
  [[nodiscard]] std::uint64_t records_processed() const { return records_; }
  [[nodiscard]] std::uint64_t refresh_count() const {
    return refresh_.count();
  }
  [[nodiscard]] const compiler::CompiledProgram& program() const {
    return program_;
  }

  /// The engine's self-telemetry. Callable from any thread at any time,
  /// including on a poisoned engine (see the metrics coherence contract).
  [[nodiscard]] EngineMetrics metrics() const;

  /// Fold one feed's ingest accounting into metrics().ingest. Drivers that
  /// parse wire-format input (trace::replay_frames,
  /// trace::replay_wire_trace) call this when the feed ends; callable
  /// multiple times (stats accumulate).
  void record_ingest(const trace::IngestStats& stats);

 private:
  friend class EngineBuilder;

  /// With `threaded`, the threaded executor; otherwise the inline one.
  Engine(compiler::CompiledProgram program, EngineConfig config,
         const std::optional<ThreadedConfig>& threaded);

  /// Periodic refresh boundaries (§3.2), detected once in global record
  /// order: a refresh fires before the first record whose tin reaches one
  /// interval past the previous refresh (the first interval starts at the
  /// engine's first record).
  class RefreshClock {
   public:
    explicit RefreshClock(Nanos interval) : interval_(interval) {}

    [[nodiscard]] bool enabled() const { return interval_ > Nanos{0}; }

    /// Whether a refresh fires before the record stamped `tin` (call once
    /// per record, in order, and only when enabled()).
    bool due(Nanos tin) {
      if (next_ == Nanos{0}) next_ = tin + interval_;
      if (tin < next_) return false;
      next_ = tin + interval_;
      ++count_;
      return true;
    }

    /// Refreshes fired so far; readable from any thread.
    [[nodiscard]] std::uint64_t count() const { return count_; }

   private:
    Nanos interval_;
    Nanos next_{0};
    obs::RelaxedU64 count_;
  };

  /// One on-switch GROUPBY of the registry. Its index is its stable slot in
  /// both executors; a free slot has a null plan and is reused by attach.
  struct Query {
    const compiler::SwitchQueryPlan* plan = nullptr;
    /// The engine's copy of an attached query's program (the plan points
    /// into it); null for base-program queries.
    std::shared_ptr<const compiler::CompiledProgram> attached;
    std::uint64_t attach_records = 0;  ///< attach epoch
  };

  /// The poisoned-state gate at every mutating entry point.
  void throw_if_faulted() const;
  /// Run `body` under the poisoned-state machinery: any escaping exception
  /// other than an EngineFaultError is recorded as a kCaller fault and
  /// rethrown structured.
  template <typename Fn>
  decltype(auto) guarded(Fn&& body);
  /// The batch frame shared by both ingest paths: gate, batch telemetry,
  /// the fault machinery, and one stream delivery per call.
  template <typename Body>
  void run_batch(std::size_t size, Body&& body);
  /// Hand `records` (PacketRecords, or lazy views of checked frames) to
  /// `ex` in record order: the records before each refresh boundary, the
  /// refresh, then the rest, with the stream stage observing each record
  /// right after the executor folds or routes it.
  template <typename Exec, typename Rec>
  void feed(Exec& ex, std::span<const Rec> records);
  /// A mid-run pull of `slot` (snapshot, export): counted, with the shared
  /// primitive timed into snapshot_ns; `fn` receives the merged store.
  template <typename Fn>
  decltype(auto) pull(std::size_t slot, Nanos now, Fn&& fn);
  /// The registry slot of a live on-switch GROUPBY, or queries_.size().
  [[nodiscard]] std::size_t find_slot(std::string_view name) const;
  /// find_slot() that throws QueryError for an unknown name.
  [[nodiscard]] std::size_t resolve(std::string_view name,
                                    const char* what) const;
  [[nodiscard]] const compiler::CompiledProgram& program_of(
      const Query& query) const;
  /// store_stats() minus the fault gate and lock (metrics() works poisoned).
  [[nodiscard]] std::vector<StoreStats> collect_store_stats() const;

  compiler::CompiledProgram program_;
  EngineConfig config_;
  RefreshClock refresh_;
  std::unique_ptr<StreamStage> stream_;
  /// First-exception-wins poisoned state; also the threaded executor's stop
  /// flag.
  FaultSlot fault_;
  std::vector<Query> queries_;
  std::map<int, ResultTable> tables_;  ///< by query index
  /// Final tables of queries still attached at finish(), by name (their
  /// query indices belong to their own programs).
  std::map<std::string, ResultTable, std::less<>> attached_tables_;
  /// Guards the query TOPOLOGY (the registry, the executor's per-slot
  /// structures, stream entries) against metrics()/store_stats() readers on
  /// other threads. The hot path never takes it: attach/detach are
  /// serialized with process_batch() by the caller (lifecycle contract).
  mutable std::mutex topology_mu_;
  /// Telemetry slots (single writer: the caller thread; metrics() reads).
  obs::RelaxedU64 records_;
  obs::RelaxedU64 batches_;
  obs::RelaxedU64 snapshots_;
  std::uint32_t batch_tick_ = 0;  ///< sampling phase for small-batch timing
  obs::LatencyHistogram batch_ns_;
  obs::LatencyHistogram snapshot_ns_;
  /// Ingest counts, written by the driver (caller) thread.
  trace::BasicIngestStats<obs::RelaxedU64> ingest_;
  bool finished_ = false;
  /// Chosen once at construction; last, so it is destroyed (and its
  /// threads joined) before everything it references.
  std::variant<std::unique_ptr<InlineExecutor>,
               std::unique_ptr<ThreadedExecutor>>
      exec_;
};

}  // namespace perfq::runtime

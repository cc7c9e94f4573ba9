// The threaded executor of runtime::Engine (EngineBuilder::sharded(N)): the
// place where folding happens when the store is scaled across cores. The
// engine above it (registry, attach validation, the wire front, refresh
// detection, the stream stage, results, telemetry, the fault gate) is the
// same as for the inline executor.
//
// Topology (caller → one SPSC ring per shard → shard workers, each owning
// one store per query):
//
//   the caller thread, the only dispatcher
//     - per key class (fold_core.hpp), evaluates the members' prefilters
//       into a member mask and, when any member admits the record, packs
//       and hashes the class key once (compiler::extract_key, the one
//       packer) and routes the record to shard = high bits of the key's
//       kv::placement_hash, the hash the caches place buckets by
//       (RSS-style): one message per record and class, carrying the mask
//       and the key's raw hash;
//     - publishes batched messages into that shard's SPSC ring. The caller
//       is every ring's one producer and the shard's worker its one
//       consumer, so no ring needs a lock, and each ring is FIFO in global
//       record order.
//   N shard workers
//     - pop their ring in order, re-pack the class key once on their own
//       core (compiler::extract_key_prehashed installs the caller's hash, so
//       the byte-level hash is still computed once per record and class), and
//       fold it into every masked member through the same fold_member
//       hot path the inline executor uses;
//     - fold each query into their own kv::KeyValueStore: a bucket slice of
//       the query's cache over a private BackingStore that absorbs the
//       slice's evictions synchronously, exactly as the inline executor's
//       store does. A key folds on exactly one shard, so its evictions reach
//       one store in epoch order, the order the exact merge needs, and the
//       N stores hold disjoint keys: read together (StoreView) they are the
//       query's backing store, with no lock and no merge step.
//
// Determinism: every worker folds exactly the records routed to it, in
// global record order, so shard s's cache is exactly the bucket slice
// [s·n/N, (s+1)·n/N) of the inline executor's n-bucket cache — same bucket
// contents, same LRU order, same capacity evictions, same flush times — and
// results are bit-identical to the inline executor's for every linear-kernel
// query (identical value-segment sets and AccuracyStats for non-linear
// kernels). The engine detects refresh boundaries on the caller, record by
// record, and calls refresh() between the records they separate, which
// broadcasts a flush in-band ahead of the record it precedes. Requires
// num_buckets % num_shards == 0 per query geometry.
//
// Failure domains: every worker body is wrapped so the first escaping
// exception is captured into the engine's FaultSlot. The slot doubles as
// the stop flag: once it is set, every inter-thread spin (ring
// push/pop, snapshot rendezvous) unwinds instead of waiting on a dead peer,
// and the engine's gate throws the structured EngineFaultError — never a
// hang, never std::terminate. Caller-side drains are additionally guarded by
// a configurable watchdog (drain_timeout) that converts a wedged pipeline
// into a fault carrying a diagnostic dump. See engine_fault.hpp and
// engine_api.hpp ("Failure semantics").
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "common/spsc_ring.hpp"
#include "compiler/program.hpp"
#include "kvstore/kvstore.hpp"
#include "runtime/engine_api.hpp"
#include "runtime/engine_fault.hpp"
#include "runtime/fold_core.hpp"

namespace perfq::runtime {

class ThreadedExecutor {
 public:
  static constexpr const char* kName = "sharded";

  /// One query's per-shard stores, built before it is installed.
  struct Prepared {
    std::vector<std::unique_ptr<kv::KeyValueStore>> stores;  ///< one per shard
  };

  /// One query's N per-shard backing stores read as one, for the entries
  /// finish, materialize and export need. Their keys are disjoint, so
  /// visiting each in turn visits every key once. Read-only and lock-free:
  /// it is only handed out over stores no worker is writing.
  class StoreView {
   public:
    explicit StoreView(std::vector<const kv::BackingStore*> parts)
        : parts_(std::move(parts)) {}

    /// Visit (key, merged value, valid), shard by shard.
    template <typename F>
    void for_each(F&& fn) const {
      for (const kv::BackingStore* part : parts_) part->for_each(fn);
    }
    [[nodiscard]] std::size_t key_count() const {
      std::size_t n = 0;
      for (const kv::BackingStore* part : parts_) n += part->key_count();
      return n;
    }
    [[nodiscard]] std::vector<kv::ExportedEntry> export_entries() const;

   private:
    std::vector<const kv::BackingStore*> parts_;
  };

  /// Starts the worker threads. `fault` belongs to the engine and outlives
  /// the executor.
  ThreadedExecutor(ThreadedConfig config, FaultSlot& fault);
  /// Tears the pipeline down without the final flush (bench, abort and
  /// poisoned paths); joins are unbounded here but every thread is
  /// stop-aware.
  ~ThreadedExecutor();
  ThreadedExecutor(const ThreadedExecutor&) = delete;
  ThreadedExecutor& operator=(const ThreadedExecutor&) = delete;

  /// Validate `geometry` against the shard count and build a query's
  /// stores for slot `slot`. Touches no executor state, so a
  /// ConfigError (num_buckets not divisible by num_shards, slot past the
  /// message index range) leaves the engine as it was.
  [[nodiscard]] Prepared prepare(std::size_t slot,
                                 const compiler::SwitchQueryPlan& plan,
                                 const kv::CacheGeometry& geometry) const;
  /// Install a prepared query at `slot` and regroup the key classes. Call
  /// with nothing in flight: before the first batch, or after
  /// reach_boundary(). The workers see the new entries through the next
  /// ring publish/pop pair.
  void install(std::size_t slot, const compiler::SwitchQueryPlan& plan,
               Prepared&& prepared);
  /// Free slot `slot` in place (resident indices never move) and regroup
  /// the key classes. Call with nothing in flight: after merged_store() or
  /// reach_boundary().
  void remove(std::size_t slot);

  /// Route records on the caller, in order, into the shard rings' staging,
  /// with `routed(rec)` called right after each record's messages are
  /// staged; folding proceeds on the workers. Records travel BY VALUE
  /// through the rings (workers outlive the caller's frame buffers), so
  /// each wire view is decoded once, straight into its ring message, and
  /// routing packs the key from that record: a choice, not a cost avoided,
  /// as on frames resident after check_frame the wire-view packer costs
  /// 1.0-1.2x the record's on pkt_len and 0.75x on the 5-tuple (a gather).
  template <typename Rec, typename Routed>
  void fold(std::span<const Rec> records, const Routed& routed) {
    const std::uint64_t n_shards = shards_.size();
    const std::vector<KeyClasses::Class>& classes = classes_.classes();
    for (std::size_t i = 0; i < records.size(); ++i) {
      // Poisoned mid-batch: stop routing (publishes are being abandoned
      // anyway). Checked every 64 records to keep the dispatch hot path
      // free of per-record synchronization.
      if ((i & 63u) == 0 && stopping()) break;
      ShardMsg msg;
      msg.rec = materialized(records[i]);
      // One message per key class with a member that admits the record, by
      // the class key's hash; only the hash travels, and the worker
      // re-packs the key on its own core.
      for (std::size_t c = 0; c < classes.size(); ++c) {
        const KeyClasses::Class& cls = classes[c];
        msg.members = cls.admitted(msg.rec);
        if (msg.members == 0) continue;
        msg.query = static_cast<std::uint16_t>(c);
        msg.raw_hash =
            compiler::extract_key(cls.key_plan(), msg.rec).raw_hash();
        const std::uint64_t placement = kv::placement_hash(
            msg.raw_hash, EngineConfig::hash_seed, kSeedMix);
        Shard& sh = *shards_[reduce_range(placement, n_shards)];
        stage(sh, msg);
        ++sh.ring_records;
      }
      routed(records[i]);
    }
  }

  /// Periodic refresh (§3.2): stage a flush down every ring, so each worker
  /// flushes its slices at exactly the record boundary the inline executor
  /// does.
  void refresh(Nanos now);

  /// Push every shard's staged messages to its ring: once per engine call,
  /// not once per fold.
  void end_batch();

  /// Quiesce at the current record boundary: an in-band marker through
  /// every ring and every worker's ack. On return nothing is in flight and
  /// every shard's stores are boundary-exact; folding resumes with the next
  /// batch. Throws EngineFaultError if the pipeline faults or the watchdog
  /// expires.
  void reach_boundary();

  /// The shared pull primitive without stopping the pipeline: the same
  /// in-band rendezvous as reach_boundary(), but at the marker each worker
  /// also copies its slice of `slot` as a flush at `now` would leave it
  /// (KeyValueStore::merged_backing). `fn` reads the N copies through one
  /// StoreView; they are released when it returns. No thread is joined or
  /// stopped.
  template <typename Fn>
  decltype(auto) merged_store(std::size_t slot, Nanos now, Fn&& fn) {
    rendezvous(slot, now);
    // Take the copies from the workers; they die when `fn` returns.
    std::vector<std::unique_ptr<kv::BackingStore>> copies;
    std::vector<const kv::BackingStore*> parts;
    for (auto& shard : shards_) {
      copies.push_back(std::move(shard->snapshot_out));
      parts.push_back(copies.back().get());
    }
    return fn(StoreView{std::move(parts)});
  }

  /// End the window at the current record boundary: the refresh flush,
  /// then stop: drain the rings, join every worker. Throws EngineFaultError
  /// if the drain faults.
  void close(Nanos now);

  /// `fn` receives `slot`'s N backing stores as one StoreView. Only after
  /// close(), when no worker writes them.
  template <typename Fn>
  decltype(auto) with_backing(std::size_t slot, Fn&& fn) const {
    std::vector<const kv::BackingStore*> parts;
    for (const auto& shard : shards_) {
      parts.push_back(&shard->stores[slot]->backing());
    }
    return fn(StoreView{std::move(parts)});
  }

  /// `slot`'s cache and backing-store counters: the += of its N shards'.
  /// Safe mid-run from any thread; the counters lag by whatever is
  /// cache-resident or still in the rings.
  [[nodiscard]] StoreStats store_stats(std::size_t slot) const;

  /// Fill the pipeline part of an EngineMetrics (shards, rings, flush
  /// latency). Lock-free — also safe from the watchdog's
  /// diagnostic path while threads are wedged.
  void collect_pipeline(EngineMetrics& m) const;

 private:
  /// Idle backoff for the worker poll loop and the caller's spins: yield for this many
  /// empty polls (bursty traffic), then park in short sleeps (truly idle).
  static constexpr std::uint32_t kIdlePollsBeforeSleep = 256;
  static constexpr std::chrono::microseconds kIdleSleep{100};
  /// kSnapshot's query when the rendezvous collects no cache copy.
  static constexpr std::uint16_t kNoQuery = 0xffff;
  /// The caches' seed mix, for routing by their placement hash.
  static constexpr std::uint64_t kSeedMix = mix64(EngineConfig::hash_seed);

  /// One message of a shard ring. The caller stages messages in record
  /// order, so a kFlush or kSnapshot reaches the worker exactly at the
  /// record boundary it was sent at.
  struct ShardMsg {
    enum class Kind : std::uint8_t {
      kRecord,
      kFlush,
      /// Record-boundary rendezvous: the worker copies its merged slice of
      /// `query` (unless kNoQuery) and acks the generation carried in
      /// raw_hash through snapshot_ready.
      kSnapshot,
      kStop
    };
    Kind kind = Kind::kRecord;
    /// The key class (kRecord); the switch-query slot or kNoQuery
    /// (kSnapshot).
    std::uint16_t query = 0;
    /// The class members that admit `rec` (kRecord): bit b is member b.
    std::uint32_t members = 0;
    std::uint64_t raw_hash = 0;  ///< class key's seed-0 byte hash (kRecord);
                                 ///< the rendezvous generation (kSnapshot)
    PacketRecord rec;  ///< the record; rec.tin carries flush/snapshot time
  };
  // `members` fills the padding between `query` and `raw_hash`.
  static_assert(sizeof(ShardMsg) == 96, "ShardMsg grew past 96 bytes");

  struct Shard {
    Shard(std::size_t shard_index, std::size_t ring_capacity)
        : ring(ring_capacity), index(shard_index) {}

    /// The SPSC conduit from the caller (sole producer) to this shard's
    /// worker (sole consumer).
    SpscRing<ShardMsg> ring;
    /// Caller side: messages staged for the ring, and its telemetry.
    /// Stalls count publish() calls that blocked on a full ring at least
    /// once, and ring_stall_ns the time they blocked; the high-water mark
    /// samples occupancy after each publish.
    std::vector<ShardMsg> staging;
    obs::RelaxedU64 ring_records;  ///< kRecord messages staged for the ring
    obs::RelaxedU64 ring_stalls;
    obs::RelaxedU64 ring_stall_ns;
    obs::RelaxedU64 ring_hwm;
    /// Worker side, from here on. Per switch-query slot; null when the slot
    /// is free (a key class maps its member bits to these slots).
    alignas(kCacheLineBytes) std::vector<std::unique_ptr<kv::KeyValueStore>>
        stores;
    /// Latency of each flush of this shard's stores (refresh or final).
    obs::LatencyHistogram flush_ns;
    obs::RelaxedU64 idle_ns;  ///< time spent in idle_wait on an empty ring
    /// Rendezvous: the worker writes the requested query's merged slice
    /// here, then publishes the generation through `snapshot_ready`
    /// (release); the caller spins on it (acquire) and takes the copy
    /// before it sends the next message. Only ever touched between those
    /// fences, so no lock is needed.
    std::unique_ptr<kv::BackingStore> snapshot_out;
    alignas(kCacheLineBytes) std::atomic<std::uint64_t> snapshot_ready{0};
    std::size_t index = 0;  ///< shard id, for fault attribution
    /// Set by the worker thread on its way out (normal exit, fault unwind,
    /// or stop-flag abandon). The watchdog-guarded joins wait on this so a
    /// wedged thread can be reported instead of hanging finish().
    std::atomic<bool> exited{false};
    std::thread thread;
  };

  /// Caller-side spin bookkeeping: bounded backoff plus the lazily armed
  /// drain-watchdog deadline (armed on the first blocked poll, so unblocked
  /// paths never read the clock).
  struct SpinState {
    std::uint32_t idle_polls = 0;
    std::chrono::steady_clock::time_point deadline{};
    bool armed = false;
    /// Whether `timeout` (zero = never) has passed since the deadline was
    /// armed; each expiry re-arms it for one more period.
    bool expired(std::chrono::milliseconds timeout);
  };

  /// Pop the ring into the two-pass fold chunk until kStop or the stop flag.
  void worker_loop(Shard& shard);
  /// Pass 1 of a record message: re-pack its class key on this core into
  /// `key` and prefetch each masked member's cache bucket.
  void worker_prepare(Shard& shard, kv::Key& key, const ShardMsg& msg);
  /// Pass 2: fold a record message under `key` into each masked member, or
  /// execute a control message.
  void worker_process(Shard& shard, const kv::Key& key, ShardMsg& msg);
  /// Thread entry: run worker_loop, record any escaping exception in the
  /// fault slot (first exception wins; every stop-aware loop then unwinds),
  /// and flag exit — a worker can never reach std::terminate or die
  /// silently while its peers spin on it.
  void worker_main(Shard& shard) noexcept;
  /// The stop flag: set by the first fault and never cleared.
  [[nodiscard]] bool stopping() const { return fault_.faulted(); }
  /// One step of the idle backoff every poll loop shares.
  static void idle_wait(std::uint32_t& idle_polls);
  /// One watchdog-guarded backoff step of a caller-side drain spin: past the
  /// drain deadline it records a kWatchdog fault carrying
  /// pipeline_diagnostic() for the wait named `what` (it does NOT throw;
  /// the caller's own fault check unwinds the wait).
  void spin_backoff(SpinState& spin, const char* what);
  /// Record a kWatchdog fault for the wait named `what`, with the dump.
  void record_watchdog(const char* what);
  /// The watchdog's dump: per-ring occupancy and worker exit states.
  [[nodiscard]] std::string pipeline_diagnostic(const char* what) const;
  /// Watchdog-guarded wait for a thread's exit flag (finish() path). Returns
  /// true when the thread exited (safe to join instantly); false when the
  /// deadline plus one grace period expired with the thread still wedged —
  /// the join is then deferred to the destructor.
  bool wait_exited(const std::atomic<bool>& exited, const char* what);
  void stage(Shard& sh, const ShardMsg& msg);
  /// Stage a copy of `msg` for every shard.
  void broadcast(const ShardMsg& msg);
  /// Push the shard's staging to its ring, backing off while the ring is
  /// full. Stop-aware (the rest is dropped once the engine is poisoned) and
  /// watchdog-guarded.
  void publish(Shard& sh);
  /// The record-boundary rendezvous behind reach_boundary() and
  /// merged_store(): broadcast kSnapshot through every ring and wait for
  /// every worker's ack (each copies its merged slice of `query` first
  /// unless kNoQuery).
  void rendezvous(std::size_t query, Nanos now);
  /// Send kStop through every ring and join all workers. `watchdog` guards
  /// the joins with the drain deadline (finish() path); the destructor
  /// passes false and joins unboundedly.
  void stop_pipeline(bool watchdog);

  ThreadedConfig config_;
  /// The engine's first-exception-wins slot: every thread records into it,
  /// and it is the pipeline's stop flag (stopping()).
  FaultSlot& fault_;
  /// Per switch-query slot; a free slot's entries are null, and a resident
  /// query's slot never moves.
  std::vector<const compiler::SwitchQueryPlan*> plans_;
  /// The live queries by key identity; kRecord `query` fields index it.
  KeyClasses classes_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::uint64_t snapshot_gen_ = 0;  ///< caller-side rendezvous generation
  bool threads_stopped_ = false;
};

}  // namespace perfq::runtime

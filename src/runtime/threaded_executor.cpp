#include "runtime/threaded_executor.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <utility>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/hash.hpp"
#include "obs/metrics_export.hpp"

namespace perfq::runtime {

namespace {

/// kStop's sequence value: orders after every record and flush.
constexpr std::uint64_t kStopSeq = std::numeric_limits<std::uint64_t>::max();

}  // namespace

ThreadedExecutor::ThreadedExecutor(const EngineConfig& engine,
                                   ThreadedConfig config,
                                   RefreshClock& refresh, StreamStage& stream,
                                   FaultSlot& fault)
    : engine_(engine),
      config_(config),
      refresh_(refresh),
      stream_(stream),
      fault_(fault),
      seed_mix_(mix64(engine.hash_seed)) {
  const std::size_t n_shards = config_.num_shards;
  const std::size_t n_dispatchers = config_.num_dispatchers;
  if (n_dispatchers == 0) {
    throw ConfigError{"sharded engine: num_dispatchers must be at least 1"};
  }
  if (config_.dispatch_batch == 0) {
    throw ConfigError{"sharded engine: zero dispatch batch"};
  }
  if (config_.eviction_batch == 0) {
    throw ConfigError{"sharded engine: zero eviction batch"};
  }

  // Shards: one input ring per dispatcher; per-query cache slices arrive
  // through install().
  shards_.reserve(n_shards);
  for (std::size_t s = 0; s < n_shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->index = s;
    for (std::size_t d = 0; d < n_dispatchers; ++d) {
      shard->rings.push_back(
          std::make_unique<SpscRing<ShardMsg>>(config_.ring_capacity));
    }
    shards_.push_back(std::move(shard));
  }

  // Dispatchers: index 0 is the caller thread; the rest are helper threads
  // parked on their job slots.
  dispatchers_.reserve(n_dispatchers);
  for (std::size_t d = 0; d < n_dispatchers; ++d) {
    auto dispatcher = std::make_unique<Dispatcher>();
    dispatcher->staging.resize(n_shards);
    dispatcher->ring_stalls.resize(n_shards);
    dispatcher->ring_hwm.resize(n_shards);
    dispatchers_.push_back(std::move(dispatcher));
  }

  merge_thread_ = std::thread([this] {
    thread_main(ThreadRole::kMerge, kNoShard, "", merge_exited_,
                [this] { merge_loop(); });
  });
  for (auto& shard : shards_) {
    Shard& sh = *shard;
    sh.thread = std::thread([this, &sh] {
      thread_main(ThreadRole::kWorker, sh.index, "", sh.exited,
                  [this, &sh] { worker_loop(sh); });
    });
  }
  for (std::size_t d = 1; d < n_dispatchers; ++d) {
    Dispatcher& dp = *dispatchers_[d];
    dp.thread = std::thread([this, d, &dp] {
      thread_main(ThreadRole::kDispatcher, kNoShard,
                  "dispatcher " + std::to_string(d) + ": ", dp.exited,
                  [this, d] { co_dispatcher_loop(d); });
    });
  }
}

ThreadedExecutor::~ThreadedExecutor() {
  if (!threads_stopped_) {
    stop_pipeline(/*flush=*/false, Nanos{0}, 0, /*watchdog=*/false);
  }
}

// ---- query slots ------------------------------------------------------------

ThreadedExecutor::Prepared ThreadedExecutor::prepare(
    std::size_t slot, const compiler::SwitchQueryPlan& plan,
    const kv::CacheGeometry& geometry) {
  const std::size_t n_shards = shards_.size();
  if (slot >= kNoQuery) {
    throw ConfigError{"sharded engine: too many switch queries"};
  }
  if (geometry.num_buckets % n_shards != 0) {
    throw ConfigError{
        "sharded engine: geometry '" + geometry.to_string() + "' for query '" +
        plan.name + "' needs num_buckets divisible by num_shards (" +
        std::to_string(n_shards) + ") for exact shard/bucket alignment"};
  }
  kv::CacheGeometry slice = geometry;
  slice.num_buckets = geometry.num_buckets / n_shards;
  Prepared p;
  p.backing = std::make_unique<kv::ShardedBackingStore>(
      plan.kernel,
      config_.backing_shards == 0 ? n_shards : config_.backing_shards);
  // Each cache slice's evictions feed its shard's MPSC queue (batched)
  // instead of a synchronous backing-store absorb.
  for (std::size_t s = 0; s < n_shards; ++s) {
    Shard& sh = *shards_[s];
    p.caches.push_back(std::make_unique<kv::Cache>(
        slice, plan.kernel, engine_.hash_seed, engine_.eviction_policy,
        /*bucket_scale=*/n_shards));
    kv::Cache& cache = *p.caches.back();
    cache.set_eviction_sink([this, &sh, slot](kv::EvictedValue&& ev) {
      sh.evict_buf.push_back(
          TaggedEviction{static_cast<std::uint16_t>(slot), std::move(ev)});
      if (sh.evict_buf.size() >= config_.eviction_batch) push_evictions(sh);
    });
    p.cores.push_back(std::make_unique<SwitchFoldCore>(plan, cache));
  }
  return p;
}

void ThreadedExecutor::install(std::size_t slot,
                               const compiler::SwitchQueryPlan& plan,
                               Prepared&& prepared) {
  if (slot >= plans_.size()) {
    plans_.resize(slot + 1);
    routers_.resize(slot + 1);
    backings_.resize(slot + 1);
    for (auto& shard : shards_) {
      shard->caches.resize(slot + 1);
      shard->cores.resize(slot + 1);
    }
  }
  plans_[slot] = &plan;
  routers_[slot] = compiler::KeyRouter::make(plan);
  backings_[slot] = std::move(prepared.backing);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s]->caches[slot] = std::move(prepared.caches[s]);
    shards_[s]->cores[slot] = std::move(prepared.cores[s]);
  }
}

void ThreadedExecutor::remove(std::size_t slot) {
  for (auto& shard : shards_) {
    shard->caches[slot].reset();
    shard->cores[slot].reset();
  }
  backings_[slot].reset();
  routers_[slot].reset();
  plans_[slot] = nullptr;
}

kv::CacheStats ThreadedExecutor::cache_stats(std::size_t slot) const {
  kv::CacheStats sum;
  for (const auto& shard : shards_) {
    const kv::CacheStats& cs = shard->caches[slot]->stats();
    sum.packets += cs.packets;
    sum.hits += cs.hits;
    sum.initializations += cs.initializations;
    sum.evictions += cs.evictions;
    sum.flushes += cs.flushes;
  }
  return sum;
}

// ---- failure-domain machinery ----------------------------------------------

template <typename Loop>
void ThreadedExecutor::thread_main(ThreadRole role, std::size_t shard,
                                   const std::string& who,
                                   std::atomic<bool>& exited,
                                   Loop&& loop) noexcept {
  try {
    loop();
  } catch (const std::exception& e) {
    fault_.record(role, shard, who + e.what());
  } catch (...) {
    fault_.record(role, shard, who + "unknown exception");
  }
  exited.store(true, std::memory_order_release);
}

std::string ThreadedExecutor::pipeline_diagnostic(const char* what) const {
  // The dump is the telemetry layer's pipeline view (same enumeration
  // metrics() exports), rendered by the shared formatter. Lock-free — safe
  // while threads are wedged, which is exactly when the watchdog needs it.
  EngineMetrics m;
  collect_pipeline(m);
  std::string out = "pipeline state at watchdog expiry (waiting for ";
  out += what;
  out += ", drain_timeout " + std::to_string(config_.drain_timeout.count()) +
         " ms):";
  out += obs::format_pipeline(m);
  return out;
}

void ThreadedExecutor::collect_pipeline(EngineMetrics& m) const {
  m.merge_exited = merge_exited_.load(std::memory_order_acquire);
  m.absorb_ns = absorb_ns_.snapshot();
  for (const auto& shard : shards_) {
    ShardMetrics sm;
    sm.shard = shard->index;
    sm.evictions_pushed =
        shard->evictions_pushed.load(std::memory_order_acquire);
    sm.evictions_absorbed =
        shard->evictions_absorbed.load(std::memory_order_acquire);
    sm.worker_exited = shard->exited.load(std::memory_order_acquire);
    m.shards.push_back(sm);
  }
  for (std::size_t d = 1; d < dispatchers_.size(); ++d) {
    const Dispatcher& dp = *dispatchers_[d];
    DispatcherMetrics dm;
    dm.dispatcher = d;
    dm.batches_posted = dp.posted.load(std::memory_order_acquire);
    dm.batches_completed = dp.completed.load(std::memory_order_acquire);
    dm.exited = dp.exited.load(std::memory_order_acquire);
    m.dispatchers.push_back(dm);
  }
  for (std::size_t d = 0; d < dispatchers_.size(); ++d) {
    const Dispatcher& dp = *dispatchers_[d];
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      RingMetrics rm;
      rm.dispatcher = d;
      rm.shard = s;
      rm.occupancy = shards_[s]->rings[d]->size_approx();
      rm.occupancy_hwm = dp.ring_hwm[s];
      rm.capacity = shards_[s]->rings[d]->capacity();
      rm.push_stalls = dp.ring_stalls[s];
      m.rings.push_back(rm);
    }
  }
}

bool ThreadedExecutor::SpinState::expired(
    std::chrono::milliseconds timeout) {
  if (timeout.count() <= 0) return false;
  const auto now = std::chrono::steady_clock::now();
  if (!armed) {
    deadline = now + timeout;
    armed = true;
    return false;
  }
  if (now <= deadline) return false;
  deadline = now + timeout;
  return true;
}

void ThreadedExecutor::record_watchdog(const char* what) {
  fault_.record(ThreadRole::kWatchdog, kNoShard,
                std::string{"drain deadline exceeded waiting for "} + what,
                pipeline_diagnostic(what));
}

void ThreadedExecutor::spin_backoff(SpinState& spin, const char* what) {
  // Once recorded, the fault releases every stop-aware loop; the caller's
  // next fault check unwinds the wait.
  if (what != nullptr && !stopping() && spin.expired(config_.drain_timeout)) {
    record_watchdog(what);
    return;
  }
  idle_wait(spin.idle_polls);
}

bool ThreadedExecutor::wait_exited(const std::atomic<bool>& exited,
                                   const char* what) {
  // Past the deadline the wedge is recorded (which releases every
  // stop-aware loop) and the thread gets one more deadline of grace to
  // unwind before its join is deferred to the destructor.
  SpinState spin;
  bool grace = false;
  while (!exited.load(std::memory_order_acquire)) {
    if (spin.expired(config_.drain_timeout)) {
      if (grace) return false;
      record_watchdog(what);
      grace = true;
    }
    idle_wait(spin.idle_polls);
  }
  return true;
}

void ThreadedExecutor::idle_wait(std::uint32_t& idle_polls) {
  // Yield while traffic is merely bursty; park briefly once the rings look
  // genuinely idle, so an unfed engine does not pin a core (latency cost on
  // wake: one sleep quantum).
  if (++idle_polls < kIdlePollsBeforeSleep) {
    std::this_thread::yield();
  } else {
    std::this_thread::sleep_for(kIdleSleep);
  }
}

// ---- dispatch ---------------------------------------------------------------

std::uint64_t ThreadedExecutor::placement_of_raw(std::uint64_t raw) const {
  return engine_.hash_seed == 0 ? raw : mix64(raw ^ seed_mix_);
}

void ThreadedExecutor::stage(std::size_t d, std::size_t shard,
                             ShardMsg&& msg) {
  std::vector<ShardMsg>& staging = dispatchers_[d]->staging[shard];
  staging.push_back(std::move(msg));
  if (staging.size() >= config_.dispatch_batch) publish(d, shard);
}

void ThreadedExecutor::publish(std::size_t d, std::size_t shard) {
  std::vector<ShardMsg>& staging = dispatchers_[d]->staging[shard];
  if (staging.empty()) return;
  PERFQ_FAILPOINT("sharded.ring_push");
  SpscRing<ShardMsg>& ring = *shards_[shard]->rings[d];
  std::span<ShardMsg> pending(staging);
  SpinState spin;
  bool stalled = false;
  while (!pending.empty()) {
    const std::size_t pushed = ring.push_bulk(pending);
    pending = pending.subspan(pushed);
    if (pushed == 0) {
      stalled = true;
      // Ring full: the worker is behind; let it run (essential on machines
      // with fewer cores than threads). Workers drain their rings even while
      // their merge is blocked, so this makes progress — unless the worker
      // is dead or wedged: the stop flag unwinds the former, the caller-side
      // watchdog converts the latter into a recorded fault. Once the engine
      // is poisoned the rest of the batch is abandoned (results are
      // forfeit; the caller throws at the batch boundary).
      if (stopping()) break;
      spin_backoff(spin, d == 0 ? "a full shard ring (push)" : nullptr);
    }
  }
  // Ring telemetry: the occupancy high-water is sampled here, right after
  // the push (the ring's fullest observable moment from the producer side).
  Dispatcher& dp = *dispatchers_[d];
  if (stalled) ++dp.ring_stalls[shard];
  dp.ring_hwm[shard].set_max(ring.size_approx());
  staging.clear();
}

void ThreadedExecutor::dispatch_slice(std::size_t d,
                                   std::span<const PacketRecord> slice,
                                   std::uint64_t base,
                                   std::span<const FlushEvent> flushes,
                                   std::uint64_t watermark_seq) {
  const std::uint64_t n_shards = shards_.size();
  const FlushEvent* flush = flushes.data();
  const FlushEvent* flush_end = flushes.data() + flushes.size();
  for (std::size_t i = 0; i < slice.size(); ++i) {
    // Poisoned mid-slice: stop routing (publishes are being abandoned
    // anyway). Checked every 64 records to keep the dispatch hot path free
    // of per-record synchronization.
    if ((i & 63u) == 0 && stopping()) break;
    const PacketRecord& rec = slice[i];
    const std::uint64_t g = base + i;

    // Refresh boundaries firing before this record (detected by the
    // caller's global pre-scan): broadcast in-band through this
    // dispatcher's rings; the workers' merge executes them at exactly
    // sequence position 2g, i.e. the single-threaded trace times.
    while (flush != flush_end && flush->pos == g) {
      for (std::uint64_t s = 0; s < n_shards; ++s) {
        ShardMsg msg;
        msg.kind = ShardMsg::Kind::kFlush;
        msg.seq = 2 * g;
        msg.rec.tin = flush->time;
        stage(d, s, std::move(msg));
      }
      ++flush;
    }

    // Route: one message per switch query that admits the record. Only the
    // key's hash is computed here — record-direct for plain-field keys (no
    // kv::Key materialized); the worker re-packs the key on its own core.
    const compiler::RecordSource source({&rec, 1});
    for (std::size_t q = 0; q < plans_.size(); ++q) {
      if (plans_[q] == nullptr) continue;  // free slot
      const compiler::SwitchQueryPlan& plan = *plans_[q];
      if (plan.prefilter.has_value() && !plan.prefilter->eval_bool(source)) {
        continue;
      }
      const std::uint64_t raw =
          routers_[q].has_value()
              ? routers_[q]->raw_hash(rec)
              : compiler::extract_key(plan, rec).raw_hash();
      ShardMsg msg;
      msg.kind = ShardMsg::Kind::kRecord;
      msg.query = static_cast<std::uint16_t>(q);
      msg.seq = 2 * g + 1;
      msg.raw_hash = raw;
      msg.rec = rec;
      const std::uint64_t s = reduce_range(placement_of_raw(raw), n_shards);
      stage(d, s, std::move(msg));
    }
  }
  for (std::uint64_t s = 0; s < n_shards; ++s) {
    // Watermark: with co-dispatchers a worker may only act on a message
    // once every other ring provably cannot deliver an earlier one; the
    // watermark is that proof for rings this slice left sparse. Pointless
    // at D = 1.
    if (dispatchers_.size() > 1) {
      ShardMsg msg;
      msg.kind = ShardMsg::Kind::kWatermark;
      msg.seq = watermark_seq;
      stage(d, s, std::move(msg));
    }
    publish(d, s);
  }
}

void ThreadedExecutor::push_evictions(Shard& sh) {
  const std::uint64_t n = sh.evict_buf.size();
  if (n == 0) return;
  PERFQ_FAILPOINT("sharded.evict_push");
  sh.evictions.push_batch(sh.evict_buf);
  sh.evictions_pushed.fetch_add(n, std::memory_order_release);
}

void ThreadedExecutor::fold_wire(std::span<const FrameObservation> frames,
                                 bool verify_checksums,
                                 trace::IngestStats& stats,
                                 std::uint64_t base) {
  // Steady state: zero allocations once the scratch has grown to the burst
  // size.
  wire_pending_.clear();
  wire_pending_.reserve(frames.size());
  for_each_valid_frame(frames, verify_checksums, stats,
                       [this](const WireRecordView& view) {
                         wire_pending_.push_back(view.materialize());
                       });
  fold(wire_pending_, base);
}

void ThreadedExecutor::fold(std::span<const PacketRecord> records,
                            std::uint64_t base) {
  const std::size_t n = records.size();
  if (n == 0) return;

  // Periodic refresh (§3.2): the boundary depends on every preceding
  // record's tin, so it is detected here — serially, in global record order
  // — and handed to whichever dispatcher owns the slice it falls in. One
  // compare per record, a sliver of the ~hash-sized routing cost.
  flush_events_.clear();
  if (refresh_.enabled()) {
    for (std::size_t i = 0; i < n; ++i) {
      const Nanos tin = records[i].tin;
      if (refresh_.due(tin)) {
        flush_events_.push_back(FlushEvent{base + i, tin});
      }
    }
  }

  const std::size_t n_dispatchers = dispatchers_.size();
  const std::uint64_t watermark = 2 * (base + n);
  // Stream sinks stay on the caller: their row streams are order-sensitive
  // and must match the inline executor exactly (the engine delivers them).
  const auto observe_streams = [&] {
    if (stream_.empty()) return;
    for (const PacketRecord& rec : records) stream_.observe(rec);
  };
  if (n_dispatchers == 1) {
    dispatch_slice(0, records, base, flush_events_, watermark);
    observe_streams();
    return;
  }

  // Slice the batch into D contiguous runs and fan the tail slices out to
  // the helper dispatchers; the caller takes slice 0 and the (serial,
  // order-sensitive) stream sinks while the helpers work.
  const std::size_t chunk = (n + n_dispatchers - 1) / n_dispatchers;
  const auto slice_of = [&](std::size_t d) {
    const std::size_t lo = std::min(n, d * chunk);
    const std::size_t hi = std::min(n, lo + chunk);
    return std::pair<std::size_t, std::size_t>{lo, hi};
  };
  const auto flushes_in = [&](std::uint64_t lo, std::uint64_t hi) {
    // flush_events_ is sorted by pos; slice [base+lo, base+hi).
    const std::span<const FlushEvent> all(flush_events_);
    const auto begin = static_cast<std::size_t>(
        std::partition_point(all.begin(), all.end(),
                             [&](const FlushEvent& e) {
                               return e.pos < base + lo;
                             }) -
        all.begin());
    const auto end = static_cast<std::size_t>(
        std::partition_point(all.begin() + begin, all.end(),
                             [&](const FlushEvent& e) {
                               return e.pos < base + hi;
                             }) -
        all.begin());
    return all.subspan(begin, end - begin);
  };
  for (std::size_t d = 1; d < n_dispatchers; ++d) {
    Dispatcher& dp = *dispatchers_[d];
    const auto [lo, hi] = slice_of(d);
    dp.job_slice = records.subspan(lo, hi - lo);
    dp.job_base = base + lo;
    dp.job_flushes = flushes_in(lo, hi);
    dp.job_watermark = watermark;
    dp.posted.store(dp.posted.load(std::memory_order_relaxed) + 1,
                    std::memory_order_release);
  }
  // The records span is borrowed from the caller: do not return — not even
  // by an exception — until every helper has finished reading it.
  struct HelperWait {
    ThreadedExecutor& ex;
    ~HelperWait() { ex.wait_helpers(); }
  } helper_wait{*this};
  const auto [lo0, hi0] = slice_of(0);
  dispatch_slice(0, records.subspan(lo0, hi0 - lo0), base,
                 flushes_in(lo0, hi0), watermark);
  observe_streams();
}

void ThreadedExecutor::wait_helpers() {
  // Every helper must have finished reading (and staging) its slice — or
  // have exited (a dead helper reads nothing more). This wait must never
  // bail early on a fault: a live helper could still be touching the span.
  // The watchdog inside spin_backoff records the wedge, which stops the
  // helper's own spins, so the wait then terminates.
  for (std::size_t d = 1; d < dispatchers_.size(); ++d) {
    Dispatcher& dp = *dispatchers_[d];
    const std::uint64_t target = dp.posted.load(std::memory_order_relaxed);
    SpinState spin;
    while (dp.completed.load(std::memory_order_acquire) != target &&
           !dp.exited.load(std::memory_order_acquire)) {
      spin_backoff(spin, "co-dispatcher batch completion");
    }
  }
}

void ThreadedExecutor::co_dispatcher_loop(std::size_t d) {
  Dispatcher& dp = *dispatchers_[d];
  std::uint64_t done = 0;
  std::uint32_t idle_polls = 0;
  for (;;) {
    if (stopping()) return;  // poisoned: unwind
    const std::uint64_t posted = dp.posted.load(std::memory_order_acquire);
    if (posted == done) {
      if (dp.exit.load(std::memory_order_acquire)) {
        // Drain-free exit: push this dispatcher's kStop down every ring so
        // each worker knows lane d is done.
        for (std::size_t s = 0; s < shards_.size(); ++s) {
          ShardMsg stop;
          stop.kind = ShardMsg::Kind::kStop;
          stop.seq = kStopSeq;
          stage(d, s, std::move(stop));
          publish(d, s);
        }
        return;
      }
      idle_wait(idle_polls);
      continue;
    }
    idle_polls = 0;
    dispatch_slice(d, dp.job_slice, dp.job_base, dp.job_flushes,
                   dp.job_watermark);
    done = posted;
    dp.completed.store(done, std::memory_order_release);
  }
}

// ---- workers ----------------------------------------------------------------

void ThreadedExecutor::worker_prepare(Shard& sh, std::size_t i,
                                   const ShardMsg& msg) {
  // Re-pack the record's key on this core — installing the dispatcher's
  // hash (no rehash) via the plan's KeyRouter; computed keys re-walk the
  // expression tree here, off the serial dispatcher — and prefetch its
  // cache bucket.
  const std::size_t q = msg.query;
  sh.cores[q]->prepare_extracted(
      i, routers_[q].has_value()
             ? routers_[q]->make_key(msg.rec, msg.raw_hash)
             : compiler::extract_key_prehashed(*plans_[q], msg.rec,
                                               msg.raw_hash));
}

void ThreadedExecutor::worker_process(Shard& sh, std::size_t i,
                                      ShardMsg& msg) {
  switch (msg.kind) {
    case ShardMsg::Kind::kRecord:
      sh.cores[msg.query]->fold(i, msg.rec);
      break;
    case ShardMsg::Kind::kFlush:
      // Null slots are free (their slices are gone).
      for (auto& cache : sh.caches) {
        if (cache != nullptr) cache->flush(msg.rec.tin);
      }
      // Refresh wants the backing store fresh soon: hand the flush's
      // evictions to the merge thread immediately.
      push_evictions(sh);
      break;
    case ShardMsg::Kind::kSnapshot:
      // Record-boundary rendezvous, executed at exactly the requested
      // boundary (the merge delivered every earlier record first): hand
      // pending evictions to the merge thread so the caller's drain barrier
      // can prove the backing stores boundary-exact, copy the requested
      // query's live slice non-destructively (none for a bare quiesce), and
      // publish the generation — the caller is spinning on it. Folding
      // resumes with the next message.
      PERFQ_FAILPOINT("sharded.snapshot_worker");
      push_evictions(sh);
      sh.snapshot_out.clear();
      if (msg.query != kNoQuery) {
        sh.caches[msg.query]->snapshot_into(
            msg.rec.tin, [&sh, &msg](kv::EvictedValue&& ev) {
              sh.snapshot_out.push_back(
                  TaggedEviction{msg.query, std::move(ev)});
            });
      }
      sh.snapshot_ready.store(msg.raw_hash, std::memory_order_release);
      break;
    case ShardMsg::Kind::kWatermark:
    case ShardMsg::Kind::kStop:
      break;  // control messages carry no work
  }
}

bool ThreadedExecutor::fold_chunk(Shard& sh, std::span<ShardMsg> chunk) {
  // Pass 1: key re-pack + bucket prefetch; pass 2: fold in sequence order,
  // flush and rendezvous boundaries in-band.
  for (std::size_t i = 0; i < chunk.size(); ++i) {
    if (chunk[i].kind == ShardMsg::Kind::kRecord) {
      worker_prepare(sh, i, chunk[i]);
    }
  }
  for (std::size_t i = 0; i < chunk.size(); ++i) {
    if (chunk[i].kind == ShardMsg::Kind::kStop) return false;
    worker_process(sh, i, chunk[i]);
  }
  return true;
}

void ThreadedExecutor::worker_loop_single_lane(Shard& sh) {
  // One dispatcher: its ring is already in global sequence order, so the
  // whole lane-merge machinery reduces to the direct two-pass pop loop (no
  // per-message buffering copies).
  SpscRing<ShardMsg>& ring = *sh.rings[0];
  std::array<ShardMsg, SwitchFoldCore::kChunk> buf;
  bool running = true;
  std::uint32_t idle_polls = 0;
  while (running) {
    // A poisoned engine stops feeding this ring (and may never send kStop):
    // unwind instead of spinning on a dead dispatcher.
    if (stopping()) break;
    PERFQ_FAILPOINT("sharded.ring_pop");
    const std::size_t n = ring.pop_bulk({buf.data(), buf.size()});
    if (n == 0) {
      idle_wait(idle_polls);
      continue;
    }
    idle_polls = 0;
    running = fold_chunk(sh, {buf.data(), n});
  }
  push_evictions(sh);
}

void ThreadedExecutor::worker_loop(Shard& sh) {
  const std::size_t n_lanes = sh.rings.size();
  if (n_lanes == 1) {
    worker_loop_single_lane(sh);
    return;
  }
  std::vector<Lane> lanes(n_lanes);
  std::array<ShardMsg, kPopChunk> scratch;
  std::array<ShardMsg, SwitchFoldCore::kChunk> chunk;
  std::uint32_t idle_polls = 0;

  // Consume the control messages at a lane's head: a watermark raises its
  // bound, kStop closes it.
  const auto consume_control = [](Lane& lane) {
    while (lane.head < lane.buf.size()) {
      const ShardMsg& front = lane.buf[lane.head];
      if (front.kind == ShardMsg::Kind::kWatermark) {
        lane.bound = std::max(lane.bound, front.seq);
      } else if (front.kind == ShardMsg::Kind::kStop) {
        lane.stopped = true;
        lane.bound = kStopSeq;
      } else {
        return;
      }
      ++lane.head;
    }
  };

  // Drain a lane's ring into its local buffer and consume any control
  // messages at the head. Returns true if anything arrived.
  const auto poll_lane = [&](std::size_t d) {
    Lane& lane = lanes[d];
    bool progressed = false;
    if (!lane.stopped) {
      const std::size_t got =
          sh.rings[d]->pop_bulk({scratch.data(), scratch.size()});
      if (got > 0) {
        progressed = true;
        if (lane.head == lane.buf.size()) {
          lane.buf.clear();
          lane.head = 0;
        } else if (lane.head >= 4 * kPopChunk) {
          // Reclaim the consumed prefix: in steady state the merge is often
          // gated on another lane while this one keeps filling, so head may
          // never reach size() — without compaction the dead prefix grows
          // for the life of the run. Amortized O(live) moves.
          lane.buf.erase(lane.buf.begin(),
                         lane.buf.begin() +
                             static_cast<std::ptrdiff_t>(lane.head));
          lane.head = 0;
        }
        for (std::size_t i = 0; i < got; ++i) {
          lane.buf.push_back(std::move(scratch[i]));
        }
      }
    }
    consume_control(lane);
    return progressed;
  };

  for (;;) {
    // A dead dispatcher never sends its watermark/kStop, which would gate
    // this merge forever: the stop flag is the way out.
    if (stopping()) break;
    PERFQ_FAILPOINT("sharded.ring_pop");
    bool progressed = false;
    for (std::size_t d = 0; d < n_lanes; ++d) {
      progressed |= poll_lane(d);
    }

    // Gather a chunk of safely ordered messages: repeatedly take the
    // smallest buffered seq, provided every other lane either has a later
    // message buffered or a bound proving it cannot deliver an earlier one
    // (seq uniqueness makes bound == seq safe; see the header comment).
    std::size_t n = 0;
    while (n < chunk.size()) {
      std::size_t best = n_lanes;
      std::uint64_t best_seq = kStopSeq;
      for (std::size_t d = 0; d < n_lanes; ++d) {
        const Lane& lane = lanes[d];
        if (lane.head < lane.buf.size() && lane.buf[lane.head].seq < best_seq) {
          best = d;
          best_seq = lane.buf[lane.head].seq;
        }
      }
      if (best == n_lanes) break;
      bool safe = true;
      for (std::size_t d = 0; d < n_lanes && safe; ++d) {
        const Lane& lane = lanes[d];
        if (d != best && lane.head == lane.buf.size() &&
            lane.bound < best_seq) {
          safe = false;
        }
      }
      if (!safe) break;
      Lane& lane = lanes[best];
      chunk[n++] = std::move(lane.buf[lane.head++]);
      // FIFO per producer: nothing earlier can follow from this lane.
      lane.bound = std::max(lane.bound, best_seq);
      consume_control(lane);
    }

    if (n == 0) {
      bool done = true;
      for (const Lane& lane : lanes) {
        if (!lane.stopped || lane.head < lane.buf.size()) done = false;
      }
      if (done) break;
      if (progressed) continue;
      idle_wait(idle_polls);
      continue;
    }
    idle_polls = 0;
    // kWatermark/kStop never reach the chunk: lane normalization consumed
    // them.
    fold_chunk(sh, {chunk.data(), n});
  }
  push_evictions(sh);
}

void ThreadedExecutor::absorb_sweep(Shard& shard,
                                    std::vector<TaggedEviction>& drained) {
  // Absorb-sweep latency tap: on the merge thread, off every caller path,
  // so it is always-on (no sampling needed).
  const std::uint64_t t0 = obs::kTelemetryEnabled ? obs::now_ns() : 0;
  for (TaggedEviction& t : drained) backings_[t.query]->absorb(t.ev);
  if (obs::kTelemetryEnabled) absorb_ns_.record(obs::now_ns() - t0);
  // Count only after the absorbs landed: the drain barrier reads this to
  // prove the backing store caught up.
  shard.evictions_absorbed.fetch_add(drained.size(),
                                     std::memory_order_release);
}

void ThreadedExecutor::merge_loop() {
  std::vector<TaggedEviction> drained;
  std::uint32_t idle_polls = 0;
  for (;;) {
    bool any = false;
    for (auto& shard : shards_) {
      if (shard->evictions.drain(drained)) {
        any = true;
        PERFQ_FAILPOINT("sharded.merge_absorb");
        absorb_sweep(*shard, drained);
      }
    }
    // Poisoned: exit without the final sweep — results are forfeit, and a
    // dead worker may never stop producing counters we'd wait on.
    if (stopping()) return;
    if (any) {
      idle_polls = 0;
      continue;
    }
    if (merge_stop_.load(std::memory_order_acquire)) {
      // Producers are joined before merge_stop_ is set, so nothing new can
      // arrive — but a worker may have pushed to a queue after this sweep
      // already passed it. One final sweep picks those up.
      for (auto& shard : shards_) {
        if (shard->evictions.drain(drained)) absorb_sweep(*shard, drained);
      }
      return;
    }
    idle_wait(idle_polls);
  }
}

// ---- boundaries and teardown ------------------------------------------------

void ThreadedExecutor::stop_pipeline(bool flush, Nanos now,
                                     std::uint64_t records, bool watchdog) {
  // Helper dispatchers first: each pushes its own kStop down its rings on
  // exit (rings are single-producer; only thread d may write rings[d]).
  bool all_joined = true;
  for (std::size_t d = 1; d < dispatchers_.size(); ++d) {
    dispatchers_[d]->exit.store(true, std::memory_order_release);
  }
  for (std::size_t d = 1; d < dispatchers_.size(); ++d) {
    Dispatcher& dp = *dispatchers_[d];
    if (!dp.thread.joinable()) continue;
    if (!watchdog || wait_exited(dp.exited, "co-dispatcher exit")) {
      dp.thread.join();
    } else {
      all_joined = false;
    }
  }
  // Caller-owned rings: final flush (ordered after every record) + kStop.
  // On the poisoned path the flush is pointless (results are forfeit) and
  // the pushes are best-effort — workers exit on the stop flag regardless.
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (flush && !stopping()) {
      ShardMsg msg;
      msg.kind = ShardMsg::Kind::kFlush;
      msg.seq = 2 * records;
      msg.rec.tin = now;
      stage(0, s, std::move(msg));
    }
    ShardMsg stop;
    stop.kind = ShardMsg::Kind::kStop;
    stop.seq = kStopSeq;
    stage(0, s, std::move(stop));
    publish(0, s);
  }
  for (auto& shard : shards_) {
    if (!shard->thread.joinable()) continue;
    if (!watchdog || wait_exited(shard->exited, "worker exit")) {
      shard->thread.join();
    } else {
      all_joined = false;
    }
  }
  merge_stop_.store(true, std::memory_order_release);
  if (merge_thread_.joinable()) {
    if (!watchdog || wait_exited(merge_exited_, "merge exit")) {
      merge_thread_.join();
    } else {
      all_joined = false;
    }
  }
  // A thread the watchdog gave up on is joined by the destructor (its flag
  // wait is unbounded there); until then the engine stays poisoned.
  threads_stopped_ = all_joined;
}

void ThreadedExecutor::close(Nanos now, std::uint64_t records) {
  stop_pipeline(/*flush=*/true, now, records, /*watchdog=*/true);
  // A fault recorded during the drain (thread death discovered on join,
  // watchdog expiry) forfeits the results.
  if (fault_.faulted()) fault_.raise();
}

void ThreadedExecutor::reach_boundary(std::uint64_t records) {
  rendezvous(kNoQuery, records, Nanos{0});
}

void ThreadedExecutor::rendezvous(std::size_t query, std::uint64_t records,
                                  Nanos now) {
  // 1. Broadcast the marker through the caller's rings at the current
  // record boundary. Its seq (2·records) orders after every dispatched
  // record; the co-dispatcher watermarks of the last batch carry the same
  // bound, so every worker's merge can prove it safe without any new
  // traffic.
  const std::uint64_t gen = ++snapshot_gen_;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    ShardMsg msg;
    msg.kind = ShardMsg::Kind::kSnapshot;
    msg.query = static_cast<std::uint16_t>(query);
    msg.seq = 2 * records;
    msg.raw_hash = gen;
    msg.rec.tin = now;
    stage(0, s, std::move(msg));
    publish(0, s);
  }
  // 2. Wait for every worker to reach the boundary and publish its copy
  // (acquire pairs with the worker's release store). Stop-aware: a worker
  // that died before the boundary can never publish, and the watchdog
  // converts a wedged one into a recorded fault.
  for (auto& shard : shards_) {
    SpinState spin;
    while (shard->snapshot_ready.load(std::memory_order_acquire) != gen) {
      if (fault_.faulted()) fault_.raise();
      spin_backoff(spin, "the snapshot rendezvous");
    }
  }
  // 3. The drain barrier: every eviction produced before the boundary is
  // now in the MPSC queues (workers push before acking); wait until the
  // merge thread has absorbed them all. On return the workers sit between
  // messages, so the caller may also grow or free per-shard topology the
  // next messages will see (ring publish/pop is the release/acquire pair
  // that orders it).
  for (auto& shard : shards_) {
    const std::uint64_t target =
        shard->evictions_pushed.load(std::memory_order_acquire);
    SpinState spin;
    while (shard->evictions_absorbed.load(std::memory_order_acquire) <
           target) {
      if (fault_.faulted()) fault_.raise();
      spin_backoff(spin, "the snapshot eviction drain barrier");
    }
  }
}

}  // namespace perfq::runtime

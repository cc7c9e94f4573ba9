#include "runtime/threaded_executor.hpp"

#include <array>
#include <bit>
#include <iterator>
#include <utility>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/hash.hpp"
#include "obs/metrics_export.hpp"

namespace perfq::runtime {

ThreadedExecutor::ThreadedExecutor(ThreadedConfig config, FaultSlot& fault)
    : config_(config), fault_(fault) {
  if (config_.dispatch_batch == 0) {
    throw ConfigError{"sharded engine: zero dispatch batch"};
  }
  // Shards: one input ring each; per-query cache slices arrive through
  // install().
  shards_.reserve(config_.num_shards);
  for (std::size_t s = 0; s < config_.num_shards; ++s) {
    shards_.push_back(std::make_unique<Shard>(s, config_.ring_capacity));
  }

  for (auto& shard : shards_) {
    Shard& sh = *shard;
    sh.thread = std::thread([this, &sh] { worker_main(sh); });
  }
}

ThreadedExecutor::~ThreadedExecutor() {
  if (!threads_stopped_) stop_pipeline(/*watchdog=*/false);
}

// ---- query slots ------------------------------------------------------------

ThreadedExecutor::Prepared ThreadedExecutor::prepare(
    std::size_t slot, const compiler::SwitchQueryPlan& plan,
    const kv::CacheGeometry& geometry) const {
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
  for (std::size_t s = 0; s < n_shards; ++s) {
    p.stores.push_back(std::make_unique<kv::KeyValueStore>(
        slice, plan.kernel, EngineConfig::hash_seed,
        EngineConfig::eviction_policy, /*bucket_scale=*/n_shards));
  }
  return p;
}

void ThreadedExecutor::install(std::size_t slot,
                               const compiler::SwitchQueryPlan& plan,
                               Prepared&& prepared) {
  if (slot >= plans_.size()) {
    plans_.resize(slot + 1);
    for (auto& shard : shards_) {
      shard->stores.resize(slot + 1);
    }
  }
  plans_[slot] = &plan;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s]->stores[slot] = std::move(prepared.stores[s]);
  }
  classes_.rebuild(plans_);
}

void ThreadedExecutor::remove(std::size_t slot) {
  for (auto& shard : shards_) shard->stores[slot].reset();
  plans_[slot] = nullptr;
  classes_.rebuild(plans_);
}

StoreStats ThreadedExecutor::store_stats(std::size_t slot) const {
  StoreStats sum;
  for (const auto& shard : shards_) {
    sum += StoreStats::of(*shard->stores[slot]);
  }
  return sum;
}

std::vector<kv::ExportedEntry> ThreadedExecutor::StoreView::export_entries()
    const {
  std::vector<kv::ExportedEntry> out;
  out.reserve(key_count());
  for (const kv::BackingStore* part : parts_) {
    std::vector<kv::ExportedEntry> entries = part->export_entries();
    out.insert(out.end(), std::make_move_iterator(entries.begin()),
               std::make_move_iterator(entries.end()));
  }
  return out;
}

// ---- failure-domain machinery ----------------------------------------------

void ThreadedExecutor::worker_main(Shard& sh) noexcept {
  try {
    worker_loop(sh);
  } catch (const std::exception& e) {
    fault_.record(ThreadRole::kWorker, sh.index, e.what());
  } catch (...) {
    fault_.record(ThreadRole::kWorker, sh.index, "unknown exception");
  }
  sh.exited.store(true, std::memory_order_release);
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
  for (const auto& shard : shards_) {
    m.absorb_ns += shard->flush_ns.snapshot();
    ShardMetrics sm;
    sm.shard = shard->index;
    sm.worker_exited = shard->exited.load(std::memory_order_acquire);
    sm.idle_ns = shard->idle_ns;
    m.shards.push_back(sm);

    RingMetrics rm;
    rm.shard = shard->index;
    rm.occupancy = shard->ring.size_approx();
    rm.occupancy_hwm = shard->ring_hwm;
    rm.capacity = shard->ring.capacity();
    rm.records = shard->ring_records;
    rm.push_stalls = shard->ring_stalls;
    rm.push_stall_ns = shard->ring_stall_ns;
    m.rings.push_back(rm);
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
  if (!stopping() && spin.expired(config_.drain_timeout)) {
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

void ThreadedExecutor::stage(Shard& sh, const ShardMsg& msg) {
  sh.staging.push_back(msg);
  if (sh.staging.size() >= config_.dispatch_batch) publish(sh);
}

void ThreadedExecutor::broadcast(const ShardMsg& msg) {
  for (auto& shard : shards_) stage(*shard, msg);
}

void ThreadedExecutor::publish(Shard& sh) {
  if (sh.staging.empty()) return;
  PERFQ_FAILPOINT("sharded.ring_push");
  std::span<ShardMsg> pending(sh.staging);
  SpinState spin;
  bool stalled = false;
  std::uint64_t stall_start = 0;
  while (!pending.empty()) {
    const std::size_t pushed = sh.ring.push_bulk(pending);
    pending = pending.subspan(pushed);
    if (pushed == 0) {
      // The clock is read only once the caller blocks.
      if (!stalled && obs::kTelemetryEnabled) stall_start = obs::now_ns();
      stalled = true;
      // Ring full: the worker is behind; let it run (essential on machines
      // with fewer cores than threads). This makes progress unless the
      // worker is dead or wedged: the stop flag unwinds the former, the
      // watchdog converts the latter into a recorded fault. Once the engine
      // is poisoned the rest of the batch is abandoned (results are
      // forfeit; the caller throws at the batch boundary).
      if (stopping()) break;
      spin_backoff(spin, "a full shard ring (push)");
    }
  }
  // Ring telemetry: the occupancy high-water is sampled here, right after
  // the push (the ring's fullest observable moment from the producer side).
  if (stalled) {
    ++sh.ring_stalls;
    if (obs::kTelemetryEnabled) {
      sh.ring_stall_ns += obs::now_ns() - stall_start;
    }
  }
  sh.ring_hwm.set_max(sh.ring.size_approx());
  sh.staging.clear();
}

void ThreadedExecutor::refresh(Nanos now) {
  ShardMsg flush;
  flush.kind = ShardMsg::Kind::kFlush;
  flush.rec.tin = now;
  broadcast(flush);
}

void ThreadedExecutor::end_batch() {
  for (auto& shard : shards_) publish(*shard);
}

// ---- workers ----------------------------------------------------------------

void ThreadedExecutor::worker_prepare(Shard& sh, kv::Key& key,
                                      const ShardMsg& msg) {
  // Re-pack the class key once on this core, installing the caller's hash
  // (no rehash), and prefetch the bucket of every masked member.
  const KeyClasses::Class& cls = classes_.classes()[msg.query];
  key = compiler::extract_key_prehashed(cls.key_plan(), msg.rec, msg.raw_hash);
  for_each_member(msg.members, [&](std::size_t b) {
    sh.stores[cls.slots[b]]->prefetch(key);
  });
}

void ThreadedExecutor::worker_process(Shard& sh, const kv::Key& key,
                                      ShardMsg& msg) {
  switch (msg.kind) {
    case ShardMsg::Kind::kRecord: {
      const KeyClasses::Class& cls = classes_.classes()[msg.query];
      for_each_member(msg.members, [&](std::size_t b) {
        fold_member(*sh.stores[cls.slots[b]], key, msg.rec);
      });
      break;
    }
    case ShardMsg::Kind::kFlush: {
      // Refresh or the final flush: every live slice writes back into its
      // own backing store, here and now, so the store is fresh as soon as
      // the flush returns. Null slots are free (their stores are gone).
      const std::uint64_t t0 = obs::kTelemetryEnabled ? obs::now_ns() : 0;
      for (auto& store : sh.stores) {
        if (store != nullptr) store->flush(msg.rec.tin);
      }
      if (obs::kTelemetryEnabled) sh.flush_ns.record(obs::now_ns() - t0);
      break;
    }
    case ShardMsg::Kind::kSnapshot:
      // Record-boundary rendezvous, executed at exactly the requested
      // boundary (the ring delivered every earlier record first, and every
      // eviction they caused is already absorbed): copy the requested
      // query's merged slice (none for a bare quiesce) and publish the
      // generation — the caller is spinning on it. Folding resumes with the
      // next message.
      PERFQ_FAILPOINT("sharded.snapshot_worker");
      if (msg.query != kNoQuery) {
        sh.snapshot_out = std::make_unique<kv::BackingStore>(
            sh.stores[msg.query]->merged_backing(msg.rec.tin));
      }
      sh.snapshot_ready.store(msg.raw_hash, std::memory_order_release);
      break;
    case ShardMsg::Kind::kStop:
      break;  // the worker loop ends here
  }
}

void ThreadedExecutor::worker_loop(Shard& sh) {
  // The ring is already in global record order: pop straight into the fold
  // chunk. Pass 1 re-packs keys and prefetches buckets; pass 2 folds in
  // order, with flush and rendezvous boundaries in-band.
  std::array<ShardMsg, kFoldChunk> chunk;
  std::array<kv::Key, kFoldChunk> keys;
  bool running = true;
  std::uint32_t idle_polls = 0;
  // A poisoned engine stops feeding this ring (and may never send kStop):
  // unwind instead of spinning on a dead caller.
  while (running && !stopping()) {
    PERFQ_FAILPOINT("sharded.ring_pop");
    const std::size_t n = sh.ring.pop_bulk({chunk.data(), chunk.size()});
    if (n == 0) {
      // The clock is read only on this idle path.
      const std::uint64_t t0 = obs::kTelemetryEnabled ? obs::now_ns() : 0;
      idle_wait(idle_polls);
      if (obs::kTelemetryEnabled) sh.idle_ns += obs::now_ns() - t0;
      continue;
    }
    idle_polls = 0;
    // A record message folds into every member its mask names, so the two
    // passes run over spans of about kFoldChunk folds rather than messages:
    // more prefetches in flight would evict the first buckets before pass 2
    // reaches them.
    for (std::size_t begin = 0; begin < n && running;) {
      std::size_t end = begin;
      for (std::size_t folds = 0; end < n && folds < kFoldChunk; ++end) {
        const ShardMsg& msg = chunk[end];
        folds += msg.kind == ShardMsg::Kind::kRecord
                     ? static_cast<std::size_t>(std::popcount(msg.members))
                     : 1;
      }
      for (std::size_t i = begin; i < end; ++i) {
        if (chunk[i].kind == ShardMsg::Kind::kRecord) {
          worker_prepare(sh, keys[i], chunk[i]);
        }
      }
      // Nothing follows a stop message.
      for (std::size_t i = begin; i < end && running; ++i) {
        running = chunk[i].kind != ShardMsg::Kind::kStop;
        worker_process(sh, keys[i], chunk[i]);
      }
      begin = end;
    }
  }
}

// ---- boundaries and teardown ------------------------------------------------

void ThreadedExecutor::stop_pipeline(bool watchdog) {
  // kStop down every ring, after everything staged before it. On the
  // poisoned path the pushes are best-effort: workers exit on the stop flag
  // regardless.
  ShardMsg stop;
  stop.kind = ShardMsg::Kind::kStop;
  broadcast(stop);
  for (auto& shard : shards_) publish(*shard);

  bool all_joined = true;
  for (auto& shard : shards_) {
    if (!shard->thread.joinable()) continue;
    if (!watchdog || wait_exited(shard->exited, "worker exit")) {
      shard->thread.join();
    } else {
      all_joined = false;
    }
  }
  // A thread the watchdog gave up on is joined by the destructor (its flag
  // wait is unbounded there); until then the engine stays poisoned.
  threads_stopped_ = all_joined;
}

void ThreadedExecutor::close(Nanos now) {
  refresh(now);
  stop_pipeline(/*watchdog=*/true);
  // A fault recorded during the drain (thread death discovered on join,
  // watchdog expiry) forfeits the results.
  if (fault_.faulted()) fault_.raise();
}

void ThreadedExecutor::reach_boundary() { rendezvous(kNoQuery, Nanos{0}); }

void ThreadedExecutor::rendezvous(std::size_t query, Nanos now) {
  // 1. Broadcast the marker at the current record boundary: every ring is
  // FIFO from the caller, so each worker reaches it right after the last
  // record dispatched before it.
  const std::uint64_t gen = ++snapshot_gen_;
  ShardMsg marker;
  marker.kind = ShardMsg::Kind::kSnapshot;
  marker.query = static_cast<std::uint16_t>(query);
  marker.raw_hash = gen;
  marker.rec.tin = now;
  broadcast(marker);
  for (auto& shard : shards_) publish(*shard);
  // 2. Wait for every worker to reach the boundary and publish its copy
  // (acquire pairs with the worker's release store). Stop-aware: a worker
  // that died before the boundary can never publish, and the watchdog
  // converts a wedged one into a recorded fault. Workers absorb their
  // evictions synchronously, so an ack also proves that shard's stores
  // boundary-exact. On return the workers sit between messages, so the
  // caller may also grow or free per-shard topology the next messages will
  // see (ring publish/pop is the release/acquire pair that orders it).
  for (auto& shard : shards_) {
    SpinState spin;
    while (shard->snapshot_ready.load(std::memory_order_acquire) != gen) {
      if (fault_.faulted()) fault_.raise();
      spin_backoff(spin, "the snapshot rendezvous");
    }
  }
}

}  // namespace perfq::runtime

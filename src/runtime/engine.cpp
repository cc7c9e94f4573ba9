#include "runtime/engine.hpp"

#include <algorithm>
#include <array>
#include <utility>

#include "common/error.hpp"
#include "runtime/collection.hpp"

namespace perfq::runtime {
namespace {

/// A copy of `store`'s backing store with its live cache entries merged in
/// through the ordinary exact-merge absorb: bit for bit what a flush at `now`
/// would leave there, with neither structure disturbed. Room for every
/// resident key is reserved up front, so the overlay never regrows the copy.
kv::BackingStore overlay_cache(const kv::KeyValueStore& store, Nanos now) {
  kv::BackingStore merged = store.backing();
  merged.reserve(merged.key_count() + store.cache().occupancy());
  store.cache().snapshot_into(
      now, [&merged](kv::EvictedValue&& ev) { merged.absorb(ev); });
  return merged;
}

}  // namespace

QueryEngine::QueryEngine(compiler::CompiledProgram program, EngineConfig config)
    : program_(std::move(program)),
      config_(std::move(config)),
      stream_(program_, config_) {
  wire_verify_checksums_ = config_.verify_checksums;
  // Key-value store per on-switch GROUPBY.
  for (const auto& plan : program_.switch_plans) {
    kv::CacheGeometry geometry = config_.geometry;
    if (const auto it = config_.per_query_geometry.find(plan.name);
        it != config_.per_query_geometry.end()) {
      geometry = it->second;
    }
    auto store = std::make_unique<kv::KeyValueStore>(
        geometry, plan.kernel, config_.hash_seed, config_.eviction_policy);
    auto core = std::make_unique<SwitchFoldCore>(plan, store->cache());
    switches_.push_back(
        SwitchInstance{&plan, std::move(store), std::move(core), nullptr, 0});
  }
}

void QueryEngine::throw_if_faulted() const {
  if (fault_.faulted()) fault_.raise();
}

void QueryEngine::process_batch(std::span<const PacketRecord> records) {
  throw_if_faulted();
  check(!finished_, "QueryEngine: process after finish");
  ++batches_;
  const bool timed =
      obs::kTelemetryEnabled &&
      (records.size() >= obs::kAlwaysTimeBatch ||
       (batch_tick_++ & obs::kSmallBatchSampleMask) == 0);
  const std::uint64_t t0 = timed ? obs::now_ns() : 0;
  // An exception escaping mid-batch (stream-sink callback, injected
  // failpoint, allocation) leaves some records folded and others not:
  // guarded() poisons the engine so the partial state can never be read.
  guarded([&] { process_batch_impl(records); });
  if (timed) batch_ns_.record(obs::now_ns() - t0);
}

template <typename Rec>
void QueryEngine::process_chunk(std::span<const Rec> chunk) {
  const std::size_t n = chunk.size();
  const bool streams = !stream_.empty();

  // Pass 1: evaluate prefilters and extract every key (computing its
  // cached hash once), prefetching the owning cache bucket so its tag row
  // and slots are resident by the time pass 2 folds the record.
  for (auto& sw : switches_) {
    for (std::size_t i = 0; i < n; ++i) sw.core->prepare(i, chunk[i]);
  }

  // Pass 2: fold records in time order (refresh boundaries included;
  // prefetches above have no side effects, so ordering is preserved).
  for (std::size_t i = 0; i < n; ++i) {
    const Rec& rec = chunk[i];
    if (config_.refresh_interval > Nanos{0}) {
      if (next_refresh_ == Nanos{0}) {
        next_refresh_ = rec.tin + config_.refresh_interval;
      }
      if (rec.tin >= next_refresh_) {
        // Periodic backing-store refresh (§3.2): exact for linear folds,
        // and non-linear folds record one more segment (accounted in
        // accuracy).
        for (auto& sw : switches_) sw.store->flush(rec.tin);
        ++refreshes_;
        next_refresh_ = rec.tin + config_.refresh_interval;
      }
    }
    for (auto& sw : switches_) sw.core->fold(i, rec);
    if (streams) stream_.observe(rec);
  }
}

void QueryEngine::process_batch_impl(std::span<const PacketRecord> records) {
  records_ += records.size();
  for (std::size_t base = 0; base < records.size(); base += kBatchChunk) {
    const std::size_t n = std::min(kBatchChunk, records.size() - base);
    process_chunk(records.subspan(base, n));
  }
  // Stream rows buffered above leave the engine here: one delivery per
  // process_batch call (the sink batch-boundary contract).
  if (!stream_.empty()) stream_.deliver();
}

trace::IngestStats QueryEngine::process_wire_batch(
    std::span<const FrameObservation> frames) {
  throw_if_faulted();
  check(!finished_, "QueryEngine: process after finish");
  ++batches_;
  const bool timed =
      obs::kTelemetryEnabled &&
      (frames.size() >= obs::kAlwaysTimeBatch ||
       (batch_tick_++ & obs::kSmallBatchSampleMask) == 0);
  const std::uint64_t t0 = timed ? obs::now_ns() : 0;
  trace::IngestStats stats;
  guarded([&] { process_wire_batch_impl(frames, stats); });
  record_ingest(stats);
  if (timed) batch_ns_.record(obs::now_ns() - t0);
  return stats;
}

void QueryEngine::process_wire_batch_impl(
    std::span<const FrameObservation> frames, trace::IngestStats& stats) {
  // Fused validate + dispatch: fill a chunk of lazy views (damaged frames
  // skip-and-count, preserving time order across the survivors), run the
  // same two-pass pipeline process_batch uses, repeat. Frame bytes are only
  // read twice per record: the header validation and the lazy field loads
  // the program actually performs.
  std::array<WireRecordView, kBatchChunk> views;
  std::size_t n = 0;
  for (const FrameObservation& frame : frames) {
    wire::ParseError err{};
    if (wire::check_frame(frame.bytes, &err, wire_verify_checksums_) == 0) {
      trace::count_parse_error(stats, err);
      continue;
    }
    ++stats.parsed;
    views[n++] = wire_record_view(frame);
    if (n == kBatchChunk) {
      process_chunk(std::span<const WireRecordView>{views.data(), n});
      n = 0;
    }
  }
  if (n > 0) process_chunk(std::span<const WireRecordView>{views.data(), n});
  records_ += stats.parsed;
  if (!stream_.empty()) stream_.deliver();
}

void QueryEngine::finish(Nanos now) {
  throw_if_faulted();
  check(!finished_, "QueryEngine: finish called twice");
  finished_ = true;
  guarded([&] {
    for (auto& sw : switches_) sw.store->flush(now);
    materialize_switch_tables();
    stream_.finish(tables_, attached_tables_);
    for (std::size_t i = 0; i < program_.analysis.queries.size(); ++i) {
      if (tables_.count(static_cast<int>(i)) > 0) continue;
      run_collection_query(program_, static_cast<int>(i), tables_);
    }
  });
}

void QueryEngine::attach_query(compiler::CompiledProgram program,
                               const AttachOptions& options) {
  throw_if_faulted();
  check(!finished_, "QueryEngine: attach after finish");
  // Validation throws (ConfigError) before ANY state change: a rejected
  // attach leaves the engine exactly as it was.
  const AttachKind kind = attachable_kind(program);
  if (options.name.empty()) {
    throw ConfigError{"attach: query name must not be empty"};
  }
  for (const auto& sw : switches_) {
    if (sw.plan->name == options.name) {
      throw ConfigError{"attach: query '" + options.name + "' already exists"};
    }
  }
  if (stream_.has(options.name) ||
      program_.analysis.query_index(options.name) >= 0) {
    throw ConfigError{"attach: query '" + options.name + "' already exists"};
  }
  // The tenant owns its program; rename its result to the resident name.
  auto owned = std::make_shared<compiler::CompiledProgram>(std::move(program));
  owned->analysis.queries.back().def.result_name = options.name;
  if (kind == AttachKind::kStreamSelect) {
    std::lock_guard<std::mutex> lock(topology_mu_);
    stream_.attach(std::move(owned), options.name, options.sink, config_,
                   records_);
    return;
  }
  compiler::SwitchQueryPlan& plan = owned->switch_plans.front();
  plan.name = options.name;
  kv::CacheGeometry geometry = config_.geometry;
  if (const auto it = config_.per_query_geometry.find(options.name);
      it != config_.per_query_geometry.end()) {
    geometry = it->second;
  }
  if (options.geometry.has_value()) geometry = *options.geometry;
  auto store = std::make_unique<kv::KeyValueStore>(
      geometry, plan.kernel, config_.hash_seed, config_.eviction_policy);
  auto core = std::make_unique<SwitchFoldCore>(plan, store->cache());
  std::lock_guard<std::mutex> lock(topology_mu_);
  switches_.push_back(SwitchInstance{&plan, std::move(store), std::move(core),
                                     std::move(owned), records_});
}

ResultTable QueryEngine::detach_query(std::string_view name, Nanos now) {
  throw_if_faulted();
  check(!finished_, "QueryEngine: detach after finish");
  for (auto it = switches_.begin(); it != switches_.end(); ++it) {
    if (it->plan->name != name) continue;
    if (it->attached == nullptr) {
      throw ConfigError{"detach: '" + std::string{name} +
                        "' is a base-program query and cannot be detached"};
    }
    // End this one query's window: flush its cache slice, materialize the
    // final table, then free everything the attach allocated. Resident
    // queries' stores are untouched.
    ResultTable table = guarded([&] {
      it->store->flush(now);
      return materialize_switch_table(*it->attached, *it->plan,
                                      it->store->backing());
    });
    std::lock_guard<std::mutex> lock(topology_mu_);
    switches_.erase(it);
    return table;
  }
  if (stream_.has(name)) {
    if (!stream_.has_attached(name)) {
      throw ConfigError{"detach: '" + std::string{name} +
                        "' is a base-program query and cannot be detached"};
    }
    std::lock_guard<std::mutex> lock(topology_mu_);
    return guarded([&] { return stream_.detach(name); });
  }
  throw QueryError{"result",
                   "detach: unknown query '" + std::string{name} + "'"};
}

EngineSnapshot QueryEngine::snapshot(std::string_view query_name, Nanos now) {
  throw_if_faulted();
  check(!finished_, "QueryEngine: snapshot after finish");
  // Name resolution stays outside the fault machinery: an unknown query is a
  // usage error, not an engine fault, and must not poison the engine.
  for (auto& sw : switches_) {
    if (sw.plan->name != query_name) continue;
    // The application pull (§3.2): bit-for-bit what finish(now) would
    // materialize for this query.
    ++snapshots_;
    const std::uint64_t t0 = obs::kTelemetryEnabled ? obs::now_ns() : 0;
    return guarded([&] {
      const kv::BackingStore merged = overlay_cache(*sw.store, now);
      const compiler::CompiledProgram& prog =
          sw.attached != nullptr ? *sw.attached : program_;
      EngineSnapshot snap{materialize_switch_table(prog, *sw.plan, merged),
                          records_, now};
      if (obs::kTelemetryEnabled) snapshot_ns_.record(obs::now_ns() - t0);
      return snap;
    });
  }
  throw QueryError{"result", "snapshot: no on-switch GROUPBY named '" +
                                 std::string{query_name} + "'"};
}

kv::StoreExport QueryEngine::export_store(std::string_view query_name,
                                          Nanos now) {
  throw_if_faulted();
  // Name resolution stays outside the fault machinery, like snapshot().
  for (auto& sw : switches_) {
    if (sw.plan->name != query_name) continue;
    return guarded([&] {
      kv::StoreExport out;
      out.query = std::string{query_name};
      out.records = records_;
      out.time = now;
      if (finished_) {
        // Caches already flushed by finish(); the backing store IS the result.
        out.entries = sw.store->backing().export_entries();
      } else {
        // Mid-run: same record-boundary merge snapshot() performs.
        out.entries = overlay_cache(*sw.store, now).export_entries();
      }
      return out;
    });
  }
  throw QueryError{"result", "export_store: no on-switch GROUPBY named '" +
                                 std::string{query_name} + "'"};
}

void QueryEngine::materialize_switch_tables() {
  for (auto& sw : switches_) {
    if (sw.attached != nullptr) {
      // Attached queries end with the window; their query indices belong to
      // their own programs, so their tables file by name.
      attached_tables_.emplace(
          sw.plan->name,
          materialize_switch_table(*sw.attached, *sw.plan, sw.store->backing()));
    } else {
      tables_.emplace(
          sw.plan->query_index,
          materialize_switch_table(program_, *sw.plan, sw.store->backing()));
    }
  }
}

const ResultTable* QueryEngine::find_table(int index) const {
  return find_collection_table(tables_, index);
}

const ResultTable& QueryEngine::result() const {
  throw_if_faulted();
  check(finished_, "QueryEngine: result before finish");
  const int last = static_cast<int>(program_.analysis.queries.size()) - 1;
  const ResultTable* t = find_table(last);
  check(t != nullptr, "QueryEngine: program result not materialized");
  return *t;
}

const ResultTable& QueryEngine::table(std::string_view name) const {
  throw_if_faulted();
  check(finished_, "QueryEngine: table before finish");
  if (const auto it = attached_tables_.find(name);
      it != attached_tables_.end()) {
    return it->second;
  }
  const int idx = program_.analysis.query_index(name);
  if (idx < 0) {
    throw QueryError{"result", "unknown table '" + std::string{name} + "'"};
  }
  const ResultTable* t = find_table(idx);
  if (t == nullptr) {
    throw QueryError{"result", "table '" + std::string{name} +
                                   "' is a stream intermediate and was not "
                                   "materialized"};
  }
  return *t;
}

std::vector<StoreStats> QueryEngine::store_stats() const {
  throw_if_faulted();
  std::lock_guard<std::mutex> lock(topology_mu_);
  return collect_store_stats();
}

std::vector<StoreStats> QueryEngine::collect_store_stats() const {
  std::vector<StoreStats> out;
  for (const auto& sw : switches_) {
    StoreStats s;
    s.name = sw.plan->name;
    s.linearity = sw.plan->linearity;
    s.cache = sw.store->cache().stats();
    s.accuracy = sw.store->backing().accuracy();
    s.backing_writes = sw.store->backing().writes();
    s.backing_capacity_writes = sw.store->backing().capacity_writes();
    s.keys = sw.store->backing().key_count();
    s.attached = sw.attached != nullptr;
    s.attach_records = sw.attach_records;
    out.push_back(std::move(s));
  }
  return out;
}

EngineMetrics QueryEngine::metrics() const {
  EngineMetrics m;
  m.engine = "serial";
  m.records = records_;
  m.batches = batches_;
  m.refreshes = refreshes_;
  m.snapshots = snapshots_;
  m.faulted = fault_.faulted();
  {
    // Topology lock: attach/detach mutate switches_/stream_ entries on the
    // caller thread; the element internals stay lock-free relaxed slots.
    std::lock_guard<std::mutex> lock(topology_mu_);
    m.queries = collect_store_stats();
    stream_.collect(m.streams);
  }
  m.batch_ns = batch_ns_.snapshot();
  m.snapshot_ns = snapshot_ns_.snapshot();
  fill_driver_metrics(m);
  return m;
}

const kv::KeyValueStore& QueryEngine::store(std::string_view query_name) const {
  for (const auto& sw : switches_) {
    if (sw.plan->name == query_name) return *sw.store;
  }
  throw QueryError{"result",
                   "no switch query named '" + std::string{query_name} + "'"};
}

}  // namespace perfq::runtime

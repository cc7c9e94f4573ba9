#include "runtime/engine_api.hpp"

#include <algorithm>
#include <array>
#include <utility>
#include <variant>
#include <vector>

#include "common/error.hpp"
#include "packet/wire.hpp"
#include "runtime/collection.hpp"
#include "runtime/inline_executor.hpp"
#include "runtime/stream_stage.hpp"
#include "runtime/threaded_executor.hpp"

namespace perfq::runtime {
namespace {

/// Call `fn` with the engine's executor: one switch per call, no virtual
/// dispatch, and each executor's hot path is compiled in directly.
template <typename Exec, typename Fn>
decltype(auto) on_executor(Exec& exec, Fn&& fn) {
  return std::visit([&](auto& ex) -> decltype(auto) { return fn(*ex); }, exec);
}

}  // namespace

AttachKind attachable_kind(const compiler::CompiledProgram& program) {
  const auto& queries = program.analysis->queries;
  if (queries.empty()) {
    throw ConfigError{"attach: program has no queries"};
  }
  const auto& streams = program.stream_selects;
  const int last = static_cast<int>(queries.size()) - 1;
  if (program.switch_plans.size() == 1) {
    if (program.switch_plans.front().query_index != last) {
      throw ConfigError{
          "attach: program runs a collection layer downstream of its GROUPBY; "
          "attachable programs end at the on-switch aggregate"};
    }
    if (!streams.empty()) {
      throw ConfigError{
          "attach: program mixes an on-switch GROUPBY with a stream SELECT; "
          "attach them as separate queries"};
    }
    return AttachKind::kSwitchQuery;
  }
  if (program.switch_plans.empty() && streams.size() == 1 &&
      streams.front().query_index == last) {
    return AttachKind::kStreamSelect;
  }
  throw ConfigError{
      "attach: program must be exactly one on-switch GROUPBY chain or one "
      "stream SELECT"};
}

Engine::Engine(compiler::CompiledProgram program, EngineConfig config,
               const std::optional<ThreadedConfig>& threaded)
    : program_(std::move(program)),
      config_(std::move(config)),
      refresh_(config_.refresh_interval),
      stream_(std::make_unique<StreamStage>(program_, config_)) {
  if (threaded) {
    exec_ = std::make_unique<ThreadedExecutor>(*threaded, fault_);
  } else {
    exec_ = std::make_unique<InlineExecutor>();
  }
  // Nothing has been dispatched yet, so the base queries install without a
  // boundary.
  on_executor(exec_, [&](auto& ex) {
    for (const auto& plan : program_.switch_plans) {
      const std::size_t slot = queries_.size();
      ex.install(slot, plan, ex.prepare(slot, plan, config_.geometry));
      queries_.push_back(Query{&plan, nullptr, 0});
    }
  });
}

Engine::~Engine() = default;

// ---- the fault gate ---------------------------------------------------------

void Engine::throw_if_faulted() const {
  if (fault_.faulted()) fault_.raise();
}

template <typename Fn>
decltype(auto) Engine::guarded(Fn&& body) {
  try {
    return body();
  } catch (const EngineFaultError&) {
    throw;
  } catch (const std::exception& e) {
    fault_.record(ThreadRole::kCaller, kNoShard, e.what());
    fault_.raise();
  } catch (...) {
    fault_.record(ThreadRole::kCaller, kNoShard, "unknown exception");
    fault_.raise();
  }
}

// ---- ingest -----------------------------------------------------------------

template <typename Body>
void Engine::run_batch(std::size_t size, Body&& body) {
  throw_if_faulted();
  check(!finished_, "Engine: process after finish");
  ++batches_;
  const bool timed = obs::kTelemetryEnabled &&
                     (size >= obs::kAlwaysTimeBatch ||
                      (batch_tick_++ & obs::kSmallBatchSampleMask) == 0);
  const std::uint64_t t0 = timed ? obs::now_ns() : 0;
  // An exception escaping mid-batch (stream-sink callback, injected
  // failpoint, allocation) leaves some records folded and others not:
  // guarded() poisons the engine so the partial state can never be read.
  guarded([&] {
    body();
    // Stream rows leave the engine here: one delivery per batch call (the
    // sink batch-boundary contract).
    if (!stream_->empty()) stream_->deliver();
  });
  if (timed) batch_ns_.record(obs::now_ns() - t0);
  // A fault on a pipeline thread during this batch (worker death, watchdog
  // expiry) may have abandoned dispatch: surface it at the batch boundary
  // rather than on the next call.
  throw_if_faulted();
}

template <typename Exec, typename Rec>
void Engine::feed(Exec& ex, std::span<const Rec> records) {
  // Stream rows are order-sensitive, so the stream stage observes each
  // record on the caller, in record order, whichever executor folds: the
  // executor calls back right after it folds or routes the record, so the
  // evaluation overlaps the fold's memory stalls. run_batch delivers them.
  const bool streams = !stream_->empty();
  const auto observe = [&](const Rec& rec) {
    if (streams) stream_->observe(rec);
  };
  // Periodic refresh (§3.2): each boundary splits the records, so the
  // executor flushes after every record before it and before the record
  // that crossed it, on both executors alike.
  std::size_t begin = 0;
  if (refresh_.enabled()) {
    for (std::size_t i = 0; i < records.size(); ++i) {
      if (!refresh_.due(records[i].tin)) continue;
      ex.fold(records.subspan(begin, i - begin), observe);
      ex.refresh(records[i].tin);
      begin = i;
    }
  }
  ex.fold(records.subspan(begin), observe);
}

void Engine::process_batch(std::span<const PacketRecord> records) {
  run_batch(records.size(), [&] {
    on_executor(exec_, [&](auto& ex) {
      feed(ex, records);
      ex.end_batch();
    });
    records_ += records.size();
  });
}

trace::IngestStats Engine::process_wire_batch(
    std::span<const FrameObservation> frames) {
  trace::IngestStats stats;
  run_batch(frames.size(), [&] {
    on_executor(exec_, [&](auto& ex) {
      // The wire front: check each frame (damaged ones are skipped and
      // counted, never thrown on) and fold the survivors as lazy views, a
      // chunk at a time, while their header bytes are still hot.
      std::array<WireRecordView, kFoldChunk> views;
      std::size_t n = 0;
      for (const FrameObservation& frame : frames) {
        wire::ParseError err{};
        if (wire::check_frame(frame.bytes, &err, config_.verify_checksums) ==
            0) {
          trace::count_parse_error(stats, err);
          continue;
        }
        ++stats.parsed;
        views[n++] = wire_record_view(frame);
        if (n == views.size()) {
          feed(ex, std::span<const WireRecordView>{views.data(), n});
          n = 0;
        }
      }
      feed(ex, std::span<const WireRecordView>{views.data(), n});
      ex.end_batch();
    });
    records_ += stats.parsed;
  });
  record_ingest(stats);
  return stats;
}

void Engine::record_ingest(const trace::IngestStats& stats) {
  ingest_ += stats;
}

// ---- the query registry -----------------------------------------------------

std::size_t Engine::find_slot(std::string_view name) const {
  for (std::size_t slot = 0; slot < queries_.size(); ++slot) {
    if (queries_[slot].plan != nullptr && queries_[slot].plan->name == name) {
      return slot;
    }
  }
  return queries_.size();
}

std::size_t Engine::resolve(std::string_view name, const char* what) const {
  // Name resolution stays outside the fault machinery: an unknown query is
  // a usage error, not an engine fault, and must not poison the engine.
  const std::size_t slot = find_slot(name);
  if (slot == queries_.size()) {
    throw QueryError{"result", std::string{what} +
                                   ": no on-switch GROUPBY named '" +
                                   std::string{name} + "'"};
  }
  return slot;
}

const compiler::CompiledProgram& Engine::program_of(const Query& query) const {
  return query.attached != nullptr ? *query.attached : program_;
}

void Engine::attach_query(compiler::CompiledProgram program,
                          const AttachOptions& options) {
  throw_if_faulted();
  check(!finished_, "Engine: attach after finish");
  // Validation throws (ConfigError) before ANY state change: a rejected
  // attach leaves the engine exactly as it was.
  const AttachKind kind = attachable_kind(program);
  if (options.name.empty()) {
    throw ConfigError{"attach: query name must not be empty"};
  }
  // The name goes out verbatim in tables, LIST, STATS, JSON and PROM: a
  // control byte would corrupt their framing.
  if (std::any_of(options.name.begin(), options.name.end(), [](char c) {
        const auto byte = static_cast<unsigned char>(c);
        return byte < 0x20 || byte == 0x7f;
      })) {
    throw ConfigError{"attach: query name must not contain control bytes"};
  }
  if (find_slot(options.name) != queries_.size() ||
      stream_->has(options.name) ||
      program_.analysis->query_index(options.name) >= 0) {
    throw ConfigError{"attach: query '" + options.name + "' already exists"};
  }
  if (kind == AttachKind::kStreamSelect) {
    // Stream tenants live on the caller only: no boundary to reach, just
    // the topology lock against metrics readers.
    std::lock_guard<std::mutex> lock(topology_mu_);
    stream_->attach(program, options.name, options.sink, records_);
    return;
  }
  // The tenant owns its copy of the program; its plan takes the resident
  // name, which is all that tables, stats and exports go by.
  auto owned = std::make_shared<compiler::CompiledProgram>(std::move(program));
  compiler::SwitchQueryPlan& plan = owned->switch_plans.front();
  plan.name = options.name;
  const kv::CacheGeometry geometry =
      options.geometry.value_or(config_.geometry);
  std::size_t slot = 0;
  while (slot < queries_.size() && queries_[slot].plan != nullptr) ++slot;
  on_executor(exec_, [&](auto& ex) {
    // Built (and validated) before anything shared is touched; then the
    // executor reaches the record boundary, so nothing is in flight while
    // the slot is installed.
    auto prepared = ex.prepare(slot, plan, geometry);
    guarded([&] { ex.reach_boundary(); });
    std::lock_guard<std::mutex> lock(topology_mu_);
    ex.install(slot, plan, std::move(prepared));
    if (slot == queries_.size()) queries_.emplace_back();
    queries_[slot] = Query{&plan, std::move(owned), records_};
  });
}

ResultTable Engine::detach_query(std::string_view name, Nanos now) {
  throw_if_faulted();
  check(!finished_, "Engine: detach after finish");
  const std::size_t slot = find_slot(name);
  if (slot == queries_.size()) {
    if (!stream_->has(name)) {
      throw QueryError{"result",
                       "detach: unknown query '" + std::string{name} + "'"};
    }
    if (!stream_->has_attached(name)) {
      throw ConfigError{"detach: '" + std::string{name} +
                        "' is a base-program query and cannot be detached"};
    }
    std::lock_guard<std::mutex> lock(topology_mu_);
    return guarded([&] { return stream_->detach(name); });
  }
  const Query& query = queries_[slot];
  if (query.attached == nullptr) {
    throw ConfigError{"detach: '" + std::string{name} +
                      "' is a base-program query and cannot be detached"};
  }
  // End this one query's window at the record boundary: its final table is
  // the pull at `now`, which leaves resident queries untouched. Then free
  // everything the attach allocated.
  ResultTable table = guarded([&] {
    return on_executor(exec_, [&](auto& ex) {
      return ex.merged_store(slot, now, [&](const auto& merged) {
        return materialize_switch_table(*query.attached, *query.plan, merged);
      });
    });
  });
  std::lock_guard<std::mutex> lock(topology_mu_);
  on_executor(exec_, [&](auto& ex) { ex.remove(slot); });
  queries_[slot] = Query{};
  return table;
}

// ---- pulls and results ------------------------------------------------------

template <typename Fn>
decltype(auto) Engine::pull(std::size_t slot, Nanos now, Fn&& fn) {
  ++snapshots_;
  const std::uint64_t t0 = obs::kTelemetryEnabled ? obs::now_ns() : 0;
  return guarded([&] {
    return on_executor(exec_, [&](auto& ex) {
      return ex.merged_store(slot, now, [&](const auto& merged) {
        if (obs::kTelemetryEnabled) snapshot_ns_.record(obs::now_ns() - t0);
        return fn(merged);
      });
    });
  });
}

EngineSnapshot Engine::snapshot(std::string_view query_name, Nanos now) {
  throw_if_faulted();
  check(!finished_, "Engine: snapshot after finish");
  const std::size_t slot = resolve(query_name, "snapshot");
  const Query& query = queries_[slot];
  // The application pull (§3.2): bit-for-bit what finish(now) would
  // materialize for this query.
  return pull(slot, now, [&](const auto& merged) {
    return EngineSnapshot{
        materialize_switch_table(program_of(query), *query.plan, merged),
        records_, now};
  });
}

kv::StoreExport Engine::export_store(std::string_view query_name, Nanos now) {
  throw_if_faulted();
  const std::size_t slot = resolve(query_name, "export_store");
  kv::StoreExport out;
  out.query = std::string{query_name};
  out.records = records_;
  out.time = now;
  const auto entries = [](const auto& store) {
    return store.export_entries();
  };
  if (finished_) {
    // Caches already flushed by finish(); the backing store IS the result.
    out.entries = guarded([&] {
      return on_executor(
          exec_, [&](auto& ex) { return ex.with_backing(slot, entries); });
    });
  } else {
    out.entries = pull(slot, now, entries);
  }
  return out;
}

void Engine::finish(Nanos now) {
  throw_if_faulted();
  check(!finished_, "Engine: finish called twice");
  finished_ = true;
  guarded([&] {
    on_executor(exec_, [&](auto& ex) {
      ex.close(now);
      for (std::size_t slot = 0; slot < queries_.size(); ++slot) {
        const Query& query = queries_[slot];
        if (query.plan == nullptr) continue;
        ResultTable table = ex.with_backing(slot, [&](const auto& backing) {
          return materialize_switch_table(program_of(query), *query.plan,
                                          backing);
        });
        if (query.attached != nullptr) {
          // Attached queries end with the window; their query indices belong
          // to their own programs, so their tables file by name.
          attached_tables_.emplace(query.plan->name, std::move(table));
        } else {
          tables_.emplace(query.plan->query_index, std::move(table));
        }
      }
    });
    stream_->finish(tables_, attached_tables_);
    for (std::size_t i = 0; i < program_.analysis->queries.size(); ++i) {
      if (tables_.count(static_cast<int>(i)) > 0) continue;
      run_collection_query(program_, static_cast<int>(i), tables_);
    }
  });
}

const ResultTable& Engine::result() const {
  throw_if_faulted();
  check(finished_, "Engine: result before finish");
  const int last = static_cast<int>(program_.analysis->queries.size()) - 1;
  const ResultTable* t = find_collection_table(tables_, last);
  check(t != nullptr, "Engine: program result not materialized");
  return *t;
}

const ResultTable& Engine::table(std::string_view name) const {
  throw_if_faulted();
  check(finished_, "Engine: table before finish");
  if (const auto it = attached_tables_.find(name);
      it != attached_tables_.end()) {
    return it->second;
  }
  const int idx = program_.analysis->query_index(name);
  if (idx < 0) {
    throw QueryError{"result", "unknown table '" + std::string{name} + "'"};
  }
  const ResultTable* t = find_collection_table(tables_, idx);
  if (t == nullptr) {
    throw QueryError{"result", "table '" + std::string{name} +
                                   "' is a stream intermediate and was not "
                                   "materialized"};
  }
  return *t;
}

// ---- telemetry --------------------------------------------------------------

StoreStats StoreStats::of(const kv::KeyValueStore& store) {
  StoreStats s;
  s.cache = store.cache().stats();
  const kv::BackingStore& backing = store.backing();
  s.accuracy = backing.accuracy();
  s.backing_writes = backing.writes();
  s.backing_capacity_writes = backing.capacity_writes();
  s.backing_packets = backing.packets();
  s.keys = backing.key_count();
  return s;
}

std::vector<StoreStats> Engine::store_stats() const {
  throw_if_faulted();
  std::lock_guard<std::mutex> lock(topology_mu_);
  return collect_store_stats();
}

std::vector<StoreStats> Engine::collect_store_stats() const {
  std::vector<StoreStats> out;
  on_executor(exec_, [&](const auto& ex) {
    for (std::size_t slot = 0; slot < queries_.size(); ++slot) {
      const Query& query = queries_[slot];
      if (query.plan == nullptr) continue;
      StoreStats s = ex.store_stats(slot);
      s.name = query.plan->name;
      s.linearity = query.plan->linearity;
      s.attached = query.attached != nullptr;
      s.attach_records = query.attach_records;
      out.push_back(std::move(s));
    }
  });
  return out;
}

EngineMetrics Engine::metrics() const {
  EngineMetrics m;
  on_executor(exec_, [&m](const auto& ex) {
    m.engine = std::decay_t<decltype(ex)>::kName;
    ex.collect_pipeline(m);
  });
  m.records = records_;
  m.batches = batches_;
  m.refreshes = refresh_.count();
  m.snapshots = snapshots_;
  m.faulted = fault_.faulted();
  {
    // Topology lock: attach/detach mutate the registry and the executor's
    // per-slot structures on the caller thread; the element internals stay
    // lock-free relaxed slots.
    std::lock_guard<std::mutex> lock(topology_mu_);
    m.queries = collect_store_stats();
    stream_->collect(m.streams);
  }
  m.batch_ns = batch_ns_.snapshot();
  m.snapshot_ns = snapshot_ns_.snapshot();
  m.ingest += ingest_;
  return m;
}

}  // namespace perfq::runtime

#include "federation/fabric_engine.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "common/error.hpp"
#include "runtime/collection.hpp"
#include "runtime/engine_builder.hpp"

namespace perfq::federation {

FabricEngine::FabricEngine(net::Network& network,
                           compiler::CompiledProgram program,
                           FabricOptions options)
    : net_(&network), program_(std::move(program)), options_(std::move(options)) {
  if (program_.switch_plans.empty()) {
    throw ConfigError{"fabric: program has no on-switch GROUPBY to federate"};
  }

  std::vector<net::NodeId> nodes = options_.switches;
  if (nodes.empty()) {
    for (net::NodeId n = 0; n < net_->node_count(); ++n) {
      if (!net_->node_is_host(n)) nodes.push_back(n);
    }
  }
  if (nodes.empty()) {
    throw ConfigError{"fabric: network has no switches to instrument"};
  }
  std::set<net::NodeId> seen;
  for (const net::NodeId n : nodes) {
    if (n >= net_->node_count()) {
      throw ConfigError{"fabric: no node " + std::to_string(n)};
    }
    if (net_->node_is_host(n)) {
      throw ConfigError{"fabric: node '" + net_->node_name(n) +
                        "' is a host, not a switch"};
    }
    if (!seen.insert(n).second) {
      throw ConfigError{"fabric: node '" + net_->node_name(n) +
                        "' selected twice"};
    }
  }

  // Build every slot before installing any tap: the tap lambdas index into
  // slots_, which must not reallocate under them.
  slots_.reserve(nodes.size());
  for (const net::NodeId n : nodes) {
    SwitchSlot slot;
    slot.node = n;
    slot.label =
        net_->node_name(n).empty() ? "sw" + std::to_string(n) : net_->node_name(n);
    runtime::EngineBuilder builder{program_};
    builder.refresh(options_.refresh_interval);
    if (options_.geometry.has_value()) builder.geometry(*options_.geometry);
    if (options_.shards > 0) builder.sharded(options_.shards);
    slot.engine = builder.build();
    slot.buf.reserve(kTapBatch);
    slots_.push_back(std::move(slot));
  }
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    net_->set_node_telemetry_sink(
        slots_[i].node, [this, i](const PacketRecord& rec) {
          SwitchSlot& s = slots_[i];
          s.buf.push_back(rec);
          if (rec.tin > end_) end_ = rec.tin;
          if (s.buf.size() >= kTapBatch) {
            s.engine->process_batch(s.buf);
            s.buf.clear();
          }
        });
  }
}

FabricEngine::~FabricEngine() {
  for (const SwitchSlot& slot : slots_) {
    net_->set_node_telemetry_sink(slot.node, {});
  }
}

void FabricEngine::flush_taps() {
  for (SwitchSlot& slot : slots_) {
    if (slot.buf.empty()) continue;
    slot.engine->process_batch(slot.buf);
    slot.buf.clear();
  }
}

FederatedResult FabricEngine::federate(const compiler::CompiledProgram& program,
                                       const compiler::SwitchQueryPlan& plan,
                                       Nanos now) {
  kv::FederatedStore store(plan.kernel);
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    store.absorb(static_cast<std::uint32_t>(i),
                 slots_[i].engine->export_store(plan.name, now));
  }
  return FederatedResult{
      runtime::materialize_switch_table(program, plan, store),
      store.accuracy(), store.capability(), store.records(), store.time()};
}

void FabricEngine::finish(Nanos now) {
  check(!finished_, "fabric: finish called twice");
  flush_taps();
  // Stop listening: records emitted after the window closed must not reach
  // finished engines.
  for (const SwitchSlot& slot : slots_) {
    net_->set_node_telemetry_sink(slot.node, {});
  }
  for (SwitchSlot& slot : slots_) slot.engine->finish(now);
  finished_ = true;

  // Federate every on-switch GROUPBY, then run the collection layer over the
  // network-wide tables exactly as a single engine runs it over its own.
  for (const auto& plan : program_.switch_plans) {
    FederatedResult merged = federate(program_, plan, now);
    tables_.emplace(plan.query_index, merged.table);
    finals_.emplace(plan.name, std::move(merged));
  }
  for (const auto& [name, owned] : attached_) {
    finals_.emplace(name,
                    federate(*owned, owned->switch_plans.front(), now));
  }
  for (std::size_t i = 0; i < program_.analysis->queries.size(); ++i) {
    if (tables_.count(static_cast<int>(i)) > 0) continue;
    runtime::run_collection_query(program_, static_cast<int>(i), tables_);
  }
}

const runtime::ResultTable& FabricEngine::result() const {
  check(finished_, "fabric: result before finish");
  const int last = static_cast<int>(program_.analysis->queries.size()) - 1;
  const runtime::ResultTable* t = runtime::find_collection_table(tables_, last);
  check(t != nullptr, "fabric: program result not materialized");
  return *t;
}

const runtime::ResultTable& FabricEngine::table(std::string_view name) const {
  check(finished_, "fabric: table before finish");
  const int idx = program_.analysis->query_index(name);
  if (idx >= 0) {
    const runtime::ResultTable* t = runtime::find_collection_table(tables_, idx);
    if (t == nullptr) {
      throw QueryError{"result",
                       "fabric: table '" + std::string{name} +
                           "' is a stream intermediate and is per-switch"};
    }
    return *t;
  }
  if (const auto it = finals_.find(name); it != finals_.end()) {
    return it->second.table;
  }
  throw QueryError{"result", "fabric: unknown table '" + std::string{name} + "'"};
}

FederatedResult FabricEngine::snapshot(std::string_view query_name, Nanos now) {
  const auto [program, plan] = resolve(query_name);
  flush_taps();
  return federate(*program, *plan, now);
}

const FederatedResult& FabricEngine::federated(std::string_view name) const {
  check(finished_, "fabric: federated() before finish");
  const auto it = finals_.find(name);
  if (it == finals_.end()) {
    throw QueryError{"result",
                     "fabric: no federated GROUPBY named '" + std::string{name} +
                         "'"};
  }
  return it->second;
}

std::pair<const compiler::CompiledProgram*, const compiler::SwitchQueryPlan*>
FabricEngine::resolve(std::string_view query_name) const {
  for (const auto& plan : program_.switch_plans) {
    if (plan.name == query_name) return {&program_, &plan};
  }
  if (const auto it = attached_.find(query_name); it != attached_.end()) {
    return {it->second.get(), &it->second->switch_plans.front()};
  }
  throw QueryError{"result", "fabric: no on-switch GROUPBY named '" +
                                 std::string{query_name} + "'"};
}

void FabricEngine::attach_query(const compiler::CompiledProgram& program,
                                const runtime::AttachOptions& options) {
  check(!finished_, "fabric: attach after finish");
  // Validation first, no state change on failure — same rule as the engines.
  const runtime::AttachKind kind = runtime::attachable_kind(program);
  if (kind != runtime::AttachKind::kSwitchQuery) {
    throw ConfigError{
        "fabric attach: stream SELECT tenants are per-switch state; attach "
        "them on engine(label) directly"};
  }
  if (options.name.empty()) {
    throw ConfigError{"fabric attach: query name must not be empty"};
  }
  if (attached_.count(options.name) > 0 ||
      program_.analysis->query_index(options.name) >= 0) {
    throw ConfigError{"fabric attach: query '" + options.name +
                      "' already exists"};
  }
  // Reach one fabric-wide record boundary so every switch shares the same
  // attach epoch relative to its tap stream.
  flush_taps();

  // The fabric keeps its own copy, its plan renamed: the plan federate()
  // reads. Every copy shares the program's one analysis.
  auto owned = std::make_shared<compiler::CompiledProgram>(program);
  owned->switch_plans.front().name = options.name;

  // All-or-nothing across switches: roll back on any per-engine failure.
  std::size_t attached_count = 0;
  try {
    for (SwitchSlot& slot : slots_) {
      slot.engine->attach_query(program, options);
      ++attached_count;
    }
  } catch (...) {
    for (std::size_t i = 0; i < attached_count; ++i) {
      (void)slots_[i].engine->detach_query(options.name, Nanos{0});
    }
    throw;
  }
  attached_.emplace(options.name, std::move(owned));
}

FederatedResult FabricEngine::detach_query(std::string_view name, Nanos now) {
  check(!finished_, "fabric: detach after finish");
  const auto it = attached_.find(name);
  if (it == attached_.end()) {
    for (const auto& plan : program_.switch_plans) {
      if (plan.name == name) {
        throw ConfigError{"fabric detach: '" + std::string{name} +
                          "' is a base-program query and cannot be detached"};
      }
    }
    throw QueryError{"result",
                     "fabric detach: unknown query '" + std::string{name} + "'"};
  }
  flush_taps();
  // Export-then-detach: federate the final per-switch stores, then free them.
  FederatedResult merged =
      federate(*it->second, it->second->switch_plans.front(), now);
  for (SwitchSlot& slot : slots_) {
    (void)slot.engine->detach_query(name, now);
  }
  attached_.erase(it);
  return merged;
}

runtime::Engine& FabricEngine::engine(std::string_view label) {
  for (SwitchSlot& slot : slots_) {
    if (slot.label == label) return *slot.engine;
  }
  throw ConfigError{"fabric: no switch labeled '" + std::string{label} + "'"};
}

std::uint64_t FabricEngine::records() const {
  std::uint64_t total = 0;
  for (const SwitchSlot& slot : slots_) total += slot.engine->records_processed();
  return total;
}

namespace {

/// Pool `item` into the entry of `into` that has its name, or append it.
template <typename Stats>
void pool_by_name(std::vector<Stats>& into, const Stats& item,
                  std::string Stats::*name) {
  const auto same = [&](const Stats& s) { return s.*name == item.*name; };
  if (const auto it = std::find_if(into.begin(), into.end(), same);
      it != into.end()) {
    *it += item;
  } else {
    into.push_back(item);
  }
}

}  // namespace

FabricMetrics FabricEngine::metrics() const {
  FabricMetrics fm;
  runtime::EngineMetrics& r = fm.rollup;
  r.engine = "fabric";
  for (const SwitchSlot& slot : slots_) {
    runtime::EngineMetrics m = slot.engine->metrics();
    r.records += m.records;
    r.batches += m.batches;
    r.refreshes += m.refreshes;
    r.snapshots += m.snapshots;
    r.faulted = r.faulted || m.faulted;
    for (const runtime::StoreStats& q : m.queries) {
      pool_by_name(r.queries, q, &runtime::StoreStats::name);
    }
    for (const runtime::StreamSinkMetrics& s : m.streams) {
      pool_by_name(r.streams, s, &runtime::StreamSinkMetrics::query);
    }
    // Per-thread pipeline state (shards/rings) stays per-switch:
    // summing thread ids across engines would be meaningless.
    r.batch_ns += m.batch_ns;
    r.snapshot_ns += m.snapshot_ns;
    r.absorb_ns += m.absorb_ns;
    r.ingest += m.ingest;
    fm.switches.emplace_back(slot.label, std::move(m));
  }
  return fm;
}

std::string fabric_metrics_to_json(const FabricMetrics& m) {
  return obs::samples_to_json("fabric", [&](const obs::MetricFn& fn) {
    obs::visit_metrics(m.rollup, fn);
    for (const auto& [label, em] : m.switches) {
      obs::visit_metrics(em, fn, {{"switch", label}});
    }
  });
}

std::string fabric_metrics_to_prometheus(const FabricMetrics& m) {
  return obs::samples_to_prometheus([&](const obs::MetricFn& fn) {
    obs::visit_metrics(m.rollup, fn);
    for (const auto& [label, em] : m.switches) {
      obs::visit_metrics(em, fn, {{"switch", label}});
    }
  });
}

}  // namespace perfq::federation

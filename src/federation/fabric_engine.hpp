// Network-wide queries: one query engine PER SWITCH, federated exactly.
//
// The paper's deployment model (§3.1) runs the on-switch half of a query in
// every switch of the fabric and merges at a central collector. FabricEngine
// is that model over the simulator: it attaches one runtime::Engine (inline
// or sharded executor — a per-switch deployment knob) to every switch of a
// netsim::Network via per-node telemetry taps, so each engine folds exactly
// the records of its own switch's queues, and federates their stores into
// network-wide result tables: each switch's export is absorbed into one
// kv::FederatedStore (kvstore/federated.hpp, the merge algebra), which is
// then materialized.
//
//   net::Network net;  ... build topology, add flows ...
//   FabricEngine fabric(net, compiler::compile_source(src), options);
//   net.run_until(t);                       // taps feed the engines
//   auto mid = fabric.snapshot("loss", t);  // network-wide mid-run pull
//   net.run_all();
//   fabric.finish(net.now());
//   const runtime::ResultTable& result = fabric.result();
//
// ---- Exactness / merge-order contract ---------------------------------------
//
// The federated merge is the cross-store reduction of kvstore/federated.hpp,
// so its guarantees are exactly MergeCapability's:
//
//   - ADDITIVE kernels (COUNT, SUM over integer-valued fields, and GROUPBYs
//     that keep only those): the federated table is BIT-FOR-BIT the table a
//     single oracle engine fed every switch's records in global emission
//     order would produce — under any cache geometry, serial or sharded
//     per-switch engines, refresh on or off, because additive totals are
//     independent of stream interleaving and eviction timing. FP caveat
//     (mirroring the attach/detach contract note in runtime/engine_api.hpp):
//     this bit-exactness rests on the additions being FP-exact, which holds
//     for integer counters/sums up to 2^53; fractional addends merge at
//     ULP-level accuracy instead.
//   - Everything else is SINGLE-SOURCE exact: keys whose whole record stream
//     lived on one switch (e.g. queue-keyed EWMA — a qid belongs to exactly
//     one switch) are exact under the per-switch engine's own contract; keys
//     seen at several switches are reported invalid with one value segment
//     per switch, and AccuracyStats counts them — §3.2's non-mergeable
//     escape hatch lifted to fabric scope. A further FP caveat for order-
//     sensitive linear folds: the per-switch refresh clock anchors at each
//     engine's FIRST record, so refresh-on runs reproduce a global oracle
//     only to ULP level even for single-source keys (refresh-off runs are
//     bit-exact).
//   - MERGE ORDER CANNOT MATTER, byte-for-byte: the store reduces its
//     sources in ascending source id at read time, and
//     materialize_switch_table() sorts rows into canonical key order, so
//     the switches' exports may arrive in any order.
//
// Stream SELECTs stay per-switch: their rows are delivered through each
// switch engine's own sinks (engine(label) reaches them) and have no exact
// cross-switch order to merge under. Fabric-level result()/table() serve the
// GROUPBY + collection-layer queries.
//
// Threading: the Network drives the taps from its event loop, so every
// FabricEngine call must come from that same (single) driver thread between
// run_until() steps — the same serialization contract as Engine itself. The
// Network must outlive the FabricEngine (the destructor clears its taps).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "compiler/program.hpp"
#include "kvstore/federated.hpp"
#include "netsim/network.hpp"
#include "obs/metrics_export.hpp"
#include "runtime/engine_api.hpp"

namespace perfq::federation {

struct FabricOptions {
  /// Switches to instrument; empty = every non-host node of the network.
  std::vector<net::NodeId> switches;
  /// Per-switch engine sharding (0 = the inline executor on every switch).
  std::size_t shards = 0;
  /// Per-switch cache geometry; engine default when unset. Every switch
  /// places keys with the same seed (EngineConfig::hash_seed).
  std::optional<kv::CacheGeometry> geometry;
  /// Per-switch periodic refresh (§3.2); zero disables. NOTE the FP caveat
  /// in the file comment: each engine's refresh clock anchors at ITS first
  /// record, so refresh changes flush instants per switch — free for
  /// additive kernels, ULP-level for other linear folds.
  Nanos refresh_interval{0};
};

/// One materialized network-wide result.
struct FederatedResult {
  runtime::ResultTable table;
  kv::AccuracyStats accuracy;    ///< federated validity (multi-source keys)
  kv::MergeCapability capability = kv::MergeCapability::kSingleSource;
  std::uint64_t records = 0;     ///< sum of source engines' record counts
  Nanos time;                    ///< max source export stamp
};

/// Per-switch engine metrics plus the fabric-wide rollup, rendered through
/// the same obs:: exporters as a single engine (per-switch samples carry a
/// {"switch": label} base label).
struct FabricMetrics {
  std::vector<std::pair<std::string, runtime::EngineMetrics>> switches;
  /// engine = "fabric": each switch's counters, per-query and per-stream
  /// stats (by name), histograms and ingest pooled with their `+=` (a
  /// mid-run fabric snapshot() is one pull per switch engine, whatever its
  /// executor). Shard and ring state stays per switch.
  runtime::EngineMetrics rollup;
};

class FabricEngine {
 public:
  /// Builds one engine per instrumented switch, each from a copy of
  /// `program` (the copies share its one analysis and its fold kernels),
  /// and installs the per-node taps. Throws ConfigError if the
  /// program has no on-switch GROUPBY, a selected node is a host, or a
  /// selected node repeats.
  FabricEngine(net::Network& network, compiler::CompiledProgram program,
               FabricOptions options = {});
  ~FabricEngine();
  FabricEngine(const FabricEngine&) = delete;
  FabricEngine& operator=(const FabricEngine&) = delete;

  /// Push every tap's buffered records into its engine. Called internally by
  /// snapshot()/finish()/attach/detach to reach a record boundary; call it
  /// directly before reading per-switch engines mid-run.
  void flush_taps();

  /// End the network-wide window: flush taps, finish every switch engine,
  /// federate each on-switch GROUPBY, run the collection layer over the
  /// federated tables. Call exactly once, after the network run.
  void finish(Nanos now);

  /// The program's primary result, network-wide. Only after finish().
  [[nodiscard]] const runtime::ResultTable& result() const;
  /// A named federated table. Only after finish(). Stream intermediates are
  /// not materialized at fabric level (see the file comment).
  [[nodiscard]] const runtime::ResultTable& table(std::string_view name) const;

  /// Network-wide result pull of one on-switch GROUPBY (base program or
  /// attached): flush taps, export every switch engine's store at the
  /// current record boundary, federate. Works mid-run AND after finish().
  [[nodiscard]] FederatedResult snapshot(std::string_view query_name,
                                         Nanos now);

  /// Accuracy/capability of one federated GROUPBY as of the last finish().
  [[nodiscard]] const FederatedResult& federated(std::string_view name) const;

  /// Attach one single-GROUPBY program to EVERY switch engine under
  /// options.name (stream tenants are per-switch state and are rejected at
  /// fabric level). All-or-nothing: a failed per-switch attach rolls back
  /// the switches already attached, leaving the fabric unchanged.
  void attach_query(const compiler::CompiledProgram& program,
                    const runtime::AttachOptions& options);

  /// Detach a fabric-attached query: export every switch's final store at
  /// `now`, detach it everywhere, return the federated result.
  FederatedResult detach_query(std::string_view name, Nanos now);

  /// Per-switch engine metrics + fabric rollup (see FabricMetrics).
  [[nodiscard]] FabricMetrics metrics() const;

  // ---- introspection -------------------------------------------------------
  [[nodiscard]] std::size_t switch_count() const { return slots_.size(); }
  [[nodiscard]] const std::string& switch_label(std::size_t i) const {
    return slots_[i].label;
  }
  /// The per-switch engine, by slot index or by label (tests, stream sinks).
  [[nodiscard]] runtime::Engine& engine(std::size_t i) { return *slots_[i].engine; }
  [[nodiscard]] runtime::Engine& engine(std::string_view label);
  /// Sum of records accepted across switch engines (flushed taps only).
  [[nodiscard]] std::uint64_t records() const;
  /// Latest record time observed by any tap (Nanos{0} before traffic).
  [[nodiscard]] Nanos end_time() const { return end_; }
  [[nodiscard]] const compiler::CompiledProgram& program() const {
    return program_;
  }

 private:
  /// Records a tap buffers before handing the switch engine one batch.
  static constexpr std::size_t kTapBatch = 256;

  struct SwitchSlot {
    net::NodeId node = 0;
    std::string label;
    std::unique_ptr<runtime::Engine> engine;
    std::vector<PacketRecord> buf;  ///< tap buffer, flushed at kTapBatch
  };

  /// Resolve a GROUPBY by resident name to its (program, plan) pair — base
  /// program or fabric-attached copy. Throws QueryError if unknown.
  [[nodiscard]] std::pair<const compiler::CompiledProgram*,
                          const compiler::SwitchQueryPlan*>
  resolve(std::string_view query_name) const;

  /// Absorb every switch engine's export of `plan` into one
  /// kv::FederatedStore and materialize it.
  [[nodiscard]] FederatedResult federate(const compiler::CompiledProgram& program,
                                         const compiler::SwitchQueryPlan& plan,
                                         Nanos now);

  net::Network* net_;
  compiler::CompiledProgram program_;
  FabricOptions options_;
  std::vector<SwitchSlot> slots_;
  /// Fabric-attached programs by resident name: the fabric's own copies,
  /// their plans renamed, which federate() reads.
  std::map<std::string, std::shared_ptr<const compiler::CompiledProgram>,
           std::less<>>
      attached_;
  std::map<int, runtime::ResultTable> tables_;  ///< by query index, post-finish
  std::map<std::string, FederatedResult, std::less<>> finals_;  ///< by name
  Nanos end_{0};
  bool finished_ = false;
};

/// Render a fabric's metrics through the shared exporters: the rollup's
/// samples unlabeled plus every switch engine's samples under a
/// {"switch": label} base label — one scrape surface for the whole fabric.
[[nodiscard]] std::string fabric_metrics_to_json(const FabricMetrics& m);
[[nodiscard]] std::string fabric_metrics_to_prometheus(const FabricMetrics& m);

}  // namespace perfq::federation

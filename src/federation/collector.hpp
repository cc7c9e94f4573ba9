// The network-wide collector: merges per-switch store exports into one
// exact federated result (§3.1's "everything downstream of the switch runs
// at the collector", grown from one switch to a fabric).
//
// ---- Exactness / merge-order contract ---------------------------------------
//
// The collector's merge is the cross-store reduction of
// kvstore/federated.hpp, so its guarantees are exactly MergeCapability's:
//
//   - ADDITIVE kernels (COUNT, SUM over integer-valued fields, and GROUPBYs
//     that keep only those): the federated table is BIT-FOR-BIT the
//     table a single oracle engine fed every switch's records in global
//     emission order would produce — under any cache geometry, serial or
//     sharded per-switch engines, refresh on or off, because additive totals
//     are independent of stream interleaving and eviction timing. FP caveat
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
//
//   - MERGE ORDER CANNOT MATTER, byte-for-byte: add() only records each
//     source's contribution; the reduction runs at materialize() time in
//     ascending source id, and materialize_switch_table() sorts rows into
//     canonical key order. Shuffled source orders, incremental one-switch-
//     at-a-time merges (with reads in between) and batched merges all
//     produce identical bytes. Re-adding a source replaces its contribution
//     (exports are monotone supersets).
#pragma once

#include <cstdint>
#include <vector>

#include "compiler/program.hpp"
#include "kvstore/federated.hpp"
#include "runtime/table.hpp"

namespace perfq::federation {

/// One materialized network-wide result.
struct FederatedResult {
  runtime::ResultTable table;
  kv::AccuracyStats accuracy;    ///< federated validity (multi-source keys)
  kv::MergeCapability capability = kv::MergeCapability::kSingleSource;
  std::uint64_t records = 0;     ///< sum of source engines' record counts
  Nanos time;                    ///< max source export stamp
};

class Collector {
 public:
  /// `program` and `plan` must outlive the collector (the plan belongs to
  /// the program; for attached queries, to the attach-renamed copy).
  Collector(const compiler::CompiledProgram& program,
            const compiler::SwitchQueryPlan& plan);

  /// Merge one switch's export under source id `source` (any order; see the
  /// merge-order contract above).
  void add(std::uint32_t source, const kv::StoreExport& exported);

  /// Render the network-wide table + accuracy at the current merge state.
  /// Callable between add()s (incremental reads) — the result only ever
  /// depends on WHICH sources were added, never on the order.
  [[nodiscard]] FederatedResult materialize() const;

  /// The underlying federated store (segment-level reads for invalid keys).
  [[nodiscard]] const kv::FederatedStore& store() const { return store_; }

 private:
  const compiler::CompiledProgram* program_;
  const compiler::SwitchQueryPlan* plan_;
  kv::FederatedStore store_;
};

}  // namespace perfq::federation

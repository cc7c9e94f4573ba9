// The collection layer that runtime::Engine runs at finish(): soft SELECTs
// over materialized aggregates, soft GROUPBYs, JOINs (§3.1's
// "everything downstream of the switch runs at the collector"), plus the
// canonical materialization of on-switch GROUPBY results out of a backing
// store.
#pragma once

#include <algorithm>
#include <map>
#include <vector>

#include "compiler/program.hpp"
#include "runtime/table.hpp"

namespace perfq::runtime {

/// The table for query `index`, or nullptr if not (yet) materialized.
[[nodiscard]] const ResultTable* find_collection_table(
    const std::map<int, ResultTable>& tables, int index);

/// Execute soft query `index` (SELECT over results / soft GROUPBY / JOIN)
/// over already-materialized inputs and insert its table into `tables`.
/// Stream-intermediate SELECTs produce no table and are skipped.
void run_collection_query(const compiler::CompiledProgram& program, int index,
                          std::map<int, ResultTable>& tables);

/// A result row's place in canonical order: its packed key bytes as two
/// big-endian 128-bit words (a kv::Key holds at most 32 bytes), so
/// comparing (hi, lo) compares the bytes lexicographically.
struct RowOrder {
  unsigned __int128 hi = 0;  ///< key bytes [0, 16)
  unsigned __int128 lo = 0;  ///< key bytes [16, 32)
  std::size_t row = 0;

  [[nodiscard]] static RowOrder of(const kv::Key& key, std::size_t row);

  friend bool operator<(const RowOrder& a, const RowOrder& b) {
    return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
  }
};

/// Materialize one on-switch GROUPBY's result table from a backing store
/// (anything with `for_each(fn(key, value, valid))` and `key_count()`:
/// BackingStore, the threaded executor's StoreView or a FederatedStore).
/// Rows are sorted into canonical key order so the result is independent
/// of map iteration and eviction interleaving — this is what lets
/// downstream collection queries (which accumulate in row order) reproduce
/// the same floating-point results bit-for-bit whichever executor folded
/// the store.
///
/// The order is the packed key bytes': every key of one plan packs its
/// components big-endian at fixed widths, so byte order is component-wise
/// numeric order, and the key columns alone decide it. Components of at
/// most 6 bytes unpack to doubles exactly, so there it is also the order of
/// the key columns; wider ones (pkt_uniq, computed keys) may unpack two
/// keys to one double, and their rows still follow the exact keys. One walk
/// of the store builds each row once at its final width.
template <typename Backing>
[[nodiscard]] ResultTable materialize_switch_table(
    const compiler::CompiledProgram& program,
    const compiler::SwitchQueryPlan& plan, const Backing& backing) {
  const auto& q =
      program.analysis->queries[static_cast<std::size_t>(plan.query_index)];
  std::vector<std::vector<double>> rows;
  std::vector<RowOrder> order;
  rows.reserve(backing.key_count());
  order.reserve(backing.key_count());
  backing.for_each([&](const kv::Key& key, const kv::StateVector& value,
                       bool /*valid*/) {
    std::vector<double>& row = rows.emplace_back();
    row.reserve(plan.key.size() + value.dims());
    compiler::unpack_key_into(plan, key, row);
    row.insert(row.end(), value.span().begin(), value.span().end());
    order.push_back(RowOrder::of(key, order.size()));
  });
  std::sort(order.begin(), order.end());
  ResultTable table(q.output);
  table.reserve(rows.size());
  for (const RowOrder& o : order) table.add_row(std::move(rows[o.row]));
  return table;
}

}  // namespace perfq::runtime

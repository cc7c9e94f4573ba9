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

/// Materialize one on-switch GROUPBY's result table from a backing store
/// (anything with `for_each(fn(key, value, valid))`: BackingStore or the
/// threaded executor's StoreView). Rows are sorted into canonical key order so the
/// result is independent of map iteration and eviction interleaving — this
/// is what lets downstream collection queries (which accumulate in row
/// order) reproduce the same floating-point results bit-for-bit whichever
/// executor folded the store.
template <typename Backing>
[[nodiscard]] ResultTable materialize_switch_table(
    const compiler::CompiledProgram& program,
    const compiler::SwitchQueryPlan& plan, const Backing& backing) {
  const auto& q =
      program.analysis.queries[static_cast<std::size_t>(plan.query_index)];
  std::vector<std::vector<double>> rows;
  backing.for_each([&](const kv::Key& key, const kv::StateVector& value,
                       bool /*valid*/) {
    std::vector<double> row = compiler::unpack_key(plan, key);
    for (std::size_t d = 0; d < value.dims(); ++d) row.push_back(value[d]);
    rows.push_back(std::move(row));
  });
  // Keys are unique and lead each row, so the lexicographic compare is
  // decided within the (finite, integer-valued) key columns.
  std::sort(rows.begin(), rows.end());
  ResultTable table(q.output);
  for (auto& row : rows) table.add_row(std::move(row));
  return table;
}

}  // namespace perfq::runtime

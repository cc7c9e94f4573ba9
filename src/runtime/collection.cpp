#include "runtime/collection.hpp"

#include <array>
#include <cstring>
#include <optional>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "compiler/fold_compiler.hpp"

namespace perfq::runtime {

namespace {

/// Name resolver over a schema for row-based evaluation.
compiler::Resolver schema_resolver(const lang::Schema& schema) {
  return [&schema](const std::string& name) -> std::optional<compiler::Slot> {
    const int idx = schema.index_of(name);
    if (idx < 0) {
      // Query-level value constants (TCP/UDP) still resolve in row context
      // through sema's constant folding; anything left unknown is an error.
      return std::nullopt;
    }
    return compiler::Slot{0, idx};
  };
}

}  // namespace

RowOrder RowOrder::of(const kv::Key& key, std::size_t row) {
  static_assert(kv::Key::kCapacity <= 32, "RowOrder holds 32 key bytes");
  // Zero-padded to 32 bytes, then read as four big-endian 64-bit words.
  std::array<std::uint64_t, 4> w{};
  std::memcpy(w.data(), key.bytes().data(), key.size());
  for (std::uint64_t& x : w) x = __builtin_bswap64(x);
  using U128 = unsigned __int128;
  return RowOrder{(U128{w[0]} << 64) | w[1], (U128{w[2]} << 64) | w[3], row};
}

const ResultTable* find_collection_table(
    const std::map<int, ResultTable>& tables, int index) {
  const auto it = tables.find(index);
  return it == tables.end() ? nullptr : &it->second;
}

void run_collection_query(const compiler::CompiledProgram& program, int index,
                          std::map<int, ResultTable>& tables) {
  const auto& q = program.analysis->queries[static_cast<std::size_t>(index)];

  switch (q.def.kind) {
    case lang::QueryDef::Kind::kSelect: {
      if (q.output.stream_over_base) return;  // intermediate stream: no table
      const ResultTable* in = find_collection_table(tables, q.input);
      check(in != nullptr, "collection: input table missing");
      const lang::Schema& in_schema = in->schema();
      const auto resolver = schema_resolver(in_schema);
      std::optional<compiler::ScalarExpr> where;
      if (q.def.where) {
        where = compiler::ScalarExpr::compile(*q.def.where, resolver);
      }
      std::vector<compiler::ScalarExpr> projections;
      projections.reserve(q.projections.size());
      for (const auto& p : q.projections) {
        projections.push_back(compiler::ScalarExpr::compile(*p.expr, resolver));
      }
      ResultTable out(q.output);
      for (const auto& row : in->rows()) {
        const compiler::RowSource source({row.data(), row.size()});
        if (where.has_value() && !where->eval_bool(source)) continue;
        std::vector<double> projected;
        projected.reserve(projections.size());
        for (const auto& p : projections) projected.push_back(p.eval(source));
        out.add_row(std::move(projected));
      }
      tables.emplace(index, std::move(out));
      return;
    }

    case lang::QueryDef::Kind::kGroupBy: {
      check(!q.on_switch, "collection: on-switch groupby reached soft path");
      const ResultTable* in = find_collection_table(tables, q.input);
      check(in != nullptr, "collection: input table missing");
      const lang::Schema& in_schema = in->schema();
      const auto resolver = schema_resolver(in_schema);

      std::optional<compiler::ScalarExpr> where;
      if (q.def.where) {
        where = compiler::ScalarExpr::compile(*q.def.where, resolver);
      }
      std::vector<std::size_t> key_idx;
      for (const auto& k : q.key_columns) {
        key_idx.push_back(static_cast<std::size_t>(in_schema.index_of(k)));
      }

      // The GROUPBY's one fold (sema's lowering of its select list), run
      // over rows by the same VM the switch runs over records.
      const compiler::FoldBody fold =
          compiler::FoldBody::compile(q.fold.def, resolver);
      const std::size_t dims = fold.state_dims();

      std::map<std::vector<double>, std::vector<double>> groups;
      for (const auto& row : in->rows()) {
        const compiler::RowSource source({row.data(), row.size()});
        if (where.has_value() && !where->eval_bool(source)) continue;
        std::vector<double> key;
        key.reserve(key_idx.size());
        for (const auto i : key_idx) key.push_back(row[i]);
        auto [it, inserted] = groups.try_emplace(std::move(key));
        if (inserted) it->second.assign(dims, 0.0);
        fold.execute({it->second.data(), dims}, source);
      }

      ResultTable out(q.output);
      for (const auto& [key, values] : groups) {
        std::vector<double> row = key;
        row.insert(row.end(), values.begin(), values.end());
        out.add_row(std::move(row));
      }
      tables.emplace(index, std::move(out));
      return;
    }

    case lang::QueryDef::Kind::kJoin: {
      const ResultTable* left = find_collection_table(tables, q.left);
      const ResultTable* right = find_collection_table(tables, q.right);
      check(left != nullptr && right != nullptr,
            "collection: join input missing");
      const lang::Schema& ls = left->schema();
      const lang::Schema& rs = right->schema();

      std::vector<std::size_t> lkey;
      std::vector<std::size_t> rkey;
      for (const auto& k : q.key_columns) {
        lkey.push_back(static_cast<std::size_t>(ls.index_of(k)));
        rkey.push_back(static_cast<std::size_t>(rs.index_of(k)));
      }
      std::vector<std::size_t> lval;
      std::vector<std::size_t> rval;
      for (std::size_t c = 0; c < ls.size(); ++c) {
        if (std::find(lkey.begin(), lkey.end(), c) == lkey.end()) {
          lval.push_back(c);
        }
      }
      for (std::size_t c = 0; c < rs.size(); ++c) {
        if (std::find(rkey.begin(), rkey.end(), c) == rkey.end()) {
          rval.push_back(c);
        }
      }

      // Hash join (keys are unique on both sides by construction).
      std::map<std::vector<double>, const std::vector<double>*> left_index;
      for (const auto& row : left->rows()) {
        std::vector<double> key;
        for (const auto i : lkey) key.push_back(row[i]);
        left_index.emplace(std::move(key), &row);
      }

      const auto resolver = schema_resolver(q.joined_schema);
      std::optional<compiler::ScalarExpr> where;
      if (q.def.where) {
        where = compiler::ScalarExpr::compile(*q.def.where, resolver);
      }
      std::vector<compiler::ScalarExpr> projections;
      for (const auto& p : q.projections) {
        projections.push_back(compiler::ScalarExpr::compile(*p.expr, resolver));
      }

      ResultTable out(q.output);
      for (const auto& rrow : right->rows()) {
        std::vector<double> key;
        for (const auto i : rkey) key.push_back(rrow[i]);
        const auto it = left_index.find(key);
        if (it == left_index.end()) continue;
        // Joined row in joined_schema order: keys, left non-keys, right
        // non-keys (matching sema's construction).
        std::vector<double> joined = key;
        for (const auto i : lval) joined.push_back((*it->second)[i]);
        for (const auto i : rval) joined.push_back(rrow[i]);
        const compiler::RowSource source({joined.data(), joined.size()});
        if (where.has_value() && !where->eval_bool(source)) continue;
        std::vector<double> row = key;
        for (const auto& p : projections) row.push_back(p.eval(source));
        out.add_row(std::move(row));
      }
      tables.emplace(index, std::move(out));
      return;
    }
  }
}

}  // namespace perfq::runtime

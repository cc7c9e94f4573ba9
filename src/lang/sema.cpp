#include "lang/sema.hpp"

#include <algorithm>
#include <set>

#include "common/error.hpp"
#include "kvstore/key.hpp"
#include "lang/parser.hpp"

namespace perfq::lang {
namespace {

[[noreturn]] void sema_fail(const std::string& message, int line = 0) {
  throw QueryError{"sema", message, line, line > 0 ? 1 : 0};
}

bool contains(const std::vector<std::string>& xs, std::string_view x) {
  return std::find(xs.begin(), xs.end(), x) != xs.end();
}

// ----------------------------------------------------- constant folding ----

void fold_constants_impl(ExprPtr& expr, const std::map<std::string, double>& params,
                         const std::vector<std::string>& bound) {
  Expr& e = *expr;
  switch (e.kind) {
    case ExprKind::kNumber:
    case ExprKind::kInfinity:
    case ExprKind::kDotted:
      return;
    case ExprKind::kName: {
      if (contains(bound, e.name)) return;
      const auto it = params.find(e.name);
      if (it != params.end()) {
        expr = make_number(it->second, e.line, e.column);
      }
      return;  // unresolved names are validated by the caller's context
    }
    case ExprKind::kUnary: {
      fold_constants_impl(e.lhs, params, bound);
      if (!e.is_not && e.lhs->kind == ExprKind::kNumber) {
        expr = make_number(-e.lhs->number, e.line, e.column);
      }
      return;
    }
    case ExprKind::kCall:
      for (auto& a : e.args) fold_constants_impl(a, params, bound);
      return;
    case ExprKind::kBinary: {
      fold_constants_impl(e.lhs, params, bound);
      fold_constants_impl(e.rhs, params, bound);
      if (e.lhs->kind == ExprKind::kNumber && e.rhs->kind == ExprKind::kNumber &&
          is_arithmetic(e.op)) {
        const double a = e.lhs->number;
        const double b = e.rhs->number;
        double v = 0.0;
        switch (e.op) {
          case BinaryOp::kAdd: v = a + b; break;
          case BinaryOp::kSub: v = a - b; break;
          case BinaryOp::kMul: v = a * b; break;
          case BinaryOp::kDiv:
            if (b == 0.0) sema_fail("division by zero in constant expression",
                                    e.line);
            v = a / b;
            break;
          default: return;
        }
        expr = make_number(v, e.line, e.column);
      }
      return;
    }
  }
}

// -------------------------------------------------- expression validation --

/// Built-in value-level constants usable in queries (WHERE proto == TCP).
const std::map<std::string, double>& builtin_constants() {
  static const std::map<std::string, double> kConstants{
      {"TCP", 6.0},
      {"UDP", 17.0},
  };
  return kConstants;
}

/// Check that `e` only references columns of `schema` (whole-call and dotted
/// sub-expressions may resolve as column names, e.g. "SUM(tout - tin)" or
/// "R1.COUNT"). Returns nothing; throws on failure.
void check_expr(const Expr& e, const Schema& schema) {
  switch (e.kind) {
    case ExprKind::kNumber:
    case ExprKind::kInfinity:
      return;
    case ExprKind::kName: {
      if (schema.find(e.name) != nullptr) return;
      if (builtin_constants().count(e.name) > 0) return;
      sema_fail("unknown column '" + e.name + "' (schema " + schema.to_string() +
                    ")",
                e.line);
    }
    case ExprKind::kDotted: {
      if (schema.find(to_string(e)) != nullptr) return;
      sema_fail("unknown column '" + to_string(e) + "'", e.line);
    }
    case ExprKind::kCall: {
      // A call may *be* a column (aggregate result referenced downstream).
      if (schema.find(to_string(e)) != nullptr) return;
      if (e.name == "max" || e.name == "min") {
        if (e.args.size() != 2) {
          sema_fail("'" + e.name + "' expects 2 arguments", e.line);
        }
        for (const auto& a : e.args) check_expr(*a, schema);
        return;
      }
      sema_fail("unknown function or column '" + to_string(e) + "'", e.line);
    }
    case ExprKind::kUnary:
      check_expr(*e.lhs, schema);
      return;
    case ExprKind::kBinary:
      check_expr(*e.lhs, schema);
      check_expr(*e.rhs, schema);
      return;
  }
}

// --------------------------------------------------------- fold analysis --

void collect_free_names(const Expr& e, const std::vector<std::string>& bound,
                        std::set<std::string>& out) {
  switch (e.kind) {
    case ExprKind::kName:
      if (!contains(bound, e.name)) out.insert(e.name);
      return;
    case ExprKind::kDotted:
      sema_fail("dotted name '" + to_string(e) + "' not allowed in fold body",
                e.line);
    case ExprKind::kCall:
      if (e.name != "max" && e.name != "min") {
        sema_fail("call to '" + e.name + "' not allowed in fold body (only "
                  "max/min)",
                  e.line);
      }
      for (const auto& a : e.args) collect_free_names(*a, bound, out);
      return;
    case ExprKind::kUnary:
      collect_free_names(*e.lhs, bound, out);
      return;
    case ExprKind::kBinary:
      collect_free_names(*e.lhs, bound, out);
      collect_free_names(*e.rhs, bound, out);
      return;
    default:
      return;
  }
}

void walk_stmts(const std::vector<Stmt>& body, const FoldDef& fold,
                const std::map<std::string, double>& params,
                std::set<std::string>& free_names) {
  std::vector<std::string> bound = fold.state_vars;
  bound.insert(bound.end(), fold.packet_args.begin(), fold.packet_args.end());
  for (const Stmt& s : body) {
    if (s.kind == Stmt::Kind::kAssign) {
      if (!contains(fold.state_vars, s.target)) {
        sema_fail("fold '" + fold.name + "' assigns to '" + s.target +
                      "', which is not a state variable",
                  s.line);
      }
      collect_free_names(*s.value, bound, free_names);
    } else {
      collect_free_names(*s.condition, bound, free_names);
      walk_stmts(s.then_body, fold, params, free_names);
      walk_stmts(s.else_body, fold, params, free_names);
    }
  }
}

void fold_body_constants(std::vector<Stmt>& body,
                         const std::map<std::string, double>& params,
                         const std::vector<std::string>& bound) {
  for (Stmt& s : body) {
    if (s.kind == Stmt::Kind::kAssign) {
      fold_constants_impl(s.value, params, bound);
    } else {
      fold_constants_impl(s.condition, params, bound);
      fold_body_constants(s.then_body, params, bound);
      fold_body_constants(s.else_body, params, bound);
    }
  }
}

AnalyzedFold analyze_fold(const FoldDef& fold,
                          const std::map<std::string, double>& params) {
  if (fold.state_vars.empty()) sema_fail("fold has no state variables", fold.line);
  std::set<std::string> seen;
  for (const auto& v : fold.state_vars) {
    if (!seen.insert(v).second) {
      sema_fail("duplicate state variable '" + v + "' in fold '" + fold.name + "'",
                fold.line);
    }
  }
  for (const auto& a : fold.packet_args) {
    if (!seen.insert(a).second) {
      sema_fail("packet argument '" + a + "' collides with another name in '" +
                    fold.name + "'",
                fold.line);
    }
  }

  // Free names must be supplied constants.
  std::set<std::string> free_names;
  walk_stmts(fold.body, fold, params, free_names);
  for (const auto& n : free_names) {
    if (params.count(n) == 0) {
      sema_fail("fold '" + fold.name + "' references '" + n +
                    "', which is neither a state variable, packet argument, "
                    "nor a provided constant",
                fold.line);
    }
  }

  AnalyzedFold out;
  out.def.name = fold.name;
  out.def.state_vars = fold.state_vars;
  out.def.packet_args = fold.packet_args;
  out.def.line = fold.line;
  for (const auto& s : fold.body) out.def.body.push_back(s.clone());
  std::vector<std::string> bound = fold.state_vars;
  bound.insert(bound.end(), fold.packet_args.begin(), fold.packet_args.end());
  fold_body_constants(out.def.body, params, bound);

  out.linearity = analyze_linearity(out.def);
  return out;
}

// ---------------------------------------------------- aggregation lowering --

/// Rename state variables of a fold body (see AnalyzedQuery::fold).
void rename_state(Expr& e, const std::map<std::string, std::string>& names) {
  if (e.kind == ExprKind::kName) {
    if (const auto it = names.find(e.name); it != names.end()) {
      e.name = it->second;
    }
    return;
  }
  if (e.lhs) rename_state(*e.lhs, names);
  if (e.rhs) rename_state(*e.rhs, names);
  for (auto& a : e.args) rename_state(*a, names);
}

void rename_state(Stmt& s, const std::map<std::string, std::string>& names) {
  if (s.kind == Stmt::Kind::kAssign) {
    s.target = names.at(s.target);
    rename_state(*s.value, names);
    return;
  }
  rename_state(*s.condition, names);
  for (Stmt& t : s.then_body) rename_state(t, names);
  for (Stmt& t : s.else_body) rename_state(t, names);
}

/// Every name a fold body reads that is not one of its state variables.
void collect_reads(const std::vector<Stmt>& body,
                   const std::vector<std::string>& state,
                   std::set<std::string>& out) {
  for (const Stmt& s : body) {
    const Expr& read = s.kind == Stmt::Kind::kAssign ? *s.value : *s.condition;
    collect_free_names(read, state, out);
    collect_reads(s.then_body, state, out);
    collect_reads(s.else_body, state, out);
  }
}

// ---------------------------------------------------------------- queries --

class ProgramAnalyzer {
 public:
  ProgramAnalyzer(const Program& program, std::map<std::string, double> params)
      : program_(program) {
    // Built-in value constants are always available in query position.
    result_.params = std::move(params);
    for (const auto& [k, v] : builtin_constants()) {
      result_.params.emplace(k, v);
    }
  }

  AnalyzedProgram run() {
    for (const auto& f : program_.folds) {
      if (result_.fold_index(f.name) >= 0) {
        sema_fail("duplicate fold definition '" + f.name + "'", f.line);
      }
      result_.folds.push_back(analyze_fold(f, result_.params));
    }
    for (const auto& q : program_.queries) {
      result_.queries.push_back(analyze_query(q));
    }
    return std::move(result_);
  }

 private:
  [[nodiscard]] const Schema& schema_of(int index) const {
    static const Schema kBase = Schema::base();
    return index < 0 ? kBase : result_.queries[static_cast<std::size_t>(index)].output;
  }

  [[nodiscard]] int resolve_table(const std::string& name, int line) const {
    if (name == "T") return -1;
    const int idx = result_.query_index(name);
    if (idx < 0) sema_fail("unknown table '" + name + "'", line);
    return idx;
  }

  [[nodiscard]] AnalyzedQuery analyze_query(const QueryDef& q) {
    AnalyzedQuery out;
    out.def.kind = q.kind;
    out.def.result_name = q.result_name;
    out.def.from = q.from;
    out.def.join_left = q.join_left;
    out.def.join_right = q.join_right;
    out.def.join_keys = q.join_keys;
    out.def.line = q.line;
    for (const auto& item : q.select_list) {
      SelectItem copy;
      copy.star = item.star;
      if (item.expr) {
        copy.expr = item.expr->clone();
        fold_constants_impl(copy.expr, result_.params, {});
      }
      out.def.select_list.push_back(std::move(copy));
    }
    if (q.where) {
      out.def.where = q.where->clone();
      fold_constants_impl(out.def.where, result_.params, {});
    }
    for (const auto& g : q.groupby_fields) {
      out.def.groupby_fields.push_back(g->clone());
    }

    if (!q.result_name.empty() && result_.query_index(q.result_name) >= 0) {
      sema_fail("duplicate table name '" + q.result_name + "'", q.line);
    }

    switch (q.kind) {
      case QueryDef::Kind::kSelect: analyze_select(out); break;
      case QueryDef::Kind::kGroupBy: analyze_groupby(out); break;
      case QueryDef::Kind::kJoin: analyze_join(out); break;
    }
    return out;
  }

  void analyze_select(AnalyzedQuery& out) {
    out.input = resolve_table(out.def.from, out.def.line);
    const Schema& in = schema_of(out.input);
    if (out.def.where) check_expr(*out.def.where, in);

    Schema schema;
    schema.stream_over_base = in.stream_over_base;
    for (const auto& item : out.def.select_list) {
      if (item.star) {
        for (const auto& c : in.columns()) {
          schema.add(c);
          out.projections.push_back(
              AnalyzedQuery::Projection{c.name, make_name(c.name)});
        }
        continue;
      }
      // "5tuple" expands to five projections.
      if (item.expr->kind == ExprKind::kName && item.expr->name == "5tuple") {
        for (const auto& n : in.expand("5tuple")) {
          const Column* c = in.find(n);
          schema.add(*c);
          out.projections.push_back(AnalyzedQuery::Projection{n, make_name(n)});
        }
        continue;
      }
      check_expr(*item.expr, in);
      Column c;
      if (item.expr->kind == ExprKind::kName) {
        c = *in.find(item.expr->name);  // keep canonical name/bits/aliases
      } else if (const Column* whole = in.find(to_string(*item.expr))) {
        c = *whole;
      } else {
        c.name = to_string(*item.expr);
      }
      if (schema.find(c.name) == nullptr) schema.add(c);
      out.projections.push_back(
          AnalyzedQuery::Projection{c.name, item.expr->clone()});
    }
    if (out.projections.empty()) sema_fail("empty select list", out.def.line);
    // A projection that retains the whole key keeps the table keyed.
    if (!in.key.empty()) {
      const bool keeps_key =
          std::all_of(in.key.begin(), in.key.end(), [&](const std::string& k) {
            return schema.find(k) != nullptr;
          });
      if (keeps_key) schema.key = in.key;
    }
    out.output = std::move(schema);
  }

  void analyze_groupby(AnalyzedQuery& out) {
    out.input = resolve_table(out.def.from, out.def.line);
    const Schema& in = schema_of(out.input);
    if (out.def.where) check_expr(*out.def.where, in);

    // Resolve key columns ("5tuple" expands). Grouping by pkt_uniq also keys
    // on the five-tuple: the paper assumes "pkt_uniq is a tuple of packet
    // fields that includes the 5tuple" (§2), which is what lets a downstream
    // query GROUPBY 5tuple over a per-packet aggregate.
    for (const auto& g : out.def.groupby_fields) {
      if (g->kind != ExprKind::kName) {
        // Computed key (e.g. GROUPBY qid, qsize / 64): legal only over the
        // packet stream, where the on-switch key-value store evaluates the
        // expression per record. The collection layer resolves soft-GROUPBY
        // keys by column name against materialized tables, so those keep
        // requiring plain names.
        if (!in.stream_over_base) {
          sema_fail("GROUPBY field over an aggregate must be a column name, "
                    "got '" + to_string(*g) + "'",
                    out.def.line);
        }
        ExprPtr expr = g->clone();
        fold_constants_impl(expr, result_.params, {});
        check_expr(*expr, in);
        std::string name = to_string(*expr);
        if (!contains(out.key_columns, name)) {
          out.key_columns.push_back(name);
          out.computed_keys.emplace(std::move(name), std::move(expr));
        }
        continue;
      }
      if (g->name == "pkt_uniq" && in.find("srcip") != nullptr) {
        for (const auto& name : in.expand("5tuple")) {
          if (!contains(out.key_columns, name)) out.key_columns.push_back(name);
        }
      }
      for (const auto& name : in.expand(g->name)) {
        const Column* c = in.find(name);
        if (c == nullptr) sema_fail("unknown GROUPBY column '" + name + "'",
                                    out.def.line);
        if (!contains(out.key_columns, c->name)) {
          out.key_columns.push_back(c->name);
        }
      }
    }
    if (out.key_columns.empty()) sema_fail("GROUPBY with no fields", out.def.line);

    // Output schema: keys, then one column per aggregation state dim.
    Schema schema;
    schema.key = out.key_columns;
    for (const auto& k : out.key_columns) {
      if (const Column* c = in.find(k)) {
        schema.add(*c);
        continue;
      }
      // Computed key: a fresh 64-bit column (key values are packed as
      // 8-byte truncated unsigned integers; see extract_key's clamp).
      check(out.computed_keys.count(k) > 0, "groupby: unresolved key column");
      Column c;
      c.name = k;
      c.bits = 64;
      schema.add(std::move(c));
    }

    // Lower the aggregations, in select-list order, into one fold
    // (AnalyzedQuery::fold) whose state dim i fills value_columns[i].
    FoldDef& fold = out.fold.def;
    const auto add_name = [&fold](const std::string& aggregation) {
      fold.name += (fold.name.empty() ? "" : ", ") + aggregation;
    };
    const auto add_state = [&](Column column) {
      out.value_columns.push_back(column.name);
      schema.add(std::move(column));
      fold.state_vars.push_back("#" + std::to_string(fold.state_vars.size()));
      return fold.state_vars.back();
    };
    const auto add_sum = [&](std::string column, ExprPtr addend) {
      if (schema.find(column) != nullptr) {
        sema_fail("duplicate aggregate column '" + column + "'", out.def.line);
      }
      Column c;
      c.name = column;
      Stmt stmt;
      stmt.target = add_state(std::move(c));
      stmt.value = make_binary(BinaryOp::kAdd, make_name(stmt.target),
                               std::move(addend));
      stmt.line = out.def.line;
      fold.body.push_back(std::move(stmt));
      add_name(column);
    };
    const auto add_fold = [&](const AnalyzedFold& user) {
      const std::string& name = user.def.name;
      if (!in.stream_over_base) {
        // Over a table a fold reads columns by name. (On the switch an
        // argument the stream does not bind reads the base field.)
        std::set<std::string> reads;
        collect_reads(user.def.body, user.def.state_vars, reads);
        for (const auto& column : reads) {
          if (in.find(column) != nullptr) continue;
          sema_fail("fold '" + name + "' reads '" + column + "', which " +
                        out.def.from + " does not have (schema " +
                        in.to_string() + ")",
                    out.def.line);
        }
      }
      std::map<std::string, std::string> renames;
      for (const auto& var : user.def.state_vars) {
        Column c;
        const std::string dotted = name + "." + var;
        if (schema.find(var) == nullptr) {
          c.name = var;
          c.aliases.push_back(dotted);
        } else {
          c.name = dotted;
        }
        if (user.def.state_vars.size() == 1 && schema.find(name) == nullptr &&
            c.name != name) {
          c.aliases.push_back(name);  // single-var folds: fold name too
        }
        renames.emplace(var, add_state(std::move(c)));
      }
      for (const auto& stmt : user.def.body) {
        fold.body.push_back(stmt.clone());
        rename_state(fold.body.back(), renames);
      }
      add_name(name);
    };

    for (const auto& item : out.def.select_list) {
      if (item.star) {
        sema_fail("SELECT * is not allowed with GROUPBY", out.def.line);
      }
      const Expr& e = *item.expr;
      if (e.kind == ExprKind::kName) {
        if (e.name == "5tuple") {
          for (const auto& n : in.expand("5tuple")) {
            if (!contains(out.key_columns, n)) {
              sema_fail("'5tuple' selected but not grouped by", out.def.line);
            }
          }
          continue;
        }
        if (e.name == "COUNT") {
          add_sum("COUNT", make_number(1.0));
          continue;
        }
        if (const int fi = result_.fold_index(e.name); fi >= 0) {
          add_fold(result_.folds[static_cast<std::size_t>(fi)]);
          continue;
        }
        const Column* c = in.find(e.name);
        if (c != nullptr && contains(out.key_columns, c->name)) continue;
        sema_fail("select item '" + e.name +
                      "' is neither a GROUPBY key, an aggregation, nor a fold",
                  e.line);
      }
      if (e.kind == ExprKind::kCall && e.name == "SUM") {
        if (e.args.size() != 1) sema_fail("SUM expects one argument", e.line);
        check_expr(*e.args[0], in);
        add_sum(to_string(e), e.args[0]->clone());
        continue;
      }
      sema_fail("unsupported select item '" + to_string(e) + "' under GROUPBY",
                e.line);
    }
    // A key-only GROUPBY means "distinct keys"; give it a COUNT so the
    // result table carries a value column (Fig. 2's composed queries rely on
    // exactly this reading).
    if (fold.state_vars.empty()) add_sum("COUNT", make_number(1.0));

    out.on_switch = in.stream_over_base;
    if (out.on_switch && fold.state_vars.size() > kv::kMaxStateDims) {
      sema_fail("GROUPBY keeps " + std::to_string(fold.state_vars.size()) +
                    " values per key; an on-switch GROUPBY keeps at most " +
                    std::to_string(kv::kMaxStateDims),
                out.def.line);
    }
    // The compiler packs each key column into (bits + 7) / 8 bytes.
    int key_bytes = 0;
    for (const auto& k : out.key_columns) {
      key_bytes += (schema.find(k)->bits + 7) / 8;
    }
    if (out.on_switch && key_bytes > static_cast<int>(kv::Key::kCapacity)) {
      sema_fail("GROUPBY key packs " + std::to_string(key_bytes) +
                    " bytes; an on-switch key holds at most " +
                    std::to_string(kv::Key::kCapacity) + " bytes",
                out.def.line);
    }
    fold.line = out.def.line;
    out.fold.linearity = analyze_linearity(fold);
    out.output = std::move(schema);
  }

  void analyze_join(AnalyzedQuery& out) {
    out.left = resolve_table(out.def.join_left, out.def.line);
    out.right = resolve_table(out.def.join_right, out.def.line);
    if (out.left < 0 || out.right < 0) {
      sema_fail("JOIN over the raw packet table T is not permitted (result "
                "size is O(#pkts^2); see §2)",
                out.def.line);
    }
    const Schema& left = schema_of(out.left);
    const Schema& right = schema_of(out.right);

    // Expand and canonicalize the ON keys; both sides must be keyed by them
    // (the paper's "key uniquely identifies records in both tables").
    std::vector<std::string> keys;
    for (const auto& k : out.def.join_keys) {
      for (const auto& n : left.expand(k)) {
        if (!contains(keys, n)) keys.push_back(n);
      }
    }
    auto same_key = [&](const Schema& s) {
      if (s.key.size() != keys.size()) return false;
      return std::all_of(keys.begin(), keys.end(), [&](const std::string& k) {
        return contains(s.key, k);
      });
    };
    if (!same_key(left) || !same_key(right)) {
      sema_fail("JOIN ON keys must be exactly the GROUPBY keys of both inputs "
                "(left key " +
                    left.to_string() + ", right key " + right.to_string() + ")",
                out.def.line);
    }
    out.key_columns = keys;

    // Joined schema: keys unprefixed; other columns visible both as
    // "Table.col" and (when unambiguous) bare "col".
    Schema joined;
    joined.key = keys;
    for (const auto& k : keys) joined.add(*left.find(k));
    auto add_side = [&](const Schema& side, const std::string& prefix,
                        const Schema& other) {
      for (const auto& c : side.columns()) {
        if (contains(keys, c.name)) continue;
        Column col;
        col.name = prefix + "." + c.name;
        col.bits = c.bits;
        if (other.find(c.name) == nullptr && joined.find(c.name) == nullptr) {
          col.aliases.push_back(c.name);
        }
        for (const auto& a : c.aliases) {
          col.aliases.push_back(prefix + "." + a);
        }
        joined.add(std::move(col));
      }
    };
    add_side(left, out.def.join_left, right);
    add_side(right, out.def.join_right, left);

    if (out.def.where) check_expr(*out.def.where, joined);
    out.joined_schema = joined;

    // Projection over the joined schema.
    Schema schema;
    schema.key = keys;
    for (const auto& k : keys) schema.add(*left.find(k));
    for (const auto& item : out.def.select_list) {
      if (item.star) {
        for (const auto& c : joined.columns()) {
          if (contains(keys, c.name)) continue;
          schema.add(c);
          out.projections.push_back(
              AnalyzedQuery::Projection{c.name, make_name(c.name)});
        }
        continue;
      }
      if (item.expr->kind == ExprKind::kName && item.expr->name == "5tuple") {
        continue;  // keys are always included
      }
      check_expr(*item.expr, joined);
      if (item.expr->kind == ExprKind::kName &&
          contains(keys, item.expr->name)) {
        continue;
      }
      Column c;
      c.name = to_string(*item.expr);
      if (schema.find(c.name) == nullptr) {
        schema.add(c);
        out.projections.push_back(
            AnalyzedQuery::Projection{c.name, item.expr->clone()});
      }
    }
    out.output = std::move(schema);
  }

  const Program& program_;
  AnalyzedProgram result_;
};

}  // namespace

int AnalyzedProgram::fold_index(std::string_view name) const {
  for (std::size_t i = 0; i < folds.size(); ++i) {
    if (folds[i].def.name == name) return static_cast<int>(i);
  }
  return -1;
}

int AnalyzedProgram::query_index(std::string_view result_name) const {
  if (result_name.empty()) return -1;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (queries[i].def.result_name == result_name) return static_cast<int>(i);
  }
  return -1;
}

void fold_constants(ExprPtr& expr, const std::map<std::string, double>& params,
                    const std::vector<std::string>& bound) {
  fold_constants_impl(expr, params, bound);
}

AnalyzedProgram analyze(const Program& program,
                        const std::map<std::string, double>& params) {
  return ProgramAnalyzer{program, params}.run();
}

AnalyzedProgram analyze_source(std::string_view source,
                               const std::map<std::string, double>& params) {
  const Program program = parse_program(source);
  return analyze(program, params);
}

}  // namespace perfq::lang

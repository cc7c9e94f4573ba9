#include "compiler/program.hpp"

#include <algorithm>
#include <array>
#include <set>

#include "common/error.hpp"
#include "lang/parser.hpp"

namespace perfq::compiler {
namespace {

using lang::AnalyzedProgram;
using lang::AnalyzedQuery;
using lang::Expr;
using lang::ExprPtr;

const lang::Schema& base_schema() {
  static const lang::Schema kBase = lang::Schema::base();
  return kBase;
}

/// The upstream SELECT chain of an on-switch GROUPBY, flattened: a composed
/// column map (output column -> expression over T) and the conjunction of
/// all WHERE predicates along the chain.
struct StreamView {
  std::map<std::string, ExprPtr> columns;  ///< absent = identity base field
  std::vector<ExprPtr> filters;            ///< each over T
};

[[nodiscard]] std::map<std::string, const Expr*> as_pointer_map(
    const std::map<std::string, ExprPtr>& owned) {
  std::map<std::string, const Expr*> out;
  for (const auto& [k, v] : owned) out.emplace(k, v.get());
  return out;
}

StreamView build_stream_view(const AnalyzedProgram& analysis, int query_index) {
  // Collect the SELECT chain base..query_index (exclusive of the groupby).
  std::vector<const AnalyzedQuery*> chain;
  int idx = query_index;
  while (idx >= 0) {
    const AnalyzedQuery& q = analysis.queries[static_cast<std::size_t>(idx)];
    check(q.def.kind == lang::QueryDef::Kind::kSelect,
          "stream chain contains a non-SELECT stage");
    chain.push_back(&q);
    idx = q.input;
  }
  std::reverse(chain.begin(), chain.end());

  StreamView view;
  for (const AnalyzedQuery* q : chain) {
    const auto bindings = as_pointer_map(view.columns);
    if (q->def.where != nullptr) {
      view.filters.push_back(substitute_names(*q->def.where, bindings));
    }
    std::map<std::string, ExprPtr> next;
    for (const auto& proj : q->projections) {
      next.emplace(proj.column, substitute_names(*proj.expr, bindings));
    }
    view.columns = std::move(next);
  }
  return view;
}

/// Builds the conjunction of the chain's filters (as AST); null = no filter.
[[nodiscard]] ExprPtr conjoin_filters(const StreamView& view,
                                      const Expr* groupby_where,
                                      const std::map<std::string, const Expr*>&
                                          bindings) {
  std::vector<ExprPtr> all;
  for (const auto& f : view.filters) all.push_back(f->clone());
  if (groupby_where != nullptr) {
    all.push_back(substitute_names(*groupby_where, bindings));
  }
  if (all.empty()) return nullptr;
  ExprPtr conj = std::move(all.front());
  for (std::size_t i = 1; i < all.size(); ++i) {
    conj = lang::make_binary(lang::BinaryOp::kAnd, std::move(conj),
                             std::move(all[i]));
  }
  return conj;
}

SwitchQueryPlan build_switch_plan(const AnalyzedProgram& analysis,
                                  int query_index) {
  const AnalyzedQuery& q = analysis.queries[static_cast<std::size_t>(query_index)];
  const StreamView view = build_stream_view(analysis, q.input);
  const auto bindings = as_pointer_map(view.columns);
  const lang::Schema& in_schema =
      q.input < 0 ? base_schema() : analysis.queries[static_cast<std::size_t>(
                                        q.input)].output;

  SwitchQueryPlan plan;
  plan.query_index = query_index;
  plan.name = q.def.result_name.empty() ? "result" : q.def.result_name;
  plan.prefilter_ast = conjoin_filters(view, q.def.where.get(), bindings);
  if (plan.prefilter_ast != nullptr) {
    plan.prefilter =
        ScalarExpr::compile(*plan.prefilter_ast, base_record_resolver());
  }

  // Key components: column expressions composed down to T. Sema caps an
  // on-switch key at kv::Key::kCapacity bytes, and the schema's columns fit
  // at most 12 components into that, so the layout's bound is an invariant,
  // checked here once rather than per record.
  check(q.key_columns.size() <= KeyLayout::kMaxComponents,
        "switch plan: too many key components");
  KeyLayout& layout = plan.key_layout;
  for (const auto& col : q.key_columns) {
    KeyComponent comp;
    comp.column = col;
    const lang::Column* column = nullptr;
    if (const auto ck = q.computed_keys.find(col); ck != q.computed_keys.end()) {
      // Computed key: bind the expression through the stream view and keep
      // the tree.
      column = q.output.find(col);
      check(column != nullptr, "switch plan: computed key missing from schema");
      const ExprPtr bound = substitute_names(*ck->second, bindings);
      comp.expr = ScalarExpr::compile(*bound, base_record_resolver());
    } else {
      column = in_schema.find(col);
      check(column != nullptr, "switch plan: key column missing from schema");
      const auto it = bindings.find(col);
      const ExprPtr name_expr = lang::make_name(col);
      const Expr& source_expr = it != bindings.end() ? *it->second : *name_expr;
      comp.expr = ScalarExpr::compile(source_expr, base_record_resolver());
    }
    layout.widths[plan.key.size()] =
        static_cast<std::uint8_t>((column->bits + 7) / 8);
    plan.key.push_back(std::move(comp));
  }

  // Plain-field key: every component a bare field load (record-context
  // slots index FieldId). Byte-direct on the wire when, in addition, every
  // field sits there big-endian at a fixed offset with exactly its packed
  // width, so gathered frame bytes equal kv::Key::pack's output.
  layout.plain = layout.wire_direct = true;
  for (std::size_t i = 0; i < plan.key.size(); ++i) {
    const auto slot = plan.key[i].expr.as_slot_load();
    if (!slot.has_value()) {
      layout.plain = layout.wire_direct = false;
      break;
    }
    layout.fields[i] = static_cast<FieldId>(slot->index);
    layout.slices[i] = wire_field_slice(layout.fields[i]);
    if (layout.slices[i].width == 0 ||
        layout.slices[i].width != layout.widths[i]) {
      layout.wire_direct = false;
    }
  }

  // One kernel for the whole select list. The fold's state names cannot
  // be spelled in source, so every name the stream view binds is an input.
  plan.kernel = std::make_shared<CompiledFoldKernel>(q.fold, bindings);
  plan.value_columns = q.value_columns;
  plan.linearity = plan.kernel->linearity();

  // Per-plan read set: prefilter, key components, kernel body/coefficients.
  if (plan.prefilter.has_value()) plan.prefilter->collect_fields(plan.used_fields);
  for (const auto& comp : plan.key) comp.expr.collect_fields(plan.used_fields);
  plan.used_fields |= plan.kernel->used_fields();
  return plan;
}

/// A stream SELECT (kind kSelect with stream_over_base output), composed
/// down to T.
CompiledStreamSelect compile_stream_select(const AnalyzedProgram& analysis,
                                           int query_index) {
  const AnalyzedQuery& q = analysis.queries[static_cast<std::size_t>(query_index)];
  const StreamView view = build_stream_view(analysis, query_index);

  CompiledStreamSelect out;
  out.query_index = query_index;
  if (const ExprPtr conj = conjoin_filters(view, nullptr, {})) {
    out.filter = ScalarExpr::compile(*conj, base_record_resolver());
  }
  for (const auto& col : q.output.columns()) {
    const auto it = view.columns.find(col.name);
    const ExprPtr name_expr = lang::make_name(col.name);
    const Expr& source = it != view.columns.end() ? *it->second : *name_expr;
    out.projections.emplace_back(
        col.name, ScalarExpr::compile(source, base_record_resolver()));
  }
  return out;
}

}  // namespace

CompiledProgram compile_program(AnalyzedProgram analysis) {
  CompiledProgram out;
  out.analysis = std::make_shared<const AnalyzedProgram>(std::move(analysis));
  const AnalyzedProgram& a = *out.analysis;
  // The one rule for which SELECTs stream: a SELECT over T that no query
  // reads (as input or join side) streams its rows out; a consumed one is
  // composed into its consumer.
  std::set<int> consumed;
  for (const auto& q : a.queries) {
    consumed.insert(q.input);
    consumed.insert(q.left);
    consumed.insert(q.right);
  }
  for (std::size_t i = 0; i < a.queries.size(); ++i) {
    const AnalyzedQuery& q = a.queries[i];
    const int index = static_cast<int>(i);
    if (q.def.kind == lang::QueryDef::Kind::kGroupBy && q.on_switch) {
      out.switch_plans.push_back(build_switch_plan(a, index));
    } else if (q.def.kind == lang::QueryDef::Kind::kSelect &&
               q.output.stream_over_base && consumed.count(index) == 0) {
      out.stream_selects.push_back(compile_stream_select(a, index));
    }
  }

  // Program-wide read set: every plan's per-packet reads, plus the filters
  // and projections of the stream selects (the runtime's StreamStage
  // evaluates those per record too). Whatever is NOT in this union never
  // needs decoding from frame bytes on the wire ingest path.
  for (const auto& plan : out.switch_plans) out.field_usage |= plan.used_fields;
  for (const auto& sel : out.stream_selects) {
    if (sel.filter.has_value()) sel.filter->collect_fields(out.field_usage);
    for (const auto& [name, expr] : sel.projections) {
      expr.collect_fields(out.field_usage);
    }
  }
  return out;
}

CompiledProgram compile_source(std::string_view source,
                               const std::map<std::string, double>& params) {
  return compile_program(lang::analyze_source(source, params));
}

bool same_key(const SwitchQueryPlan& a, const SwitchQueryPlan& b) {
  if (a.key.size() != b.key.size()) return false;
  for (std::size_t i = 0; i < a.key.size(); ++i) {
    if (a.key_layout.widths[i] != b.key_layout.widths[i] ||
        a.key[i].expr != b.key[i].expr) {
      return false;
    }
  }
  return true;
}

std::vector<double> unpack_key(const SwitchQueryPlan& plan, const kv::Key& key) {
  std::vector<double> out;
  unpack_key_into(plan, key, out);
  return out;
}

void unpack_key_into(const SwitchQueryPlan& plan, const kv::Key& key,
                     std::vector<double>& out) {
  const auto bytes = key.bytes();
  std::size_t pos = 0;
  for (std::size_t i = 0; i < plan.key.size(); ++i) {
    const std::uint8_t width = plan.key_layout.widths[i];
    check(pos + width <= bytes.size(), "unpack_key: key too short");
    std::uint64_t v = 0;
    for (std::uint8_t b = 0; b < width; ++b) {
      v = (v << 8) | std::to_integer<std::uint64_t>(bytes[pos++]);
    }
    out.push_back(static_cast<double>(v));
  }
}

}  // namespace perfq::compiler

// Semantic analysis: name resolution, schema derivation, aggregation
// lowering, join-legality checking, and linearity analysis.
//
// analyze() turns a parsed Program plus a map of free constants (alpha, K,
// L, ... — the paper's example queries use symbolic thresholds) into an
// AnalyzedProgram the compiler lowers directly. All user-facing diagnostics
// (unknown columns, illegal joins, unsupported constructs) surface here as
// QueryError.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "lang/affine.hpp"
#include "lang/ast.hpp"
#include "lang/schema.hpp"

namespace perfq::lang {

struct AnalyzedFold {
  FoldDef def;               ///< with free constants folded to literals
  LinearityResult linearity;
};

struct AnalyzedQuery {
  QueryDef def;  ///< owned copy (resolved from/groupby/select intact)
  // Dataflow inputs: indices into AnalyzedProgram::queries, or -1 for T.
  int input = -1;
  int left = -1;
  int right = -1;
  Schema output;
  /// kJoin only: the full joined schema (keys + both sides' prefixed
  /// columns) that projections and WHERE are evaluated against.
  Schema joined_schema;
  // kGroupBy:
  std::vector<std::string> key_columns;  ///< expanded + canonicalized
  /// Expression-valued key columns (e.g. GROUPBY qid, qsize / 64), keyed by
  /// output column name (the expression's canonical rendering). Only legal
  /// for on-switch GROUPBYs, where the key-value store evaluates the
  /// expression per record; absent for plain-name keys. Computed keys never
  /// take the compiler's plain-field extraction path.
  std::map<std::string, ExprPtr> computed_keys;
  /// The select list's aggregations as one fold over one state vector, in
  /// select-list order: COUNT is `#i = #i + 1`, SUM(e) is `#i = #i + e`, and
  /// a user fold is its body with its state renamed to `#i`, `#i+1`, ...
  /// No source can spell `#i`, so no state name captures an input column:
  /// every other name in the body reads one.
  AnalyzedFold fold;
  std::vector<std::string> value_columns;  ///< output column of each state dim
  bool on_switch = false;  ///< true: lowers to the switch key-value store
  // kSelect / kJoin projections: output column name + expression.
  struct Projection {
    std::string column;
    ExprPtr expr;
  };
  std::vector<Projection> projections;
};

/// Move-only (its ASTs are owned). compile_program() takes it over and it
/// stays const from then on: every copy of the compiled program, on every
/// engine and switch, shares that one analysis.
struct AnalyzedProgram {
  std::map<std::string, double> params;
  std::vector<AnalyzedFold> folds;
  std::vector<AnalyzedQuery> queries;  ///< in program order

  [[nodiscard]] int fold_index(std::string_view name) const;
  [[nodiscard]] int query_index(std::string_view result_name) const;
  /// The last query is the program's primary result.
  [[nodiscard]] const AnalyzedQuery& result() const { return queries.back(); }
};

/// Analyze a parsed program. `params` provides values for free constants.
[[nodiscard]] AnalyzedProgram analyze(const Program& program,
                                      const std::map<std::string, double>& params);

/// Convenience: parse + analyze.
[[nodiscard]] AnalyzedProgram analyze_source(std::string_view source,
                                             const std::map<std::string, double>&
                                                 params = {});

/// Replace free-constant names with literals and fold constant arithmetic.
/// Names in `bound` are left untouched; unknown free names throw QueryError.
void fold_constants(ExprPtr& expr, const std::map<std::string, double>& params,
                    const std::vector<std::string>& bound);

}  // namespace perfq::lang

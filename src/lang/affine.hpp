// Linear-in-state analysis of fold functions (§3.2).
//
// The paper's merge correctness hinges on whether a fold's update is
//
//     S' = A · S + B
//
// with A, B functions of the current packet alone — or, per footnote 4, of
// "a constant number of packets preceding and including the current packet".
// This analyzer decides that mechanically by symbolic affine dataflow:
//
//   * Every expression is evaluated to an *affine form*: a constant term
//     plus one coefficient per state variable, all of which are packet-pure
//     expression trees. Non-affine combinations (state×state, division by
//     state, max/min over state) invalidate the form.
//   * Branches on packet-pure predicates merge via predicated selection
//     (coefficients become `__select(cond, a, b)` expression nodes).
//   * Branches on state-dependent predicates poison every variable whose
//     two branch values differ — unless the offending state variables are
//     *history variables*: variables whose post-body value is itself
//     packet-pure (e.g. outofseq's `lastseq = tcpseq + payload_len`). Those
//     are re-bound to the previous packet's expression (names prefixed with
//     "prev$") and the analysis re-runs with history window h = 1.
//
// The result reproduces Fig. 2's "Linear in state?" column: everything is
// linear except `nonmt`, whose `maxseq` carries unbounded history.
#pragma once

#include <string>
#include <vector>

#include "kvstore/fold.hpp"
#include "lang/ast.hpp"

namespace perfq::lang {

/// Marker prefix for references to the previous packet's argument values in
/// extracted coefficient/constant expressions ("prev$tcpseq").
inline constexpr std::string_view kPrevPrefix = "prev$";

/// Internal call name for predicated selection in extracted expressions:
/// __select(cond, then, else).
inline constexpr std::string_view kSelectFn = "__select";

/// One row of the extracted update: S'[i] = sum_j coeffs[j]*S[j] + constant.
struct AffineRow {
  std::vector<ExprPtr> coeffs;  ///< packet-pure; size = state dims
  ExprPtr constant;             ///< packet-pure
};

struct LinearityResult {
  kv::Linearity classification = kv::Linearity::kNotLinear;
  std::size_t history_window = 0;  ///< h (0 or 1)
  std::string reason;  ///< human-readable justification / failure cause
  std::vector<AffineRow> rows;  ///< valid when linear; size = state dims

  [[nodiscard]] bool linear() const {
    return classification != kv::Linearity::kNotLinear;
  }
};

/// Analyze a fold body. Preconditions: free constants already folded to
/// numbers (see fold_constants in sema.hpp); body references only state vars,
/// packet args, numbers, and max/min calls.
[[nodiscard]] LinearityResult analyze_linearity(const FoldDef& fold);

}  // namespace perfq::lang

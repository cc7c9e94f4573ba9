// Lowering fold definitions to executable kernels.
//
// A CompiledFoldKernel executes a fold body for the ground-truth update():
// for a GROUPBY, the one fold sema lowers its COUNTs, SUMs and user folds
// into. When the linearity analyzer proved the fold linear, it also
// evaluates the extracted (A, B) coefficient expressions per packet for the
// cache's running-product maintenance and the backing store's exact merge.
//
// Hot-path design: the fold body is lowered TWICE. The statement tree of
// resolved ScalarExprs remains the reference semantics (execute_interpreted
// walks it, one recursive eval per operator), and FoldVmCompiler flattens it
// into register-based bytecode (src/compiler/fold_vm.hpp) that the per-packet
// update() runs instead — no AST recursion, no virtual ValueSource call per
// field on the record fast path. Property tests assert the two paths agree
// bit-for-bit on the Fig. 2 corpus.
#pragma once

#include <map>
#include <memory>

#include "compiler/fold_vm.hpp"
#include "compiler/scalar_expr.hpp"
#include "kvstore/fold.hpp"
#include "lang/sema.hpp"

namespace perfq::compiler {

/// Slot depth used for state-variable references inside fold bodies.
inline constexpr int kStateDepth = -1;

/// ValueSource adapter exposing fold state alongside an inner source.
class StatefulSource final : public ValueSource {
 public:
  StatefulSource(const ValueSource& inner, std::span<const double> state)
      : inner_(inner), state_(state) {}
  [[nodiscard]] double value(Slot slot) const override {
    if (slot.depth == kStateDepth) {
      return state_[static_cast<std::size_t>(slot.index)];
    }
    return inner_.value(slot);
  }

 private:
  const ValueSource& inner_;
  std::span<const double> state_;
};

/// A fold body compiled against a name resolver (state vars resolve
/// internally; everything else through `resolver`). Reused by both the
/// on-switch kernel (records) and the collection-layer GROUPBY (rows).
class FoldBody {
 public:
  [[nodiscard]] static FoldBody compile(const lang::FoldDef& fold,
                                        const Resolver& resolver);

  /// Run the body once (bytecode VM): state is read and written in place;
  /// `input` supplies non-state names.
  void execute(std::span<double> state, const ValueSource& input) const {
    vm_.execute(state, input);
  }

  /// Hot-path variant over a packet-record window (window.back() = current
  /// packet): fields load directly, no virtual dispatch.
  void execute_record(std::span<double> state,
                      std::span<const PacketRecord> window) const {
    vm_.execute_record(state, window);
  }
  void execute_record(std::span<double> state, const PacketRecord& rec) const {
    vm_.execute_record(state, rec);
  }
  void execute_record(std::span<double> state, const WireRecordView& rec) const {
    vm_.execute_record(state, rec);
  }

  /// Every record field the body reads (state refs excluded) — sema's input
  /// to the program-level FieldUsage union.
  void collect_fields(FieldUsage& usage) const { collect_block(body_, usage); }

  /// Reference semantics: walk the resolved statement tree. Kept for the
  /// differential tests that check the VM against it.
  void execute_interpreted(std::span<double> state,
                           const ValueSource& input) const;

  [[nodiscard]] std::size_t state_dims() const { return dims_; }
  [[nodiscard]] const FoldVm& vm() const { return vm_; }

 private:
  friend class FoldVmCompiler;

  struct CompiledStmt {
    bool is_if = false;
    int target = -1;       // assign
    ScalarExpr expr;       // assign value or if condition
    std::vector<CompiledStmt> then_body;
    std::vector<CompiledStmt> else_body;
  };

  static std::vector<CompiledStmt> compile_block(
      const std::vector<lang::Stmt>& body, const lang::FoldDef& fold,
      const Resolver& resolver);
  static void exec_block(const std::vector<CompiledStmt>& block,
                         std::span<double> state, const ValueSource& input);
  static void collect_block(const std::vector<CompiledStmt>& block,
                            FieldUsage& usage) {
    for (const CompiledStmt& s : block) {
      s.expr.collect_fields(usage);
      collect_block(s.then_body, usage);
      collect_block(s.else_body, usage);
    }
  }

  std::vector<CompiledStmt> body_;
  FoldVm vm_;
  std::size_t dims_ = 0;
};

/// kv::FoldKernel lowered from an analyzed fold — a GROUPBY's whole select
/// list (lang::AnalyzedQuery::fold) or one user fold — with its input names
/// bound to base-schema expressions (identity bindings for direct GROUPBY
/// over T; substituted expressions when the stream passed through SELECTs).
class CompiledFoldKernel final : public kv::FoldKernel {
 public:
  /// `bindings` maps input names to base-stream expressions; names not
  /// present bind to the base field of the same name. A binding must not
  /// name a state variable.
  CompiledFoldKernel(const lang::AnalyzedFold& fold,
                     const std::map<std::string, const lang::Expr*>& bindings);

  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] std::size_t state_dims() const override { return dims_; }
  [[nodiscard]] kv::StateVector initial_state() const override {
    return kv::StateVector(dims_);
  }
  /// Inline so concrete (devirtualized) callers fold the VM into their loop.
  void update(kv::StateVector& state, const PacketRecord& rec) const override {
    body_.execute_record(state.span(), rec);
  }
  /// Lazy wire update: history-free folds run the VM straight off the frame
  /// bytes; history-windowed folds (h > 0) fall back to the materializing
  /// default (their window storage needs owning records anyway).
  void update(kv::StateVector& state,
              const WireRecordView& rec) const override {
    if (history_ > 0) {
      kv::FoldKernel::update(state, rec);
      return;
    }
    body_.execute_record(state.span(), rec);
  }
  /// Fold body reads plus the linear-merge coefficient expressions (the
  /// cache evaluates those per record too when the fold is kLinear).
  [[nodiscard]] FieldUsage used_fields() const override {
    FieldUsage usage;
    body_.collect_fields(usage);
    for (const CompiledRow& row : rows_) {
      for (const ScalarExpr& c : row.coeffs) c.collect_fields(usage);
      row.constant.collect_fields(usage);
    }
    return usage;
  }
  /// update() via the AST-walking reference path (differential tests).
  void update_interpreted(kv::StateVector& state, const PacketRecord& rec) const;
  [[nodiscard]] const FoldBody& body() const { return body_; }
  [[nodiscard]] kv::Linearity linearity() const override { return linearity_; }
  [[nodiscard]] std::size_t history_window() const override { return history_; }
  [[nodiscard]] kv::AffineTransform transform(
      std::span<const PacketRecord> window) const override;
  [[nodiscard]] kv::SmallMatrix constant_a() const override;

  [[nodiscard]] const std::string& linearity_reason() const { return reason_; }

 private:
  std::string name_;
  std::size_t dims_ = 0;
  kv::Linearity linearity_ = kv::Linearity::kNotLinear;
  std::size_t history_ = 0;
  std::string reason_;
  FoldBody body_;
  // Extracted update: rows_[i] = (coeff exprs over window, constant expr).
  struct CompiledRow {
    std::vector<ScalarExpr> coeffs;
    ScalarExpr constant;
  };
  std::vector<CompiledRow> rows_;
  kv::SmallMatrix const_a_;  ///< precomputed when kLinearConstA
};

/// Replace name references with bound expressions (stream-SELECT renames are
/// pushed into fold bodies and WHERE clauses this way). A "prev$x" reference
/// substitutes the binding of "x" with all of *its* names prev$-renamed.
/// Names without a binding are left untouched.
[[nodiscard]] lang::ExprPtr substitute_names(
    const lang::Expr& expr,
    const std::map<std::string, const lang::Expr*>& bindings);

}  // namespace perfq::compiler

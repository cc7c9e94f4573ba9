// Runtime-evaluable scalar expressions.
//
// The compiler lowers lang::Expr trees (WHERE predicates, fold coefficient
// expressions, projection expressions) into ScalarExpr: a resolved form where
// every name has become a (depth, slot) reference into a ValueSource. The
// same IR evaluates against
//   - live packet records on the simulated switch (RecordSource), including
//     the one-packet history window of linear folds ("prev$" names map to
//     depth 1), and
//   - materialized result-table rows in the collection layer (RowSource).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "lang/ast.hpp"
#include "packet/record.hpp"
#include "packet/wire_view.hpp"

namespace perfq::compiler {

/// Resolved reference: value `index` of the record `depth` packets back
/// (depth 0 = current). For row evaluation depth is always 0.
struct Slot {
  int depth = 0;
  int index = 0;
};

/// Provides slot values during evaluation.
class ValueSource {
 public:
  virtual ~ValueSource() = default;
  [[nodiscard]] virtual double value(Slot slot) const = 0;
};

/// ValueSource over a window of packet records; slot.index is a FieldId.
/// window.back() is the current packet (depth 0).
class RecordSource final : public ValueSource {
 public:
  explicit RecordSource(std::span<const PacketRecord> window) : window_(window) {}
  [[nodiscard]] double value(Slot slot) const override;

 private:
  std::span<const PacketRecord> window_;
};

/// ValueSource over one lazy wire-view record (depth 0 only: the wire
/// ingest path serves current-packet expressions — prefilters, key
/// components, stream projections; history-windowed folds materialize).
class WireRecordSource final : public ValueSource {
 public:
  explicit WireRecordSource(const WireRecordView& rec) : rec_(&rec) {}
  [[nodiscard]] double value(Slot slot) const override;

 private:
  const WireRecordView* rec_;
};

/// Uniform ValueSource construction for code templated over the record
/// type: the eager record gets the windowed RecordSource, the wire view its
/// depth-0 source. Both load fields through the field_value overload set,
/// so evaluation is bit-identical across representations.
[[nodiscard]] inline RecordSource record_source(const PacketRecord& rec) {
  return RecordSource({&rec, 1});
}
[[nodiscard]] inline WireRecordSource record_source(const WireRecordView& rec) {
  return WireRecordSource(rec);
}

/// ValueSource over a row of doubles; slot.index is a column index.
class RowSource final : public ValueSource {
 public:
  explicit RowSource(std::span<const double> row) : row_(row) {}
  [[nodiscard]] double value(Slot slot) const override;

 private:
  std::span<const double> row_;
};

/// Maps a name to a slot; returns nullopt for unknown names (compile error).
using Resolver = std::function<std::optional<Slot>(const std::string&)>;

/// Resolver over the base packet schema: names are field names ("srcip"),
/// optionally "prev$"-prefixed for the previous record.
[[nodiscard]] Resolver base_record_resolver();

/// Compiled expression tree.
class ScalarExpr {
 public:
  /// Lower `expr`, resolving every name through `resolver`.
  /// Throws QueryError on unresolvable names.
  [[nodiscard]] static ScalarExpr compile(const lang::Expr& expr,
                                          const Resolver& resolver);

  /// Constant expression (used for absent/zero coefficients).
  [[nodiscard]] static ScalarExpr constant(double value);

  [[nodiscard]] double eval(const ValueSource& source) const;

  /// Convenience for predicates: nonzero = true.
  [[nodiscard]] bool eval_bool(const ValueSource& source) const {
    return eval(source) != 0.0;
  }

  /// True if the expression is a literal constant (A-matrix classification).
  [[nodiscard]] bool is_constant(double* value = nullptr) const;

  /// If the whole expression is a single depth-0 slot load, that slot.
  /// Lets hot paths (key extraction) bypass tree evaluation entirely.
  [[nodiscard]] std::optional<Slot> as_slot_load() const {
    if (root_ < 0) return std::nullopt;
    const Node& n = nodes_[static_cast<std::size_t>(root_)];
    if (n.op != Op::kSlot || n.slot.depth != 0) return std::nullopt;
    return n.slot;
  }

  /// Largest record depth referenced (0 = current packet only).
  [[nodiscard]] int max_depth() const { return max_depth_; }

  /// Structural equality: the same resolved tree, slot for slot and
  /// constant for constant (bitwise, so 0.0 and -0.0 differ). Equal
  /// expressions evaluate to the same double on every source, which is what
  /// a key identity needs (compiler::same_key).
  friend bool operator==(const ScalarExpr& a, const ScalarExpr& b);

  /// Accumulate every record field this expression reads into `usage` — the
  /// sema side of the FieldUsage contract (packet/record.hpp). Only
  /// meaningful for record-context expressions (slot.index is a FieldId);
  /// state references (fold_compiler's kStateDepth) are skipped.
  void collect_fields(FieldUsage& usage) const {
    for (const Node& n : nodes_) {
      if (n.op == Op::kSlot && n.slot.depth >= 0) {
        usage.set(static_cast<FieldId>(n.slot.index));
      }
    }
  }

 private:
  // The fold bytecode compiler translates the resolved node tree into flat
  // register code (src/compiler/fold_vm.hpp) without re-walking the lang AST.
  friend class FoldVmCompiler;

  enum class Op : std::uint8_t {
    kConst, kSlot,
    kAdd, kSub, kMul, kDiv,
    kEq, kNe, kLt, kLe, kGt, kGe,
    kAnd, kOr, kNot, kNeg,
    kMax, kMin, kSelect,
  };
  struct Node {
    Op op = Op::kConst;
    double k = 0.0;
    Slot slot;
    int a = -1;  ///< child indices into nodes_
    int b = -1;
    int c = -1;
  };

  [[nodiscard]] int lower(const lang::Expr& expr, const Resolver& resolver);
  [[nodiscard]] double eval_node(int index, const ValueSource& source) const;

  /// The one authoritative definition of every binary/unary operator's IEEE
  /// semantics: eval_node and the fold VM's compile-time constant folder
  /// both call it, so the VM-vs-interpreter bit-for-bit invariant cannot be
  /// broken by the two sides drifting. (Unary ops ignore `b`.)
  [[nodiscard]] static double eval_op(Op op, double a, double b);

  std::vector<Node> nodes_;
  int root_ = -1;
  int max_depth_ = 0;
};

}  // namespace perfq::compiler

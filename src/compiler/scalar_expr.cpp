#include "compiler/scalar_expr.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "lang/affine.hpp"

namespace perfq::compiler {

double RecordSource::value(Slot slot) const {
  const auto depth = static_cast<std::size_t>(slot.depth);
  check(depth < window_.size(), "RecordSource: window shallower than slot depth");
  const PacketRecord& rec = window_[window_.size() - 1 - depth];
  return field_value(rec, static_cast<FieldId>(slot.index));
}

double WireRecordSource::value(Slot slot) const {
  check(slot.depth == 0,
        "WireRecordSource: wire views carry no record history");
  return field_value(*rec_, static_cast<FieldId>(slot.index));
}

double RowSource::value(Slot slot) const {
  check(slot.depth == 0, "RowSource: rows have no history");
  check(static_cast<std::size_t>(slot.index) < row_.size(),
        "RowSource: slot out of range");
  return row_[static_cast<std::size_t>(slot.index)];
}

Resolver base_record_resolver() {
  return [](const std::string& name) -> std::optional<Slot> {
    std::string_view n = name;
    int depth = 0;
    while (n.starts_with(lang::kPrevPrefix)) {
      ++depth;
      n.remove_prefix(lang::kPrevPrefix.size());
    }
    const auto field = field_from_name(n);
    if (!field.has_value()) return std::nullopt;
    return Slot{depth, static_cast<int>(*field)};
  };
}

ScalarExpr ScalarExpr::constant(double value) {
  ScalarExpr e;
  e.nodes_.push_back(Node{Op::kConst, value, {}, -1, -1, -1});
  e.root_ = 0;
  return e;
}

ScalarExpr ScalarExpr::compile(const lang::Expr& expr, const Resolver& resolver) {
  ScalarExpr out;
  out.root_ = out.lower(expr, resolver);
  return out;
}

int ScalarExpr::lower(const lang::Expr& e, const Resolver& resolver) {
  using lang::BinaryOp;
  using lang::ExprKind;
  auto push = [this](Node n) {
    nodes_.push_back(n);
    return static_cast<int>(nodes_.size()) - 1;
  };

  switch (e.kind) {
    case ExprKind::kNumber:
      return push(Node{Op::kConst, e.number, {}, -1, -1, -1});
    case ExprKind::kInfinity:
      return push(Node{Op::kConst, std::numeric_limits<double>::infinity(),
                       {}, -1, -1, -1});
    case ExprKind::kName:
    case ExprKind::kDotted: {
      const std::string name =
          e.kind == ExprKind::kName ? e.name : lang::to_string(e);
      const auto slot = resolver(name);
      if (!slot.has_value()) {
        throw QueryError{"compile", "cannot resolve name '" + name + "'", e.line,
                         e.column};
      }
      max_depth_ = std::max(max_depth_, slot->depth);
      return push(Node{Op::kSlot, 0.0, *slot, -1, -1, -1});
    }
    case ExprKind::kUnary: {
      const int a = lower(*e.lhs, resolver);
      return push(Node{e.is_not ? Op::kNot : Op::kNeg, 0.0, {}, a, -1, -1});
    }
    case ExprKind::kCall: {
      if (e.name == lang::kSelectFn) {
        check(e.args.size() == 3, "__select expects 3 arguments");
        const int a = lower(*e.args[0], resolver);
        const int b = lower(*e.args[1], resolver);
        const int c = lower(*e.args[2], resolver);
        return push(Node{Op::kSelect, 0.0, {}, a, b, c});
      }
      if (e.name == "max" || e.name == "min") {
        check(e.args.size() == 2, "max/min expect 2 arguments");
        const int a = lower(*e.args[0], resolver);
        const int b = lower(*e.args[1], resolver);
        return push(Node{e.name == "max" ? Op::kMax : Op::kMin, 0.0, {}, a, b, -1});
      }
      // A whole call may name a column ("SUM(tout - tin)") downstream.
      const auto slot = resolver(lang::to_string(e));
      if (slot.has_value()) {
        max_depth_ = std::max(max_depth_, slot->depth);
        return push(Node{Op::kSlot, 0.0, *slot, -1, -1, -1});
      }
      throw QueryError{"compile", "cannot lower call '" + lang::to_string(e) + "'",
                       e.line, e.column};
    }
    case ExprKind::kBinary: {
      const int a = lower(*e.lhs, resolver);
      const int b = lower(*e.rhs, resolver);
      Op op = Op::kAdd;
      switch (e.op) {
        case BinaryOp::kAdd: op = Op::kAdd; break;
        case BinaryOp::kSub: op = Op::kSub; break;
        case BinaryOp::kMul: op = Op::kMul; break;
        case BinaryOp::kDiv: op = Op::kDiv; break;
        case BinaryOp::kEq: op = Op::kEq; break;
        case BinaryOp::kNe: op = Op::kNe; break;
        case BinaryOp::kLt: op = Op::kLt; break;
        case BinaryOp::kLe: op = Op::kLe; break;
        case BinaryOp::kGt: op = Op::kGt; break;
        case BinaryOp::kGe: op = Op::kGe; break;
        case BinaryOp::kAnd: op = Op::kAnd; break;
        case BinaryOp::kOr: op = Op::kOr; break;
      }
      return push(Node{op, 0.0, {}, a, b, -1});
    }
  }
  throw InternalError{"ScalarExpr::lower: unknown ExprKind"};
}

double ScalarExpr::eval(const ValueSource& source) const {
  check(root_ >= 0, "ScalarExpr: evaluating empty expression");
  return eval_node(root_, source);
}

double ScalarExpr::eval_op(Op op, double a, double b) {
  switch (op) {
    case Op::kAdd: return a + b;
    case Op::kSub: return a - b;
    case Op::kMul: return a * b;
    case Op::kDiv: return a / b;
    case Op::kEq: return a == b ? 1.0 : 0.0;
    case Op::kNe: return a != b ? 1.0 : 0.0;
    case Op::kLt: return a < b ? 1.0 : 0.0;
    case Op::kLe: return a <= b ? 1.0 : 0.0;
    case Op::kGt: return a > b ? 1.0 : 0.0;
    case Op::kGe: return a >= b ? 1.0 : 0.0;
    case Op::kAnd: return (a != 0.0 && b != 0.0) ? 1.0 : 0.0;
    case Op::kOr: return (a != 0.0 || b != 0.0) ? 1.0 : 0.0;
    case Op::kNot: return a == 0.0 ? 1.0 : 0.0;
    case Op::kNeg: return -a;
    case Op::kMax: return std::max(a, b);
    case Op::kMin: return std::min(a, b);
    case Op::kConst:
    case Op::kSlot:
    case Op::kSelect:
      break;  // not value-combining ops
  }
  throw InternalError{"ScalarExpr::eval_op: unknown op"};
}

double ScalarExpr::eval_node(int index, const ValueSource& source) const {
  const Node& n = nodes_[static_cast<std::size_t>(index)];
  switch (n.op) {
    case Op::kConst: return n.k;
    case Op::kSlot: return source.value(n.slot);
    case Op::kNot:
    case Op::kNeg:
      return eval_op(n.op, eval_node(n.a, source), 0.0);
    case Op::kSelect:
      return eval_node(n.a, source) != 0.0 ? eval_node(n.b, source)
                                           : eval_node(n.c, source);
    default:
      return eval_op(n.op, eval_node(n.a, source), eval_node(n.b, source));
  }
}

bool operator==(const ScalarExpr& a, const ScalarExpr& b) {
  // lower() emits a tree in one deterministic post order, so equal trees
  // have equal node arrays.
  using Node = ScalarExpr::Node;
  return a.root_ == b.root_ &&
         std::equal(a.nodes_.begin(), a.nodes_.end(), b.nodes_.begin(),
                    b.nodes_.end(), [](const Node& x, const Node& y) {
                      return x.op == y.op &&
                             std::bit_cast<std::uint64_t>(x.k) ==
                                 std::bit_cast<std::uint64_t>(y.k) &&
                             x.slot.depth == y.slot.depth &&
                             x.slot.index == y.slot.index && x.a == y.a &&
                             x.b == y.b && x.c == y.c;
                    });
}

bool ScalarExpr::is_constant(double* value) const {
  if (root_ < 0) return false;
  const Node& n = nodes_[static_cast<std::size_t>(root_)];
  if (n.op != Op::kConst) return false;
  if (value != nullptr) *value = n.k;
  return true;
}

}  // namespace perfq::compiler

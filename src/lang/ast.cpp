#include "lang/ast.hpp"

#include <array>
#include <cstdio>

#include "common/error.hpp"

namespace perfq::lang {

const char* to_cstring(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd: return "+";
    case BinaryOp::kSub: return "-";
    case BinaryOp::kMul: return "*";
    case BinaryOp::kDiv: return "/";
    case BinaryOp::kEq: return "==";
    case BinaryOp::kNe: return "!=";
    case BinaryOp::kLt: return "<";
    case BinaryOp::kLe: return "<=";
    case BinaryOp::kGt: return ">";
    case BinaryOp::kGe: return ">=";
    case BinaryOp::kAnd: return "and";
    case BinaryOp::kOr: return "or";
  }
  return "?";
}

bool is_comparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

bool is_logical(BinaryOp op) {
  return op == BinaryOp::kAnd || op == BinaryOp::kOr;
}

bool is_arithmetic(BinaryOp op) {
  return op == BinaryOp::kAdd || op == BinaryOp::kSub || op == BinaryOp::kMul ||
         op == BinaryOp::kDiv;
}

ExprPtr Expr::clone() const {
  auto out = std::make_unique<Expr>();
  out->kind = kind;
  out->number = number;
  out->name = name;
  out->member = member;
  out->op = op;
  out->is_not = is_not;
  out->line = line;
  out->column = column;
  if (lhs) out->lhs = lhs->clone();
  if (rhs) out->rhs = rhs->clone();
  for (const auto& a : args) out->args.push_back(a->clone());
  return out;
}

Stmt Stmt::clone() const {
  Stmt out;
  out.kind = kind;
  out.target = target;
  out.line = line;
  if (value) out.value = value->clone();
  if (condition) out.condition = condition->clone();
  for (const auto& s : then_body) out.then_body.push_back(s.clone());
  for (const auto& s : else_body) out.else_body.push_back(s.clone());
  return out;
}

namespace {

int precedence(BinaryOp op) {
  switch (op) {
    case BinaryOp::kOr: return 1;
    case BinaryOp::kAnd: return 2;
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return 3;
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
      return 4;
    case BinaryOp::kMul:
    case BinaryOp::kDiv:
      return 5;
  }
  return 0;
}

void print_expr(const Expr& e, std::string& out, int parent_prec) {
  switch (e.kind) {
    case ExprKind::kNumber: {
      // Integral values print without a trailing ".0"; decimals use %g so the
      // canonical text is short and re-lexable.
      const auto as_int = static_cast<long long>(e.number);
      if (static_cast<double>(as_int) == e.number) {
        out += std::to_string(as_int);
      } else {
        std::array<char, 64> buf{};
        std::snprintf(buf.data(), buf.size(), "%g", e.number);
        out += buf.data();
      }
      return;
    }
    case ExprKind::kInfinity:
      out += "infinity";
      return;
    case ExprKind::kName:
      out += e.name;
      return;
    case ExprKind::kDotted:
      out += e.name + "." + e.member;
      return;
    case ExprKind::kUnary:
      out += e.is_not ? "not " : "-";
      print_expr(*e.lhs, out, 6);
      return;
    case ExprKind::kCall: {
      out += e.name + "(";
      for (std::size_t i = 0; i < e.args.size(); ++i) {
        if (i > 0) out += ", ";
        print_expr(*e.args[i], out, 0);
      }
      out += ")";
      return;
    }
    case ExprKind::kBinary: {
      const int prec = precedence(e.op);
      const bool parens = prec < parent_prec;
      if (parens) out += "(";
      print_expr(*e.lhs, out, prec);
      const bool word = is_logical(e.op);
      out += word ? (std::string{" "} + to_cstring(e.op) + " ")
                  : (std::string{" "} + to_cstring(e.op) + " ");
      print_expr(*e.rhs, out, prec + 1);
      if (parens) out += ")";
      return;
    }
  }
  throw InternalError{"print_expr: unknown ExprKind"};
}

void print_stmts(const std::vector<Stmt>& body, std::string& out, int depth) {
  const std::string pad(static_cast<std::size_t>(depth) * 4, ' ');
  for (const auto& s : body) {
    if (s.kind == Stmt::Kind::kAssign) {
      out += pad + s.target + " = " + to_string(*s.value) + "\n";
    } else {
      out += pad + "if " + to_string(*s.condition) + ":\n";
      print_stmts(s.then_body, out, depth + 1);
      if (!s.else_body.empty()) {
        out += pad + "else:\n";
        print_stmts(s.else_body, out, depth + 1);
      }
    }
  }
}

}  // namespace

std::string to_string(const Expr& expr) {
  std::string out;
  print_expr(expr, out, 0);
  return out;
}

ExprPtr make_number(double value, int line, int col) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kNumber;
  e->number = value;
  e->line = line;
  e->column = col;
  return e;
}

ExprPtr make_name(std::string name, int line, int col) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kName;
  e->name = std::move(name);
  e->line = line;
  e->column = col;
  return e;
}

ExprPtr make_binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kBinary;
  e->op = op;
  e->line = lhs ? lhs->line : 0;
  e->lhs = std::move(lhs);
  e->rhs = std::move(rhs);
  return e;
}

std::string to_string(const FoldDef& fold) {
  std::string out = "def " + fold.name + " (";
  if (fold.state_vars.size() == 1) {
    out += fold.state_vars[0];
  } else {
    out += "(";
    for (std::size_t i = 0; i < fold.state_vars.size(); ++i) {
      if (i > 0) out += ", ";
      out += fold.state_vars[i];
    }
    out += ")";
  }
  out += ", (";
  for (std::size_t i = 0; i < fold.packet_args.size(); ++i) {
    if (i > 0) out += ", ";
    out += fold.packet_args[i];
  }
  out += ")):\n";
  print_stmts(fold.body, out, 1);
  return out;
}

std::string to_string(const QueryDef& query) {
  std::string out;
  if (!query.result_name.empty()) out += query.result_name + " = ";
  out += "SELECT ";
  for (std::size_t i = 0; i < query.select_list.size(); ++i) {
    if (i > 0) out += ", ";
    out += query.select_list[i].star ? "*" : to_string(*query.select_list[i].expr);
  }
  if (query.kind == QueryDef::Kind::kJoin) {
    out += " FROM " + query.join_left + " JOIN " + query.join_right + " ON ";
    for (std::size_t i = 0; i < query.join_keys.size(); ++i) {
      if (i > 0) out += ", ";
      out += query.join_keys[i];
    }
  } else {
    if (query.from != "T") out += " FROM " + query.from;
    if (query.kind == QueryDef::Kind::kGroupBy) {
      out += " GROUPBY ";
      for (std::size_t i = 0; i < query.groupby_fields.size(); ++i) {
        if (i > 0) out += ", ";
        out += to_string(*query.groupby_fields[i]);
      }
    }
  }
  if (query.where) out += " WHERE " + to_string(*query.where);
  return out;
}

std::string to_string(const Program& program) {
  std::string out;
  for (const auto& f : program.folds) out += to_string(f) + "\n";
  for (const auto& q : program.queries) out += to_string(q) + "\n";
  return out;
}

}  // namespace perfq::lang

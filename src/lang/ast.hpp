// Abstract syntax tree of the performance query language (Fig. 1).
//
// A program is a list of fold definitions and queries. Queries may bind their
// result to a name (R1 = SELECT ...) for composition; the last query (named
// or not) is the program's primary result unless the caller asks for others.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace perfq::lang {

// ------------------------------------------------------------ expressions --

enum class BinaryOp : std::uint8_t {
  kAdd, kSub, kMul, kDiv,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAnd, kOr,
};

[[nodiscard]] const char* to_cstring(BinaryOp op);
[[nodiscard]] bool is_comparison(BinaryOp op);
[[nodiscard]] bool is_logical(BinaryOp op);
[[nodiscard]] bool is_arithmetic(BinaryOp op);

enum class ExprKind : std::uint8_t {
  kNumber,   // literal (time suffixes already normalized to ns)
  kInfinity, // the `infinity` keyword (drop sentinel)
  kName,     // identifier: field, state var, packet param, or free constant
  kDotted,   // qualified name: R1.COUNT, perc.high
  kBinary,
  kUnary,    // -x, not p
  kCall,     // max(a, b), SUM(expr), user_fold(...) in select lists
};

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

struct Expr {
  ExprKind kind = ExprKind::kNumber;
  double number = 0.0;            // kNumber
  std::string name;               // kName / kDotted(base) / kCall(callee)
  std::string member;             // kDotted member
  BinaryOp op = BinaryOp::kAdd;   // kBinary
  bool is_not = false;            // kUnary: true = logical not, false = negate
  ExprPtr lhs;
  ExprPtr rhs;                    // kBinary rhs, kUnary operand in lhs
  std::vector<ExprPtr> args;      // kCall
  int line = 0;
  int column = 0;

  [[nodiscard]] ExprPtr clone() const;
};

/// Canonical text of an expression; doubles as the derived-column name
/// ("SUM(pkt_len)", "R2.COUNT/R1.COUNT").
[[nodiscard]] std::string to_string(const Expr& expr);

// Construction helpers (used by parser and tests).
[[nodiscard]] ExprPtr make_number(double value, int line = 0, int col = 0);
[[nodiscard]] ExprPtr make_name(std::string name, int line = 0, int col = 0);
[[nodiscard]] ExprPtr make_binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs);

// ------------------------------------------------------- fold definitions --

struct Stmt;

/// `target = expr` or `if pred: block [else: block]`.
struct Stmt {
  enum class Kind : std::uint8_t { kAssign, kIf };
  Kind kind = Kind::kAssign;
  std::string target;            // kAssign
  ExprPtr value;                 // kAssign
  ExprPtr condition;             // kIf
  std::vector<Stmt> then_body;   // kIf
  std::vector<Stmt> else_body;   // kIf
  int line = 0;

  Stmt() = default;
  Stmt(Stmt&&) = default;
  Stmt& operator=(Stmt&&) = default;
  [[nodiscard]] Stmt clone() const;
};

/// def name ((state...), (args...)): body
struct FoldDef {
  std::string name;
  std::vector<std::string> state_vars;  ///< accumulator components, in order
  std::vector<std::string> packet_args; ///< bound to input columns by name
  std::vector<Stmt> body;
  int line = 0;
};

// ------------------------------------------------------------------ query --

/// One item of a SELECT list: an expression plus, for aggregation queries,
/// whether it is an aggregation call (COUNT / SUM(e) / user fold name).
struct SelectItem {
  ExprPtr expr;        // null for '*'
  bool star = false;
};

struct QueryDef {
  enum class Kind : std::uint8_t { kSelect, kGroupBy, kJoin };
  Kind kind = Kind::kSelect;
  std::string result_name;            ///< "" if unnamed
  std::vector<SelectItem> select_list;
  std::string from = "T";             ///< input table (default: base table)
  ExprPtr where;                      ///< nullable
  std::vector<ExprPtr> groupby_fields;  ///< kGroupBy (names or "5tuple")
  // kJoin:
  std::string join_left;
  std::string join_right;
  std::vector<std::string> join_keys;
  int line = 0;
};

struct Program {
  std::vector<FoldDef> folds;
  std::vector<QueryDef> queries;
};

/// Render a whole program back to (normalized) source; round-trip tested.
[[nodiscard]] std::string to_string(const Program& program);
[[nodiscard]] std::string to_string(const QueryDef& query);
[[nodiscard]] std::string to_string(const FoldDef& fold);

}  // namespace perfq::lang

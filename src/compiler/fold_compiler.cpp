#include "compiler/fold_compiler.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "lang/affine.hpp"

namespace perfq::compiler {
namespace {

using lang::Expr;
using lang::ExprKind;
using lang::ExprPtr;

ExprPtr rename_names_to_prev(const Expr& e) {
  ExprPtr out = e.clone();
  struct Walker {
    static void walk(Expr& node) {
      if (node.kind == ExprKind::kName) {
        node.name = std::string{lang::kPrevPrefix} + node.name;
        return;
      }
      if (node.lhs) walk(*node.lhs);
      if (node.rhs) walk(*node.rhs);
      for (auto& a : node.args) walk(*a);
    }
  };
  Walker::walk(*out);
  return out;
}

}  // namespace

ExprPtr substitute_names(const Expr& expr,
                         const std::map<std::string, const Expr*>& bindings) {
  if (expr.kind == ExprKind::kName) {
    const auto direct = bindings.find(expr.name);
    if (direct != bindings.end()) return direct->second->clone();
    if (expr.name.starts_with(lang::kPrevPrefix)) {
      const std::string base = expr.name.substr(lang::kPrevPrefix.size());
      const auto it = bindings.find(base);
      if (it != bindings.end()) return rename_names_to_prev(*it->second);
    }
    return expr.clone();
  }
  ExprPtr out = expr.clone();
  if (expr.lhs) out->lhs = substitute_names(*expr.lhs, bindings);
  if (expr.rhs) out->rhs = substitute_names(*expr.rhs, bindings);
  out->args.clear();
  for (const auto& a : expr.args) out->args.push_back(substitute_names(*a, bindings));
  return out;
}

// ----------------------------------------------------------------- FoldBody

FoldBody FoldBody::compile(const lang::FoldDef& fold, const Resolver& resolver) {
  FoldBody out;
  out.dims_ = fold.state_vars.size();
  out.body_ = compile_block(fold.body, fold, resolver);
  out.vm_ = FoldVmCompiler::compile(out);
  return out;
}

std::vector<FoldBody::CompiledStmt> FoldBody::compile_block(
    const std::vector<lang::Stmt>& body, const lang::FoldDef& fold,
    const Resolver& resolver) {
  // State variables resolve to the state slot space; other names defer.
  Resolver combined = [&fold, &resolver](const std::string& name)
      -> std::optional<Slot> {
    for (std::size_t i = 0; i < fold.state_vars.size(); ++i) {
      if (fold.state_vars[i] == name) {
        return Slot{kStateDepth, static_cast<int>(i)};
      }
    }
    return resolver(name);
  };

  std::vector<CompiledStmt> out;
  for (const lang::Stmt& s : body) {
    CompiledStmt c;
    if (s.kind == lang::Stmt::Kind::kAssign) {
      c.is_if = false;
      const auto it = std::find(fold.state_vars.begin(), fold.state_vars.end(),
                                s.target);
      check(it != fold.state_vars.end(), "FoldBody: assign to non-state var");
      c.target = static_cast<int>(it - fold.state_vars.begin());
      c.expr = ScalarExpr::compile(*s.value, combined);
    } else {
      c.is_if = true;
      c.expr = ScalarExpr::compile(*s.condition, combined);
      c.then_body = compile_block(s.then_body, fold, resolver);
      c.else_body = compile_block(s.else_body, fold, resolver);
    }
    out.push_back(std::move(c));
  }
  return out;
}

void FoldBody::execute_interpreted(std::span<double> state,
                                   const ValueSource& input) const {
  exec_block(body_, state, input);
}

void FoldBody::exec_block(const std::vector<CompiledStmt>& block,
                          std::span<double> state, const ValueSource& input) {
  const StatefulSource source(input, {state.data(), state.size()});
  for (const CompiledStmt& c : block) {
    if (!c.is_if) {
      state[static_cast<std::size_t>(c.target)] = c.expr.eval(source);
    } else if (c.expr.eval_bool(source)) {
      exec_block(c.then_body, state, input);
    } else {
      exec_block(c.else_body, state, input);
    }
  }
}

// ------------------------------------------------------- CompiledFoldKernel

CompiledFoldKernel::CompiledFoldKernel(
    const lang::AnalyzedFold& fold,
    const std::map<std::string, const Expr*>& bindings) {
  name_ = fold.def.name;
  dims_ = fold.def.state_vars.size();
  linearity_ = fold.linearity.classification;
  history_ = fold.linearity.history_window;
  reason_ = fold.linearity.reason;

  // Substitute the bindings into the body, then compile it against the
  // base record schema.
  lang::FoldDef bound;
  bound.name = fold.def.name;
  bound.state_vars = fold.def.state_vars;
  bound.packet_args = fold.def.packet_args;
  std::vector<lang::Stmt> stmts;
  struct Subst {
    static lang::Stmt apply(const lang::Stmt& s,
                            const std::map<std::string, const Expr*>& b) {
      lang::Stmt out;
      out.kind = s.kind;
      out.target = s.target;
      out.line = s.line;
      if (s.value) out.value = substitute_names(*s.value, b);
      if (s.condition) out.condition = substitute_names(*s.condition, b);
      for (const auto& t : s.then_body) out.then_body.push_back(apply(t, b));
      for (const auto& e : s.else_body) out.else_body.push_back(apply(e, b));
      return out;
    }
  };
  for (const auto& s : fold.def.body) {
    bound.body.push_back(Subst::apply(s, bindings));
  }
  body_ = FoldBody::compile(bound, base_record_resolver());

  if (fold.linearity.linear()) {
    const Resolver base = base_record_resolver();
    for (const auto& row : fold.linearity.rows) {
      CompiledRow crow;
      for (const auto& coeff : row.coeffs) {
        if (coeff == nullptr) {
          crow.coeffs.push_back(ScalarExpr::constant(0.0));
        } else {
          const ExprPtr sub = substitute_names(*coeff, bindings);
          crow.coeffs.push_back(ScalarExpr::compile(*sub, base));
        }
      }
      if (row.constant == nullptr) {
        crow.constant = ScalarExpr::constant(0.0);
      } else {
        const ExprPtr sub = substitute_names(*row.constant, bindings);
        crow.constant = ScalarExpr::compile(*sub, base);
      }
      rows_.push_back(std::move(crow));
    }
    if (linearity_ == kv::Linearity::kLinearConstA) {
      const_a_ = kv::SmallMatrix(dims_);
      for (std::size_t r = 0; r < dims_; ++r) {
        for (std::size_t c = 0; c < dims_; ++c) {
          double v = 0.0;
          check(rows_[r].coeffs[c].is_constant(&v),
                "const-A kernel has non-constant coefficient");
          const_a_.at(r, c) = v;
        }
      }
    }
  }
}

void CompiledFoldKernel::update_interpreted(kv::StateVector& state,
                                            const PacketRecord& rec) const {
  const RecordSource source({&rec, 1});
  body_.execute_interpreted(state.span(), source);
}

kv::AffineTransform CompiledFoldKernel::transform(
    std::span<const PacketRecord> window) const {
  check(!rows_.empty(), "transform on non-linear compiled fold");
  check(window.size() == history_ + 1, "transform: wrong window size");
  const RecordSource source(window);
  kv::AffineTransform t{kv::SmallMatrix(dims_), kv::StateVector(dims_)};
  for (std::size_t r = 0; r < dims_; ++r) {
    for (std::size_t c = 0; c < dims_; ++c) {
      t.a.at(r, c) = rows_[r].coeffs[c].eval(source);
    }
    t.b[r] = rows_[r].constant.eval(source);
  }
  return t;
}

kv::SmallMatrix CompiledFoldKernel::constant_a() const {
  check(linearity_ == kv::Linearity::kLinearConstA,
        "constant_a on kernel without fixed A");
  return const_a_;
}

}  // namespace perfq::compiler

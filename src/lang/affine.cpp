#include "lang/affine.hpp"

#include <algorithm>
#include <map>
#include <optional>

#include "common/error.hpp"

namespace perfq::lang {
namespace {

// ----------------------------------------------------- expression helpers --

[[nodiscard]] bool is_literal(const Expr* e, double* value = nullptr) {
  if (e == nullptr) {
    if (value != nullptr) *value = 0.0;
    return true;  // null expression denotes the constant 0
  }
  if (e->kind != ExprKind::kNumber) return false;
  if (value != nullptr) *value = e->number;
  return true;
}

[[nodiscard]] bool exprs_equal(const Expr* a, const Expr* b) {
  double va = 0.0;
  double vb = 0.0;
  if (is_literal(a, &va) && is_literal(b, &vb)) return va == vb;
  if (a == nullptr || b == nullptr) return false;
  return to_string(*a) == to_string(*b);
}

[[nodiscard]] ExprPtr clone_or_null(const ExprPtr& e) {
  return e ? e->clone() : nullptr;
}

[[nodiscard]] ExprPtr add_exprs(const ExprPtr& a, const ExprPtr& b) {
  double va = 0.0;
  double vb = 0.0;
  const bool la = is_literal(a.get(), &va);
  const bool lb = is_literal(b.get(), &vb);
  if (la && lb) return (va + vb) == 0.0 ? nullptr : make_number(va + vb);
  if (la && va == 0.0) return b->clone();
  if (lb && vb == 0.0) return a->clone();
  return make_binary(BinaryOp::kAdd, a->clone(), b->clone());
}

[[nodiscard]] ExprPtr mul_exprs(const ExprPtr& a, const ExprPtr& b) {
  double va = 0.0;
  double vb = 0.0;
  const bool la = is_literal(a.get(), &va);
  const bool lb = is_literal(b.get(), &vb);
  if ((la && va == 0.0) || (lb && vb == 0.0)) return nullptr;
  if (la && lb) return make_number(va * vb);
  if (la && va == 1.0) return b->clone();
  if (lb && vb == 1.0) return a->clone();
  return make_binary(BinaryOp::kMul, a ? a->clone() : make_number(0),
                     b ? b->clone() : make_number(0));
}

[[nodiscard]] ExprPtr div_exprs(const ExprPtr& a, const ExprPtr& b) {
  double va = 0.0;
  double vb = 0.0;
  if (is_literal(a.get(), &va) && va == 0.0) return nullptr;
  if (is_literal(a.get(), &va) && is_literal(b.get(), &vb) && vb != 0.0) {
    return make_number(va / vb);
  }
  return make_binary(BinaryOp::kDiv, a ? a->clone() : make_number(0), b->clone());
}

[[nodiscard]] ExprPtr negate_expr(const ExprPtr& a) {
  double v = 0.0;
  if (is_literal(a.get(), &v)) return v == 0.0 ? nullptr : make_number(-v);
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kUnary;
  e->is_not = false;
  e->lhs = a->clone();
  return e;
}

/// __select(cond, a, b); simplifies when both sides are equal.
[[nodiscard]] ExprPtr select_expr(const Expr& cond, const ExprPtr& a,
                                  const ExprPtr& b) {
  if (exprs_equal(a.get(), b.get())) return clone_or_null(a);
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kCall;
  e->name = std::string{kSelectFn};
  e->args.push_back(cond.clone());
  e->args.push_back(a ? a->clone() : make_number(0));
  e->args.push_back(b ? b->clone() : make_number(0));
  return e;
}

/// Rename every packet-argument reference `x` to `prev$x` (history rebinding).
[[nodiscard]] ExprPtr rename_to_prev(const Expr& e) {
  ExprPtr out = e.clone();
  struct Walker {
    static void walk(Expr& node) {
      if (node.kind == ExprKind::kName) {
        node.name = std::string{kPrevPrefix} + node.name;
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

// ------------------------------------------------------------ affine form --

struct AffineForm {
  bool valid = true;
  std::string why;              ///< failure reason when !valid
  ExprPtr constant;             ///< packet-pure; null = 0
  std::vector<ExprPtr> coeffs;  ///< per state var; null = 0

  [[nodiscard]] static AffineForm invalid(std::string reason) {
    AffineForm f;
    f.valid = false;
    f.why = std::move(reason);
    return f;
  }
  [[nodiscard]] static AffineForm pure(ExprPtr value, std::size_t dims) {
    AffineForm f;
    f.constant = std::move(value);
    f.coeffs.resize(dims);
    return f;
  }
  [[nodiscard]] static AffineForm identity(std::size_t var, std::size_t dims) {
    AffineForm f;
    f.coeffs.resize(dims);
    f.coeffs[var] = make_number(1.0);
    return f;
  }

  [[nodiscard]] bool is_pure() const {
    if (!valid) return false;
    return std::all_of(coeffs.begin(), coeffs.end(), [](const ExprPtr& c) {
      double v = 0.0;
      return is_literal(c.get(), &v) && v == 0.0;
    });
  }

  [[nodiscard]] AffineForm clone() const {
    AffineForm f;
    f.valid = valid;
    f.why = why;
    f.constant = clone_or_null(constant);
    for (const auto& c : coeffs) f.coeffs.push_back(clone_or_null(c));
    return f;
  }
};

[[nodiscard]] bool forms_equal(const AffineForm& a, const AffineForm& b) {
  if (a.valid != b.valid) return false;
  if (!a.valid) return true;
  if (!exprs_equal(a.constant.get(), b.constant.get())) return false;
  for (std::size_t i = 0; i < a.coeffs.size(); ++i) {
    if (!exprs_equal(a.coeffs[i].get(), b.coeffs[i].get())) return false;
  }
  return true;
}

// --------------------------------------------------------------- analyzer --

class Analyzer {
 public:
  explicit Analyzer(const FoldDef& fold) : fold_(fold) {
    for (std::size_t i = 0; i < fold.state_vars.size(); ++i) {
      state_index_[fold.state_vars[i]] = i;
    }
  }

  LinearityResult run() {
    // Phase A: plain analysis (h = 0).
    std::vector<AffineForm> env = identity_env();
    exec_body(env);
    if (all_valid(env)) return finish(env, 0);

    // Phase B: rebind history variables (those whose post-body value is
    // packet-pure) to the previous packet's expression and retry (h = 1).
    std::vector<std::optional<ExprPtr>> history(dims());
    bool any_history = false;
    for (std::size_t i = 0; i < dims(); ++i) {
      if (env[i].valid && env[i].is_pure()) {
        const ExprPtr value =
            env[i].constant ? env[i].constant->clone() : make_number(0);
        history[i] = rename_to_prev(*value);
        any_history = true;
      }
    }
    const std::string phase_a_reason = first_reason(env);
    if (!any_history) return not_linear(phase_a_reason);

    std::vector<AffineForm> env2(dims());
    for (std::size_t i = 0; i < dims(); ++i) {
      env2[i] = history[i].has_value()
                    ? AffineForm::pure((*history[i])->clone(), dims())
                    : AffineForm::identity(i, dims());
    }
    exec_body(env2);
    if (all_valid(env2)) return finish(env2, 1);
    return not_linear(first_reason(env2));
  }

 private:
  [[nodiscard]] std::size_t dims() const { return fold_.state_vars.size(); }

  [[nodiscard]] std::vector<AffineForm> identity_env() const {
    std::vector<AffineForm> env;
    env.reserve(dims());
    for (std::size_t i = 0; i < dims(); ++i) {
      env.push_back(AffineForm::identity(i, dims()));
    }
    return env;
  }

  [[nodiscard]] static bool all_valid(const std::vector<AffineForm>& env) {
    return std::all_of(env.begin(), env.end(),
                       [](const AffineForm& f) { return f.valid; });
  }

  [[nodiscard]] static std::string first_reason(const std::vector<AffineForm>& env) {
    for (const auto& f : env) {
      if (!f.valid) return f.why;
    }
    return "not affine";
  }

  [[nodiscard]] LinearityResult not_linear(std::string reason) const {
    LinearityResult r;
    r.classification = kv::Linearity::kNotLinear;
    r.reason = std::move(reason);
    return r;
  }

  [[nodiscard]] LinearityResult finish(std::vector<AffineForm>& env,
                                       std::size_t h) const {
    LinearityResult r;
    r.history_window = h;
    bool const_a = true;
    for (std::size_t i = 0; i < dims(); ++i) {
      AffineRow row;
      for (auto& c : env[i].coeffs) {
        if (c != nullptr && c->kind != ExprKind::kNumber) const_a = false;
        row.coeffs.push_back(std::move(c));
      }
      row.constant = std::move(env[i].constant);
      r.rows.push_back(std::move(row));
    }
    r.classification =
        const_a ? kv::Linearity::kLinearConstA : kv::Linearity::kLinear;
    r.reason = "update is affine in state with packet-pure coefficients";
    if (h > 0) r.reason += " given a " + std::to_string(h) + "-packet history";
    if (const_a) r.reason += "; A is packet-independent";
    return r;
  }

  void exec_body(std::vector<AffineForm>& env) const {
    exec_block(fold_.body, env);
  }

  void exec_block(const std::vector<Stmt>& stmts,
                  std::vector<AffineForm>& env) const {
    for (const Stmt& s : stmts) exec_stmt(s, env);
  }

  void exec_stmt(const Stmt& s, std::vector<AffineForm>& env) const {
    if (s.kind == Stmt::Kind::kAssign) {
      const auto it = state_index_.find(s.target);
      check(it != state_index_.end(), "affine: assignment to non-state var");
      env[it->second] = eval(*s.value, env);
      return;
    }
    // if/else
    const AffineForm cond = eval(*s.condition, env);
    std::vector<AffineForm> then_env;
    std::vector<AffineForm> else_env;
    then_env.reserve(env.size());
    else_env.reserve(env.size());
    for (const auto& f : env) {
      then_env.push_back(f.clone());
      else_env.push_back(f.clone());
    }
    exec_block(s.then_body, then_env);
    exec_block(s.else_body, else_env);

    const bool cond_pure = cond.valid && cond.is_pure();
    for (std::size_t i = 0; i < env.size(); ++i) {
      if (forms_equal(then_env[i], else_env[i])) {
        env[i] = std::move(then_env[i]);
        continue;
      }
      if (!then_env[i].valid || !else_env[i].valid) {
        env[i] = AffineForm::invalid(!then_env[i].valid ? then_env[i].why
                                                        : else_env[i].why);
        continue;
      }
      if (!cond_pure) {
        env[i] = AffineForm::invalid(
            "state variable '" + fold_.state_vars[i] +
            "' is updated under a state-dependent predicate '" +
            to_string(*s.condition) + "'");
        continue;
      }
      // Predicated merge: coefficients become __select(cond, then, else).
      const ExprPtr cond_expr =
          cond.constant ? cond.constant->clone() : make_number(0);
      AffineForm merged;
      merged.coeffs.resize(env.size());
      merged.constant =
          select_expr(*cond_expr, then_env[i].constant, else_env[i].constant);
      for (std::size_t j = 0; j < env.size(); ++j) {
        merged.coeffs[j] =
            select_expr(*cond_expr, then_env[i].coeffs[j], else_env[i].coeffs[j]);
      }
      env[i] = std::move(merged);
    }
  }

  /// Rewrite `e` with every state-variable reference replaced by its current
  /// (pure) form. Precondition: every referenced state var has a pure form.
  [[nodiscard]] ExprPtr substitute_state(const Expr& e,
                                         const std::vector<AffineForm>& env) const {
    if (e.kind == ExprKind::kName) {
      const auto it = state_index_.find(e.name);
      if (it != state_index_.end()) {
        const AffineForm& form = env[it->second];
        check(form.valid && form.is_pure(),
              "affine: substituting impure state form");
        return form.constant ? form.constant->clone() : make_number(0);
      }
      return e.clone();
    }
    ExprPtr out = e.clone();
    if (e.lhs) out->lhs = substitute_state(*e.lhs, env);
    if (e.rhs) out->rhs = substitute_state(*e.rhs, env);
    out->args.clear();
    for (const auto& a : e.args) out->args.push_back(substitute_state(*a, env));
    return out;
  }

  [[nodiscard]] AffineForm eval(const Expr& e,
                                const std::vector<AffineForm>& env) const {
    switch (e.kind) {
      case ExprKind::kNumber:
        return AffineForm::pure(make_number(e.number), dims());
      case ExprKind::kInfinity:
        return AffineForm::pure(e.clone(), dims());
      case ExprKind::kName: {
        const auto it = state_index_.find(e.name);
        if (it != state_index_.end()) return env[it->second].clone();
        return AffineForm::pure(e.clone(), dims());  // packet argument
      }
      case ExprKind::kDotted:
        return AffineForm::invalid("dotted name '" + to_string(e) +
                                   "' inside a fold body");
      case ExprKind::kUnary: {
        AffineForm v = eval(*e.lhs, env);
        if (!v.valid) return v;
        if (e.is_not) {
          if (!v.is_pure()) {
            return AffineForm::invalid("'not' applied to state-dependent value");
          }
          return AffineForm::pure(substitute_state(e, env), dims());
        }
        AffineForm out;
        out.coeffs.resize(dims());
        out.constant = negate_expr(v.constant);
        for (std::size_t j = 0; j < dims(); ++j) {
          out.coeffs[j] = v.coeffs[j] ? negate_expr(v.coeffs[j]) : nullptr;
        }
        return out;
      }
      case ExprKind::kCall: {
        // max/min (and anything else sema admitted) must be packet-pure.
        for (const auto& a : e.args) {
          AffineForm v = eval(*a, env);
          if (!v.valid) return v;
          if (!v.is_pure()) {
            return AffineForm::invalid("'" + e.name +
                                       "' applied to a state variable");
          }
        }
        return AffineForm::pure(substitute_state(e, env), dims());
      }
      case ExprKind::kBinary:
        return eval_binary(e, env);
    }
    return AffineForm::invalid("unsupported expression");
  }

  [[nodiscard]] AffineForm eval_binary(const Expr& e,
                                       const std::vector<AffineForm>& env) const {
    AffineForm l = eval(*e.lhs, env);
    if (!l.valid) return l;
    AffineForm r = eval(*e.rhs, env);
    if (!r.valid) return r;

    if (is_comparison(e.op) || is_logical(e.op)) {
      // A predicate used as a value: fine if both sides are packet-pure (it
      // is then itself a packet-pure 0/1 value), otherwise non-affine.
      if (l.is_pure() && r.is_pure()) {
        return AffineForm::pure(substitute_state(e, env), dims());
      }
      return AffineForm::invalid("state-dependent predicate '" + to_string(e) +
                                 "' used as a value");
    }

    AffineForm out;
    out.coeffs.resize(dims());
    switch (e.op) {
      case BinaryOp::kAdd:
        out.constant = add_exprs(l.constant, r.constant);
        for (std::size_t j = 0; j < dims(); ++j) {
          out.coeffs[j] = add_exprs(l.coeffs[j], r.coeffs[j]);
        }
        return out;
      case BinaryOp::kSub: {
        out.constant = add_exprs(l.constant, negate_expr(r.constant));
        for (std::size_t j = 0; j < dims(); ++j) {
          out.coeffs[j] = add_exprs(l.coeffs[j],
                                    r.coeffs[j] ? negate_expr(r.coeffs[j]) : nullptr);
        }
        return out;
      }
      case BinaryOp::kMul: {
        const AffineForm* pure = l.is_pure() ? &l : (r.is_pure() ? &r : nullptr);
        const AffineForm* other = pure == &l ? &r : &l;
        if (pure == nullptr) {
          return AffineForm::invalid("product of two state-dependent values '" +
                                     to_string(e) + "'");
        }
        const ExprPtr scale = pure->constant ? pure->constant->clone() : nullptr;
        if (scale == nullptr) return out;  // multiply by 0
        out.constant = other->constant ? mul_exprs(other->constant, scale) : nullptr;
        for (std::size_t j = 0; j < dims(); ++j) {
          out.coeffs[j] =
              other->coeffs[j] ? mul_exprs(other->coeffs[j], scale) : nullptr;
        }
        return out;
      }
      case BinaryOp::kDiv: {
        if (!r.is_pure()) {
          return AffineForm::invalid("division by a state-dependent value '" +
                                     to_string(e) + "'");
        }
        const ExprPtr denom = r.constant ? r.constant->clone() : make_number(0);
        out.constant = l.constant ? div_exprs(l.constant, denom) : nullptr;
        for (std::size_t j = 0; j < dims(); ++j) {
          out.coeffs[j] = l.coeffs[j] ? div_exprs(l.coeffs[j], denom) : nullptr;
        }
        return out;
      }
      default:
        return AffineForm::invalid("unsupported operator in fold body");
    }
  }

  const FoldDef& fold_;
  std::map<std::string, std::size_t> state_index_;
};

}  // namespace

LinearityResult analyze_linearity(const FoldDef& fold) {
  return Analyzer{fold}.run();
}

}  // namespace perfq::lang

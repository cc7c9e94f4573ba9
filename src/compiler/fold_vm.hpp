// Flat register-based bytecode for fold bodies.
//
// CompiledFoldKernel's per-packet update() used to re-walk the ScalarExpr
// AST for every record: one virtual ValueSource call per name plus one
// recursive eval_node() frame per operator. This VM lowers a compiled
// FoldBody once into straight-line register code so the per-packet path is
// a short dispatch loop over a few instructions. Design (compiler_test holds
// it bit for bit to the AST interpreter; perfbench's traced
// compiler.fold_ns.* rows time it per query):
//
//   - Dispatch-free preamble. Constants (deduplicated, constant-only
//     subtrees folded with the interpreter's own operator semantics),
//     every referenced packet field, and every state variable that is
//     provably read before any write are loaded into pinned registers by
//     three tight loops before the bytecode runs. Field reads are pure, so
//     hoisting them out of `if` arms cannot change results. The body then
//     never pays a dispatch for a load: most Fig. 2 folds execute in 1-4
//     instructions.
//   - Store fusion. Every value-producing opcode has a twin (+1 in the
//     enum) that writes its result straight to a state variable, so
//     `assign` statements cost zero extra dispatches.
//   - Direct-threaded dispatch (computed goto, a GNU extension the tree
//     already needs elsewhere). Instructions are 8 bytes.
//   - No fused arithmetic (e.g. no mul+add): each instruction performs
//     exactly one IEEE operation, so results stay bit-identical to the
//     AST-walking interpreter, which FoldBody::execute_interpreted() keeps
//     alive for differential tests.
//
// `if` statements become kJz/kJmp over the flattened blocks; state reads
// that follow an earlier (possible) write re-load via kLoadState.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "compiler/scalar_expr.hpp"

namespace perfq::compiler {

class FoldBody;

class FoldVm {
 public:
  /// Opcode layout rule: every value-producing op is immediately followed by
  /// its store-to-state twin ("St": state[dst] = value instead of
  /// r[dst] = value), so fusion is op+1.
  enum class Op : std::uint8_t {
    kHalt = 0,
    kLoadState, kLoadStateSt,   ///< r[dst]/state[dst] = state[a]
    kStoreState,                ///< state[dst] = r[a]
    kAdd, kAddSt, kSub, kSubSt, kMul, kMulSt, kDiv, kDivSt,
    kEq, kEqSt, kNe, kNeSt, kLt, kLtSt, kLe, kLeSt, kGt, kGtSt, kGe, kGeSt,
    kAnd, kAndSt, kOr, kOrSt, kMax, kMaxSt, kMin, kMinSt,
    kNot, kNotSt, kNeg, kNegSt,
    kSelect, kSelectSt,         ///< c operand lives in `target`
    kJz,                        ///< if (r[a] == 0) goto target
    kJmp,                       ///< goto target
  };

  struct Instr {
    Op op = Op::kHalt;
    std::uint8_t dst = 0;
    std::uint8_t a = 0;
    std::uint8_t b = 0;
    std::int32_t target = 0;  ///< kJz/kJmp destination; kSelect's c register
  };
  static_assert(sizeof(Instr) == 8);

  /// A default-constructed FoldVm is an empty program (single kHalt), so
  /// executing it is a harmless no-op.
  FoldVm() : code_{Instr{}} {}

  /// Preamble entries (executed by plain loops, not dispatched).
  struct FieldLoad {
    Slot slot;
    std::uint8_t reg = 0;
  };
  struct StateLoad {
    std::uint8_t idx = 0;
    std::uint8_t reg = 0;
  };

  /// Register file size; fold bodies are tiny (registers are reused), so
  /// exceeding this is a compile-time InternalError, not a runtime concern.
  static constexpr std::size_t kMaxRegs = 96;

  /// Quickened whole-program shapes (classic VM superinstruction
  /// specialization, detected by pattern-matching the emitted bytecode).
  /// Each specialization performs exactly the same IEEE operations as the
  /// bytecode it replaces — one rounding per original instruction — so
  /// results stay bit-identical; only dispatch overhead is removed.
  enum class Special : std::uint8_t {
    kNone = 0,
    /// The canonical linear fold (EWMA): one statement of the form
    ///   state[s] = cA * state[s] + cB * (fx - fy)
    kAffine1Diff,
  };

  /// Run the program against a generic value source (collection-layer rows).
  void execute(std::span<double> state, const ValueSource& input) const {
    run([&input](Slot s) { return input.value(s); }, state);
  }

  /// Fast path for the per-packet hot loop: fields are read straight from
  /// the record window (window.back() = current packet), no virtual call.
  /// Defined inline below so callers fold the whole VM into their loop.
  void execute_record(std::span<double> state,
                      std::span<const PacketRecord> window) const;

  /// Single-record convenience used by kernel update().
  void execute_record(std::span<double> state, const PacketRecord& rec) const {
    execute_record(state, {&rec, 1});
  }

  /// Lazy wire-view path: field preamble loads decode straight off the
  /// frame bytes. Depth-0 only (history-windowed folds materialize before
  /// reaching the VM); same IEEE operations, bit-identical results.
  void execute_record(std::span<double> state, const WireRecordView& rec) const {
    run(
        [&rec](Slot slot) {
          check(slot.depth == 0, "FoldVm: wire views carry no record history");
          return field_value(rec, static_cast<FieldId>(slot.index));
        },
        state);
  }

  [[nodiscard]] std::size_t instruction_count() const { return code_.size(); }
  [[nodiscard]] std::size_t register_count() const { return reg_count_; }
  [[nodiscard]] std::span<const Instr> code() const { return code_; }

 private:
  friend class FoldVmCompiler;

  template <typename LoadFn>
  void run(LoadFn&& load, std::span<double> state) const;

  std::vector<Instr> code_;          ///< always ends with kHalt
  std::vector<double> const_pool_;   ///< copied into the low registers per run
  std::vector<FieldLoad> fields_;    ///< loaded into the registers on entry
  std::vector<StateLoad> states_;    ///< loaded into the registers on entry
  std::uint32_t reg_count_ = 0;

  // Quickened shape operands (valid when special_ != kNone).
  Special special_ = Special::kNone;
  Slot sp_fx_, sp_fy_;
  double sp_ca_ = 0.0, sp_cb_ = 0.0;
  std::uint8_t sp_state_ = 0;
};

template <typename LoadFn>
void FoldVm::run(LoadFn&& load, std::span<double> state) const {
  double* st = state.data();
  if (special_ == Special::kAffine1Diff) {
    // state[s] = cA*state[s] + cB*(fx - fy); ops and rounding exactly as the
    // bytecode would perform them, minus the dispatch.
    const double fx = load(sp_fx_);
    const double fy = load(sp_fy_);
    const double scaled = sp_ca_ * st[sp_state_];
    const double diff = fx - fy;
    const double delta = sp_cb_ * diff;
    st[sp_state_] = scaled + delta;
    return;
  }

  // Per-call register file on the stack: execution is re-entrant, so shard
  // workers can share one compiled kernel per query with no synchronization.
  // Constants occupy the low registers; every other register the program
  // reads is written first (field/state preloads below, scratch by the
  // bytecode itself), so the rest needs no initialization.
  double regs[kMaxRegs];
  double* r = regs;
  if (!const_pool_.empty()) {
    std::memcpy(r, const_pool_.data(), const_pool_.size() * sizeof(double));
  }
  for (const FieldLoad& f : fields_) r[f.reg] = load(f.slot);
  for (const StateLoad& s : states_) r[s.reg] = state[s.idx];

  const Instr* pc = code_.data();

  // Direct-threaded dispatch. Table order MUST match the Op enum.
  static const void* const kTbl[] = {
      &&L_Halt,
      &&L_LoadState, &&L_LoadStateSt,
      &&L_StoreState,
      &&L_Add, &&L_AddSt, &&L_Sub, &&L_SubSt, &&L_Mul, &&L_MulSt,
      &&L_Div, &&L_DivSt,
      &&L_Eq, &&L_EqSt, &&L_Ne, &&L_NeSt, &&L_Lt, &&L_LtSt, &&L_Le, &&L_LeSt,
      &&L_Gt, &&L_GtSt, &&L_Ge, &&L_GeSt,
      &&L_And, &&L_AndSt, &&L_Or, &&L_OrSt, &&L_Max, &&L_MaxSt,
      &&L_Min, &&L_MinSt,
      &&L_Not, &&L_NotSt, &&L_Neg, &&L_NegSt,
      &&L_Select, &&L_SelectSt,
      &&L_Jz, &&L_Jmp,
  };
#define PERFQ_VM_NEXT goto* kTbl[static_cast<std::size_t>(pc->op)]
#define PERFQ_VM_BIN(NAME, EXPR)                       \
  L_##NAME : {                                         \
    const double x = r[pc->a], y = r[pc->b];           \
    r[pc->dst] = (EXPR);                               \
  }                                                    \
  ++pc;                                                \
  PERFQ_VM_NEXT;                                       \
  L_##NAME##St : {                                     \
    const double x = r[pc->a], y = r[pc->b];           \
    st[pc->dst] = (EXPR);                              \
  }                                                    \
  ++pc;                                                \
  PERFQ_VM_NEXT

  PERFQ_VM_NEXT;
L_Halt:
  return;
L_LoadState:
  r[pc->dst] = st[pc->a];
  ++pc;
  PERFQ_VM_NEXT;
L_LoadStateSt:
  st[pc->dst] = st[pc->a];
  ++pc;
  PERFQ_VM_NEXT;
L_StoreState:
  st[pc->dst] = r[pc->a];
  ++pc;
  PERFQ_VM_NEXT;
  PERFQ_VM_BIN(Add, x + y);
  PERFQ_VM_BIN(Sub, x - y);
  PERFQ_VM_BIN(Mul, x* y);
  PERFQ_VM_BIN(Div, x / y);
  PERFQ_VM_BIN(Eq, x == y ? 1.0 : 0.0);
  PERFQ_VM_BIN(Ne, x != y ? 1.0 : 0.0);
  PERFQ_VM_BIN(Lt, x < y ? 1.0 : 0.0);
  PERFQ_VM_BIN(Le, x <= y ? 1.0 : 0.0);
  PERFQ_VM_BIN(Gt, x > y ? 1.0 : 0.0);
  PERFQ_VM_BIN(Ge, x >= y ? 1.0 : 0.0);
  PERFQ_VM_BIN(And, (x != 0.0 && y != 0.0) ? 1.0 : 0.0);
  PERFQ_VM_BIN(Or, (x != 0.0 || y != 0.0) ? 1.0 : 0.0);
  PERFQ_VM_BIN(Max, x < y ? y : x);  // std::max(x, y) semantics
  PERFQ_VM_BIN(Min, y < x ? y : x);  // std::min(x, y) semantics
L_Not:
  r[pc->dst] = r[pc->a] == 0.0 ? 1.0 : 0.0;
  ++pc;
  PERFQ_VM_NEXT;
L_NotSt:
  st[pc->dst] = r[pc->a] == 0.0 ? 1.0 : 0.0;
  ++pc;
  PERFQ_VM_NEXT;
L_Neg:
  r[pc->dst] = -r[pc->a];
  ++pc;
  PERFQ_VM_NEXT;
L_NegSt:
  st[pc->dst] = -r[pc->a];
  ++pc;
  PERFQ_VM_NEXT;
L_Select:
  r[pc->dst] = r[pc->a] != 0.0 ? r[pc->b] : r[pc->target];
  ++pc;
  PERFQ_VM_NEXT;
L_SelectSt:
  st[pc->dst] = r[pc->a] != 0.0 ? r[pc->b] : r[pc->target];
  ++pc;
  PERFQ_VM_NEXT;
L_Jz:
  pc = r[pc->a] == 0.0 ? code_.data() + pc->target : pc + 1;
  PERFQ_VM_NEXT;
L_Jmp:
  pc = code_.data() + pc->target;
  PERFQ_VM_NEXT;
#undef PERFQ_VM_BIN
#undef PERFQ_VM_NEXT
}

inline void FoldVm::execute_record(std::span<double> state,
                                   std::span<const PacketRecord> window) const {
  run(
      [window](Slot slot) {
        const auto depth = static_cast<std::size_t>(slot.depth);
        check(depth < window.size(), "FoldVm: window shallower than slot depth");
        const PacketRecord& rec = window[window.size() - 1 - depth];
        return field_value(rec, static_cast<FieldId>(slot.index));
      },
      state);
}

/// Lowers a compiled FoldBody's statement tree into FoldVm bytecode.
class FoldVmCompiler {
 public:
  [[nodiscard]] static FoldVm compile(const FoldBody& body);
};

}  // namespace perfq::compiler

// The fold-kernel interface: what the key-value store needs to know about a
// GROUPBY aggregation function.
//
// Kernels come from the query compiler: src/compiler lowers each GROUPBY's
// fold to a CompiledFoldKernel. The split cache/backing-store machinery
// interrogates the kernel for:
//
//   - state dimensionality and the initial state s0;
//   - the per-packet update (any fold);
//   - the linearity classification of §3.2. A linear fold's update is
//     S' = A·S + B where A and B depend only on the current packet — or, per
//     the paper's footnote 4, on "a constant number of packets preceding and
//     including the current packet". That constant number is the kernel's
//     history_window() h (e.g. out-of-seq needs the previous packet, h = 1);
//   - for linear folds, the per-window affine transform (A, B), which the
//     cache composes into a running product P so the backing store can merge
//     exactly: merged = S_new + P · (replay(S_backing, boundary) − S_h).
//     For h = 0 this is precisely the paper's EWMA formula
//     S_new + (1−α)^N (S_backing − S_0);
//   - whether A is packet-independent ("constant-A"): then hardware only
//     tracks the per-entry packet count N and the merge computes P = A^N,
//     which is the cheapest aux-state design and covers most of Fig. 2.
#pragma once

#include <memory>
#include <span>
#include <string>

#include "kvstore/state.hpp"
#include "packet/record.hpp"
#include "packet/wire_view.hpp"

namespace perfq::kv {

/// Linearity classification of a fold's update operation.
enum class Linearity : std::uint8_t {
  kNotLinear,     ///< no exact merge; backing store keeps value segments
  kLinear,        ///< S' = A(window)·S + B(window); cache tracks product P
  kLinearConstA,  ///< A fixed; cache tracks only the packet count N
};

[[nodiscard]] constexpr const char* to_cstring(Linearity l) {
  switch (l) {
    case Linearity::kNotLinear: return "not-linear";
    case Linearity::kLinear: return "linear";
    case Linearity::kLinearConstA: return "linear(const-A)";
  }
  return "?";
}

[[nodiscard]] constexpr bool is_linear(Linearity l) {
  return l != Linearity::kNotLinear;
}

/// The per-packet affine transform of a linear fold.
struct AffineTransform {
  SmallMatrix a;
  StateVector b;
};

/// Abstract aggregation kernel.
class FoldKernel {
 public:
  virtual ~FoldKernel() = default;

  /// Human-readable name ("ewma", "count", user fold name...).
  [[nodiscard]] virtual std::string name() const = 0;

  /// Number of state variables in the accumulator.
  [[nodiscard]] virtual std::size_t state_dims() const = 0;

  /// The initial accumulator s0 a fresh key starts from.
  [[nodiscard]] virtual StateVector initial_state() const = 0;

  /// In-place update of the accumulator with one record. Must be defined for
  /// every kernel (it is the ground-truth semantics).
  virtual void update(StateVector& state, const PacketRecord& rec) const = 0;

  /// Update off a lazy wire-view record. The default materializes the frame
  /// and runs the reference update — always correct, never fast. Every
  /// shipped kernel overrides it with a lazy body that decodes only the
  /// fields it reads; the override must agree with the reference update bit
  /// for bit (update(s, materialized(v)) == wire update(s, v) — the
  /// wire-ingest property tests pin this).
  virtual void update(StateVector& state, const WireRecordView& rec) const;

  /// The schema fields the per-record update reads — the kernel's share of
  /// the program's FieldUsage contract (packet/record.hpp). The default
  /// claims everything (safe for out-of-tree kernels); shipped kernels
  /// report exactly what they touch.
  [[nodiscard]] virtual FieldUsage used_fields() const {
    FieldUsage usage;
    usage.set_all();
    return usage;
  }

  /// Linearity classification (kNotLinear unless overridden).
  [[nodiscard]] virtual Linearity linearity() const { return Linearity::kNotLinear; }

  /// Number of *preceding* packets of the same key the affine transform needs
  /// (footnote 4's "constant number of packets"). 0 for plain linear folds.
  [[nodiscard]] virtual std::size_t history_window() const { return 0; }

  /// For linear kernels: the (A, B) for the packet `window.back()`, given the
  /// preceding history_window() packets of the same key in order. Only called
  /// with window.size() == history_window() + 1, and only for packets that
  /// have a full in-epoch history. Default throws; linear kernels override.
  [[nodiscard]] virtual AffineTransform transform(
      std::span<const PacketRecord> window) const;

  /// For kLinearConstA kernels: the fixed A matrix. Default throws.
  [[nodiscard]] virtual SmallMatrix constant_a() const;
};

/// Verifies the kernel's self-consistency on one record: applying update()
/// must equal applying A·S + B from transform(). Used by property tests.
/// `window.back()` is the record applied.
[[nodiscard]] bool transform_matches_update(const FoldKernel& kernel,
                                            const StateVector& state,
                                            std::span<const PacketRecord> window,
                                            double tolerance = 1e-9);

}  // namespace perfq::kv

// Whole-program compilation: analyzed queries -> switch configurations.
//
// The paper sketches this mapping in §3.1-3.2: WHERE predicates become
// match conditions in the match-action pipeline, GROUPBYs become
// programmable key-value store instances keyed by the aggregation fields.
// compile_program() walks each on-switch GROUPBY's upstream SELECT chain,
// pushes projections/renames into the fold's argument bindings and the
// composed prefilter, and emits one SwitchQueryPlan per GROUPBY. Everything
// downstream of an aggregate (SELECT over results, soft GROUPBYs, JOINs) is
// executed by the collection layer in src/runtime directly from the
// analysis.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "compiler/fold_compiler.hpp"
#include "compiler/scalar_expr.hpp"
#include "kvstore/fold.hpp"
#include "kvstore/key.hpp"
#include "lang/sema.hpp"
#include "packet/wire_view.hpp"

namespace perfq::compiler {

/// One key component: which output column it fills, how to compute it from a
/// packet, and how many bytes of the packed key it occupies.
struct KeyComponent {
  std::string column;
  ScalarExpr expr;
  int bytes = 8;
};

/// Configuration of one on-switch GROUPBY (one key-value store instance).
struct SwitchQueryPlan {
  int query_index = -1;  ///< into AnalyzedProgram::queries
  std::string name;      ///< result table name (or "result")
  std::optional<ScalarExpr> prefilter;  ///< composed WHERE chain over T
  lang::ExprPtr prefilter_ast;  ///< same predicate as AST (for TCAM lowering)
  std::vector<KeyComponent> key;
  /// Fast extractor: when every key component is a plain field reference
  /// (the common case — e.g. 5tuple, srcip, qid), the FieldIds are
  /// precomputed here and extract_key() reads fields directly instead of
  /// evaluating expression trees. This is the sharded dispatcher's per-
  /// record routing cost, so it matters doubly there. Empty = slow path.
  std::vector<FieldId> fast_key_fields;
  /// Byte-direct wire extraction: when every fast key field lives on the
  /// wire at a fixed offset with exactly the component's packed width (the
  /// 5-tuple case — big-endian on the wire, big-endian in the key), the
  /// packed key bytes ARE frame bytes. extract_key on a WireRecordView then
  /// gathers those slices and hashes once, skipping the double round-trips
  /// entirely. False whenever any component is computed, sidecar-sourced, or
  /// width-mismatched; those take the fast_key_fields / expression paths.
  bool wire_direct_key = false;
  std::array<WireFieldSlice, 16> wire_key_slices{};
  /// The GROUPBY's one fold (lang::AnalyzedQuery::fold) bound to the stream.
  std::shared_ptr<const CompiledFoldKernel> kernel;
  std::vector<std::string> value_columns;  ///< per state dim, output order
  kv::Linearity linearity = kv::Linearity::kNotLinear;
  /// Every record field this plan reads per packet: prefilter, key
  /// components, and the kernel's fold body / coefficient expressions.
  /// The wire ingest path decodes only these fields from frame bytes.
  FieldUsage used_fields;

  [[nodiscard]] int key_bytes() const {
    int total = 0;
    for (const auto& k : key) total += k.bytes;
    return total;
  }

  /// Deep copy (prefilter_ast is an owned AST). The fold kernel is SHARED:
  /// kernels are immutable after construction, so clones fold through the
  /// same instance — exactly as the sharded engine's workers already do.
  [[nodiscard]] SwitchQueryPlan clone() const;
};

/// Key identity: whether two plans pack bit-identical keys for every record
/// (the same bytes, so the same hash, cache bucket and shard). Components
/// compare by packed width and compiled expression with column names
/// ignored, so `GROUPBY 5tuple` has one identity across programs, stream
/// SELECT chains and attached tenants; computed keys compare the same way.
[[nodiscard]] bool same_key(const SwitchQueryPlan& a, const SwitchQueryPlan& b);

struct CompiledProgram {
  lang::AnalyzedProgram analysis;
  std::vector<SwitchQueryPlan> switch_plans;
  /// Union of every plan's used_fields plus the filters/projections of
  /// unconsumed stream SELECTs — the program's whole per-packet read set.
  /// wire_fields_skipped() is the lazy path's decode saving per frame.
  FieldUsage field_usage;

  /// The switch plan for query index `q`, or nullptr.
  [[nodiscard]] const SwitchQueryPlan* plan_for(int q) const {
    for (const auto& p : switch_plans) {
      if (p.query_index == q) return &p;
    }
    return nullptr;
  }

  /// Deep copy — compiled programs are move-only (owned ASTs inside), and
  /// one engine consumes one program, so running the SAME program on many
  /// engines (the federation layer: one engine per switch) clones it per
  /// engine. Clones share the (immutable) fold kernels.
  [[nodiscard]] CompiledProgram clone() const;
};

/// A stream SELECT compiled down to the base table: the composed filter and
/// per-output-column expressions over T. Used by the runtime to deliver
/// streaming results (e.g. §2's "SELECT srcip, qid WHERE tout - tin > 1ms").
struct CompiledStreamSelect {
  int query_index = -1;
  std::optional<ScalarExpr> filter;
  std::vector<std::pair<std::string, ScalarExpr>> projections;  ///< schema order
};

/// Compile a stream SELECT query (kind kSelect with stream_over_base output).
[[nodiscard]] CompiledStreamSelect compile_stream_select(
    const lang::AnalyzedProgram& analysis, int query_index);

/// Lower an analyzed program. Throws QueryError on uncompilable constructs.
[[nodiscard]] CompiledProgram compile_program(lang::AnalyzedProgram analysis);

/// Parse + analyze + compile.
[[nodiscard]] CompiledProgram compile_source(
    std::string_view source, const std::map<std::string, double>& params = {});

/// The one definition of how a key component's double value becomes the
/// unsigned integer that gets packed: clamp defensively (key fields are
/// integer-valued, but expressions can produce infinity) and truncate.
/// extract_key and the sharded runtime's KeyRouter must agree bit-for-bit.
[[nodiscard]] inline std::uint64_t key_component_value(double v) {
  const double clamped = std::clamp(v, 0.0, 18446744073709549568.0 /* ~2^64 */);
  return static_cast<std::uint64_t>(clamped);
}

/// The packed value of a plain-field key component, shared by both
/// plain-field packers (extract_key_values' fast path and KeyRouter). A
/// PacketRecord's pkt_uniq, the one 64-bit field, packs as its integer, so
/// ids above 2^53 stay distinct; every other field, and pkt_uniq on a wire
/// view (the 16-bit IP ident), is exact as a double.
template <typename Rec>
[[nodiscard]] inline std::uint64_t key_field_value(const Rec& rec, FieldId f) {
  if constexpr (std::is_same_v<Rec, PacketRecord>) {
    if (f == FieldId::kPktUniq) return rec.pkt.pkt_uniq;
  }
  return key_component_value(field_value(rec, f));
}

/// Shared value extraction of extract_key/extract_key_prehashed: fill
/// `values`/`widths` for every key component (fast field path or expression
/// tree). Generic over the record representation: the fast path reads
/// fields through key_field_value (lazy decode on wire views), the
/// expression path through record_source(). A key with a computed
/// component evaluates every component as a double, like every expression,
/// so a computed value above 2^53 packs rounded. Both packers below produce
/// bit-identical keys for a PacketRecord and the wire view it parses from.
template <typename Rec>
void extract_key_values(const SwitchQueryPlan& plan, const Rec& rec,
                        std::uint64_t* values, std::uint8_t* widths) {
  check(plan.key.size() <= 16, "extract_key: too many key components");
  if (!plan.fast_key_fields.empty()) {
    // Plain-field key (5tuple, srcip, qid, ...): read the fields directly —
    // same value, clamp and pack as the expression path below, minus the
    // tree walk. This is the dispatcher's per-record routing cost in the
    // sharded runtime.
    for (std::size_t i = 0; i < plan.key.size(); ++i) {
      values[i] = key_field_value(rec, plan.fast_key_fields[i]);
      widths[i] = static_cast<std::uint8_t>(plan.key[i].bytes);
    }
    return;
  }
  const auto source = record_source(rec);
  for (std::size_t i = 0; i < plan.key.size(); ++i) {
    values[i] = key_component_value(plan.key[i].expr.eval(source));
    widths[i] = static_cast<std::uint8_t>(plan.key[i].bytes);
  }
}

/// Gather a wire-direct key's bytes (precondition: plan.wire_direct_key)
/// into `buf` (at least kv::Key::kCapacity bytes); returns the key length.
/// Produces exactly the bytes kv::Key::pack would: each slice is the
/// component's big-endian canonical encoding, already laid out on the wire.
[[nodiscard]] inline std::size_t gather_wire_key(const SwitchQueryPlan& plan,
                                                 const WireRecordView& rec,
                                                 std::byte* buf) {
  const std::byte* b = rec.bytes.data();
  std::size_t len = 0;
  for (std::size_t i = 0; i < plan.key.size(); ++i) {
    const WireFieldSlice s = plan.wire_key_slices[i];
    std::memcpy(buf + len, b + s.offset, s.width);
    len += s.width;
  }
  return len;
}

/// Extract the packed key for one record under a plan.
template <typename Rec>
[[nodiscard]] kv::Key extract_key(const SwitchQueryPlan& plan, const Rec& rec) {
  if constexpr (std::is_same_v<Rec, WireRecordView>) {
    if (plan.wire_direct_key) {
      std::array<std::byte, kv::Key::kCapacity> buf;
      const std::size_t len = gather_wire_key(plan, rec, buf.data());
      return kv::Key({buf.data(), len});
    }
  }
  std::array<std::uint64_t, 16> values{};
  std::array<std::uint8_t, 16> widths{};
  extract_key_values(plan, rec, values.data(), widths.data());
  return kv::Key::pack({values.data(), plan.key.size()},
                       {widths.data(), plan.key.size()});
}

/// extract_key() with the byte-level hash supplied (from a dispatcher that
/// already extracted this record's key) instead of recomputed — the sharded
/// worker's path for computed-key plans, keeping one hash per record.
template <typename Rec>
[[nodiscard]] kv::Key extract_key_prehashed(const SwitchQueryPlan& plan,
                                            const Rec& rec,
                                            std::uint64_t raw_hash) {
  std::array<std::uint64_t, 16> values{};
  std::array<std::uint8_t, 16> widths{};
  extract_key_values(plan, rec, values.data(), widths.data());
  return kv::Key::pack_prehashed({values.data(), plan.key.size()},
                                 {widths.data(), plan.key.size()}, raw_hash);
}

/// Inverse of extract_key: unpack component values from a packed key.
[[nodiscard]] std::vector<double> unpack_key(const SwitchQueryPlan& plan,
                                             const kv::Key& key);

/// unpack_key() appending to `out` (result rows build in place).
void unpack_key_into(const SwitchQueryPlan& plan, const kv::Key& key,
                     std::vector<double>& out);

}  // namespace perfq::compiler

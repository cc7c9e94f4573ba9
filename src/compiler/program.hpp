// Whole-program compilation: analyzed queries -> switch configurations.
//
// The paper sketches this mapping in §3.1-3.2: WHERE predicates become
// match conditions in the match-action pipeline, GROUPBYs become
// programmable key-value store instances keyed by the aggregation fields.
// compile_program() walks each on-switch GROUPBY's upstream SELECT chain,
// pushes projections/renames into the fold's argument bindings and the
// composed prefilter, and emits one SwitchQueryPlan per GROUPBY. A SELECT
// over T that no query consumes streams its rows out instead; it compiles,
// once, to a CompiledStreamSelect. Everything downstream of an aggregate
// (SELECT over results, soft GROUPBYs, JOINs) is executed by the collection
// layer in src/runtime directly from the analysis.
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

/// One key component: which output column it fills and how to compute it
/// from a packet. Its packed width lives in the plan's KeyLayout.
struct KeyComponent {
  std::string column;
  ScalarExpr expr;
};

/// How a plan's key packs: the one record of the packed-key format, filled
/// once by compile_program() and read by extract_key() and
/// extract_key_prehashed(), the one packer. Fixed arrays indexed by key
/// component, so packing reads a few contiguous bytes per component instead
/// of walking KeyComponent.
struct KeyLayout {
  /// Most components a key may have; compile_program() checks the bound.
  static constexpr std::size_t kMaxComponents = 16;

  /// Each component's packed width in bytes (big-endian in the key).
  std::array<std::uint8_t, kMaxComponents> widths{};
  /// Plain-field key: every component is a bare field reference (5tuple,
  /// srcip, qid, pkt_len, ...), read straight from the record as `fields`.
  /// False when any component is computed: then every component evaluates
  /// its expression tree.
  bool plain = false;
  std::array<FieldId, kMaxComponents> fields{};
  /// Byte-direct wire key (plain keys only): every field sits on the wire
  /// big-endian at a fixed offset with exactly its packed width (the 5-tuple
  /// case), so the packed key bytes ARE frame bytes, gathered from `slices`.
  /// False for sidecar fields and width mismatches such as pkt_len.
  bool wire_direct = false;
  std::array<WireFieldSlice, kMaxComponents> slices{};
};

/// Configuration of one on-switch GROUPBY (one key-value store instance).
struct SwitchQueryPlan {
  int query_index = -1;  ///< into AnalyzedProgram::queries
  std::string name;      ///< result table name (or "result")
  std::optional<ScalarExpr> prefilter;  ///< composed WHERE chain over T
  /// Same predicate as AST (for TCAM lowering); shared, like the kernel.
  std::shared_ptr<const lang::Expr> prefilter_ast;
  std::vector<KeyComponent> key;
  KeyLayout key_layout;  ///< how `key` packs, component by component
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
    for (std::size_t i = 0; i < key.size(); ++i) total += key_layout.widths[i];
    return total;
  }
};

/// Key identity: whether two plans pack bit-identical keys for every record
/// (the same bytes, so the same hash, cache bucket and shard). Components
/// compare by packed width and compiled expression with column names
/// ignored, so `GROUPBY 5tuple` has one identity across programs, stream
/// SELECT chains and attached tenants; computed keys compare the same way.
[[nodiscard]] bool same_key(const SwitchQueryPlan& a, const SwitchQueryPlan& b);

/// A stream SELECT compiled down to the base table: the composed filter and
/// per-output-column expressions over T. The runtime's StreamStage
/// evaluates them per record to stream rows out (e.g. §2's
/// "SELECT srcip, qid WHERE tout - tin > 1ms").
struct CompiledStreamSelect {
  int query_index = -1;  ///< into AnalyzedProgram::queries
  std::optional<ScalarExpr> filter;
  std::vector<std::pair<std::string, ScalarExpr>> projections;  ///< schema order
};

/// A compiled program is a value: a copy shares the analysis (and its ASTs)
/// and the fold kernels, all immutable once compile_program() returns, and
/// owns its switch plans, which an attach renames per engine, and its
/// stream selects. So one program runs on many engines (the federation
/// layer: one engine per switch) as copies of one compilation.
struct CompiledProgram {
  std::shared_ptr<const lang::AnalyzedProgram> analysis;
  std::vector<SwitchQueryPlan> switch_plans;
  /// The stream SELECTs over T that no other query consumes, in program
  /// order: the queries whose rows stream out through a StreamSink. A
  /// consumed SELECT is composed into its consumer instead.
  std::vector<CompiledStreamSelect> stream_selects;
  /// Union of every plan's used_fields plus the filters/projections of the
  /// stream selects — the program's whole per-packet read set.
  /// wire_fields_skipped() is the lazy path's decode saving per frame.
  FieldUsage field_usage;
};

/// Lower an analyzed program. Throws QueryError on uncompilable constructs.
[[nodiscard]] CompiledProgram compile_program(lang::AnalyzedProgram analysis);

/// Parse + analyze + compile.
[[nodiscard]] CompiledProgram compile_source(
    std::string_view source, const std::map<std::string, double>& params = {});

/// The one definition of how a key component's double value becomes the
/// unsigned integer that gets packed: key fields are integer-valued, but
/// expressions can produce anything, so values below 0 and NaN (e.g.
/// `(tout - tin) * 0` for a dropped packet's infinite tout) pack as 0 and
/// values past 2^64 saturate; the rest truncate.
[[nodiscard]] inline std::uint64_t key_component_value(double v) {
  // NaN fails every comparison, so it takes the first branch.
  if (!(v > 0.0)) return 0;
  return static_cast<std::uint64_t>(
      std::min(v, 18446744073709549568.0 /* ~2^64 */));
}

/// The packed value of a plain-field key component. A PacketRecord's
/// pkt_uniq, the one 64-bit field, packs as its integer, so ids above 2^53
/// stay distinct; every other field, and pkt_uniq on a wire view (the 16-bit
/// IP ident), is exact as a double.
template <typename Rec>
[[nodiscard]] inline std::uint64_t key_field_value(const Rec& rec, FieldId f) {
  if constexpr (std::is_same_v<Rec, PacketRecord>) {
    if (f == FieldId::kPktUniq) return rec.pkt.pkt_uniq;
  }
  return key_component_value(field_value(rec, f));
}

/// The value half of the packer: fill `values[0, plan.key.size())`, one per
/// key component, from the layout's fields for a plain key and from each
/// component's expression tree otherwise; the widths are the layout's.
/// Generic over the record representation: fields read through
/// key_field_value (lazy decode on wire views), expressions through
/// record_source(). A key with a computed component evaluates every
/// component as a double, like every expression, so a computed value above
/// 2^53 packs rounded. A PacketRecord and the wire view it parses from pack
/// bit-identical keys. Declared inline so GCC inlines it into both packers:
/// out of line it costs a call and a reload of `values` per record.
template <typename Rec>
inline void extract_key_values(const SwitchQueryPlan& plan, const Rec& rec,
                               std::uint64_t* values) {
  const std::size_t n = plan.key.size();
  if (plan.key_layout.plain) {
    for (std::size_t i = 0; i < n; ++i) {
      values[i] = key_field_value(rec, plan.key_layout.fields[i]);
    }
    return;
  }
  const auto source = record_source(rec);
  for (std::size_t i = 0; i < n; ++i) {
    values[i] = key_component_value(plan.key[i].expr.eval(source));
  }
}

/// Gather a wire-direct key's bytes (precondition: key_layout.wire_direct)
/// into `buf` (at least kv::Key::kCapacity bytes); returns the key length.
/// Produces exactly the bytes kv::Key::pack would: each slice is the
/// component's big-endian canonical encoding, already laid out on the wire.
[[nodiscard]] inline std::size_t gather_wire_key(const SwitchQueryPlan& plan,
                                                 const WireRecordView& rec,
                                                 std::byte* buf) {
  const std::byte* b = rec.bytes.data();
  std::size_t len = 0;
  for (std::size_t i = 0; i < plan.key.size(); ++i) {
    const WireFieldSlice s = plan.key_layout.slices[i];
    std::memcpy(buf + len, b + s.offset, s.width);
    len += s.width;
  }
  return len;
}

/// Extract the packed key for one record under a plan: the one packer. On a
/// wire view a byte-direct key is gathered from frame bytes and hashed once.
template <typename Rec>
[[nodiscard]] inline kv::Key extract_key(const SwitchQueryPlan& plan,
                                         const Rec& rec) {
  if constexpr (std::is_same_v<Rec, WireRecordView>) {
    if (plan.key_layout.wire_direct) {
      std::array<std::byte, kv::Key::kCapacity> buf;
      const std::size_t len = gather_wire_key(plan, rec, buf.data());
      return kv::Key({buf.data(), len});
    }
  }
  // Not zero-filled: extract_key_values writes exactly the n values read.
  std::array<std::uint64_t, KeyLayout::kMaxComponents> values;
  extract_key_values(plan, rec, values.data());
  const std::size_t n = plan.key.size();
  return kv::Key::pack({values.data(), n}, {plan.key_layout.widths.data(), n});
}

/// extract_key() with the byte-level hash supplied instead of recomputed:
/// the threaded executor's worker rebuilds the key its caller routed by
/// extract_key(plan, rec).raw_hash(), so each record and key class is
/// hashed once.
template <typename Rec>
[[nodiscard]] inline kv::Key extract_key_prehashed(const SwitchQueryPlan& plan,
                                                   const Rec& rec,
                                                   std::uint64_t raw_hash) {
  std::array<std::uint64_t, KeyLayout::kMaxComponents> values;
  extract_key_values(plan, rec, values.data());
  const std::size_t n = plan.key.size();
  return kv::Key::pack_prehashed({values.data(), n},
                                 {plan.key_layout.widths.data(), n}, raw_hash);
}

/// Inverse of extract_key: unpack component values from a packed key.
[[nodiscard]] std::vector<double> unpack_key(const SwitchQueryPlan& plan,
                                             const kv::Key& key);

/// unpack_key() appending to `out` (result rows build in place).
void unpack_key_into(const SwitchQueryPlan& plan, const kv::Key& key,
                     std::vector<double>& out);

}  // namespace perfq::compiler

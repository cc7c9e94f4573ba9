// The paper's performance-oriented schema (§2):
//
//     (pkt_hdr, qid, tin, tout, qsize, pkt_path)
//
// One PacketRecord is produced for every (packet, queue) pair the packet
// traverses; a packet crossing three queues contributes three records. If the
// packet is dropped at a queue, tout is infinity (Nanos::infinity()), exactly
// as the paper specifies, so `WHERE tout == infinity` selects drops.
//
// The query language accesses record fields by name; FieldId plus
// field_value() form that reflection layer. Values are IEEE doubles: every
// field but pkt_uniq fits in 53 bits of mantissa (timestamps over multi-hour
// simulations, 32-bit sequence numbers, byte counts), and "infinity" maps to
// the IEEE infinity so dropped-packet predicates work with ordinary
// comparison semantics. pkt_uniq is 64 bits and rounds above 2^53 as a
// value; a plain GROUPBY key packs it exactly (compiler::key_field_value).
#pragma once

#include <bit>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "common/time.hpp"
#include "packet/packet.hpp"

namespace perfq {

/// One row of the abstract table T the query language is defined over.
struct PacketRecord {
  Packet pkt;
  std::uint32_t qid = 0;    ///< globally unique queue id (switch+port encoded)
  Nanos tin;                ///< enqueue timestamp at this queue
  Nanos tout;               ///< dequeue timestamp; infinity if dropped here
  std::uint32_t qsize = 0;  ///< queue depth in packets seen at enqueue

  [[nodiscard]] bool dropped() const { return tout.is_infinite(); }
  [[nodiscard]] Nanos queueing_delay() const {
    return dropped() ? Nanos::infinity() : tout - tin;
  }
};

/// Every schema field addressable from the query language.
enum class FieldId : std::uint8_t {
  kSrcIp,
  kDstIp,
  kSrcPort,
  kDstPort,
  kProto,
  kPktLen,
  kPayloadLen,
  kTcpSeq,
  kTcpFlags,
  kIpTtl,
  kPktUniq,
  kPktPath,
  kQid,
  kTin,
  kTout,
  kQsize,
};

inline constexpr std::size_t kNumFields = 16;

/// Which schema fields a compiled query (or whole program) reads — the
/// contract between sema and the lazy wire-ingest path: a WireRecordView
/// only ever decodes fields set here, so the bitset is exactly the per-frame
/// decode work. Built in compile_program from the same slot-load analysis
/// that feeds KeyLayout::fields; set_all() is the safe default for anything
/// the analysis cannot see through.
struct FieldUsage {
  std::uint32_t bits = 0;

  /// Fields kSrcIp..kPktPath live in the frame bytes; kQid..kQsize ride in
  /// the telemetry sidecar and cost nothing to "decode".
  static constexpr std::uint32_t kWireMask =
      (1u << (static_cast<unsigned>(FieldId::kQid))) - 1;

  constexpr void set(FieldId id) { bits |= 1u << static_cast<unsigned>(id); }
  constexpr void set_all() { bits = (1u << kNumFields) - 1; }
  [[nodiscard]] constexpr bool test(FieldId id) const {
    return (bits & (1u << static_cast<unsigned>(id))) != 0;
  }
  [[nodiscard]] constexpr int count() const { return std::popcount(bits); }
  constexpr FieldUsage& operator|=(FieldUsage other) {
    bits |= other.bits;
    return *this;
  }
  /// Wire-resident fields read / skipped by a lazy decode of one frame.
  [[nodiscard]] constexpr int wire_fields() const {
    return std::popcount(bits & kWireMask);
  }
  [[nodiscard]] constexpr int wire_fields_skipped() const {
    return std::popcount(kWireMask) - wire_fields();
  }
};

/// Field name as written in queries ("srcip", "tin", ...).
[[nodiscard]] std::string_view field_name(FieldId id);

/// Reverse lookup; returns nullopt for unknown names.
[[nodiscard]] std::optional<FieldId> field_from_name(std::string_view name);

/// Width in bits of the field on the wire / in switch metadata; used by the
/// hardware area model to size keys.
[[nodiscard]] int field_bits(FieldId id);

/// Extract a field as the query-language value type. Inline: this sits on
/// the per-packet hot path (fold VM field preamble, ScalarExpr slot loads)
/// where an out-of-line call per field would dominate the fold itself.
[[nodiscard]] inline double field_value(const PacketRecord& rec, FieldId id) {
  switch (id) {
    case FieldId::kSrcIp: return static_cast<double>(rec.pkt.flow.src_ip);
    case FieldId::kDstIp: return static_cast<double>(rec.pkt.flow.dst_ip);
    case FieldId::kSrcPort: return static_cast<double>(rec.pkt.flow.src_port);
    case FieldId::kDstPort: return static_cast<double>(rec.pkt.flow.dst_port);
    case FieldId::kProto: return static_cast<double>(rec.pkt.flow.proto);
    case FieldId::kPktLen: return static_cast<double>(rec.pkt.pkt_len);
    case FieldId::kPayloadLen: return static_cast<double>(rec.pkt.payload_len);
    case FieldId::kTcpSeq: return static_cast<double>(rec.pkt.tcp_seq);
    case FieldId::kTcpFlags: return static_cast<double>(rec.pkt.tcp_flags);
    case FieldId::kIpTtl: return static_cast<double>(rec.pkt.ip_ttl);
    case FieldId::kPktUniq: return static_cast<double>(rec.pkt.pkt_uniq);
    case FieldId::kPktPath: return static_cast<double>(rec.pkt.pkt_path);
    case FieldId::kQid: return static_cast<double>(rec.qid);
    case FieldId::kTin: return static_cast<double>(rec.tin.count());
    case FieldId::kTout:
      return rec.tout.is_infinite() ? std::numeric_limits<double>::infinity()
                                    : static_cast<double>(rec.tout.count());
    case FieldId::kQsize: return static_cast<double>(rec.qsize);
  }
  throw InternalError{"field_value: unknown FieldId"};
}

/// The "5tuple" abbreviation used throughout the paper's examples.
[[nodiscard]] const std::vector<FieldId>& five_tuple_fields();

/// Render one record for debugging / example output.
[[nodiscard]] std::string to_string(const PacketRecord& rec);

}  // namespace perfq

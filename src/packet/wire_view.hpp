// Lazy wire-view records: fold straight off capture bytes.
//
// The reference ingest path materializes a PacketRecord per frame —
// wire::try_parse decodes every header field whether or not any compiled
// query reads it. At wire rate that decode dominates (ROADMAP "Ingest").
// WireRecordView is the lazy alternative in the NDN-DPDK burst-RX mold: a
// raw frame span plus the per-frame telemetry sidecar, with field_value()
// decoding exactly the requested field at its fixed offset on access. Sema's
// FieldUsage analysis (compiler/program.hpp) tells each engine which fields
// a program touches, so a COUNT-over-5tuple run reads 13 bytes of each
// frame and skips the rest.
//
// Contract: `bytes` MUST have passed wire::check_frame — every accessor
// reads fixed offsets validation proved in bounds (UDP frames may end at
// byte 42; the TCP-only accessors branch on the protocol byte before
// touching TCP offsets). The sidecar members carry the PacketRecord names
// (qid/tin/tout/qsize/dropped()) on purpose: fold kernels and engine code
// templated over the record type compile against either representation
// unchanged, and the materialized reference path stays the semantic anchor
// (field_value(view, f) == field_value(view.materialize(), f) for every
// field — asserted by packet_test).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>

#include "common/time.hpp"
#include "packet/record.hpp"
#include "packet/wire.hpp"

namespace perfq {

/// One captured frame: the wire bytes (possibly truncated by the capture's
/// snap length) plus the telemetry the INT/queue layer observed for it —
/// the fields a raw frame does not encode.
struct FrameObservation {
  std::span<const std::byte> bytes;
  std::uint32_t qid = 0;
  Nanos tin{0};
  Nanos tout{0};
  std::uint32_t qsize = 0;
};

/// A validated frame viewed as a record: decode-on-access, no copy.
struct WireRecordView {
  std::span<const std::byte> bytes;  ///< passed wire::check_frame
  std::uint32_t qid = 0;
  Nanos tin{0};
  Nanos tout{0};
  std::uint32_t qsize = 0;

  [[nodiscard]] bool dropped() const { return tout.is_infinite(); }
  [[nodiscard]] Nanos queueing_delay() const {
    return dropped() ? Nanos::infinity() : tout - tin;
  }
  [[nodiscard]] bool is_tcp() const {
    return std::to_integer<std::uint8_t>(bytes[23]) ==
           static_cast<std::uint8_t>(IpProto::kTcp);
  }

  /// The eager reference representation of this frame (the bytes passed
  /// check_frame, so they decode without a second check).
  [[nodiscard]] PacketRecord materialize() const {
    PacketRecord rec;
    rec.pkt = wire::decode(bytes);
    rec.qid = qid;
    rec.tin = tin;
    rec.tout = tout;
    rec.qsize = qsize;
    return rec;
  }
};

/// Wrap a frame that already passed wire::check_frame.
[[nodiscard]] inline WireRecordView wire_record_view(
    const FrameObservation& frame) {
  return WireRecordView{frame.bytes, frame.qid, frame.tin, frame.tout,
                        frame.qsize};
}

/// Raw on-wire location of a field, when its canonical key encoding (big-
/// endian, schema width — see kv::Key::pack) is byte-identical to the bytes
/// the frame already carries. For such fields a key packer can memcpy
/// straight from the frame instead of round-tripping through field_value's
/// double. width == 0 means no such location: the field is computed
/// (pkt_len adds the Ethernet header), protocol-dependent (tcp_seq /
/// tcp_flags read as 0.0 on UDP), or sidecar-sourced (qid, tin, tout,
/// qsize, pkt_path).
struct WireFieldSlice {
  std::uint8_t offset = 0;
  std::uint8_t width = 0;
};

[[nodiscard]] constexpr WireFieldSlice wire_field_slice(FieldId id) {
  switch (id) {
    case FieldId::kSrcIp: return {26, 4};
    case FieldId::kDstIp: return {30, 4};
    case FieldId::kSrcPort: return {34, 2};
    case FieldId::kDstPort: return {36, 2};
    case FieldId::kProto: return {23, 1};
    case FieldId::kIpTtl: return {22, 1};
    case FieldId::kPktUniq: return {18, 2};
    default: return {0, 0};
  }
}

/// Lazy field extraction at the serialized offsets (see wire.cpp): Ethernet
/// II is bytes [0,14), the option-free IPv4 header [14,34), L4 at 34.
/// Matches field_value(PacketRecord) bit for bit — pkt_path is not encoded
/// on the wire and reads as 0, exactly what try_parse materializes.
[[nodiscard]] inline double field_value(const WireRecordView& rec,
                                        FieldId id) {
  const std::byte* b = rec.bytes.data();
  switch (id) {
    case FieldId::kSrcIp: return static_cast<double>(wire::load_u32(b + 26));
    case FieldId::kDstIp: return static_cast<double>(wire::load_u32(b + 30));
    case FieldId::kSrcPort:
      return static_cast<double>(wire::load_u16(b + 34));
    case FieldId::kDstPort:
      return static_cast<double>(wire::load_u16(b + 36));
    case FieldId::kProto:
      return static_cast<double>(std::to_integer<std::uint8_t>(b[23]));
    case FieldId::kPktLen:
      return static_cast<double>(wire::kEthHeaderLen + wire::load_u16(b + 16));
    case FieldId::kPayloadLen:
      return static_cast<double>(
          wire::load_u16(b + 16) - wire::kIpv4HeaderLen -
          (rec.is_tcp() ? wire::kTcpHeaderLen : wire::kUdpHeaderLen));
    case FieldId::kTcpSeq:
      return rec.is_tcp() ? static_cast<double>(wire::load_u32(b + 38)) : 0.0;
    case FieldId::kTcpFlags:
      return rec.is_tcp()
                 ? static_cast<double>(std::to_integer<std::uint8_t>(b[47]))
                 : 0.0;
    case FieldId::kIpTtl:
      return static_cast<double>(std::to_integer<std::uint8_t>(b[22]));
    case FieldId::kPktUniq:
      return static_cast<double>(wire::load_u16(b + 18));
    case FieldId::kPktPath: return 0.0;  // not encoded on the wire
    case FieldId::kQid: return static_cast<double>(rec.qid);
    case FieldId::kTin: return static_cast<double>(rec.tin.count());
    case FieldId::kTout:
      return rec.tout.is_infinite() ? std::numeric_limits<double>::infinity()
                                    : static_cast<double>(rec.tout.count());
    case FieldId::kQsize: return static_cast<double>(rec.qsize);
  }
  throw InternalError{"field_value: unknown FieldId"};
}

/// Uniform "give me the eager record" for code templated over the record
/// type: a no-op pass-through for the reference path, a decode for the
/// wire view (the linear-algebra aux paths in kv::Cache keep per-record
/// history and need owning storage).
[[nodiscard]] inline const PacketRecord& materialized(
    const PacketRecord& rec) {
  return rec;
}
[[nodiscard]] inline PacketRecord materialized(const WireRecordView& rec) {
  return rec.materialize();
}

}  // namespace perfq

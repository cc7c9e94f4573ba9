// Byte-level wire format: Ethernet II / IPv4 / {TCP, UDP}.
//
// The programmable parser in src/switchsim walks these bytes through a parse
// graph the way a real P4 parser would (§3.1 cites Gibb et al.'s design
// principles for packet parsers). Serialization is used by the trace writer
// and by tests that round-trip packets through the parser.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "packet/packet.hpp"

namespace perfq::wire {

inline constexpr std::size_t kEthHeaderLen = 14;
inline constexpr std::size_t kIpv4HeaderLen = 20;  // no options
inline constexpr std::size_t kTcpHeaderLen = 20;   // no options
inline constexpr std::size_t kUdpHeaderLen = 8;
inline constexpr std::uint16_t kEtherTypeIpv4 = 0x0800;

/// Serialize a Packet's headers (payload is zero-filled to payload_len).
/// The pkt_uniq and pkt_path metadata ride in the (otherwise unused) IPv4
/// identification field and TCP/UDP-adjacent shim respectively — see
/// serialize() implementation notes.
[[nodiscard]] std::vector<std::byte> serialize(const Packet& pkt);

/// Result of parsing: the packet plus how many header bytes were consumed.
struct ParseResult {
  Packet pkt;
  std::size_t header_bytes = 0;
};

/// Why a frame failed to parse. Live capture feeds deliver truncated and
/// foreign frames as a matter of course, so these are data conditions, not
/// programming errors — try_parse reports them without throwing and replay
/// counts them per run (trace/ingest_stats.hpp).
enum class ParseError : std::uint8_t {
  kTruncated,             ///< fewer bytes than the headers require
  kUnsupportedEtherType,  ///< not 0x0800 (IPv4)
  kNotIpv4,               ///< EtherType said IPv4 but the version nibble isn't 4
  kUnsupportedProtocol,   ///< IP protocol other than TCP/UDP
  kBadLength,             ///< IPv4 total length smaller than its headers
  kBadChecksum,           ///< IPv4 header checksum mismatch (opt-in check)
};

[[nodiscard]] constexpr const char* to_string(ParseError err) {
  switch (err) {
    case ParseError::kTruncated: return "truncated packet";
    case ParseError::kUnsupportedEtherType: return "unsupported EtherType";
    case ParseError::kNotIpv4: return "not IPv4";
    case ParseError::kUnsupportedProtocol: return "unsupported IP protocol";
    case ParseError::kBadLength: return "bad IPv4 total length";
    case ParseError::kBadChecksum: return "bad IPv4 header checksum";
  }
  return "?";
}

/// Big-endian loads off the wire. Inline: the lazy wire-view record decodes
/// individual fields on access through these, on the per-packet hot path.
[[nodiscard]] inline std::uint16_t load_u16(const std::byte* p) {
  return static_cast<std::uint16_t>(
      (std::to_integer<std::uint16_t>(p[0]) << 8) |
      std::to_integer<std::uint16_t>(p[1]));
}

[[nodiscard]] inline std::uint32_t load_u32(const std::byte* p) {
  return (std::to_integer<std::uint32_t>(p[0]) << 24) |
         (std::to_integer<std::uint32_t>(p[1]) << 16) |
         (std::to_integer<std::uint32_t>(p[2]) << 8) |
         std::to_integer<std::uint32_t>(p[3]);
}

/// Validate a frame without materializing a Packet: the single source of
/// truth for what counts as parseable (try_parse is check + extraction, so
/// the two can never drift). Returns the frame's header-byte count on
/// success, 0 on failure with the reason in `error`. A frame that passes is
/// safe to hand to WireRecordView: every fixed field offset is in bounds.
/// `verify_checksum` adds the (off-by-default) IPv4 header checksum test —
/// a corrupted header is caught before its protocol/length fields are
/// trusted.
[[nodiscard]] std::size_t check_frame(std::span<const std::byte> bytes,
                                      ParseError* error = nullptr,
                                      bool verify_checksum = false);

/// Decode a frame that passed check_frame (a precondition, not re-checked):
/// the extraction half of try_parse, for callers that validated first.
[[nodiscard]] Packet decode(std::span<const std::byte> bytes);

/// Parse wire bytes into a Packet without throwing: nullopt on malformed
/// input, with the reason written to `error` when non-null. The truncation
/// contract is exact: any prefix shorter than the frame's header bytes is
/// kTruncated; any prefix covering them parses identically to the full frame
/// (payload bytes are never read — lengths come from the IPv4 header).
/// `verify_checksum` as in check_frame.
[[nodiscard]] std::optional<ParseResult> try_parse(
    std::span<const std::byte> bytes, ParseError* error = nullptr,
    bool verify_checksum = false);

/// Throwing wrapper over try_parse: ConfigError carrying to_string(error)
/// on malformed input. For callers where a bad frame is a hard error
/// (tests, hand-built frames); feeds should prefer try_parse + skip-count.
[[nodiscard]] ParseResult parse(std::span<const std::byte> bytes);

/// IPv4 header checksum (RFC 1071 ones'-complement sum) over a 20-byte
/// header with its checksum field zeroed.
[[nodiscard]] std::uint16_t ipv4_checksum(std::span<const std::byte> header);

}  // namespace perfq::wire

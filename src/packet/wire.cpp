#include "packet/wire.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace perfq::wire {
namespace {

void put_u16(std::byte* p, std::uint16_t v) {
  p[0] = static_cast<std::byte>(v >> 8);
  p[1] = static_cast<std::byte>(v);
}

void put_u32(std::byte* p, std::uint32_t v) {
  p[0] = static_cast<std::byte>(v >> 24);
  p[1] = static_cast<std::byte>(v >> 16);
  p[2] = static_cast<std::byte>(v >> 8);
  p[3] = static_cast<std::byte>(v);
}

}  // namespace

std::uint16_t ipv4_checksum(std::span<const std::byte> header) {
  std::uint32_t sum = 0;
  for (std::size_t i = 0; i + 1 < header.size(); i += 2) {
    sum += load_u16(header.data() + i);
  }
  while (sum >> 16) sum = (sum & 0xFFFF) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum & 0xFFFF);
}

std::vector<std::byte> serialize(const Packet& pkt) {
  const bool tcp = pkt.is_tcp();
  const std::size_t l4_len = tcp ? kTcpHeaderLen : kUdpHeaderLen;
  const std::size_t total = kEthHeaderLen + kIpv4HeaderLen + l4_len + pkt.payload_len;
  std::vector<std::byte> out(total);
  std::byte* p = out.data();

  // Ethernet II: we synthesize MACs from the IPs so the bytes are stable and
  // tests can assert on them; a real deployment would carry real MACs.
  put_u16(p + 0, static_cast<std::uint16_t>(pkt.flow.dst_ip >> 16));
  put_u32(p + 2, pkt.flow.dst_ip);
  put_u16(p + 6, static_cast<std::uint16_t>(pkt.flow.src_ip >> 16));
  put_u32(p + 8, pkt.flow.src_ip);
  put_u16(p + 12, kEtherTypeIpv4);
  p += kEthHeaderLen;

  // IPv4 (20 bytes, no options). pkt_uniq's low 16 bits ride in the IP
  // identification field — the paper leaves pkt_uniq's interpretation to the
  // operator ("a combination of invariant packet headers"); ip.id is the
  // classic choice.
  const auto ip_total =
      static_cast<std::uint16_t>(kIpv4HeaderLen + l4_len + pkt.payload_len);
  p[0] = static_cast<std::byte>(0x45);  // version 4, IHL 5
  p[1] = static_cast<std::byte>(0);     // DSCP/ECN
  put_u16(p + 2, ip_total);
  put_u16(p + 4, static_cast<std::uint16_t>(pkt.pkt_uniq & 0xFFFF));  // ident
  put_u16(p + 6, 0);  // flags/fragment
  p[8] = static_cast<std::byte>(pkt.ip_ttl);
  p[9] = static_cast<std::byte>(pkt.flow.proto);
  put_u16(p + 10, 0);  // checksum placeholder
  put_u32(p + 12, pkt.flow.src_ip);
  put_u32(p + 16, pkt.flow.dst_ip);
  put_u16(p + 10, ipv4_checksum(std::span<const std::byte>{p, kIpv4HeaderLen}));
  p += kIpv4HeaderLen;

  if (tcp) {
    put_u16(p + 0, pkt.flow.src_port);
    put_u16(p + 2, pkt.flow.dst_port);
    put_u32(p + 4, pkt.tcp_seq);
    put_u32(p + 8, 0);  // ack number (not modelled on the wire)
    p[12] = static_cast<std::byte>(0x50);  // data offset 5
    p[13] = static_cast<std::byte>(pkt.tcp_flags);
    put_u16(p + 14, 0xFFFF);  // window
    put_u16(p + 16, 0);       // checksum (not computed; link is lossless here)
    put_u16(p + 18, 0);       // urgent
  } else {
    put_u16(p + 0, pkt.flow.src_port);
    put_u16(p + 2, pkt.flow.dst_port);
    put_u16(p + 4, static_cast<std::uint16_t>(kUdpHeaderLen + pkt.payload_len));
    put_u16(p + 6, 0);  // checksum optional in IPv4
  }
  return out;
}

std::size_t check_frame(std::span<const std::byte> bytes, ParseError* error,
                        bool verify_checksum) {
  const auto fail = [&](ParseError err) -> std::size_t {
    if (error != nullptr) *error = err;
    return 0;
  };
  if (bytes.size() < kEthHeaderLen + kIpv4HeaderLen) {
    return fail(ParseError::kTruncated);
  }
  const std::byte* p = bytes.data();
  if (load_u16(p + 12) != kEtherTypeIpv4) {
    return fail(ParseError::kUnsupportedEtherType);
  }
  p += kEthHeaderLen;

  if ((std::to_integer<std::uint8_t>(p[0]) & 0xF0) != 0x40) {
    return fail(ParseError::kNotIpv4);
  }
  // The checksum test comes before the protocol/length fields are trusted:
  // a corrupted header must not be classified by its (corrupt) contents.
  // RFC 1071: a header whose stored checksum is correct sums (checksum
  // included) to 0xFFFF, so the ones'-complement of the sum is zero.
  if (verify_checksum &&
      ipv4_checksum(std::span<const std::byte>{p, kIpv4HeaderLen}) != 0) {
    return fail(ParseError::kBadChecksum);
  }
  const std::uint16_t ip_total = load_u16(p + 2);
  const std::uint8_t proto = std::to_integer<std::uint8_t>(p[9]);

  std::size_t l4_len = 0;
  if (proto == static_cast<std::uint8_t>(IpProto::kTcp)) {
    if (bytes.size() < kEthHeaderLen + kIpv4HeaderLen + kTcpHeaderLen) {
      return fail(ParseError::kTruncated);
    }
    l4_len = kTcpHeaderLen;
  } else if (proto == static_cast<std::uint8_t>(IpProto::kUdp)) {
    if (bytes.size() < kEthHeaderLen + kIpv4HeaderLen + kUdpHeaderLen) {
      return fail(ParseError::kTruncated);
    }
    l4_len = kUdpHeaderLen;
  } else {
    return fail(ParseError::kUnsupportedProtocol);
  }

  if (ip_total < kIpv4HeaderLen + l4_len) {
    return fail(ParseError::kBadLength);
  }
  return kEthHeaderLen + kIpv4HeaderLen + l4_len;
}

Packet decode(std::span<const std::byte> bytes) {
  // check_frame passed: every offset below is in bounds and self-consistent,
  // and the protocol is TCP or UDP.
  const std::byte* p = bytes.data() + kEthHeaderLen;
  Packet pkt;
  const std::uint16_t ip_total = load_u16(p + 2);
  pkt.pkt_uniq = load_u16(p + 4);
  pkt.ip_ttl = std::to_integer<std::uint8_t>(p[8]);
  pkt.flow.proto = std::to_integer<std::uint8_t>(p[9]);
  pkt.flow.src_ip = load_u32(p + 12);
  pkt.flow.dst_ip = load_u32(p + 16);
  p += kIpv4HeaderLen;

  pkt.flow.src_port = load_u16(p + 0);
  pkt.flow.dst_port = load_u16(p + 2);
  const bool tcp = pkt.flow.proto == static_cast<std::uint8_t>(IpProto::kTcp);
  const std::size_t l4_len = tcp ? kTcpHeaderLen : kUdpHeaderLen;
  if (tcp) {
    pkt.tcp_seq = load_u32(p + 4);
    pkt.tcp_flags = std::to_integer<std::uint8_t>(p[13]);
  }
  pkt.payload_len = static_cast<std::uint32_t>(ip_total - kIpv4HeaderLen - l4_len);
  pkt.pkt_len = static_cast<std::uint32_t>(kEthHeaderLen + ip_total);
  return pkt;
}

std::optional<ParseResult> try_parse(std::span<const std::byte> bytes,
                                     ParseError* error, bool verify_checksum) {
  const std::size_t header_bytes = check_frame(bytes, error, verify_checksum);
  if (header_bytes == 0) return std::nullopt;
  return ParseResult{decode(bytes), header_bytes};
}

ParseResult parse(std::span<const std::byte> bytes) {
  ParseError err{};
  if (std::optional<ParseResult> result = try_parse(bytes, &err)) {
    return *std::move(result);
  }
  throw ConfigError{std::string{"wire::parse: "} + to_string(err)};
}

}  // namespace perfq::wire

// Small deterministic record builders for tests.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "packet/record.hpp"

namespace perfq::trace {

/// Builder for hand-constructed records in tests.
class RecordBuilder {
 public:
  RecordBuilder& flow(const FiveTuple& t) {
    rec_.pkt.flow = t;
    return *this;
  }
  RecordBuilder& flow_index(std::uint32_t i) {
    rec_.pkt.flow = FiveTuple{0x0A000000u + i, 0x0B000000u + i,
                              static_cast<std::uint16_t>(1000 + (i % 60000)), 80,
                              static_cast<std::uint8_t>(IpProto::kTcp)};
    return *this;
  }
  RecordBuilder& len(std::uint32_t wire, std::uint32_t payload) {
    rec_.pkt.pkt_len = wire;
    rec_.pkt.payload_len = payload;
    return *this;
  }
  RecordBuilder& seq(std::uint32_t s) {
    rec_.pkt.tcp_seq = s;
    return *this;
  }
  RecordBuilder& times(Nanos tin, Nanos tout) {
    rec_.tin = tin;
    rec_.tout = tout;
    return *this;
  }
  RecordBuilder& dropped_at(Nanos tin) {
    rec_.tin = tin;
    rec_.tout = Nanos::infinity();
    return *this;
  }
  RecordBuilder& queue(std::uint32_t qid, std::uint32_t qsize) {
    rec_.qid = qid;
    rec_.qsize = qsize;
    return *this;
  }
  RecordBuilder& uniq(std::uint64_t u) {
    rec_.pkt.pkt_uniq = u;
    return *this;
  }
  [[nodiscard]] PacketRecord build() const { return rec_; }

 private:
  PacketRecord rec_ = [] {
    PacketRecord r;
    r.pkt.pkt_len = 1000;
    r.pkt.payload_len = 946;
    r.tin = Nanos{0};
    r.tout = Nanos{1000};
    return r;
  }();
};

/// `count` records round-robin across `flows` distinct 5-tuples, 1 us apart.
[[nodiscard]] std::vector<PacketRecord> round_robin_records(std::uint64_t count,
                                                            std::uint32_t flows);

/// `count` records with flows drawn Zipf(s) from `flows` tuples (stationary
/// popularity; no churn). Useful for cache unit tests with known skew.
[[nodiscard]] std::vector<PacketRecord> zipf_records(std::uint64_t count,
                                                     std::uint32_t flows, double s,
                                                     std::uint64_t seed);

}  // namespace perfq::trace

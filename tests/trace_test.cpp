// Workload generation and replay: flow-session model calibration and
// determinism, the replay drivers, and frame-trace files (PQWF and pcap).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <unordered_set>
#include <vector>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "packet/wire.hpp"
#include "trace/flow_session.hpp"
#include "trace/wire_replay.hpp"
#include "trace/wire_trace.hpp"

namespace perfq::trace {
namespace {

TraceConfig small_config() {
  TraceConfig c;
  c.seed = 11;
  c.duration = 10_s;
  c.num_flows = 2000;
  c.mean_flow_pkts = 20.0;
  c.median_flow_duration = 1_s;
  return c;
}

TEST(FlowSession, Deterministic) {
  const auto a = generate_all(small_config(), 5000);
  const auto b = generate_all(small_config(), 5000);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].pkt.flow, b[i].pkt.flow);
    EXPECT_EQ(a[i].tin, b[i].tin);
    EXPECT_EQ(a[i].pkt.tcp_seq, b[i].pkt.tcp_seq);
  }
}

TEST(FlowSession, SeedChangesTheTrace) {
  TraceConfig other = small_config();
  other.seed = 12;
  const auto a = generate_all(small_config(), 1000);
  const auto b = generate_all(other, 1000);
  ASSERT_FALSE(a.empty());
  EXPECT_NE(a[0].pkt.flow, b[0].pkt.flow);
}

TEST(FlowSession, TimestampsAreMonotonic) {
  FlowSessionGenerator gen(small_config());
  Nanos prev{-1};
  while (auto rec = gen.next()) {
    EXPECT_GE(rec->tin, prev);
    prev = rec->tin;
    EXPECT_LE(rec->tin, small_config().duration);
  }
}

TEST(FlowSession, FlowAndPacketCountsNearCalibration) {
  const TraceConfig c = small_config();
  FlowSessionGenerator gen(c);
  std::uint64_t packets = 0;
  std::unordered_set<FiveTuple> flows;
  while (auto rec = gen.next()) {
    ++packets;
    flows.insert(rec->pkt.flow);
  }
  // Arrivals are Poisson(num_flows) over the window; generated flows whose
  // first packet lands inside the window emit. Expect within 25%.
  EXPECT_NEAR(static_cast<double>(flows.size()), static_cast<double>(c.num_flows),
              0.25 * static_cast<double>(c.num_flows));
  // Packets ~= flows x mean size (heavy tail: generous tolerance, and flows
  // truncated by the window end lose packets).
  EXPECT_GT(packets, flows.size());
  const double per_flow =
      static_cast<double>(packets) / static_cast<double>(flows.size());
  EXPECT_GT(per_flow, 3.0);
  EXPECT_LT(per_flow, c.mean_flow_pkts * 3.0);
}

TEST(FlowSession, MixOfProtocolsAndSizes) {
  FlowSessionGenerator gen(small_config());
  std::uint64_t tcp = 0;
  std::uint64_t total = 0;
  RunningStats sizes;
  while (auto rec = gen.next()) {
    ++total;
    if (rec->pkt.flow.proto == static_cast<std::uint8_t>(IpProto::kTcp)) ++tcp;
    sizes.add(static_cast<double>(rec->pkt.pkt_len));
    ASSERT_GE(rec->pkt.pkt_len, 64u);
    ASSERT_LE(rec->pkt.pkt_len, 1500u);
  }
  const double tcp_frac = static_cast<double>(tcp) / static_cast<double>(total);
  EXPECT_NEAR(tcp_frac, 0.9, 0.05);
  EXPECT_NEAR(sizes.mean(), 700.0, 150.0);
}

TEST(FlowSession, SequenceAnomaliesAtConfiguredRate) {
  TraceConfig c = small_config();
  c.reorder_prob = 0.05;
  c.retx_prob = 0.0;
  FlowSessionGenerator gen(c);
  std::unordered_map<FiveTuple, std::uint32_t> expected_next;
  std::uint64_t anomalies = 0;
  std::uint64_t tcp_pkts = 0;
  while (auto rec = gen.next()) {
    if (rec->pkt.flow.proto != static_cast<std::uint8_t>(IpProto::kTcp)) continue;
    ++tcp_pkts;
    const auto it = expected_next.find(rec->pkt.flow);
    if (it != expected_next.end() && rec->pkt.tcp_seq != it->second) ++anomalies;
    expected_next[rec->pkt.flow] = rec->pkt.tcp_seq + rec->pkt.payload_len;
  }
  const double rate =
      static_cast<double>(anomalies) / static_cast<double>(tcp_pkts);
  // One reorder event perturbs the current and the following packet.
  EXPECT_GT(rate, 0.02);
  EXPECT_LT(rate, 0.2);
}

TEST(FlowSession, ScaledConfigShrinksFlows) {
  const TraceConfig base = TraceConfig::caida_like();
  const TraceConfig eighth = base.scaled(0.125);
  EXPECT_EQ(eighth.num_flows, base.num_flows / 8);
  EXPECT_EQ(eighth.duration, base.duration);
  EXPECT_THROW((void)base.scaled(0.0), ConfigError);
  EXPECT_THROW((void)base.scaled(2.0), ConfigError);
}

TEST(FlowSession, ValidatesConfig) {
  TraceConfig c = small_config();
  c.num_flows = 0;
  EXPECT_THROW(FlowSessionGenerator{c}, ConfigError);
  c = small_config();
  c.flow_size_alpha = 0.9;
  EXPECT_THROW(FlowSessionGenerator{c}, ConfigError);
}

/// Captures everything replay_frames delivers (duck-typed engine surface).
struct RecordingEngine {
  std::vector<PacketRecord> seen;
  void process_batch(std::span<const PacketRecord> records) {
    seen.insert(seen.end(), records.begin(), records.end());
  }
};

TEST(WireReplay, SkipsAndCountsDamagedFrames) {
  // A capture feed with damage sprinkled in: good frames reach the engine
  // in order, every damaged frame is counted under its reason, and nothing
  // throws — one bad frame must not abort a run.
  TraceConfig c = small_config();
  c.num_flows = 40;
  const auto records = generate_all(c, 200);
  ASSERT_GE(records.size(), 100u);

  std::vector<std::vector<std::byte>> storage;
  std::vector<FrameObservation> frames;
  std::size_t good = 0;
  for (std::size_t i = 0; i < 100; ++i) {
    auto bytes = wire::serialize(records[i].pkt);
    bool damaged = false;
    if (i % 10 == 3) {
      bytes.resize(20);  // snap-length truncation
      damaged = true;
    } else if (i % 10 == 6) {
      bytes[12] = std::byte{0x86};  // IPv6 EtherType
      bytes[13] = std::byte{0xDD};
      damaged = true;
    } else if (i % 10 == 9) {
      bytes[14 + 2] = std::byte{0};  // IPv4 total length < headers
      bytes[14 + 3] = std::byte{1};
      damaged = true;
    }
    storage.push_back(std::move(bytes));
    FrameObservation frame;
    frame.bytes = storage.back();
    frame.qid = records[i].qid;
    frame.tin = records[i].tin;
    frame.tout = records[i].tout;
    frame.qsize = records[i].qsize;
    frames.push_back(frame);
    if (!damaged) ++good;
  }

  RecordingEngine engine;
  const IngestStats stats = replay_frames(engine, frames, /*batch=*/7);
  EXPECT_EQ(stats.parsed, good);
  EXPECT_EQ(stats.truncated, 10u);
  EXPECT_EQ(stats.unsupported, 10u);
  EXPECT_EQ(stats.bad_length, 10u);
  EXPECT_EQ(stats.dropped(), 30u);
  EXPECT_EQ(stats.total(), 100u);
  ASSERT_EQ(engine.seen.size(), good);

  // Survivors arrive in order with the frame's telemetry attached.
  std::size_t cursor = 0;
  for (std::size_t i = 0; i < 100; ++i) {
    if (i % 10 == 3 || i % 10 == 6 || i % 10 == 9) continue;
    const PacketRecord& delivered = engine.seen[cursor++];
    EXPECT_EQ(delivered.pkt.flow, records[i].pkt.flow) << i;
    EXPECT_EQ(delivered.tin, records[i].tin) << i;
    EXPECT_EQ(delivered.qsize, records[i].qsize) << i;
  }
  EXPECT_FALSE(stats.to_string().empty());
}

/// Serialize records into owned frame bytes + FrameObservations (the inner
/// vectors never move their heap buffers, so the spans stay valid).
struct FrameSet {
  std::vector<std::vector<std::byte>> storage;
  std::vector<FrameObservation> frames;
};

FrameSet frames_from(const std::vector<PacketRecord>& records) {
  FrameSet set;
  for (const PacketRecord& rec : records) {
    set.storage.push_back(wire::serialize(rec.pkt));
    FrameObservation frame;
    frame.bytes = set.storage.back();
    frame.qid = rec.qid;
    frame.tin = rec.tin;
    frame.tout = rec.tout;
    frame.qsize = rec.qsize;
    set.frames.push_back(frame);
  }
  return set;
}

TEST(WireTrace, RoundTripsFramesAndTelemetry) {
  TraceConfig c = small_config();
  c.num_flows = 30;
  const auto records = generate_all(c, 200);
  const auto set = frames_from(records);
  const auto path = std::filesystem::temp_directory_path() / "perfq.pqwf";
  write_wire_trace(path, set.frames);

  WireTraceReader reader(path);
  EXPECT_FALSE(reader.is_pcap());
  EXPECT_EQ(reader.frame_count(), records.size());
  std::size_t i = 0;
  while (auto frame = reader.next()) {
    ASSERT_LT(i, set.frames.size());
    const FrameObservation& want = set.frames[i];
    ASSERT_EQ(frame->bytes.size(), want.bytes.size()) << i;
    EXPECT_EQ(std::memcmp(frame->bytes.data(), want.bytes.data(),
                          want.bytes.size()),
              0)
        << i;
    EXPECT_EQ(frame->qid, want.qid) << i;
    EXPECT_EQ(frame->tin, want.tin) << i;
    EXPECT_EQ(frame->tout, want.tout) << i;
    EXPECT_EQ(frame->qsize, want.qsize) << i;
    ++i;
  }
  EXPECT_EQ(i, records.size());
  EXPECT_EQ(reader.frames_read(), records.size());
  EXPECT_EQ(reader.stats().dropped(), 0u);
  std::filesystem::remove(path);
}

TEST(WireTrace, RejectsGarbageAndForeignFiles) {
  const auto path = std::filesystem::temp_directory_path() / "garbage.pqwf";
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a wire trace, nor a pcap";
  }
  EXPECT_THROW(WireTraceReader{path}, ConfigError);
  {
    // Byte-swapped pcap magic: a big-endian capture we refuse up front
    // rather than silently misparse.
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    const std::uint32_t swapped = 0xd4c3b2a1;
    out.write(reinterpret_cast<const char*>(&swapped), sizeof(swapped));
    std::vector<char> rest(40, 0);
    out.write(rest.data(), static_cast<std::streamsize>(rest.size()));
  }
  EXPECT_THROW(WireTraceReader{path}, ConfigError);
  std::filesystem::remove(path);
  EXPECT_THROW(WireTraceReader{path}, ConfigError);  // missing file
}

TEST(WireTrace, TornTailFuzzAtEveryByteOffset) {
  // The mmap reader's torn-tail contract, exhaustively: cut the file at
  // EVERY byte offset past the file header. The reader must deliver exactly
  // the frames that fit completely, count the rest as truncated, and never
  // throw or hand out a span past the mapping.
  TraceConfig c = small_config();
  c.num_flows = 5;
  const auto records = generate_all(c, 12);
  ASSERT_GE(records.size(), 4u);
  const auto set = frames_from(records);
  const auto path = std::filesystem::temp_directory_path() / "torn.pqwf";
  write_wire_trace(path, set.frames);

  // Frame end offsets in the file: header is 16 bytes, each frame is a
  // 32-byte frame header plus its wire bytes.
  std::vector<std::uintmax_t> frame_end;
  std::uintmax_t off = 16;
  for (const auto& frame : set.frames) {
    off += 32 + frame.bytes.size();
    frame_end.push_back(off);
  }
  const std::uintmax_t full = std::filesystem::file_size(path);
  ASSERT_EQ(full, frame_end.back());

  for (std::uintmax_t cut = full - 1; cut >= 16; --cut) {
    std::filesystem::resize_file(path, cut);
    const std::size_t fit = static_cast<std::size_t>(
        std::count_if(frame_end.begin(), frame_end.end(),
                      [&](std::uintmax_t e) { return e <= cut; }));
    WireTraceReader reader(path);
    EXPECT_EQ(reader.frame_count(), records.size());  // the header's promise
    std::size_t delivered = 0;
    while (auto frame = reader.next()) {
      EXPECT_EQ(frame->bytes.size(), set.frames[delivered].bytes.size());
      ++delivered;
    }
    ASSERT_EQ(delivered, fit) << "cut at " << cut;
    EXPECT_EQ(reader.stats().parsed, fit);
    EXPECT_EQ(reader.stats().truncated, records.size() - fit);
    // Ended means ended: no resurrection.
    EXPECT_FALSE(reader.next().has_value());
  }
  std::filesystem::remove(path);
}

TEST(WireTrace, PcapFrontReadsClassicCaptures) {
  // A hand-written classic pcap (microsecond magic): same reader surface,
  // telemetry synthesized — no queue data on the wire, so tin == tout ==
  // the capture timestamp and qid/qsize read 0.
  Packet pkt;
  pkt.flow = FiveTuple{0x0A000001, 0x0A000002, 1234, 80, 6};
  pkt.pkt_len = 54;
  const auto bytes = wire::serialize(pkt);

  const auto path = std::filesystem::temp_directory_path() / "classic.pcap";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    const std::uint32_t magic = kPcapMagicMicros;
    const std::uint16_t version[2] = {2, 4};
    const std::uint32_t zeros[3] = {0, 0, 0};  // thiszone, sigfigs reserved
    const std::uint32_t snaplen = 65535;
    const std::uint32_t network = 1;  // LINKTYPE_ETHERNET
    out.write(reinterpret_cast<const char*>(&magic), 4);
    out.write(reinterpret_cast<const char*>(version), 4);
    out.write(reinterpret_cast<const char*>(zeros), 8);
    out.write(reinterpret_cast<const char*>(&snaplen), 4);
    out.write(reinterpret_cast<const char*>(&network), 4);
    for (std::uint32_t i = 0; i < 3; ++i) {
      const std::uint32_t hdr[4] = {
          /*ts_sec=*/10 + i, /*ts_usec=*/500,
          /*incl_len=*/static_cast<std::uint32_t>(bytes.size()),
          /*orig_len=*/static_cast<std::uint32_t>(bytes.size())};
      out.write(reinterpret_cast<const char*>(hdr), sizeof(hdr));
      out.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
    }
  }

  WireTraceReader reader(path);
  EXPECT_TRUE(reader.is_pcap());
  EXPECT_EQ(reader.frame_count(), 0u);  // pcap does not promise a count
  std::size_t n = 0;
  while (auto frame = reader.next()) {
    EXPECT_EQ(frame->bytes.size(), bytes.size());
    EXPECT_EQ(frame->tin, Nanos{(10 + static_cast<std::int64_t>(n)) *
                                    1'000'000'000 +
                                500 * 1'000});
    EXPECT_EQ(frame->tout, frame->tin);
    EXPECT_EQ(frame->qid, 0u);
    EXPECT_EQ(frame->qsize, 0u);
    ++n;
  }
  EXPECT_EQ(n, 3u);
  EXPECT_EQ(reader.stats().truncated, 0u);

  // Torn pcap tail: cut into the last record's body — two clean frames,
  // one counted torn.
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 10);
  WireTraceReader torn(path);
  std::size_t delivered = 0;
  while (torn.next()) ++delivered;
  EXPECT_EQ(delivered, 2u);
  EXPECT_EQ(torn.stats().truncated, 1u);
  std::filesystem::remove(path);
}

TEST(WireReplay, AllCleanFeedDropsNothing) {
  TraceConfig c = small_config();
  c.num_flows = 10;
  const auto records = generate_all(c, 40);
  std::vector<std::vector<std::byte>> storage;
  std::vector<FrameObservation> frames;
  for (const PacketRecord& rec : records) {
    storage.push_back(wire::serialize(rec.pkt));
    FrameObservation frame;
    frame.bytes = storage.back();
    frame.tin = rec.tin;
    frame.tout = rec.tout;
    frames.push_back(frame);
  }
  RecordingEngine engine;
  const IngestStats stats = replay_frames(engine, frames);
  EXPECT_EQ(stats.parsed, records.size());
  EXPECT_EQ(stats.dropped(), 0u);
  EXPECT_EQ(engine.seen.size(), records.size());
}

}  // namespace
}  // namespace perfq::trace

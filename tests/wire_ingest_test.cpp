// Wire-rate ingest: the lazy wire-view path (Engine::process_wire_batch,
// folding straight off frame bytes) must be BIT-IDENTICAL to the eager
// reference (wire::try_parse then process_batch) — same tables, stream rows
// and refresh count, same counters, exact double equality — on both
// engines, with damage sprinkled in and refresh off, every second, or every
// few records. Plus the sema FieldUsage contract the lazy decode relies on,
// and the burst truncation property: a frame cut at any byte offset is
// skipped-and-counted (or parses identically, if the cut spared the
// headers) without perturbing its burst neighbors.
#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <filesystem>

#include "fig2_corpus.hpp"
#include "runtime_test_util.hpp"
#include "trace/wire_replay.hpp"
#include "trace/wire_trace.hpp"

namespace perfq::runtime {
namespace {

/// Records serialized to wire frames with their telemetry sidecars.
/// `storage` owns the bytes (inner vectors never move their heap buffers,
/// so the spans in `frames` stay valid as more are appended).
struct FrameSet {
  std::vector<std::vector<std::byte>> storage;
  std::vector<FrameObservation> frames;

  void add(const PacketRecord& rec) {
    storage.push_back(wire::serialize(rec.pkt));
    add_bytes(storage.back(), rec);
  }
  void add_bytes(std::span<const std::byte> bytes, const PacketRecord& rec) {
    FrameObservation frame;
    frame.bytes = bytes;
    frame.qid = rec.qid;
    frame.tin = rec.tin;
    frame.tout = rec.tout;
    frame.qsize = rec.qsize;
    frames.push_back(frame);
  }
};

FrameSet serialize_workload(const std::vector<PacketRecord>& records) {
  FrameSet set;
  for (const PacketRecord& rec : records) set.add(rec);
  return set;
}

EngineConfig engine_config(Nanos refresh) {
  EngineConfig config;
  config.geometry = kv::CacheGeometry::set_associative(64, 8);
  config.refresh_interval = refresh;
  return config;
}

/// A GROUPBY beside an unconsumed stream SELECT, whose rows (the program's
/// result) must leave both paths in record order.
constexpr Fig2Query kGroupByBesideStream{"groupby_beside_stream", R"(
R1 = SELECT 5tuple, COUNT, SUM(pkt_len) GROUPBY 5tuple
BIG = SELECT 5tuple, pkt_len, tin WHERE pkt_len > 1000
)",
                                         true};

/// Refresh intervals the harness runs at: every second, and every 3 ms,
/// which puts a boundary about every other record of test_workload() (6,953
/// records over 10 s), so boundaries land on every offset of a fold chunk.
constexpr Nanos kRefreshIntervals[] = {1_s, 3_ms};

/// Eager reference: try_parse every frame, feed the survivors through
/// process_batch, finish. Everything downstream of the parse is the
/// pre-wire-view code path, so this is the semantic anchor the lazy path
/// must match.
std::unique_ptr<Engine> eager_reference(
    const char* source, std::span<const FrameObservation> frames,
    Nanos refresh, trace::IngestStats* stats_out) {
  auto engine = build_engine(compiler::compile_source(source, kFig2Params),
                             kSerial, engine_config(refresh));
  const trace::IngestStats stats =
      trace::replay_frames(*engine, frames, /*batch=*/777);
  engine->finish(12_s);
  if (stats_out != nullptr) *stats_out = stats;
  return engine;
}

void run_wire_equivalence(const Fig2Query& entry,
                          std::span<const FrameObservation> frames,
                          Nanos refresh) {
  const std::string context =
      std::string(entry.name) + " refresh=" + std::to_string(refresh.count());
  trace::IngestStats want_stats;
  const auto want = eager_reference(entry.source, frames, refresh, &want_stats);
  if (refresh > 0_s) {
    ASSERT_GT(want->refresh_count(), 0u) << context;
  }

  // Every topology, deliberately odd burst size (chunking must not show).
  // The inline executor folds off the frame bytes; the threaded one decodes
  // the burst once on the caller and fans it out by value through the rings.
  for (const Topology& topo : kTopologies) {
    const std::string where = context + " [" + topo.name + "]";
    auto lazy = build_engine(
        compiler::compile_source(entry.source, kFig2Params), topo,
        engine_config(refresh),
        [](EngineBuilder& b) { b.ring_capacity(512).dispatch_batch(64); });
    trace::IngestStats lazy_stats;
    for (std::size_t base = 0; base < frames.size(); base += 501) {
      const std::size_t n = std::min<std::size_t>(501, frames.size() - base);
      lazy_stats += lazy->process_wire_batch(frames.subspan(base, n));
    }
    lazy->finish(12_s);
    EXPECT_EQ(lazy_stats.parsed, want_stats.parsed) << where;
    EXPECT_EQ(lazy_stats.dropped(), want_stats.dropped()) << where;
    EXPECT_EQ(lazy->records_processed(), want_stats.parsed) << where;
    EXPECT_EQ(lazy->refresh_count(), want->refresh_count()) << where;
    // Every program's GROUPBY is R1; result() is its last query, which is
    // R1 again or the stream SELECT beside it.
    expect_tables_bit_identical(want->table("R1"), lazy->table("R1"), where);
    expect_tables_bit_identical(want->result(), lazy->result(), where);
  }
}

TEST(WireIngest, Fig2CorpusBitIdenticalToEagerParse) {
  const auto set = serialize_workload(test_workload());
  for (const auto& entry : kFig2Corpus) {
    run_wire_equivalence(entry, set.frames, /*refresh=*/0_s);
  }
  run_wire_equivalence(kGroupByBesideStream, set.frames, /*refresh=*/0_s);
}

TEST(WireIngest, Fig2CorpusBitIdenticalWithPeriodicRefresh) {
  // Refresh boundaries are found from the record's tin, which a wire view
  // carries in its sidecar — epochs must land identically on both paths.
  const auto set = serialize_workload(test_workload());
  for (const Nanos refresh : kRefreshIntervals) {
    for (const auto& entry : kFig2Corpus) {
      run_wire_equivalence(entry, set.frames, refresh);
    }
    run_wire_equivalence(kGroupByBesideStream, set.frames, refresh);
  }
}

TEST(WireIngest, DamagedFramesSkippedIdenticallyOnBothPaths) {
  // Damage sprinkled through the burst: both paths must skip the same
  // frames, count them under the same reasons, and agree on the tables.
  const auto records = test_workload();
  FrameSet set;
  for (std::size_t i = 0; i < records.size(); ++i) {
    set.storage.push_back(wire::serialize(records[i].pkt));
    auto& bytes = set.storage.back();
    if (i % 11 == 3) {
      bytes.resize(bytes.size() / 4);  // snap-length truncation
    } else if (i % 11 == 7) {
      bytes[12] = std::byte{0x86};  // IPv6 EtherType
      bytes[13] = std::byte{0xDD};
    }
    set.add_bytes(bytes, records[i]);
  }
  for (const auto& entry : {kFig2Corpus[1], kFig2Corpus[4]}) {
    run_wire_equivalence(entry, set.frames, /*refresh=*/1_s);
  }
}

TEST(WireIngest, ChecksumVerificationOptInCountsBadChecksum) {
  const auto records = test_workload(/*seed=*/5, /*num_flows=*/50);
  FrameSet set;
  std::size_t corrupted = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    set.storage.push_back(wire::serialize(records[i].pkt));
    auto& bytes = set.storage.back();
    if (i % 7 == 2) {
      bytes[22] ^= std::byte{0xFF};  // flip the TTL: checksum now stale
      ++corrupted;
    }
    set.add_bytes(bytes, records[i]);
  }
  ASSERT_GT(corrupted, 0u);

  // Verification off (the default): a stale checksum is not consulted, the
  // frame parses (with the corrupt TTL visible as data).
  {
    auto engine = build_engine(
        compiler::compile_source(kFig2Corpus[0].source, kFig2Params), kSerial,
        engine_config(0_s));
    const auto stats = engine->process_wire_batch(set.frames);
    EXPECT_EQ(stats.parsed, set.frames.size());
    EXPECT_EQ(stats.bad_checksum, 0u);
  }
  // Opt in on every topology: corrupted headers are skipped and counted,
  // and the verdict reaches the metrics surface.
  EngineConfig verifying = engine_config(0_s);
  verifying.verify_checksums = true;
  for (const Topology& topo : {kSerial, Topology{"s4", 4}}) {
    SCOPED_TRACE(topo.name);
    auto engine = build_engine(
        compiler::compile_source(kFig2Corpus[0].source, kFig2Params), topo,
        verifying);
    const auto stats = engine->process_wire_batch(set.frames);
    engine->finish(12_s);
    EXPECT_EQ(stats.parsed, set.frames.size() - corrupted);
    EXPECT_EQ(stats.bad_checksum, corrupted);
    EXPECT_EQ(stats.dropped(), corrupted);
    EXPECT_EQ(engine->metrics().ingest.bad_checksum, corrupted);
  }
}

TEST(WireIngest, BurstTruncationNeverPerturbsNeighbors) {
  // The burst property behind resilient capture ingest: cut ONE frame at
  // every possible byte offset inside a [good, cut, good] burst — the cut
  // frame either parses identically to the full frame (the cut spared the
  // headers; payload bytes are never read) or is skipped and counted, and
  // the neighbors fold identically either way.
  PacketRecord mid;
  mid.pkt.flow = FiveTuple{0xC0A80101, 0x0A000001, 50000, 80, 6};
  mid.pkt.payload_len = 64;
  mid.pkt.pkt_len = 64 + 54;
  mid.pkt.tcp_seq = 0x12345678;
  mid.tin = Nanos{10};
  mid.tout = Nanos{20};
  const auto mid_bytes = wire::serialize(mid.pkt);
  const std::size_t header_bytes = wire::parse(mid_bytes).header_bytes;

  PacketRecord left = mid, right = mid;
  left.pkt.flow.src_port = 1111;
  right.pkt.flow.src_port = 2222;
  const auto left_bytes = wire::serialize(left.pkt);
  const auto right_bytes = wire::serialize(right.pkt);

  auto engine = build_engine(
      compiler::compile_source(kFig2Corpus[1].source, kFig2Params), kSerial,
      engine_config(0_s));
  std::uint64_t want_parsed = 0;
  std::uint64_t want_truncated = 0;
  trace::IngestStats got;
  FrameSet all;  // the identical feed, replayed eagerly as the reference
  for (std::size_t len = 0; len <= mid_bytes.size(); ++len) {
    FrameSet burst;
    burst.add_bytes(left_bytes, left);
    burst.add_bytes(std::span<const std::byte>(mid_bytes.data(), len), mid);
    burst.add_bytes(right_bytes, right);
    got += engine->process_wire_batch(burst.frames);
    all.add_bytes(left_bytes, left);
    all.add_bytes(std::span<const std::byte>(mid_bytes.data(), len), mid);
    all.add_bytes(right_bytes, right);
    want_parsed += len < header_bytes ? 2 : 3;
    want_truncated += len < header_bytes ? 1 : 0;
  }
  engine->finish(1_s);
  EXPECT_EQ(got.parsed, want_parsed);
  EXPECT_EQ(got.truncated, want_truncated);
  EXPECT_EQ(got.dropped(), want_truncated);

  // Each burst folded its neighbors and exactly the header-complete cuts:
  // the eager reference over the identical feed lands on the same table.
  auto reference = build_engine(
      compiler::compile_source(kFig2Corpus[1].source, kFig2Params), kSerial,
      engine_config(0_s));
  const trace::IngestStats ref_stats =
      trace::replay_frames(*reference, all.frames, /*batch=*/64);
  reference->finish(1_s);
  EXPECT_EQ(ref_stats.parsed, want_parsed);
  EXPECT_EQ(ref_stats.truncated, want_truncated);
  ASSERT_EQ(engine->result().row_count(), 3u);
  expect_tables_bit_identical(reference->result(), engine->result(),
                              "burst truncation");
}

TEST(WireIngest, PqwfFileReplayMatchesInMemoryFrames) {
  // Capture bytes from disk: frames written to a PQWF file and replayed
  // through the mmap reader + process_wire_batch must land on the same
  // tables and accounting as the same frames fed from memory — the spans
  // the engine folds over alias the file mapping, zero copies in between.
  const auto records = test_workload(/*seed=*/31, /*num_flows=*/100);
  FrameSet set;
  for (std::size_t i = 0; i < records.size(); ++i) {
    set.storage.push_back(wire::serialize(records[i].pkt));
    auto& bytes = set.storage.back();
    if (i % 13 == 5) bytes.resize(10);  // damage rides along on disk too
    set.add_bytes(bytes, records[i]);
  }
  const auto path =
      std::filesystem::temp_directory_path() / "wire_ingest_roundtrip.pqwf";
  trace::write_wire_trace(path, set.frames);

  auto from_memory = build_engine(
      compiler::compile_source(kFig2Corpus[1].source, kFig2Params), kSerial,
      engine_config(1_s));
  trace::IngestStats mem_stats;
  mem_stats += from_memory->process_wire_batch(set.frames);
  from_memory->finish(12_s);

  auto from_file = build_engine(
      compiler::compile_source(kFig2Corpus[1].source, kFig2Params), kSerial,
      engine_config(1_s));
  const trace::IngestStats file_stats =
      trace::replay_wire_trace(*from_file, path, /*burst=*/256);
  from_file->finish(12_s);

  EXPECT_EQ(file_stats.parsed, mem_stats.parsed);
  EXPECT_EQ(file_stats.truncated, mem_stats.truncated);
  expect_tables_bit_identical(from_memory->result(), from_file->result(),
                              "pqwf replay");
  std::filesystem::remove(path);
}

TEST(WireIngest, TornPqwfTailReachesEngineMetrics) {
  // A capture cut short mid-frame (crashed writer, partial copy) loses its
  // last frame inside the reader, before any engine sees it. The engine's
  // own ingest telemetry must still count that loss: metrics().ingest
  // equals the stats replay_wire_trace returns, on every topology.
  const auto records = test_workload(/*seed=*/31, /*num_flows=*/100);
  FrameSet set;
  for (std::size_t i = 0; i < 100; ++i) set.add(records[i]);
  const auto path =
      std::filesystem::temp_directory_path() / "wire_ingest_torn.pqwf";
  trace::write_wire_trace(path, set.frames);
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 5);

  for (const Topology& topo : kTopologies) {
    SCOPED_TRACE(topo.name);
    auto engine = build_engine(
        compiler::compile_source(kFig2Corpus[0].source, kFig2Params), topo,
        engine_config(0_s));
    const trace::IngestStats stats =
        trace::replay_wire_trace(*engine, path, /*burst=*/32);
    EXPECT_EQ(stats.parsed, 99u);
    EXPECT_EQ(stats.truncated, 1u);
    const trace::IngestStats seen = engine->metrics().ingest;
    EXPECT_EQ(seen.parsed, stats.parsed);
    EXPECT_EQ(seen.truncated, stats.truncated);
    EXPECT_EQ(seen.unsupported, stats.unsupported);
    EXPECT_EQ(seen.bad_length, stats.bad_length);
    EXPECT_EQ(seen.bad_checksum, stats.bad_checksum);
    engine->finish(12_s);
  }
  std::filesystem::remove(path);
}

TEST(WireIngest, FieldUsageReflectsWhatTheProgramReads) {
  // Sema's per-program FieldUsage is the lazy path's decode contract: a
  // count-over-5tuple program touches exactly the key fields on the wire.
  const auto counter =
      compiler::compile_source(kFig2Corpus[0].source, kFig2Params);
  const FieldUsage usage = counter.field_usage;
  for (const FieldId f : five_tuple_fields()) {
    EXPECT_TRUE(usage.test(f)) << field_name(f);
  }
  EXPECT_FALSE(usage.test(FieldId::kPktLen));  // declared but never read
  EXPECT_FALSE(usage.test(FieldId::kTcpSeq));
  EXPECT_FALSE(usage.test(FieldId::kIpTtl));
  EXPECT_EQ(usage.wire_fields(), 5);
  EXPECT_EQ(usage.wire_fields_skipped(), 7);

  // ewma keys on the 5-tuple but folds over sidecar timestamps only — the
  // wire decode cost is still just the 13 key bytes.
  const auto ewma =
      compiler::compile_source(kFig2Corpus[2].source, kFig2Params);
  EXPECT_TRUE(ewma.field_usage.test(FieldId::kTin));
  EXPECT_TRUE(ewma.field_usage.test(FieldId::kTout));
  EXPECT_EQ(ewma.field_usage.wire_fields(), 5);

  // A predicate's reads count too.
  const auto filtered = compiler::compile_source(
      "SELECT 5tuple, COUNT GROUPBY 5tuple WHERE pkt_len > 100");
  EXPECT_TRUE(filtered.field_usage.test(FieldId::kPktLen));
  EXPECT_EQ(filtered.field_usage.wire_fields(), 6);

  // Per-plan usage unions into the program-wide set.
  FieldUsage unioned;
  for (const auto& plan : filtered.switch_plans) {
    unioned |= plan.used_fields;
  }
  EXPECT_EQ(unioned.bits, filtered.field_usage.bits);
}

}  // namespace
}  // namespace perfq::runtime

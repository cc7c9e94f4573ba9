// Wire-frame replay: feed raw captured frames into any engine, resiliently.
//
// Byte frames straight off a capture (or a test vector), decoded through
// wire::try_parse. Damaged frames (snap-length truncation, foreign
// EtherTypes, self-inconsistent headers) are SKIPPED AND COUNTED, never
// thrown on: one bad frame in a billion-packet capture must not abort the
// run, but the caller gets an exact IngestStats accounting of what was
// dropped. Statically polymorphic over the engine (a template, not
// runtime::Engine&), so the trace layer keeps no dependency on the runtime
// and a test double exposing process_batch() works too.
//
// This is the eager (materialize-per-frame) reference path. Engines expose
// process_wire_batch() (runtime/engine_api.hpp) for the fused lazy path that
// folds straight off the frame bytes; results are bit-identical.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "packet/record.hpp"
#include "packet/wire.hpp"
#include "packet/wire_view.hpp"
#include "trace/ingest_stats.hpp"

namespace perfq::trace {

/// Decode `frames` through wire::try_parse and feed the survivors into
/// `engine` in `batch`-sized time-ordered batches (frames must arrive
/// time-ordered; skipping preserves order). Returns the ingest accounting;
/// stats.parsed is exactly the number of records the engine received.
/// `verify_checksums` adds the opt-in IPv4 header checksum test (failures
/// count as bad_checksum).
template <typename Engine>
IngestStats replay_frames(Engine& engine,
                          std::span<const FrameObservation> frames,
                          std::size_t batch = 1024,
                          bool verify_checksums = false) {
  if (batch == 0) batch = 1;
  IngestStats stats;
  std::vector<PacketRecord> pending;
  pending.reserve(std::min(batch, frames.size()));
  for (const FrameObservation& frame : frames) {
    wire::ParseError err{};
    const auto parsed = wire::try_parse(frame.bytes, &err, verify_checksums);
    if (!parsed) {
      count_parse_error(stats, err);
      continue;
    }
    // Build the record in place: one header decode, zero record copies.
    PacketRecord& rec = pending.emplace_back();
    rec.pkt = parsed->pkt;
    rec.qid = frame.qid;
    rec.tin = frame.tin;
    rec.tout = frame.tout;
    rec.qsize = frame.qsize;
    ++stats.parsed;
    if (pending.size() >= batch) {
      engine.process_batch(std::span<const PacketRecord>(pending));
      pending.clear();
    }
  }
  if (!pending.empty()) {
    engine.process_batch(std::span<const PacketRecord>(pending));
  }
  // Fold the feed's accounting into the engine's own telemetry (metrics()
  // .ingest) when the engine exposes the surface; test doubles without it
  // still work — the caller always gets the stats back either way.
  if constexpr (requires { engine.record_ingest(stats); }) {
    engine.record_ingest(stats);
  }
  return stats;
}

}  // namespace perfq::trace

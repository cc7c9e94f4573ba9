// Per-run ingest accounting for resilient feeds.
//
// Live capture and on-disk traces both deliver damaged input as a matter of
// course — snap-length truncation, foreign EtherTypes, files cut off by a
// crashed writer. The ingest layer (wire::try_parse, WireTraceReader,
// replay_frames, Engine::process_wire_batch) skips such input instead of
// aborting the run, and counts what it skipped here so the caller can tell
// "clean trace" from "mostly garbage" — a run that silently dropped half its
// frames is not a result.
#pragma once

#include <cstdint>
#include <string>

#include "packet/wire.hpp"

namespace perfq::trace {

/// Ingest counts over a counter type: IngestStats (plain integers) is a
/// feed's own accounting; the engine keeps BasicIngestStats<obs::RelaxedU64>,
/// single-writer slots that metrics() reads from any thread.
template <typename Count>
struct BasicIngestStats {
  Count parsed{};       ///< records/frames delivered to the engine
  Count truncated{};    ///< fewer bytes than the headers require
  Count unsupported{};  ///< non-IPv4 / non-TCP/UDP frames
  Count bad_length{};   ///< self-inconsistent headers
  Count bad_checksum{};  ///< IPv4 checksum mismatch (opt-in check)

  /// Frames skipped for any reason.
  [[nodiscard]] std::uint64_t dropped() const {
    return truncated + unsupported + bad_length + bad_checksum;
  }
  /// Frames seen (delivered + skipped).
  [[nodiscard]] std::uint64_t total() const { return parsed + dropped(); }

  [[nodiscard]] std::string to_string() const {
    return "ingest: parsed=" + std::to_string(parsed) +
           " truncated=" + std::to_string(truncated) +
           " unsupported=" + std::to_string(unsupported) +
           " bad_length=" + std::to_string(bad_length) +
           " bad_checksum=" + std::to_string(bad_checksum);
  }

  /// Pool `other`'s counts into these: the one place the fields are summed.
  template <typename Other>
  BasicIngestStats& operator+=(const BasicIngestStats<Other>& other) {
    parsed += other.parsed;
    truncated += other.truncated;
    unsupported += other.unsupported;
    bad_length += other.bad_length;
    bad_checksum += other.bad_checksum;
    return *this;
  }
};

using IngestStats = BasicIngestStats<std::uint64_t>;

/// The one mapping from a parse failure to its stats bucket — every resilient
/// feed (replay_frames, process_wire_batch) classifies through this so the
/// buckets can never drift between ingest paths.
inline void count_parse_error(IngestStats& stats, wire::ParseError err) {
  switch (err) {
    case wire::ParseError::kTruncated: ++stats.truncated; break;
    case wire::ParseError::kUnsupportedEtherType:
    case wire::ParseError::kNotIpv4:
    case wire::ParseError::kUnsupportedProtocol:
      ++stats.unsupported;
      break;
    case wire::ParseError::kBadLength: ++stats.bad_length; break;
    case wire::ParseError::kBadChecksum: ++stats.bad_checksum; break;
  }
}

}  // namespace perfq::trace

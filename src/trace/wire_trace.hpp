// Binary frame-trace files ("PQWF"): store and replay raw wire frames.
//
// Each entry is the captured frame bytes plus the telemetry sidecar
// (qid/tin/tout/qsize) a raw frame cannot encode. The reader memory-maps
// the file so replay hands the engine FrameObservation spans that point
// straight into the page cache: capture bytes → fold with zero copies on
// the lazy process_wire_batch path.
//
// Layout (little-endian, fixed width):
//   file header   {u32 magic "PQWF", u32 version, u64 frame_count}
//   per frame     {u32 wire_len, u32 qid, u32 qsize, u32 reserved,
//                  i64 tin_ns, i64 tout_ns} + wire_len frame bytes
// frame_count is patched on close.
//
// The same reader fronts pcap-lite files (microsecond 0xa1b2c3d4 and
// nanosecond 0xa1b23c4d little-endian magics): pcap carries no queue
// telemetry, so qid/qsize read 0 and tin = tout = the capture timestamp.
//
// Failure contract: a damaged file header (bad magic/version, byte-swapped
// pcap) is rejected at construction; a torn tail — a crashed writer or
// partial copy cutting a frame header or body short — is a data condition:
// next() ends the stream early and stats() counts the frames the file
// promised but could not deliver.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <span>
#include <vector>

#include "packet/wire_view.hpp"
#include "trace/ingest_stats.hpp"

namespace perfq::trace {

inline constexpr std::uint32_t kWireTraceMagic = 0x50515746;  // "PQWF"
inline constexpr std::uint32_t kWireTraceVersion = 1;
inline constexpr std::uint32_t kPcapMagicMicros = 0xa1b2c3d4;
inline constexpr std::uint32_t kPcapMagicNanos = 0xa1b23c4d;

class WireTraceWriter {
 public:
  explicit WireTraceWriter(const std::filesystem::path& path);
  ~WireTraceWriter();
  WireTraceWriter(const WireTraceWriter&) = delete;
  WireTraceWriter& operator=(const WireTraceWriter&) = delete;

  void write(const FrameObservation& frame);

  /// Finalize the header (frame count); called by the destructor too.
  void close();

  [[nodiscard]] std::uint64_t frames_written() const { return count_; }

 private:
  std::ofstream out_;
  std::uint64_t count_ = 0;
  bool closed_ = false;
};

/// Memory-mapped streaming reader for PQWF and pcap-lite files.
///
/// next() yields FrameObservations whose bytes span aliases the mapping:
/// valid until the reader is destroyed, so drive bursts through the engine
/// while the reader is live (see replay_wire_trace below). Falls back to a
/// heap read where mmap is unavailable or fails — same surface either way.
class WireTraceReader {
 public:
  explicit WireTraceReader(const std::filesystem::path& path);
  ~WireTraceReader();
  WireTraceReader(const WireTraceReader&) = delete;
  WireTraceReader& operator=(const WireTraceReader&) = delete;

  [[nodiscard]] std::optional<FrameObservation> next();

  /// Frame count the header promises (0 for pcap: the format does not say).
  [[nodiscard]] std::uint64_t frame_count() const { return total_; }
  [[nodiscard]] std::uint64_t frames_read() const { return read_; }
  /// File-level accounting: truncated == frames the file promised (PQWF) or
  /// started (pcap) but cut short. Complete once next() returns nullopt.
  /// Frame-content damage is NOT judged here — that is the engine's job.
  [[nodiscard]] const IngestStats& stats() const { return stats_; }
  [[nodiscard]] bool is_pcap() const { return pcap_; }
  /// True when the file is mmap'd (false on the heap-read fallback).
  [[nodiscard]] bool mapped() const { return map_ != nullptr; }

 private:
  [[nodiscard]] const std::byte* data() const;
  void end_torn();  ///< count the undeliverable tail and end the stream

  void* map_ = nullptr;          ///< mmap'd region, or nullptr
  std::size_t size_ = 0;         ///< file size in bytes
  std::vector<std::byte> heap_;  ///< fallback storage when not mapped
  std::size_t pos_ = 0;          ///< read cursor past the file header
  std::uint64_t total_ = 0;
  std::uint64_t read_ = 0;
  IngestStats stats_;
  bool pcap_ = false;
  bool pcap_nanos_ = false;
  bool exhausted_ = false;
};

/// Round-trip helper (the read direction is streaming-only by design: the
/// observations alias the reader's mapping, so there is no owning vector to
/// return).
void write_wire_trace(const std::filesystem::path& path,
                      std::span<const FrameObservation> frames);

/// Stream a PQWF/pcap file into `engine` in `burst`-sized bursts through
/// the fused process_wire_batch path. Returns the combined accounting:
/// file-level truncation from the reader plus the engine's per-frame
/// skip-and-count verdicts. Statically polymorphic like replay_frames.
template <typename Engine>
IngestStats replay_wire_trace(Engine& engine,
                              const std::filesystem::path& path,
                              std::size_t burst = 1024) {
  if (burst == 0) burst = 1;
  WireTraceReader reader(path);
  std::vector<FrameObservation> pending;
  pending.reserve(burst);
  IngestStats stats;
  while (auto frame = reader.next()) {
    pending.push_back(*frame);
    if (pending.size() >= burst) {
      stats += engine.process_wire_batch(
          std::span<const FrameObservation>(pending));
      pending.clear();
    }
  }
  if (!pending.empty()) {
    stats += engine.process_wire_batch(
        std::span<const FrameObservation>(pending));
  }
  // The engine already judged (and recorded) every delivered frame; the
  // reader adds what the file itself failed to deliver, which the engine
  // never saw, so record that in the engine too (as replay_frames does).
  IngestStats lost;
  lost.truncated = reader.stats().truncated;
  stats += lost;
  if constexpr (requires { engine.record_ingest(lost); }) {
    engine.record_ingest(lost);
  }
  return stats;
}

}  // namespace perfq::trace

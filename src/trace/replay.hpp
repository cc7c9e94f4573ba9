// Trace replay driver: stream a record trace into any engine.
//
// Drives any runtime::Engine — pass the engine by reference (dereference the
// unique_ptr EngineBuilder::build() returns): inline and sharded engines are
// interchangeable here, which is exactly how the scaling bench and the
// shard equivalence tests use it. Statically polymorphic (a template, not
// Engine&) so the trace layer keeps zero dependency on the runtime and
// anything else exposing process_batch() — e.g. a test double — works too.
// Time-ordered batched delivery, optional trace repetition for longer
// steady-state runs, and a throughput readout.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <span>
#include <vector>

#include "packet/record.hpp"

namespace perfq::trace {

struct ReplayStats {
  std::uint64_t records = 0;
  double seconds = 0.0;

  [[nodiscard]] double records_per_sec() const {
    return seconds > 0.0 ? static_cast<double>(records) / seconds : 0.0;
  }
};

/// The per-repeat timestamp shift that keeps a repeated trace time-ordered:
/// one more nanosecond than the trace's tin span, so repeat r's first record
/// lands strictly after repeat r-1's last. Zero for empty traces.
[[nodiscard]] inline Nanos repeat_period(std::span<const PacketRecord> records) {
  if (records.empty()) return Nanos{0};
  Nanos lo = records.front().tin;
  Nanos hi = records.front().tin;
  for (const PacketRecord& rec : records) {
    lo = std::min(lo, rec.tin);
    hi = std::max(hi, rec.tin);
  }
  return hi - lo + Nanos{1};
}

/// Feed `records` into `engine` in `batch`-sized time-ordered batches,
/// `repeats` times over, without calling finish(). Each repeat is shifted
/// forward by the trace's time span (tin and finite tout alike), so delivery
/// stays time-ordered across repeats — refresh-epoch logic must never see
/// time go backwards. Returns wall-clock throughput of the delivery (for a
/// pipelined engine this measures the sustainable dispatch rate; finish()
/// settles the tail).
template <typename Engine>
ReplayStats replay_into(Engine& engine, std::span<const PacketRecord> records,
                        std::size_t batch = 1024, std::size_t repeats = 1) {
  if (batch == 0) batch = 1;
  const Nanos period = repeats > 1 ? repeat_period(records) : Nanos{0};
  std::vector<PacketRecord> shifted;  // per-batch scratch for repeats > 1
  ReplayStats stats;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < repeats; ++r) {
    const Nanos offset = period * static_cast<std::int64_t>(r);
    for (std::size_t base = 0; base < records.size(); base += batch) {
      const std::size_t n = std::min(batch, records.size() - base);
      if (offset == Nanos{0}) {
        // First pass (and the repeats == 1 fast path): no copy.
        engine.process_batch(records.subspan(base, n));
      } else {
        shifted.assign(records.begin() + static_cast<std::ptrdiff_t>(base),
                       records.begin() + static_cast<std::ptrdiff_t>(base + n));
        for (PacketRecord& rec : shifted) {
          rec.tin += offset;
          // Dropped packets keep tout = infinity (the sentinel must survive
          // the shift for WHERE tout == infinity).
          if (!rec.tout.is_infinite()) rec.tout += offset;
        }
        engine.process_batch(std::span<const PacketRecord>(shifted));
      }
      stats.records += n;
    }
  }
  stats.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  // Engines that expose the telemetry surface get the replay accounting
  // folded into metrics() (runtime-free test doubles simply don't match).
  if constexpr (requires {
                  engine.record_replay(std::uint64_t{}, std::uint64_t{});
                }) {
    engine.record_replay(stats.records,
                         static_cast<std::uint64_t>(stats.seconds * 1e9));
  }
  return stats;
}

}  // namespace perfq::trace

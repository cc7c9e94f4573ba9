// Telemetry primitives: the always-on self-monitoring layer's building
// blocks (the monitor monitors itself — the paper's continuous-monitoring
// premise applied to the engine's own pipeline).
//
// Design (the per-lcore counter pattern of high-rate dataplanes): every
// counter slot has exactly ONE writer thread, which updates it with relaxed
// atomics — on mainstream hardware a relaxed load+store compiles to the same
// plain read-modify-write a bare uint64 would, with no lock prefix and no
// cache-line contention (slots that share a writer share its cache lines;
// slots with different writers live in structures that are already
// writer-partitioned, e.g. per-shard caches). Aggregation happens on READ:
// whoever calls Engine::metrics() sums the slots with relaxed loads. That
// makes the surface TSan-clean and coherent in the only sense a live
// monitor needs — every counter is monotone and individually torn-free;
// cross-counter invariants (hits + initializations == packets) hold exactly
// at quiescent points (batch boundaries, after finish()) and approximately
// (within the in-flight window) mid-run.
//
// Compile-time kill switch: defining PERFQ_TELEMETRY_OFF (e.g.
// -DCMAKE_CXX_FLAGS=-DPERFQ_TELEMETRY_OFF=1) swaps the slots for bare
// uint64s and the clock reads for nothing. That build loses the mid-run
// coherence guarantee and the latency histograms; it exists ONLY as the
// baseline side of the CI overhead check (perfbench hot-serial, telemetry on
// against off, tools/check_telemetry_overhead.py) that proves the always-on
// default costs <= 2%.
#pragma once

#include <array>
#include <bit>
#include <chrono>
#include <cstdint>

#if !defined(PERFQ_TELEMETRY_OFF)
#include <atomic>
#endif

namespace perfq::obs {

/// True in the default build; false only under PERFQ_TELEMETRY_OFF.
#if defined(PERFQ_TELEMETRY_OFF)
inline constexpr bool kTelemetryEnabled = false;
#else
inline constexpr bool kTelemetryEnabled = true;
#endif

/// A single-writer counter slot readable from any thread.
///
/// The OWNER thread (exactly one per slot) mutates it; mutations are relaxed
/// load+store pairs, NOT fetch_add — no lock prefix, no RMW stall, because
/// single-writer means there is nothing to be atomic against. Any thread may
/// read it with a relaxed load. Copying reads the source and stores the
/// destination (used when a stats struct is snapshotted into a plain value).
class RelaxedU64 {
 public:
  RelaxedU64() = default;
  RelaxedU64(std::uint64_t v) : v_(v) {}  // NOLINT(google-explicit-constructor)
  RelaxedU64(const RelaxedU64& other) : v_(other.load()) {}
  RelaxedU64& operator=(const RelaxedU64& other) {
    store(other.load());
    return *this;
  }
  RelaxedU64& operator=(std::uint64_t v) {
    store(v);
    return *this;
  }

  // NOLINTNEXTLINE(google-explicit-constructor)
  operator std::uint64_t() const { return load(); }

  RelaxedU64& operator++() {
    add(1);
    return *this;
  }
  RelaxedU64& operator+=(std::uint64_t d) {
    add(d);
    return *this;
  }

  /// Owner-thread increment (single writer: plain read-modify-write).
  void add(std::uint64_t d) {
#if defined(PERFQ_TELEMETRY_OFF)
    v_ += d;
#else
    v_.store(v_.load(std::memory_order_relaxed) + d,
             std::memory_order_relaxed);
#endif
  }
  void sub(std::uint64_t d) { add(~d + 1); }

  /// Owner-thread high-water update.
  void set_max(std::uint64_t x) {
    if (x > load()) store(x);
  }

  [[nodiscard]] std::uint64_t load() const {
#if defined(PERFQ_TELEMETRY_OFF)
    return v_;
#else
    return v_.load(std::memory_order_relaxed);
#endif
  }
  void store(std::uint64_t v) {
#if defined(PERFQ_TELEMETRY_OFF)
    v_ = v;
#else
    v_.store(v, std::memory_order_relaxed);
#endif
  }

 private:
#if defined(PERFQ_TELEMETRY_OFF)
  std::uint64_t v_ = 0;
#else
  std::atomic<std::uint64_t> v_{0};
#endif
};

/// Monotonic nanosecond clock for latency taps (0 when telemetry is off —
/// call sites gate on kTelemetryEnabled so the read folds away entirely).
[[nodiscard]] inline std::uint64_t now_ns() {
#if defined(PERFQ_TELEMETRY_OFF)
  return 0;
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

/// Timing every call would put ~2 clock reads on paths that process a single
/// record (process() loops); sampling keeps the tap honest AND cheap: batches
/// of >= kAlwaysTimeBatch records are always timed (the clock cost amortizes
/// below noise), smaller ones 1 in kSmallBatchSampleMask+1.
inline constexpr std::size_t kAlwaysTimeBatch = 64;
inline constexpr std::uint32_t kSmallBatchSampleMask = 15;  // 1 in 16

struct HistogramSnapshot;

/// Fixed-bucket latency histogram over log2(ns): bucket b counts durations
/// with bit_width(ns) == b, i.e. ns in [2^(b-1), 2^b). 48 buckets span 0 ns
/// to ~3.2 days. Single-writer like RelaxedU64 (one thread records; anyone
/// snapshots). A record() is two slot updates — no allocation, no locks.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 48;

  /// Owner-thread record of one duration.
  void record(std::uint64_t ns) {
    const auto b = static_cast<std::size_t>(
        ns == 0 ? 0 : std::bit_width(ns));
    buckets_[b < kBuckets ? b : kBuckets - 1].add(1);
    sum_ns_.add(ns);
  }

  /// Coherent-enough copy for exporters: each bucket is torn-free and
  /// monotone; a concurrent record() may straddle the copy by one count.
  [[nodiscard]] HistogramSnapshot snapshot() const;

 private:
  std::array<RelaxedU64, kBuckets> buckets_;
  RelaxedU64 sum_ns_;
};

/// Plain-value copy of a LatencyHistogram, safe to ship across threads and
/// serialize. Quantiles are bucket-interpolated in log2 space by rebuilding a
/// perfq::Histogram (common/stats.hpp) over the counts.
struct HistogramSnapshot {
  std::array<std::uint64_t, LatencyHistogram::kBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum_ns = 0;

  [[nodiscard]] double mean_ns() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum_ns) / static_cast<double>(count);
  }
  /// Bucket-interpolated quantile in nanoseconds; q in [0, 1]. 0 when empty.
  [[nodiscard]] double quantile_ns(double q) const;

  /// Pool `other`'s samples into this histogram.
  HistogramSnapshot& operator+=(const HistogramSnapshot& other) {
    for (std::size_t b = 0; b < buckets.size(); ++b) {
      buckets[b] += other.buckets[b];
    }
    count += other.count;
    sum_ns += other.sum_ns;
    return *this;
  }
};

}  // namespace perfq::obs

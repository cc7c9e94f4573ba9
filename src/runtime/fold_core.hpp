// The fold hot path shared by both executors of runtime::Engine: the
// per-switch-query fold core, the refresh clock and the wire front. The
// inline executor runs them on the caller; the threaded executor runs the
// core on its shard workers and the clock and wire front on the caller.
//
// The core owns the chunked two-pass scratch of the batched path:
//   pass 1  prepare(): prefilter, key extraction (computing the cached hash
//           once), software-prefetch of the owning cache bucket;
//   pass 2  fold():    the actual cache operation, in record order.
// so the bucket fetch of record i+k overlaps the fold of record i. The
// threaded executor uses prepare_extracted(): its dispatcher has already
// evaluated the prefilter and extracted the key (it needed the hash to
// route), so the worker only prefetches and folds.
#pragma once

#include <array>
#include <cstddef>
#include <span>

#include "common/failpoint.hpp"
#include "compiler/program.hpp"
#include "kvstore/cache.hpp"
#include "obs/metrics.hpp"
#include "packet/wire.hpp"
#include "packet/wire_view.hpp"
#include "trace/ingest_stats.hpp"

namespace perfq::runtime {

/// Periodic refresh boundaries (§3.2), detected once in global record
/// order: a refresh fires before the first record whose tin reaches one
/// interval past the previous refresh (the first interval starts at the
/// engine's first record).
class RefreshClock {
 public:
  explicit RefreshClock(Nanos interval) : interval_(interval) {}

  [[nodiscard]] bool enabled() const { return interval_ > Nanos{0}; }

  /// Whether a refresh fires before the record stamped `tin` (call once per
  /// record, in order, and only when enabled()).
  bool due(Nanos tin) {
    if (next_ == Nanos{0}) next_ = tin + interval_;
    if (tin < next_) return false;
    next_ = tin + interval_;
    ++count_;
    return true;
  }

  /// Refreshes fired so far; readable from any thread.
  [[nodiscard]] std::uint64_t count() const { return count_; }

 private:
  Nanos interval_;
  Nanos next_{0};
  obs::RelaxedU64 count_;
};

class SwitchFoldCore {
 public:
  /// Records per prefetch chunk: large enough to hide bucket fetch latency,
  /// small enough that prefetched lines survive until their fold.
  static constexpr std::size_t kChunk = 32;

  /// Non-owning: `plan` and `cache` must outlive the core.
  SwitchFoldCore(const compiler::SwitchQueryPlan& plan, kv::Cache& cache)
      : plan_(&plan), cache_(&cache) {}

  /// Pass 1 for chunk slot `i`: evaluate the prefilter, extract the key and
  /// prefetch its bucket. Returns whether the record passed. Generic over
  /// the record representation (PacketRecord or lazy WireRecordView): both
  /// read fields through the field_value overload set, so pass/fail and the
  /// packed key are bit-identical across representations.
  template <typename Rec>
  bool prepare(std::size_t i, const Rec& rec) {
    const auto source = compiler::record_source(rec);
    pass_[i] = !plan_->prefilter.has_value() ||
               plan_->prefilter->eval_bool(source);
    if (pass_[i]) {
      keys_[i] = compiler::extract_key(*plan_, rec);
      cache_->prefetch(keys_[i]);
    }
    return pass_[i];
  }

  /// Pass 1 variant for the threaded executor: the admit decision and the
  /// key arrive from the dispatcher, so only the prefetch remains.
  void prepare_extracted(std::size_t i, const kv::Key& key) {
    pass_[i] = true;
    keys_[i] = key;
    cache_->prefetch(key);
  }

  /// Pass 2 for chunk slot `i`: fold the record if it passed pass 1.
  template <typename Rec>
  void fold(std::size_t i, const Rec& rec) {
    PERFQ_FAILPOINT("fold_core.fold");
    if (pass_[i]) cache_->process(keys_[i], rec);
  }

  void flush(Nanos now) { cache_->flush(now); }

 private:
  const compiler::SwitchQueryPlan* plan_;
  kv::Cache* cache_;
  std::array<kv::Key, kChunk> keys_;
  std::array<bool, kChunk> pass_{};
};

/// The wire front: validate each frame (damaged ones are skipped and
/// counted into `stats`, never thrown on) and hand each survivor, in order,
/// to `on_frame` as a lazy view while its header bytes are still hot.
template <typename OnFrame>
void for_each_valid_frame(std::span<const FrameObservation> frames,
                          bool verify_checksums, trace::IngestStats& stats,
                          OnFrame&& on_frame) {
  for (const FrameObservation& frame : frames) {
    wire::ParseError err{};
    if (wire::check_frame(frame.bytes, &err, verify_checksums) == 0) {
      trace::count_parse_error(stats, err);
      continue;
    }
    ++stats.parsed;
    on_frame(wire_record_view(frame));
  }
}

}  // namespace perfq::runtime

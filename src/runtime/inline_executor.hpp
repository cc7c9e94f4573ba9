// The inline executor of runtime::Engine (the default, no sharded(N)): the
// caller folds every record through SwitchFoldCore into one KeyValueStore
// per on-switch GROUPBY, evictions absorb straight into that query's backing
// store, and the record boundary is always "now". Everything above the fold
// (registry, attach validation, refresh detection, stream delivery, results,
// telemetry, the fault gate) lives in Engine; this class is only the place
// where folding happens.
#pragma once

#include <algorithm>
#include <array>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "kvstore/kvstore.hpp"
#include "runtime/engine_api.hpp"
#include "runtime/fold_core.hpp"
#include "runtime/stream_stage.hpp"

namespace perfq::runtime {

class InlineExecutor {
 public:
  static constexpr const char* kName = "serial";

  /// One query's store and fold core, built before it is installed.
  struct Prepared {
    std::unique_ptr<kv::KeyValueStore> store;
    std::unique_ptr<SwitchFoldCore> core;
  };

  /// `refresh` and `stream` belong to the engine and outlive the executor.
  InlineExecutor(const EngineConfig& config, RefreshClock& refresh,
                 StreamStage& stream)
      : config_(config), refresh_(refresh), stream_(stream) {}

  /// Build a query's store; touches no executor state.
  [[nodiscard]] Prepared prepare(std::size_t /*slot*/,
                                 const compiler::SwitchQueryPlan& plan,
                                 const kv::CacheGeometry& geometry) const {
    Prepared p;
    p.store = std::make_unique<kv::KeyValueStore>(
        geometry, plan.kernel, config_.hash_seed, config_.eviction_policy);
    p.core = std::make_unique<SwitchFoldCore>(plan, p.store->cache());
    return p;
  }

  /// Install a prepared query at registry slot `slot`.
  void install(std::size_t slot, const compiler::SwitchQueryPlan& /*plan*/,
               Prepared&& prepared) {
    if (slot >= slots_.size()) slots_.resize(slot + 1);
    slots_[slot] = std::move(prepared);
    relink();
  }

  /// Free slot `slot` and everything its query allocated.
  void remove(std::size_t slot) {
    slots_[slot] = Prepared{};
    relink();
  }

  /// Fold a batch of records: the two-pass chunk loop, chunk by chunk.
  void fold(std::span<const PacketRecord> records) {
    for (std::size_t base = 0; base < records.size(); base += kChunk) {
      process_chunk(
          records.subspan(base, std::min(kChunk, records.size() - base)));
    }
  }

  /// Fold a burst of frames straight off their bytes: the same chunk loop
  /// over lazy views, so only the fields the program reads are decoded.
  void fold_wire(std::span<const FrameObservation> frames,
                 bool verify_checksums, trace::IngestStats& stats) {
    std::array<WireRecordView, kChunk> views;
    std::size_t n = 0;
    for_each_valid_frame(frames, verify_checksums, stats,
                         [&](const WireRecordView& view) {
                           views[n++] = view;
                           if (n == kChunk) {
                             process_chunk(std::span<const WireRecordView>{
                                 views.data(), n});
                             n = 0;
                           }
                         });
    if (n > 0) {
      process_chunk(std::span<const WireRecordView>{views.data(), n});
    }
  }

  /// The record boundary is always "now": nothing is in flight.
  void reach_boundary() {}

  /// The shared pull primitive: `fn` receives `slot`'s store as a flush at
  /// `now` would leave it (KeyValueStore::merged_backing).
  template <typename Fn>
  decltype(auto) merged_store(std::size_t slot, Nanos now, Fn&& fn) {
    const kv::BackingStore merged = slots_[slot].store->merged_backing(now);
    return fn(merged);
  }

  /// End the window: flush every cache into its backing store.
  void close(Nanos now) {
    for (SwitchFoldCore* core : live_) core->flush(now);
  }

  /// `fn` receives `slot`'s backing store (as of the last eviction).
  template <typename Fn>
  decltype(auto) with_backing(std::size_t slot, Fn&& fn) const {
    return fn(slots_[slot].store->backing());
  }

  [[nodiscard]] kv::CacheStats cache_stats(std::size_t slot) const {
    return slots_[slot].store->cache().stats();
  }

  /// No pipeline threads: nothing to report.
  void collect_pipeline(EngineMetrics& /*m*/) const {}

 private:
  static constexpr std::size_t kChunk = SwitchFoldCore::kChunk;

  template <typename Rec>
  void process_chunk(std::span<const Rec> chunk) {
    const std::size_t n = chunk.size();
    const bool streams = !stream_.empty();
    const bool refresh = refresh_.enabled();

    // Pass 1: evaluate prefilters and extract every key (computing its
    // cached hash once), prefetching the owning cache bucket so its tag row
    // and slots are resident by the time pass 2 folds the record.
    for (SwitchFoldCore* core : live_) {
      for (std::size_t i = 0; i < n; ++i) core->prepare(i, chunk[i]);
    }

    // Pass 2: fold records in time order (refresh boundaries included;
    // prefetches above have no side effects, so ordering is preserved).
    for (std::size_t i = 0; i < n; ++i) {
      const Rec& rec = chunk[i];
      if (refresh && refresh_.due(rec.tin)) {
        // Periodic backing-store refresh (§3.2): exact for linear folds,
        // and non-linear folds record one more segment (accounted in
        // accuracy).
        for (SwitchFoldCore* core : live_) core->flush(rec.tin);
      }
      for (SwitchFoldCore* core : live_) core->fold(i, rec);
      if (streams) stream_.observe(rec);
    }
  }

  /// Rebuild the dense list of live cores the chunk loop walks.
  void relink() {
    live_.clear();
    for (const Prepared& p : slots_) {
      if (p.core != nullptr) live_.push_back(p.core.get());
    }
  }

  const EngineConfig& config_;
  RefreshClock& refresh_;
  StreamStage& stream_;
  std::vector<Prepared> slots_;  ///< by registry slot; empty when free
  std::vector<SwitchFoldCore*> live_;
};

}  // namespace perfq::runtime

// The inline executor of runtime::Engine (the default, no sharded(N)): the
// caller extracts each record's key once per key class and folds it into
// each admitting member's KeyValueStore, evictions absorb straight into the
// query's backing store, and the record boundary is always "now".
// Everything above the fold (registry, attach validation, refresh
// detection, stream delivery, results, telemetry, the fault gate) lives in
// Engine; this class is only the place where folding happens.
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

  /// One query's store, built before it is installed.
  using Prepared = std::unique_ptr<kv::KeyValueStore>;

  /// `refresh` and `stream` belong to the engine and outlive the executor.
  InlineExecutor(const EngineConfig& config, RefreshClock& refresh,
                 StreamStage& stream)
      : config_(config), refresh_(refresh), stream_(stream) {}

  /// Build a query's store; touches no executor state.
  [[nodiscard]] Prepared prepare(std::size_t /*slot*/,
                                 const compiler::SwitchQueryPlan& plan,
                                 const kv::CacheGeometry& geometry) const {
    return std::make_unique<kv::KeyValueStore>(
        geometry, plan.kernel, config_.hash_seed, config_.eviction_policy);
  }

  /// Install a prepared query at registry slot `slot`.
  void install(std::size_t slot, const compiler::SwitchQueryPlan& plan,
               Prepared&& prepared) {
    if (slot >= stores_.size()) {
      stores_.resize(slot + 1);
      plans_.resize(slot + 1);
    }
    stores_[slot] = std::move(prepared);
    plans_[slot] = &plan;
    relink();
  }

  /// Free slot `slot` and everything its query allocated.
  void remove(std::size_t slot) {
    stores_[slot].reset();
    plans_[slot] = nullptr;
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
    const kv::BackingStore merged = stores_[slot]->merged_backing(now);
    return fn(merged);
  }

  /// End the window: flush every cache into its backing store.
  void close(Nanos now) { flush(now); }

  /// `fn` receives `slot`'s backing store. Only after close().
  template <typename Fn>
  decltype(auto) with_backing(std::size_t slot, Fn&& fn) const {
    return fn(stores_[slot]->backing());
  }

  /// `slot`'s cache and backing-store counters.
  [[nodiscard]] StoreStats store_stats(std::size_t slot) const {
    return StoreStats::of(*stores_[slot]);
  }

  /// No pipeline threads: nothing to report.
  void collect_pipeline(EngineMetrics& /*m*/) const {}

 private:
  static constexpr std::size_t kChunk = kFoldChunk;

  /// One key class as the chunk loop walks it: its members' stores and the
  /// pass-1 results for the chunk in flight.
  struct ClassFold {
    const KeyClasses::Class* cls = nullptr;
    std::vector<kv::KeyValueStore*> stores;  ///< member b's store
    std::array<std::uint32_t, kChunk> masks{};  ///< members admitting record i
    std::array<kv::Key, kChunk> keys;           ///< record i's class key
  };

  template <typename Rec>
  void process_chunk(std::span<const Rec> chunk) {
    const std::size_t n = chunk.size();
    const bool streams = !stream_.empty();
    const bool refresh = refresh_.enabled();

    // Pass 1: per class, the members each record passes and, once for all
    // of them, its key (computing its cached hash once); prefetch each
    // admitting member's cache bucket so its tag row and slots are resident
    // by the time pass 2 folds the record.
    for (ClassFold& cf : folds_) {
      for (std::size_t i = 0; i < n; ++i) {
        cf.masks[i] = cf.cls->admitted(chunk[i]);
        if (cf.masks[i] == 0) continue;
        cf.keys[i] = compiler::extract_key(cf.cls->key_plan(), chunk[i]);
        for_each_member(cf.masks[i], [&](std::size_t b) {
          cf.stores[b]->prefetch(cf.keys[i]);
        });
      }
    }

    // Pass 2: fold records in time order (refresh boundaries included;
    // prefetches above have no side effects, so ordering is preserved).
    for (std::size_t i = 0; i < n; ++i) {
      const Rec& rec = chunk[i];
      if (refresh && refresh_.due(rec.tin)) {
        // Periodic backing-store refresh (§3.2): exact for linear folds,
        // and non-linear folds record one more segment (accounted in
        // accuracy).
        flush(rec.tin);
      }
      for (ClassFold& cf : folds_) {
        for_each_member(cf.masks[i], [&](std::size_t b) {
          fold_member(*cf.stores[b], cf.keys[i], rec);
        });
      }
      if (streams) stream_.observe(rec);
    }
  }

  /// Flush every live query's cache into its backing store.
  void flush(Nanos now) {
    for (const ClassFold& cf : folds_) {
      for (kv::KeyValueStore* store : cf.stores) store->flush(now);
    }
  }

  /// Regroup the live queries into key classes for the chunk loop.
  void relink() {
    classes_.rebuild(plans_);
    folds_.clear();
    for (const KeyClasses::Class& cls : classes_.classes()) {
      ClassFold& cf = folds_.emplace_back();
      cf.cls = &cls;
      for (const std::size_t slot : cls.slots) {
        cf.stores.push_back(stores_[slot].get());
      }
    }
  }

  const EngineConfig& config_;
  RefreshClock& refresh_;
  StreamStage& stream_;
  /// By registry slot; null when free.
  std::vector<std::unique_ptr<kv::KeyValueStore>> stores_;
  /// By registry slot; null when free.
  std::vector<const compiler::SwitchQueryPlan*> plans_;
  KeyClasses classes_;
  std::vector<ClassFold> folds_;  ///< parallel to classes_.classes()
};

}  // namespace perfq::runtime

// The inline executor of runtime::Engine (the default, no sharded(N)): the
// caller extracts each record's key once per key class and folds it into
// each admitting member's KeyValueStore, evictions absorb straight into the
// query's backing store, and the record boundary is always "now".
// Everything above the fold (registry, attach validation, the wire front,
// refresh detection, the stream stage, results, telemetry, the fault gate)
// lives in Engine. The engine finds each refresh boundary and calls
// refresh() between the records before it and the records after it; this
// class is only the place where folding happens.
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

namespace perfq::runtime {

class InlineExecutor {
 public:
  static constexpr const char* kName = "serial";

  /// One query's store, built before it is installed.
  using Prepared = std::unique_ptr<kv::KeyValueStore>;

  /// Build a query's store; touches no executor state.
  [[nodiscard]] Prepared prepare(std::size_t /*slot*/,
                                 const compiler::SwitchQueryPlan& plan,
                                 const kv::CacheGeometry& geometry) const {
    return std::make_unique<kv::KeyValueStore>(geometry, plan.kernel,
                                               EngineConfig::hash_seed,
                                               EngineConfig::eviction_policy);
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

  /// Fold records in order: the two-pass chunk loop, chunk by chunk, with
  /// `folded(rec)` called right after each record's folds. Over lazy wire
  /// views only the fields the program reads are decoded.
  template <typename Rec, typename Folded>
  void fold(std::span<const Rec> records, const Folded& folded) {
    for (std::size_t base = 0; base < records.size(); base += kChunk) {
      process_chunk(
          records.subspan(base, std::min(kChunk, records.size() - base)),
          folded);
    }
  }

  /// Periodic refresh (§3.2): flush every live query's cache into its
  /// backing store. Exact for linear folds; a non-linear fold records one
  /// more segment (accounted in accuracy).
  void refresh(Nanos now) {
    for (const ClassFold& cf : folds_) {
      for (kv::KeyValueStore* store : cf.stores) store->flush(now);
    }
  }

  /// Nothing is staged between folds.
  void end_batch() {}

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
  void close(Nanos now) { refresh(now); }

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

  template <typename Rec, typename Folded>
  void process_chunk(std::span<const Rec> chunk, const Folded& folded) {
    const std::size_t n = chunk.size();

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

    // Pass 2: fold records in time order (prefetches above have no side
    // effects, so ordering is preserved).
    for (std::size_t i = 0; i < n; ++i) {
      for (ClassFold& cf : folds_) {
        for_each_member(cf.masks[i], [&](std::size_t b) {
          fold_member(*cf.stores[b], cf.keys[i], chunk[i]);
        });
      }
      folded(chunk[i]);
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

  /// By registry slot; null when free.
  std::vector<std::unique_ptr<kv::KeyValueStore>> stores_;
  /// By registry slot; null when free.
  std::vector<const compiler::SwitchQueryPlan*> plans_;
  KeyClasses classes_;
  std::vector<ClassFold> folds_;  ///< parallel to classes_.classes()
};

}  // namespace perfq::runtime

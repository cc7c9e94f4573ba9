// Concurrent, sharded-by-key backing store (DRAM side of Fig. 3, scaled out).
//
// The sharded runtime's cache evictions arrive asynchronously: shard workers
// enqueue EvictedValues and a background merge thread absorbs them here while
// folding continues — the paper's §3.2 periodic refresh ("keys periodically
// evicted so the backing store is fresh, and monitoring applications can pull
// results") without stalling the line-rate path. Internally the store is K
// sub-stores, each an ordinary BackingStore behind its own mutex, selected by
// the key's std::hash (decorrelated from cache placement), so the merge
// thread's writes and any monitoring reads contend only per sub-store.
//
// Correctness contract: for a given key, absorb() calls must arrive in epoch
// order (the linear merge operator is not commutative). The sharded runtime
// guarantees this because each key's evictions are produced by exactly one
// shard worker and travel through one FIFO queue.
#pragma once

#include <cstdint>
#include <iterator>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "kvstore/backing_store.hpp"

namespace perfq::kv {

class ShardedBackingStore {
 public:
  ShardedBackingStore(std::shared_ptr<const FoldKernel> kernel,
                      std::size_t num_shards);

  /// Absorb one eviction into the owning sub-store (locks that sub only).
  /// The merge thread calls this for each drained eviction.
  void absorb(const EvictedValue& ev);

  /// Thread-safe merged-value read (copies under the sub-store lock).
  [[nodiscard]] std::optional<StateVector> read(const Key& key) const;

  /// Deep copy of the whole store (each sub-store copied under its own lock;
  /// sub-stores are snapshotted one at a time, so the copy is per-key — not
  /// cross-key — consistent; the runtime quiesces the eviction path first
  /// when it needs a record-boundary-exact clone). The clone keeps the same
  /// key→sub routing, so further absorb() calls land on the right sub. This
  /// is the sharded engines' mid-run snapshot substrate: overlay the live
  /// cache contents on the clone without disturbing the concurrent store.
  [[nodiscard]] std::unique_ptr<ShardedBackingStore> clone() const;

  /// Thread-safe copy of a key's non-linear value segments.
  [[nodiscard]] std::vector<ValueSegment> segments(const Key& key) const;

  [[nodiscard]] bool valid(const Key& key) const;

  [[nodiscard]] AccuracyStats accuracy() const;
  [[nodiscard]] std::size_t key_count() const {
    return sum(&BackingStore::key_count);
  }
  [[nodiscard]] std::uint64_t writes() const {
    return sum(&BackingStore::writes);
  }
  [[nodiscard]] std::uint64_t capacity_writes() const {
    return sum(&BackingStore::capacity_writes);
  }
  [[nodiscard]] std::uint64_t packets() const {
    return sum(&BackingStore::packets);
  }
  [[nodiscard]] const FoldKernel& kernel() const { return *kernel_; }

  /// Visit (key, merged value, valid) across all sub-stores. Each sub-store
  /// is locked for the duration of its visit; do not call absorb() from `fn`.
  template <typename F>
  void for_each(F&& fn) const {
    for (const auto& sub : subs_) {
      const std::lock_guard<std::mutex> lock(sub->mu);
      sub->store.for_each(fn);
    }
  }

  /// Lift every entry out of every sub-store (each sub locked only for its
  /// own copy). Same per-key consistency caveat as clone().
  [[nodiscard]] std::vector<ExportedEntry> export_entries() const {
    std::vector<ExportedEntry> out;
    for (const auto& sub : subs_) {
      const std::lock_guard<std::mutex> lock(sub->mu);
      auto part = sub->store.export_entries();
      out.insert(out.end(), std::make_move_iterator(part.begin()),
                 std::make_move_iterator(part.end()));
    }
    return out;
  }

 private:
  struct Sub {
    explicit Sub(std::shared_ptr<const FoldKernel> kernel)
        : store(std::move(kernel)) {}
    mutable std::mutex mu;
    BackingStore store;
  };

  /// A BackingStore counter summed over the sub-stores, each read under
  /// its own lock.
  template <typename Counter>
  [[nodiscard]] std::uint64_t sum(Counter counter) const {
    std::uint64_t n = 0;
    for (const auto& sub : subs_) {
      const std::lock_guard<std::mutex> lock(sub->mu);
      n += (sub->store.*counter)();
    }
    return n;
  }

  [[nodiscard]] Sub& sub_of(const Key& key) const {
    return *subs_[reduce_range(key.hash(kStdHashSeed), subs_.size())];
  }

  std::shared_ptr<const FoldKernel> kernel_;
  std::vector<std::unique_ptr<Sub>> subs_;
};

}  // namespace perfq::kv

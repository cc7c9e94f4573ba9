// Facade tying the SRAM cache to the DRAM backing store (Fig. 3): the
// *programmable key-value store* that is the paper's hardware contribution.
//
// Both executors in src/runtime fold into KeyValueStores: the inline one
// holds one per (query, switch), the threaded one one per (query, shard),
// each a bucket slice of the same cache with its own backing store. Tests
// and the Fig. 5/6 harnesses drive it directly.
#pragma once

#include <memory>

#include "kvstore/backing_store.hpp"
#include "kvstore/cache.hpp"

namespace perfq::kv {

class KeyValueStore {
 public:
  /// `bucket_scale` makes the cache a bucket slice (see Cache's constructor).
  KeyValueStore(CacheGeometry geometry, std::shared_ptr<const FoldKernel> kernel,
                std::uint64_t hash_seed = 0x5eedcafe,
                EvictionPolicy policy = EvictionPolicy::kLru,
                std::uint64_t bucket_scale = 1)
      : kernel_(std::move(kernel)),
        cache_(geometry, kernel_, hash_seed, policy, bucket_scale),
        backing_(kernel_) {
    cache_.set_eviction_sink(
        [this](EvictedValue&& ev) { backing_.absorb(ev); });
  }

  /// Fold one record into the store under `key`: a PacketRecord or a lazy
  /// WireRecordView (the two representations Cache::process takes).
  template <typename Rec>
  void process(const Key& key, const Rec& rec) {
    cache_.process(key, rec);
  }

  /// Software-prefetch the cache bucket `key` maps to (batched engine path).
  void prefetch(const Key& key) const { cache_.prefetch(key); }

  /// Push all cache-resident values to the backing store (query window end,
  /// or the paper's periodic refresh). After flush(), reads from the backing
  /// store see every packet processed so far. The backing store is presized
  /// for every resident key first, so the flush never regrows it.
  void flush(Nanos now) {
    backing_.reserve(backing_.key_count() + cache_.occupancy());
    cache_.flush(now);
  }

  /// The engines' mid-run pull: a copy of the backing store with the live
  /// cache entries merged in through the ordinary exact-merge absorb — bit
  /// for bit what a flush at `now` would leave there, with neither structure
  /// disturbed.
  [[nodiscard]] BackingStore merged_backing(Nanos now) const {
    BackingStore merged = backing_;
    // Room for every resident key up front: the overlay never regrows.
    merged.reserve(merged.key_count() + cache_.occupancy());
    cache_.snapshot_into(
        now, [&merged](EvictedValue&& ev) { merged.absorb(ev); });
    return merged;
  }

  /// Authoritative read: the paper specifies results are pulled from the
  /// backing store (the cache's copy is partial for previously-evicted keys).
  /// The pointer stays valid only until the next process() or flush(),
  /// either of which may absorb an eviction and move the backing entries.
  [[nodiscard]] const StateVector* read(const Key& key) const {
    return backing_.lookup(key);
  }

  [[nodiscard]] const Cache& cache() const { return cache_; }
  [[nodiscard]] Cache& cache() { return cache_; }
  [[nodiscard]] const BackingStore& backing() const { return backing_; }
  [[nodiscard]] const FoldKernel& kernel() const { return *kernel_; }

 private:
  std::shared_ptr<const FoldKernel> kernel_;
  Cache cache_;
  BackingStore backing_;
};

/// Reference executor: an unbounded exact table applying the fold directly.
/// This is the ground truth the split design is differential-tested against
/// (for linear folds the merged backing value must match it exactly).
class ReferenceStore {
 public:
  explicit ReferenceStore(std::shared_ptr<const FoldKernel> kernel)
      : kernel_(std::move(kernel)) {
    if (kernel_ == nullptr) throw ConfigError{"ReferenceStore: null kernel"};
  }

  void process(const Key& key, const PacketRecord& rec) {
    auto [it, inserted] = table_.try_emplace(key, kernel_->initial_state());
    kernel_->update(it->second, rec);
  }

  [[nodiscard]] const StateVector* read(const Key& key) const {
    const auto it = table_.find(key);
    return it == table_.end() ? nullptr : &it->second;
  }

  [[nodiscard]] std::size_t key_count() const { return table_.size(); }

  template <typename F>
  void for_each(F&& fn) const {
    for (const auto& [key, state] : table_) fn(key, state);
  }

 private:
  std::shared_ptr<const FoldKernel> kernel_;
  std::unordered_map<Key, StateVector> table_;
};

}  // namespace perfq::kv

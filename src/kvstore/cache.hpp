// The on-chip SRAM cache of the split key-value store (§3.2, Figs. 3-4).
//
// Layout: a hash table of n buckets, each bucket an m-slot LRU (Fig. 4).
// Per packet the cache performs exactly one of the paper's line-rate
// operations: *update* (key present), *initialize* (key absent, free slot or
// eviction makes room). When a bucket is full the least-recently-used slot
// in that bucket is evicted and handed to the eviction sink — in hardware,
// the path to the off-chip backing store.
//
// For linear-in-state folds the cache also maintains the auxiliary state the
// exact merge needs (per-entry packet count N; the running transform product
// P when A varies per packet; the first-h boundary records and the state
// snapshot after them when the fold reads bounded packet history).
//
// Hot-path design (mirrors the paper's §3.3 per-packet budget of one hash +
// one bucket touch + one small update):
//   - No side index. Keys resolve by probing the owning bucket directly:
//     the key's cached 64-bit hash (kv::Key computes it once at construction)
//     yields the bucket index AND an 8-bit probe tag; the per-bucket tag
//     array is scanned first and only tag matches pay for the full-key
//     compare. An absent key costs one tag-row scan, exactly the geometry
//     lookup hardware would do — no std::unordered_map walk.
//   - Per-slot auxiliary state lives in a pooled arena indexed by slot
//     (allocated once at construction, vectors reuse their capacity across
//     epochs), so for n > 1 geometries steady-state process() performs ZERO
//     heap allocations for const-A/h=0 kernels and only amortized ones
//     otherwise. (The fully-associative n = 1 geometry — an idealized model,
//     not a hardware target — keeps an exact side index whose nodes are
//     heap-allocated per initialize/evict.)
//
// Threading: a Cache is single-threaded (the threaded executor gives each
// shard worker its own KeyValueStore, so each slice and its backing store
// have one thread). The shared FoldKernel must be stateless per update; the
// fold VM keeps its register file on the call stack for exactly this reason.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/page_alloc.hpp"
#include "common/time.hpp"
#include "obs/metrics.hpp"
#include "kvstore/fold.hpp"
#include "kvstore/geometry.hpp"
#include "kvstore/key.hpp"

namespace perfq::kv {

/// Everything the backing store needs to absorb one evicted entry. Every
/// eviction, flushed entry and snapshot entry builds one, so it holds the
/// 520-byte running product only where the merge reads it: for kLinear
/// kernels. Every other fold leaves `product` empty and pays nothing for it.
struct EvictedValue {
  Key key;
  StateVector state;     ///< S_new: accumulator at eviction time
  /// P over packets h+1..N; set for kLinear kernels only.
  std::optional<SmallMatrix> product;
  std::uint64_t packets = 0;  ///< N: records folded this epoch
  StateVector state_after_h;  ///< S_h: state after the first h records
  std::vector<PacketRecord> boundary;  ///< first min(h, N) records of the epoch
  Nanos first_tin;       ///< tin of the epoch's first record
  Nanos evict_time;      ///< when the entry left the cache
  bool final_flush = false;  ///< true if emitted by flush(), not capacity eviction
};

/// Counters reported by the evaluation harnesses (Fig. 5 derives its
/// eviction-rate series from these) and by the live Engine::metrics()
/// surface. Slots are single-writer relaxed counters (obs::RelaxedU64):
/// the owning cache's thread increments them at plain-uint64 cost, and any
/// thread may read a torn-free value mid-run — per-packet misses and hits
/// are visible while folding continues, the paper's monitoring pull turned
/// on the engine itself.
struct CacheStats {
  obs::RelaxedU64 packets;      ///< records processed
  obs::RelaxedU64 hits;         ///< update operations
  obs::RelaxedU64 initializations;  ///< new-key installs (misses)
  obs::RelaxedU64 evictions;    ///< capacity evictions (backing-store writes)
  obs::RelaxedU64 flushes;      ///< entries written back by flush()

  [[nodiscard]] double eviction_fraction() const {
    const std::uint64_t p = packets;
    return p == 0 ? 0.0
                  : static_cast<double>(evictions.load()) / static_cast<double>(p);
  }

  /// Pool `other`'s counts into these: the one place the fields are summed
  /// (a sharded query's slices, a fabric's switches).
  CacheStats& operator+=(const CacheStats& other) {
    packets += other.packets;
    hits += other.hits;
    initializations += other.initializations;
    evictions += other.evictions;
    flushes += other.flushes;
    return *this;
  }
};

class Cache {
 public:
  using EvictionSink = std::function<void(EvictedValue&&)>;

  /// `hash_seed` decorrelates the bucket-index hash from other structures.
  ///
  /// `bucket_scale` (default 1: no effect) makes this cache a *bucket slice*
  /// of a conceptually larger cache: with scale N, a key whose placement
  /// hash h satisfies floor(h·N / 2^64) == s (i.e. shard s of N) lands in
  /// local bucket reduce_range(h·N mod 2^64, num_buckets) — exactly global
  /// bucket s·num_buckets + local of an (N·num_buckets)-bucket cache. The
  /// threaded executor uses this (through KeyValueStore) so each shard's
  /// cache reproduces its slice of the single-threaded cache bit-for-bit
  /// (same bucket contents, same LRU order, same evictions).
  Cache(CacheGeometry geometry, std::shared_ptr<const FoldKernel> kernel,
        std::uint64_t hash_seed = 0x5eedcafe,
        EvictionPolicy policy = EvictionPolicy::kLru,
        std::uint64_t bucket_scale = 1);

  Cache(const Cache&) = delete;
  Cache& operator=(const Cache&) = delete;

  /// Install the eviction sink (may be empty: evictions are then dropped,
  /// which is only appropriate for pure eviction-rate studies).
  void set_eviction_sink(EvictionSink sink) { sink_ = std::move(sink); }

  /// Fold one record into the entry for `key` (the single per-packet cache
  /// operation of §3.2). Generic over the record representation: the wire
  /// ingest path passes WireRecordView and const-A/h=0 kernels (COUNT, SUM —
  /// the common case) then fold straight off frame bytes; kernels needing
  /// aux state (running product, boundary/history logs) materialize the
  /// record once because those logs store owning records. Instantiated in
  /// cache.cpp for PacketRecord and WireRecordView.
  template <typename Rec>
  void process(const Key& key, const Rec& rec);

  /// Hint that `key` is about to be processed: software-prefetch its bucket's
  /// tag row and slot array. Used by the batched engine path to overlap the
  /// bucket's DRAM fetch with the previous records' folds.
  void prefetch(const Key& key) const;

  /// Write back and clear every resident entry (end-of-window, or the
  /// paper's "keys can be periodically evicted to keep the store fresh").
  /// Entries reach the sink in slot order; then one sweep empties the tag
  /// row, the bucket lists and the n = 1 side index, so afterwards the cache
  /// behaves exactly like a fresh one (the kRandom victim stream aside,
  /// which continues).
  void flush(Nanos now);

  /// Non-destructive read of every resident entry: hand `fn` an EvictedValue
  /// *copy* of each occupied slot (exactly what flush(now) would emit), while
  /// the entries stay resident and untouched — no stats, no LRU movement, no
  /// epoch reset. This is the engines' mid-run snapshot path
  /// (KeyValueStore::merged_backing): merging these copies over a copy of
  /// the backing store with the ordinary exact-merge machinery yields the
  /// table a flush-at-`now` would have produced. Single-threaded like every
  /// other Cache method: the threaded executor runs it on the owning shard
  /// worker.
  void snapshot_into(Nanos now, const EvictionSink& fn) const;

  [[nodiscard]] const CacheStats& stats() const { return stats_; }
  [[nodiscard]] const CacheGeometry& geometry() const { return geometry_; }
  [[nodiscard]] EvictionPolicy policy() const { return policy_; }
  [[nodiscard]] std::size_t occupancy() const { return occupancy_; }

  /// Read a resident entry's accumulator (tests/debugging; the paper notes
  /// the authoritative value lives in the backing store).
  [[nodiscard]] std::optional<StateVector> peek(const Key& key) const;

 private:
  static constexpr std::uint32_t kInvalid = ~std::uint32_t{0};
  /// Tag of an empty slot; real tags avoid this value so a tag mismatch on
  /// an empty slot never needs the occupancy check.
  static constexpr std::uint8_t kEmptyTag = 0xFF;

  /// Aux state for linear kernels; pooled in `aux_` (one entry per slot,
  /// allocated once at construction) so epochs reuse vector capacity and the
  /// common const-A/h=0 case (e.g. Fig. 5's COUNT) allocates nothing at all.
  struct LinearAux {
    SmallMatrix product;
    StateVector state_after_h;
    std::vector<PacketRecord> boundary;  ///< first h records
    std::vector<PacketRecord> history;   ///< last h records (window source)
    std::vector<PacketRecord> scratch;   ///< reused transform window buffer
  };

  /// Residency has exactly one representation: tags_[idx] != kEmptyTag.
  struct Slot {
    Key key;
    StateVector state;
    std::uint64_t packets = 0;
    Nanos first_tin;
    std::uint32_t prev = kInvalid;  ///< intrusive LRU list within the bucket
    std::uint32_t next = kInvalid;
  };

  struct Bucket {
    std::uint32_t mru = kInvalid;  ///< list head (most recently used)
    std::uint32_t lru = kInvalid;  ///< list tail (eviction victim)
    std::uint32_t used = 0;
  };

  /// Bucket-placement hash: kv::placement_hash (key.hpp) of the key's
  /// cached hash under this cache's seed. The threaded executor routes a
  /// key to shard s by the high bits of the same value, so a shard's slice
  /// holds exactly the buckets it would in one cache.
  [[nodiscard]] std::uint64_t bucket_hash(const Key& key) const {
    return placement_hash(key.raw_hash(), hash_seed_, seed_mix_);
  }
  /// With the default scale of 1 this is plain reduce_range; with scale N it
  /// selects this slice's local bucket (see the constructor comment).
  [[nodiscard]] std::uint64_t bucket_of_hash(std::uint64_t h) const {
    return reduce_range(h * bucket_scale_, geometry_.num_buckets);
  }
  /// 8-bit probe tag from hash bits reduce_range() weighs least.
  [[nodiscard]] static std::uint8_t tag_of_hash(std::uint64_t h) {
    const auto tag = static_cast<std::uint8_t>(h >> 24);
    return tag == kEmptyTag ? std::uint8_t{0} : tag;
  }
  /// Probe `key`'s bucket: tag scan + full-key confirm. kInvalid on miss.
  [[nodiscard]] std::uint32_t probe(const Key& key, std::uint64_t bucket,
                                    std::uint8_t tag) const;
  [[nodiscard]] bool slot_occupied(std::uint32_t idx) const {
    return tags_[idx] != kEmptyTag;
  }
  [[nodiscard]] bool needs_aux() const {
    return kernel_->linearity() == Linearity::kLinear ||
           kernel_->history_window() > 0;
  }

  template <typename Rec>
  void fold_record(std::uint32_t slot_idx, const Rec& rec);
  /// The aux-maintenance half of fold_record (running product P, boundary
  /// and history logs). Operates on an eager record: the logs own their
  /// records and transform() takes a PacketRecord window.
  void fold_aux(std::uint32_t slot_idx, const PacketRecord& rec,
                std::uint64_t idx_in_epoch, std::size_t h);
  void unlink(Bucket& bucket, std::uint32_t slot_idx);
  void push_mru(Bucket& bucket, std::uint32_t slot_idx);
  /// Capacity eviction of one slot: emit it and unlink it from its bucket.
  void evict_slot(std::uint32_t slot_idx, Nanos now);
  /// Everything of a slot's EvictedValue EXCEPT the boundary log — the one
  /// field whose ownership differs between the destructive eviction path
  /// (moves it out) and the non-destructive snapshot path (copies it). Both
  /// build on this so they can never drift apart field- or special-case-wise.
  [[nodiscard]] EvictedValue evicted_fields(std::uint32_t slot_idx, Nanos now,
                                            bool final_flush) const;
  [[nodiscard]] EvictedValue make_evicted(std::uint32_t slot_idx, Nanos now,
                                          bool final_flush);

  CacheGeometry geometry_;
  std::shared_ptr<const FoldKernel> kernel_;
  std::uint64_t hash_seed_;
  std::uint64_t seed_mix_;  ///< mix64(hash_seed_), precomputed
  EvictionPolicy policy_;
  StateVector initial_;  ///< kernel_->initial_state(), read once
  std::uint64_t bucket_scale_ = 1;  ///< shard slice scale (see constructor)
  std::uint64_t victim_rng_state_;  ///< xorshift state for kRandom
  /// Slot arena and tag row are mapped straight from the OS
  /// (common/page_alloc.hpp): every page goes back to it when the cache is
  /// freed.
  std::vector<Slot, PageAllocator<Slot>> slots_;  ///< bucket b owns [b*m, (b+1)*m)
  std::vector<std::uint8_t, PageAllocator<std::uint8_t>> tags_;  ///< probe tags
  std::vector<LinearAux> aux_;  ///< parallel to slots_; empty unless needs_aux()
  std::vector<Bucket> buckets_;
  /// Fully-associative geometry (n = 1) only, empty otherwise: exact
  /// key → slot index for cold keys. The single bucket is too large for the
  /// tag scan to stay competitive (the ROADMAP probe-regression item); hot
  /// keys still resolve through the MRU front-probe without touching this.
  std::unordered_map<Key, std::uint32_t> n1_index_;
  std::size_t occupancy_ = 0;
  EvictionSink sink_;
  CacheStats stats_;
};

}  // namespace perfq::kv

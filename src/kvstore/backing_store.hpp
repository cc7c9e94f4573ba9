// The off-chip backing store of the split key-value store (§3.2, Fig. 3).
//
// On every cache eviction the evicted (key, value) arrives here. For folds
// that are linear in state the store *merges* the new value into the existing
// one exactly:
//
//     merged = S_new + P · (replay(S_backing, boundary) − S_h)
//
// where replay() re-applies the epoch's first h boundary records to the
// backing value (h = the kernel's bounded history window; h = 0 folds replay
// nothing and S_h = S_0, giving the paper's EWMA formula
// S_new + (1−α)^N (S_backing − S_0) verbatim). When A is the identity
// (COUNT, SUM and their combinations) P = I and the merge is a per-dimension
// add; other constant-A folds raise the A read at construction to the power
// N − h over the state's own dims×dims block.
//
// For folds that are NOT linear in state no merge function exists (§3.2);
// the store keeps a list of per-epoch value segments for each key and marks
// keys with more than one segment invalid — each segment is still correct
// over its own interval, which is exactly the semantics Fig. 6 evaluates.
//
// Layout: the store absorbs at the cache's eviction rate (§3.3 sizes that
// stream at ~802K evictions/s), so it is two flat arrays rather than a node
// map. Entries (key, value, segments, packets) sit contiguously in
// insertion order and are never erased. An open-addressing index over them
// has power-of-two capacity, linear probing and load at most ½; each index
// slot is one uint64 packing the high 32 bits of the key's probe hash (a tag
// that rejects most foreign slots without touching the entry) and the
// entry's position + 1 (0 marks an empty slot). The probe hash is
// key.hash(kStdHashSeed), mixed from the key's cached hash, so a lookup never
// rehashes key bytes. The index grows by doubling and re-indexing the
// entries; the entry array grows like any std::vector. Every pull presizes
// both before it absorbs a cache's contents (KeyValueStore::flush and
// merged_backing reserve key_count() + the cache's occupancy), so a flush
// of N resident keys grows each at most once instead of ~log2 N times;
// reserve() itself grows at least geometrically, so repeated refresh
// flushes still reallocate only O(log keys) times.
//
// Pointer contract: the pointers lookup() and segments() return (and so
// KeyValueStore::read()) stay valid only until the next absorb() on the same
// store, which may move the entry array. Copy the value out to keep it.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "kvstore/cache.hpp"
#include "kvstore/fold.hpp"
#include "kvstore/key.hpp"

namespace perfq::kv {

/// One per-epoch value of a non-linear fold: correct over [start, end).
struct ValueSegment {
  Nanos start;
  Nanos end;
  StateVector value;
  std::uint64_t packets = 0;
};

/// Validity accounting for non-linear queries (drives Fig. 6).
struct AccuracyStats {
  std::uint64_t total_keys = 0;
  std::uint64_t valid_keys = 0;  ///< exactly one value segment

  [[nodiscard]] double accuracy() const {
    return total_keys == 0
               ? 1.0
               : static_cast<double>(valid_keys) / static_cast<double>(total_keys);
  }

  /// Pool `other`'s keys into these (stores with disjoint keys).
  AccuracyStats& operator+=(const AccuracyStats& other) {
    total_keys += other.total_keys;
    valid_keys += other.valid_keys;
    return *this;
  }
};

/// One key's merged state lifted out of a store — the cross-store federation
/// unit (src/kvstore/federated.hpp). `valid` mirrors for_each(): at most one
/// value segment covers the query window.
struct ExportedEntry {
  Key key;
  StateVector value;
  std::vector<ValueSegment> segments;  ///< non-linear folds only
  std::uint64_t packets = 0;
  bool valid = true;
};

class BackingStore {
 public:
  explicit BackingStore(std::shared_ptr<const FoldKernel> kernel);

  /// Absorb one eviction; merges (linear) or appends a segment (non-linear).
  void absorb(const EvictedValue& ev);

  /// Make room for `keys` keys in all: absorbing new keys up to that total
  /// neither moves the entry array nor re-indexes. Growth is geometric: a
  /// reserve past the current capacity at least doubles it.
  void reserve(std::size_t keys);

  /// Merged value for a key, or nullptr if never evicted. For non-linear
  /// folds this is the latest segment's value (callers should consult
  /// segments()/valid() for windowed semantics). Valid until the next
  /// absorb().
  [[nodiscard]] const StateVector* lookup(const Key& key) const;

  /// Non-linear folds: the per-epoch segments of a key, or nullptr if never
  /// evicted. Valid until the next absorb().
  [[nodiscard]] const std::vector<ValueSegment>* segments(const Key& key) const;

  /// A key is valid when a single value covers the whole query window.
  [[nodiscard]] bool valid(const Key& key) const;

  /// O(1): served from counters absorb() maintains, not an entry scan, so a
  /// telemetry reader can poll it mid-run without touching the entries.
  [[nodiscard]] AccuracyStats accuracy() const {
    return AccuracyStats{key_count_, valid_keys_};
  }

  [[nodiscard]] std::size_t key_count() const { return key_count_; }
  [[nodiscard]] std::uint64_t writes() const { return writes_; }
  [[nodiscard]] std::uint64_t capacity_writes() const { return capacity_writes_; }
  /// Packets merged in so far: how fresh the store is against the cache.
  [[nodiscard]] std::uint64_t packets() const { return packets_; }

  /// Visit (key, merged value, valid) for result collection, each key once,
  /// in the order keys were first absorbed.
  template <typename F>
  void for_each(F&& fn) const {
    for (const Entry& e : entries_) fn(e.key, e.value, e.segments.size() <= 1);
  }

  /// Lift every entry out of the store for federation, in for_each() order.
  /// Consumers must not rely on that order; they sort or re-hash.
  [[nodiscard]] std::vector<ExportedEntry> export_entries() const {
    std::vector<ExportedEntry> out;
    out.reserve(entries_.size());
    for (const Entry& e : entries_) {
      out.push_back(ExportedEntry{e.key, e.value, e.segments, e.packets,
                                  e.segments.size() <= 1});
    }
    return out;
  }

  [[nodiscard]] const FoldKernel& kernel() const { return *kernel_; }

 private:
  struct Entry {
    Key key;
    StateVector value;
    std::vector<ValueSegment> segments;  ///< non-linear folds only
    std::uint64_t packets = 0;
  };

  /// Index slot = (probe hash & kTagMask) | (entry position + 1); 0 = empty.
  static constexpr std::uint64_t kTagMask = ~std::uint64_t{0} << 32;
  static constexpr std::size_t kMinIndex = 16;
  static constexpr std::size_t kNotFound = ~std::size_t{0};

  [[nodiscard]] static std::uint64_t probe_hash(const Key& key) {
    return key.hash(kStdHashSeed);
  }
  /// Position of `key`'s entry, or kNotFound.
  [[nodiscard]] std::size_t find(const Key& key) const;
  /// Position of `key`'s entry, appending an empty one if absent; second is
  /// true when it was appended.
  std::pair<std::size_t, bool> find_or_append(const Key& key);
  /// First empty index slot on the probe sequence of hash `h`.
  [[nodiscard]] std::size_t free_slot(std::uint64_t h) const;
  /// Rebuild the index at `capacity` slots (a power of two) from entries_.
  void reindex(std::size_t capacity);

  /// Re-apply `records` to `state` with the ground-truth update.
  [[nodiscard]] StateVector replay(StateVector state,
                                   const std::vector<PacketRecord>& records) const;

  std::shared_ptr<const FoldKernel> kernel_;
  Linearity linearity_ = Linearity::kNotLinear;
  std::size_t history_ = 0;  ///< kernel's history window h
  SmallMatrix const_a_;      ///< kLinearConstA kernels only
  bool identity_a_ = false;  ///< const A == I: the merge is a per-dim add
  std::vector<Entry> entries_;         ///< insertion order, never erased
  std::vector<std::uint64_t> index_;   ///< open addressing over entries_
  /// Telemetry slots (single writer: whoever calls absorb() — the engines
  /// serialize absorbs per store). key_count_/valid_keys_ mirror the entries
  /// so accuracy()/key_count() never scan or touch entries_, which makes them
  /// safe to read from a metrics thread while absorbs continue.
  obs::RelaxedU64 writes_;
  obs::RelaxedU64 capacity_writes_;
  obs::RelaxedU64 packets_;
  obs::RelaxedU64 key_count_;
  obs::RelaxedU64 valid_keys_;
};

}  // namespace perfq::kv

#include "kvstore/cache.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/error.hpp"

namespace perfq::kv {

Cache::Cache(CacheGeometry geometry, std::shared_ptr<const FoldKernel> kernel,
             std::uint64_t hash_seed, EvictionPolicy policy,
             std::uint64_t bucket_scale)
    : geometry_(geometry),
      kernel_(std::move(kernel)),
      hash_seed_(hash_seed),
      seed_mix_(mix64(hash_seed)),
      policy_(policy),
      bucket_scale_(bucket_scale),
      victim_rng_state_(mix64(hash_seed ^ 0xF00DF00DULL) | 1) {
  if (kernel_ == nullptr) throw ConfigError{"Cache: null kernel"};
  initial_ = kernel_->initial_state();
  if (bucket_scale_ == 0) throw ConfigError{"Cache: zero bucket scale"};
  const std::uint64_t total = geometry_.total_slots();
  if (total == 0) throw ConfigError{"Cache: zero slots"};
  if (total > std::numeric_limits<std::uint32_t>::max() - 1) {
    throw ConfigError{"Cache: too many slots for 32-bit slot indices"};
  }
  slots_.resize(total);
  tags_.assign(total, kEmptyTag);
  buckets_.resize(geometry_.num_buckets);
  if (needs_aux()) {
    // Pooled aux arena: one entry per slot, allocated once here. Epochs
    // reuse the vectors' capacity; process() never allocates per slot.
    aux_.resize(total);
    for (auto& aux : aux_) {
      aux.product = SmallMatrix::identity(kernel_->state_dims());
    }
  }
}

std::uint32_t Cache::probe(const Key& key, std::uint64_t bucket,
                           std::uint8_t tag) const {
  // Fully-associative geometry (n = 1): the tag row is one huge bucket, so a
  // linear scan's expected cost is half the occupancy even on a hit. Probe a
  // few slots in MRU order first — under any skewed workload the hot keys
  // sit at the front of the recency list and resolve in a handful of pointer
  // hops — then fall back to the exact side index for cold keys and misses.
  if (geometry_.num_buckets == 1) {
    constexpr int kMruProbeDepth = 16;
    std::uint32_t idx = buckets_[0].mru;
    for (int d = 0; d < kMruProbeDepth && idx != kInvalid; ++d) {
      if (tags_[idx] == tag && slots_[idx].key == key) return idx;
      idx = slots_[idx].next;
    }
    const auto it = n1_index_.find(key);
    return it == n1_index_.end() ? kInvalid : it->second;
  }

  // Tag scan rejects empty slots (kEmptyTag) and ~255/256 of occupied
  // non-matches without touching the slot array. memchr vectorizes the scan,
  // which matters for the fully-associative geometry (one huge bucket).
  const std::uint64_t base = bucket * geometry_.associativity;
  const std::uint8_t* tag_row = tags_.data() + base;
  std::uint32_t s = 0;
  while (s < geometry_.associativity) {
    const void* found =
        std::memchr(tag_row + s, tag, geometry_.associativity - s);
    if (found == nullptr) return kInvalid;
    s = static_cast<std::uint32_t>(static_cast<const std::uint8_t*>(found) -
                                   tag_row);
    const auto idx = static_cast<std::uint32_t>(base + s);
    if (slots_[idx].key == key) return idx;
    ++s;
  }
  return kInvalid;
}

void Cache::prefetch(const Key& key) const {
  if (geometry_.num_buckets == 1) {
    // The n = 1 probe walks the MRU chain / side index, not the tag row;
    // only the bucket header (mru head) is guaranteed useful — and no
    // bucket hash is needed to find it.
    __builtin_prefetch(buckets_.data());
    return;
  }
  const std::uint64_t b = bucket_of_hash(bucket_hash(key));
  const std::uint64_t base = b * geometry_.associativity;
  __builtin_prefetch(tags_.data() + base);
  __builtin_prefetch(buckets_.data() + b);
  // The slot array of one bucket spans several cache lines and the probe's
  // landing slot is unknown until the tag row is read, so touch every line
  // of the bucket (capped: beyond a few lines the prefetches cost more than
  // the misses they hide, and huge fully-associative buckets would thrash).
  constexpr std::uint64_t kMaxLines = 8;
  const auto* first = reinterpret_cast<const char*>(slots_.data() + base);
  const auto* last =
      reinterpret_cast<const char*>(slots_.data() + base +
                                    geometry_.associativity);
  const auto span = static_cast<std::uint64_t>(last - first);
  const std::uint64_t lines = std::min(kMaxLines, (span + 63) / 64);
  for (std::uint64_t l = 0; l < lines; ++l) {
    __builtin_prefetch(first + l * 64);
  }
}

template <typename Rec>
void Cache::process(const Key& key, const Rec& rec) {
  ++stats_.packets;
  const std::uint64_t h = bucket_hash(key);
  const std::uint64_t b = bucket_of_hash(h);
  const std::uint8_t tag = tag_of_hash(h);
  Bucket& bucket = buckets_[b];

  if (const std::uint32_t idx = probe(key, b, tag); idx != kInvalid) {
    // Hit: one *update* operation.
    ++stats_.hits;
    fold_record(idx, rec);
    if (policy_ == EvictionPolicy::kLru && bucket.mru != idx) {
      // Touch-on-hit: only LRU reorders; FIFO/random keep insertion order.
      unlink(bucket, idx);
      push_mru(bucket, idx);
    }
    return;
  }

  // Miss: one *initialize* operation, possibly preceded by an eviction.
  ++stats_.initializations;
  std::uint32_t idx;
  const std::uint64_t base = b * geometry_.associativity;
  if (bucket.used < geometry_.associativity) {
    // Free slot exists: scan the bucket's tag row for an empty entry.
    // (Buckets only fill at startup; once warm this path is rare.)
    const void* found =
        std::memchr(tags_.data() + base, kEmptyTag, geometry_.associativity);
    check(found != nullptr, "Cache: bucket.used inconsistent with slots");
    idx = static_cast<std::uint32_t>(static_cast<const std::uint8_t*>(found) -
                                     tags_.data());
  } else {
    // Bucket full: pick the policy's victim and reuse its slot.
    if (policy_ == EvictionPolicy::kRandom) {
      // xorshift64*: cheap, deterministic, seeded per cache.
      victim_rng_state_ ^= victim_rng_state_ >> 12;
      victim_rng_state_ ^= victim_rng_state_ << 25;
      victim_rng_state_ ^= victim_rng_state_ >> 27;
      const std::uint64_t r = victim_rng_state_ * 0x2545F4914F6CDD1DULL;
      idx = static_cast<std::uint32_t>(base +
                                       reduce_range(r, geometry_.associativity));
    } else {
      // LRU and FIFO both evict the list tail; FIFO never reorders on hits,
      // so its tail is the oldest insertion (Fig. 4's layout either way).
      idx = bucket.lru;
    }
    check(idx != kInvalid, "Cache: full bucket with empty LRU list");
    evict_slot(idx, rec.tin);
    ++stats_.evictions;
  }

  Slot& slot = slots_[idx];
  slot.key = key;
  slot.state = initial_;
  slot.packets = 0;
  slot.first_tin = rec.tin;
  tags_[idx] = tag;
  if (geometry_.num_buckets == 1) n1_index_.emplace(key, idx);
  ++occupancy_;
  if (!aux_.empty()) {
    LinearAux& aux = aux_[idx];
    aux.product = SmallMatrix::identity(kernel_->state_dims());
    aux.state_after_h = StateVector{};
    aux.boundary.clear();
    aux.history.clear();
  }
  fold_record(idx, rec);
  push_mru(bucket, idx);
  ++bucket.used;
}

void Cache::fold_aux(std::uint32_t slot_idx, const PacketRecord& rec,
                     std::uint64_t idx_in_epoch, std::size_t h) {
  LinearAux& aux = aux_[slot_idx];
  if (idx_in_epoch < h) {
    // Boundary packet: the merge replays these raw records, so log them.
    aux.boundary.push_back(rec);
  } else if (kernel_->linearity() == Linearity::kLinear) {
    // Interior packet of a varying-A fold: compose this packet's transform
    // into the running product P (window = last h records + current).
    if (h == 0) {
      // Common case (e.g. EWMA): window is just the current record —
      // no window buffer needed at all.
      const AffineTransform t = kernel_->transform({&rec, 1});
      aux.product.left_multiply(t.a);
    } else {
      aux.scratch.assign(aux.history.begin(), aux.history.end());
      aux.scratch.push_back(rec);
      const AffineTransform t = kernel_->transform(aux.scratch);
      aux.product.left_multiply(t.a);
    }
  }
  // Maintain the last-h window.
  if (h > 0) {
    aux.history.push_back(rec);
    if (aux.history.size() > h) aux.history.erase(aux.history.begin());
  }
}

template <typename Rec>
void Cache::fold_record(std::uint32_t slot_idx, const Rec& rec) {
  Slot& slot = slots_[slot_idx];
  const std::size_t h = kernel_->history_window();

  if (!aux_.empty()) {
    // Aux maintenance stores owning records (boundary/history logs) and
    // evaluates transform() over PacketRecord windows, so a wire view
    // materializes exactly once here; the aux-free common case (const-A,
    // h = 0 — COUNT, SUM) never builds a PacketRecord at all.
    fold_aux(slot_idx, materialized(rec), slot.packets, h);
  }

  kernel_->update(slot.state, rec);
  ++slot.packets;

  if (!aux_.empty() && slot.packets == h) {
    aux_[slot_idx].state_after_h = slot.state;  // snapshot S_h
  }
}

void Cache::unlink(Bucket& bucket, std::uint32_t slot_idx) {
  Slot& slot = slots_[slot_idx];
  if (slot.prev != kInvalid) {
    slots_[slot.prev].next = slot.next;
  } else {
    bucket.mru = slot.next;
  }
  if (slot.next != kInvalid) {
    slots_[slot.next].prev = slot.prev;
  } else {
    bucket.lru = slot.prev;
  }
  slot.prev = kInvalid;
  slot.next = kInvalid;
}

void Cache::push_mru(Bucket& bucket, std::uint32_t slot_idx) {
  Slot& slot = slots_[slot_idx];
  slot.prev = kInvalid;
  slot.next = bucket.mru;
  if (bucket.mru != kInvalid) slots_[bucket.mru].prev = slot_idx;
  bucket.mru = slot_idx;
  if (bucket.lru == kInvalid) bucket.lru = slot_idx;
}

EvictedValue Cache::evicted_fields(std::uint32_t slot_idx, Nanos now,
                                   bool final_flush) const {
  const Slot& slot = slots_[slot_idx];
  // S_h is S_0 unless the fold reads history (h > 0).
  EvictedValue ev{.key = slot.key,
                  .state = slot.state,
                  .product = std::nullopt,
                  .packets = slot.packets,
                  .state_after_h = kernel_->history_window() == 0
                                       ? initial_
                                       : aux_[slot_idx].state_after_h,
                  .boundary = {},
                  .first_tin = slot.first_tin,
                  .evict_time = now,
                  .final_flush = final_flush};
  // Only a kLinear merge reads the running product.
  if (kernel_->linearity() == Linearity::kLinear) {
    ev.product = aux_[slot_idx].product;
  }
  return ev;
}

EvictedValue Cache::make_evicted(std::uint32_t slot_idx, Nanos now,
                                 bool final_flush) {
  EvictedValue ev = evicted_fields(slot_idx, now, final_flush);
  if (!aux_.empty()) {
    // Move the boundary log out (evictions own their records); the next
    // epoch starts from a cleared vector either way.
    LinearAux& aux = aux_[slot_idx];
    ev.boundary = std::move(aux.boundary);
    aux.boundary.clear();
  }
  return ev;
}

void Cache::snapshot_into(Nanos now, const EvictionSink& fn) const {
  // Same EvictedValue a flush(now) would emit (evicted_fields is shared with
  // the real eviction path), but the boundary log is COPIED rather than
  // moved: the slot keeps folding afterwards, so the next real eviction
  // still owns its records. Cold path by design (a monitoring read), so the
  // copy is fine.
  for (std::uint32_t idx = 0; idx < slots_.size(); ++idx) {
    if (!slot_occupied(idx)) continue;
    EvictedValue ev = evicted_fields(idx, now, /*final_flush=*/true);
    if (!aux_.empty()) ev.boundary = aux_[idx].boundary;
    fn(std::move(ev));
  }
}

void Cache::evict_slot(std::uint32_t slot_idx, Nanos now) {
  check(slot_occupied(slot_idx), "Cache: evicting empty slot");
  EvictedValue ev = make_evicted(slot_idx, now, /*final_flush=*/false);
  if (geometry_.num_buckets == 1) n1_index_.erase(slots_[slot_idx].key);
  const std::uint64_t b = slot_idx / geometry_.associativity;
  unlink(buckets_[b], slot_idx);
  --buckets_[b].used;
  tags_[slot_idx] = kEmptyTag;
  --occupancy_;
  if (sink_) sink_(std::move(ev));
}

void Cache::flush(Nanos now) {
  if (occupancy_ == 0) return;
  // Emit in slot order, leaving the slots to the sweep below: nothing reads
  // an emptied slot's list links or key before the next initialize rewrites
  // them.
  std::uint64_t flushed = 0;
  for (std::uint32_t idx = 0; idx < slots_.size() && flushed < occupancy_;
       ++idx) {
    if (!slot_occupied(idx)) continue;
    EvictedValue ev = make_evicted(idx, now, /*final_flush=*/true);
    ++flushed;
    if (sink_) sink_(std::move(ev));
  }
  std::fill(tags_.begin(), tags_.end(), kEmptyTag);
  std::fill(buckets_.begin(), buckets_.end(), Bucket{});
  n1_index_.clear();
  occupancy_ = 0;
  stats_.flushes += flushed;
}

// The two record representations the engines drive the cache with. Kept as
// explicit instantiations (rather than header definitions) so process()'s
// body stays out of every includer and the hot path keeps one home.
template void Cache::process<PacketRecord>(const Key&, const PacketRecord&);
template void Cache::process<WireRecordView>(const Key&, const WireRecordView&);

std::optional<StateVector> Cache::peek(const Key& key) const {
  const std::uint64_t h = bucket_hash(key);
  const std::uint32_t idx = probe(key, bucket_of_hash(h), tag_of_hash(h));
  if (idx == kInvalid) return std::nullopt;
  return slots_[idx].state;
}

}  // namespace perfq::kv

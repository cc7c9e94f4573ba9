#include "kvstore/backing_store.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/error.hpp"

namespace perfq::kv {

BackingStore::BackingStore(std::shared_ptr<const FoldKernel> kernel)
    : kernel_(std::move(kernel)), index_(kMinIndex, 0) {
  if (kernel_ == nullptr) throw ConfigError{"BackingStore: null kernel"};
  linearity_ = kernel_->linearity();
  history_ = kernel_->history_window();
  if (linearity_ == Linearity::kLinearConstA) {
    const_a_ = kernel_->constant_a();
    identity_a_ = const_a_ == SmallMatrix::identity(const_a_.dims());
  }
}

std::size_t BackingStore::find(const Key& key) const {
  const std::uint64_t h = probe_hash(key);
  const std::uint64_t tag = h & kTagMask;
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = h & mask;; i = (i + 1) & mask) {
    const std::uint64_t slot = index_[i];
    if (slot == 0) return kNotFound;
    if ((slot & kTagMask) == tag) {
      const std::size_t pos = (slot & ~kTagMask) - 1;
      if (entries_[pos].key == key) return pos;
    }
  }
}

std::size_t BackingStore::free_slot(std::uint64_t h) const {
  const std::size_t mask = index_.size() - 1;
  std::size_t i = h & mask;
  while (index_[i] != 0) i = (i + 1) & mask;
  return i;
}

std::pair<std::size_t, bool> BackingStore::find_or_append(const Key& key) {
  if (const std::size_t pos = find(key); pos != kNotFound) return {pos, false};
  // Absent: append, keeping the index at most half full.
  if (2 * (entries_.size() + 1) > index_.size()) reindex(2 * index_.size());
  const std::size_t pos = entries_.size();
  check(pos < std::numeric_limits<std::uint32_t>::max(),
        "BackingStore: too many keys for 32-bit entry positions");
  const std::uint64_t h = probe_hash(key);
  index_[free_slot(h)] = (h & kTagMask) | (pos + 1);
  entries_.push_back(Entry{key, StateVector{}, {}, 0});
  return {pos, true};
}

void BackingStore::reindex(std::size_t capacity) {
  index_.assign(capacity, 0);
  for (std::size_t pos = 0; pos < entries_.size(); ++pos) {
    const std::uint64_t h = probe_hash(entries_[pos].key);
    index_[free_slot(h)] = (h & kTagMask) | (pos + 1);
  }
}

void BackingStore::reserve(std::size_t keys) {
  if (keys > entries_.capacity()) {
    entries_.reserve(std::max(keys, 2 * entries_.capacity()));
  }
  const std::size_t capacity = std::bit_ceil(std::max(kMinIndex, 2 * keys));
  if (capacity > index_.size()) reindex(capacity);
}

StateVector BackingStore::replay(StateVector state,
                                 const std::vector<PacketRecord>& records) const {
  for (const PacketRecord& rec : records) kernel_->update(state, rec);
  return state;
}

void BackingStore::absorb(const EvictedValue& ev) {
  ++writes_;
  if (!ev.final_flush) ++capacity_writes_;
  packets_ += ev.packets;

  const auto [pos, inserted] = find_or_append(ev.key);
  Entry& entry = entries_[pos];
  if (inserted) ++key_count_;

  if (linearity_ == Linearity::kNotLinear) {
    // §3.2 "Operations that are not linear in state": keep one value per
    // epoch; >1 segment ⇒ invalid over the full window. The valid_keys_
    // mirror tracks the 1 → 2 segment flip so accuracy() stays O(1).
    entry.segments.push_back(
        ValueSegment{ev.first_tin, ev.evict_time, ev.state, ev.packets});
    if (entry.segments.size() == 1) {
      ++valid_keys_;
    } else if (entry.segments.size() == 2) {
      valid_keys_.sub(1);
    }
    entry.value = ev.state;
    entry.packets += ev.packets;
    return;
  }
  if (inserted) ++valid_keys_;  // linear merge is exact: every key valid

  entry.packets += ev.packets;
  if (inserted) {
    // First epoch for this key: the cache folded from the true initial state,
    // so the evicted value is already exact.
    entry.value = ev.state;
    return;
  }

  if (ev.packets <= history_) {
    // The whole epoch sits inside the boundary window: replay it outright.
    check(ev.boundary.size() == ev.packets,
          "BackingStore: boundary/packet count mismatch");
    entry.value = replay(entry.value, ev.boundary);
    return;
  }

  // General exact merge. The replay is what S_h would have been had the
  // epoch started from the true backing value instead of S_0.
  check(ev.boundary.size() == history_, "BackingStore: expected h boundary records");
  const StateVector delta = replay(entry.value, ev.boundary) - ev.state_after_h;
  if (identity_a_) {
    entry.value = ev.state + delta;  // P = I^(N−h) = I
  } else if (linearity_ == Linearity::kLinearConstA) {
    entry.value = ev.state + const_a_.power(ev.packets - history_).apply(delta);
  } else {
    check(ev.product.has_value(), "BackingStore: kLinear eviction without P");
    entry.value = ev.state + ev.product->apply(delta);
  }
}

const StateVector* BackingStore::lookup(const Key& key) const {
  const std::size_t pos = find(key);
  return pos == kNotFound ? nullptr : &entries_[pos].value;
}

const std::vector<ValueSegment>* BackingStore::segments(const Key& key) const {
  const std::size_t pos = find(key);
  return pos == kNotFound ? nullptr : &entries_[pos].segments;
}

bool BackingStore::valid(const Key& key) const {
  const std::size_t pos = find(key);
  if (pos == kNotFound) return false;
  return linearity_ != Linearity::kNotLinear || entries_[pos].segments.size() <= 1;
}

}  // namespace perfq::kv

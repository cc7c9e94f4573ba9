#include "kvstore/sharded_backing_store.hpp"

#include "common/error.hpp"

namespace perfq::kv {

ShardedBackingStore::ShardedBackingStore(
    std::shared_ptr<const FoldKernel> kernel, std::size_t num_shards)
    : kernel_(std::move(kernel)) {
  if (kernel_ == nullptr) throw ConfigError{"ShardedBackingStore: null kernel"};
  if (num_shards == 0) throw ConfigError{"ShardedBackingStore: zero shards"};
  subs_.reserve(num_shards);
  for (std::size_t i = 0; i < num_shards; ++i) {
    subs_.push_back(std::make_unique<Sub>(kernel_));
  }
}

std::unique_ptr<ShardedBackingStore> ShardedBackingStore::clone() const {
  auto copy = std::make_unique<ShardedBackingStore>(kernel_, subs_.size());
  for (std::size_t i = 0; i < subs_.size(); ++i) {
    const std::lock_guard<std::mutex> lock(subs_[i]->mu);
    copy->subs_[i]->store = subs_[i]->store;  // BackingStore is copyable
  }
  return copy;
}

void ShardedBackingStore::absorb(const EvictedValue& ev) {
  Sub& sub = sub_of(ev.key);
  const std::lock_guard<std::mutex> lock(sub.mu);
  sub.store.absorb(ev);
}

std::optional<StateVector> ShardedBackingStore::read(const Key& key) const {
  const Sub& sub = sub_of(key);
  const std::lock_guard<std::mutex> lock(sub.mu);
  const StateVector* v = sub.store.lookup(key);
  if (v == nullptr) return std::nullopt;
  return *v;
}

std::vector<ValueSegment> ShardedBackingStore::segments(const Key& key) const {
  const Sub& sub = sub_of(key);
  const std::lock_guard<std::mutex> lock(sub.mu);
  const std::vector<ValueSegment>* segs = sub.store.segments(key);
  if (segs == nullptr) return {};
  return *segs;
}

bool ShardedBackingStore::valid(const Key& key) const {
  const Sub& sub = sub_of(key);
  const std::lock_guard<std::mutex> lock(sub.mu);
  return sub.store.valid(key);
}

AccuracyStats ShardedBackingStore::accuracy() const {
  AccuracyStats total;
  for (const auto& sub : subs_) {
    const std::lock_guard<std::mutex> lock(sub->mu);
    const AccuracyStats s = sub->store.accuracy();
    total.total_keys += s.total_keys;
    total.valid_keys += s.valid_keys;
  }
  return total;
}

}  // namespace perfq::kv

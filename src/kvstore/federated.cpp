#include "kvstore/federated.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace perfq::kv {

MergeCapability merge_capability(const FoldKernel& kernel) {
  if (kernel.linearity() == Linearity::kLinearConstA &&
      kernel.history_window() == 0 &&
      kernel.constant_a() == SmallMatrix::identity(kernel.state_dims())) {
    return MergeCapability::kAdditive;
  }
  return MergeCapability::kSingleSource;
}

FederatedStore::FederatedStore(std::shared_ptr<const FoldKernel> kernel)
    : kernel_(std::move(kernel)),
      capability_(merge_capability(*kernel_)),
      s0_(kernel_->initial_state()) {}

void FederatedStore::absorb(std::uint32_t source, const StoreExport& exported) {
  for (const ExportedEntry& e : exported.entries) {
    auto& contribs = entries_[e.key];
    // Keep contributions sorted ascending by source id; replace in place on
    // a re-export of the same source.
    auto it = std::lower_bound(
        contribs.begin(), contribs.end(), source,
        [](const Contribution& c, std::uint32_t s) { return c.source < s; });
    if (it == contribs.end() || it->source != source) {
      it = contribs.insert(it, Contribution{});
    }
    *it = Contribution{source,     e.value, e.segments,
                       e.packets, exported.time, e.valid};
  }
  if (auto [it, inserted] = sources_.try_emplace(source, exported.records);
      !inserted) {
    records_ -= it->second;
    it->second = exported.records;
  }
  records_ += exported.records;
  if (exported.time > time_) time_ = exported.time;
}

FederatedStore::Reduced FederatedStore::reduce(
    const std::vector<Contribution>& contribs) const {
  check(!contribs.empty(), "FederatedStore: empty contribution list");
  switch (capability_) {
    case MergeCapability::kAdditive: {
      StateVector v = s0_;
      bool valid = true;
      for (const Contribution& c : contribs) {
        v += c.value - s0_;
        valid = valid && c.valid;
      }
      return Reduced{v, valid};
    }
    case MergeCapability::kSingleSource: {
      if (contribs.size() == 1) {
        return Reduced{contribs.front().value, contribs.front().valid};
      }
      // Multi-source: no exact merge exists. Mirror BackingStore's
      // non-linear convention — expose the latest (highest-source) value,
      // marked invalid; segments() carries the per-source pieces.
      return Reduced{contribs.back().value, false};
    }
  }
  throw InternalError{"FederatedStore: unknown merge capability"};
}

std::optional<StateVector> FederatedStore::read(const Key& key) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  return reduce(it->second).value;
}

std::vector<ValueSegment> FederatedStore::segments(const Key& key) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return {};
  const auto& contribs = it->second;
  if (capability_ != MergeCapability::kSingleSource) return {};
  if (contribs.size() == 1) return contribs.front().segments;
  std::vector<ValueSegment> out;
  for (const Contribution& c : contribs) {
    if (!c.segments.empty()) {
      out.insert(out.end(), c.segments.begin(), c.segments.end());
    } else {
      // Linear fold: the source's whole stream is one exact piece; cover it
      // with a synthesized segment ending at the source's export stamp.
      out.push_back(ValueSegment{Nanos{0}, c.time, c.value, c.packets});
    }
  }
  return out;
}

bool FederatedStore::valid(const Key& key) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  return reduce(it->second).valid;
}

AccuracyStats FederatedStore::accuracy() const {
  AccuracyStats stats;
  stats.total_keys = entries_.size();
  for (const auto& [key, contribs] : entries_) {
    if (reduce(contribs).valid) ++stats.valid_keys;
  }
  return stats;
}

}  // namespace perfq::kv

// The fold hot path shared by both executors of runtime::Engine: the key
// classes and the per-member fold. The engine hands an executor records
// that already passed the wire front, in order, with each refresh boundary
// between them and a callback for its stream stage (engine.cpp). The
// inline executor runs both parts on the caller; the threaded executor
// runs the key classes on the caller, to route, and the folds on its shard
// workers.
//
// Key classes: live queries whose plans have the same key identity
// (compiler::same_key) pack bit-identical keys for every record, so a
// record's key is extracted and hashed once per class, not once per query
// (§3.3's one hash per packet). A class evaluates its members' prefilters
// into one member mask per record, and every member the mask names folds
// the record under the class key.
//
// The batched path is a chunked two-pass loop:
//   pass 1  per class: the member mask, the key (its hash computed once)
//           and a software prefetch of each admitting member's cache bucket;
//   pass 2  per record, in order: each masked member's cache operation.
// so the bucket fetch of record i+k overlaps the fold of record i. The
// threaded executor splits the passes across threads: its caller computes
// the mask and the hash (it routes by the hash), and the worker rebuilds
// the key from the shipped hash, prefetches and folds.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/failpoint.hpp"
#include "compiler/program.hpp"
#include "kvstore/kvstore.hpp"

namespace perfq::runtime {

/// Records per prefetch chunk, and per chunk of wire views the engine
/// hands an executor: large enough to hide bucket fetch latency, small
/// enough that prefetched lines (and the frames' header bytes) survive
/// until their fold.
inline constexpr std::size_t kFoldChunk = 32;

/// The live on-switch GROUPBYs grouped by key identity. Both executors
/// rebuild it on every install and remove, which run with nothing in flight.
/// Queries join in slot order, each the first class with its key identity
/// and room left, so a tenant whose key is resident joins that class. A
/// class holds at most kMaxMembers queries, so a 32-bit mask names any
/// subset of its members.
class KeyClasses {
 public:
  static constexpr std::size_t kMaxMembers = 32;

  struct Class {
    /// Member b (bit b of a member mask): its registry slot and its plan.
    std::vector<std::size_t> slots;
    std::vector<const compiler::SwitchQueryPlan*> plans;

    /// The plan that extracts the class key; every member's packs the same.
    [[nodiscard]] const compiler::SwitchQueryPlan& key_plan() const {
      return *plans.front();
    }

    /// The members whose prefilter admits `rec`, as a mask. Generic over
    /// the record representation (PacketRecord or lazy WireRecordView):
    /// both read fields through the field_value overload set, so masks and
    /// keys are bit-identical across representations.
    template <typename Rec>
    [[nodiscard]] std::uint32_t admitted(const Rec& rec) const {
      const auto source = compiler::record_source(rec);
      std::uint32_t mask = 0;
      for (std::size_t b = 0; b < plans.size(); ++b) {
        const auto& prefilter = plans[b]->prefilter;
        if (!prefilter.has_value() || prefilter->eval_bool(source)) {
          mask |= std::uint32_t{1} << b;
        }
      }
      return mask;
    }
  };

  /// Regroup the live queries: `plans[slot]` is slot's plan, null if free.
  void rebuild(std::span<const compiler::SwitchQueryPlan* const> plans) {
    std::vector<Class> next;
    for (std::size_t slot = 0; slot < plans.size(); ++slot) {
      if (plans[slot] == nullptr) continue;
      auto it = std::find_if(next.begin(), next.end(), [&](const Class& c) {
        return c.plans.size() < kMaxMembers &&
               compiler::same_key(c.key_plan(), *plans[slot]);
      });
      if (it == next.end()) it = next.insert(next.end(), Class{});
      it->slots.push_back(slot);
      it->plans.push_back(plans[slot]);
    }
    classes_ = std::move(next);
  }

  [[nodiscard]] const std::vector<Class>& classes() const { return classes_; }

 private:
  std::vector<Class> classes_;
};

/// Call `fn(b)` for every member bit b set in `mask`, lowest first.
template <typename Fn>
void for_each_member(std::uint32_t mask, Fn&& fn) {
  for (; mask != 0; mask &= mask - 1) {
    fn(static_cast<std::size_t>(std::countr_zero(mask)));
  }
}

/// Pass 2 for one class member: fold `rec` into the member's store under
/// the key its class extracted. Pass 1 prefetched `store.prefetch(key)`.
template <typename Rec>
void fold_member(kv::KeyValueStore& store, const kv::Key& key,
                 const Rec& rec) {
  PERFQ_FAILPOINT("fold_core.fold");
  store.process(key, rec);
}

}  // namespace perfq::runtime

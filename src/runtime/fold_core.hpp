// The fold hot path shared by both executors of runtime::Engine: the key
// classes, the per-member fold, the refresh clock and the wire front. The
// inline executor runs all of them on the caller; the threaded executor
// runs the key classes, the clock and the wire front on the caller and the
// folds on its shard workers.
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
#include "obs/metrics.hpp"
#include "packet/wire.hpp"
#include "packet/wire_view.hpp"
#include "trace/ingest_stats.hpp"

namespace perfq::runtime {

/// Periodic refresh boundaries (§3.2), detected once in global record
/// order: a refresh fires before the first record whose tin reaches one
/// interval past the previous refresh (the first interval starts at the
/// engine's first record).
class RefreshClock {
 public:
  explicit RefreshClock(Nanos interval) : interval_(interval) {}

  [[nodiscard]] bool enabled() const { return interval_ > Nanos{0}; }

  /// Whether a refresh fires before the record stamped `tin` (call once per
  /// record, in order, and only when enabled()).
  bool due(Nanos tin) {
    if (next_ == Nanos{0}) next_ = tin + interval_;
    if (tin < next_) return false;
    next_ = tin + interval_;
    ++count_;
    return true;
  }

  /// Refreshes fired so far; readable from any thread.
  [[nodiscard]] std::uint64_t count() const { return count_; }

 private:
  Nanos interval_;
  Nanos next_{0};
  obs::RelaxedU64 count_;
};

/// Records per prefetch chunk: large enough to hide bucket fetch latency,
/// small enough that prefetched lines survive until their fold.
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

/// The wire front: validate each frame (damaged ones are skipped and
/// counted into `stats`, never thrown on) and hand each survivor, in order,
/// to `on_frame` as a lazy view while its header bytes are still hot.
template <typename OnFrame>
void for_each_valid_frame(std::span<const FrameObservation> frames,
                          bool verify_checksums, trace::IngestStats& stats,
                          OnFrame&& on_frame) {
  for (const FrameObservation& frame : frames) {
    wire::ParseError err{};
    if (wire::check_frame(frame.bytes, &err, verify_checksums) == 0) {
      trace::count_parse_error(stats, err);
      continue;
    }
    ++stats.parsed;
    on_frame(wire_record_view(frame));
  }
}

}  // namespace perfq::runtime

// Ablation & baseline comparison (supports §1/§5's positioning and DESIGN.md
// design decision 1):
//
//   1. split store WITH the linear-in-state merge  -> exact counts
//   2. split store WITHOUT merge (erase-on-evict, keep latest epoch only)
//      -> undercounts, the failure mode the merge exists to fix
//   3. Count-Min sketch at the same memory          -> overcounts
//   4. 1-in-N sampled NetFlow                       -> misses mice flows
//   5. exact unbounded table                        -> correct but needs
//      hundreds of Mbit on-chip (the infeasible strawman of §4)
//
// Error metric: mean absolute relative error of per-flow packet counts,
// plus flow coverage. Everything runs at identical SRAM budgets.
#include <cmath>
#include <cstdio>
#include <memory>
#include <unordered_map>
#include <utility>

#include "baselines/cms.hpp"
#include "baselines/netflow.hpp"
#include "bench_util.hpp"
#include "common/table.hpp"
#include "kvstore/kvstore.hpp"
#include "trace/flow_session.hpp"

namespace {

using namespace perfq;

/// A linear kernel that *pretends* to be non-linear: the backing store then
/// refuses to merge and keeps only per-epoch segments — exactly what a split
/// design without §3.2's merge machinery would report.
class NoMergeKernel final : public kv::FoldKernel {
 public:
  explicit NoMergeKernel(std::shared_ptr<const kv::FoldKernel> fold)
      : fold_(std::move(fold)) {}
  [[nodiscard]] std::string name() const override {
    return fold_->name() + "-no-merge";
  }
  [[nodiscard]] std::size_t state_dims() const override {
    return fold_->state_dims();
  }
  [[nodiscard]] kv::StateVector initial_state() const override {
    return fold_->initial_state();
  }
  void update(kv::StateVector& state, const PacketRecord& rec) const override {
    fold_->update(state, rec);
  }
  [[nodiscard]] kv::Linearity linearity() const override {
    return kv::Linearity::kNotLinear;
  }

 private:
  std::shared_ptr<const kv::FoldKernel> fold_;
};

struct ErrorStats {
  double mean_rel_error = 0.0;
  double covered_fraction = 0.0;  ///< flows with a nonzero estimate
};

template <typename EstimateFn>
ErrorStats score(const std::unordered_map<FiveTuple, std::uint64_t>& truth,
                 EstimateFn&& estimate) {
  double err = 0.0;
  std::uint64_t covered = 0;
  for (const auto& [flow, count] : truth) {
    const double est = estimate(flow);
    if (est > 0.0) ++covered;
    err += std::abs(est - static_cast<double>(count)) /
           static_cast<double>(count);
  }
  ErrorStats out;
  out.mean_rel_error = err / static_cast<double>(truth.size());
  out.covered_fraction =
      static_cast<double>(covered) / static_cast<double>(truth.size());
  return out;
}

}  // namespace

int main() {
  using kv::Key;
  const double scale = bench::scale_from_env(1.0 / 128.0);
  const trace::TraceConfig config = bench::scaled_caida(scale);
  bench::print_scale_banner(
      "Baseline comparison: per-flow counts at equal SRAM budget", scale,
      config);

  // SRAM budget: pairs such that the cache is ~10% of flows (the interesting
  // contention regime, like the paper's 32 Mbit vs 3.8M flows).
  auto pairs = static_cast<std::uint64_t>(
      static_cast<double>(config.num_flows) * 0.10);
  pairs = std::max<std::uint64_t>(pairs - pairs % 8, 8);
  const double budget_mbits = kv::mbits_for_pairs(pairs, 128);

  const auto kernel = bench::compiled_kernel("SELECT COUNT GROUPBY 5tuple");
  kv::KeyValueStore with_merge(kv::CacheGeometry::set_associative(pairs, 8),
                               kernel);
  // Ablation: same cache and fold, but the backing store only keeps the
  // newest epoch (what you get without the linear-in-state merge).
  kv::KeyValueStore no_merge(kv::CacheGeometry::set_associative(pairs, 8),
                             std::make_shared<NoMergeKernel>(kernel));
  // CMS sized to the same bit budget (32-bit counters).
  const auto cms_counters =
      static_cast<std::size_t>(budget_mbits * 1024.0 * 1024.0 / 32.0);
  baselines::CountMinSketch sketch(4, std::max<std::size_t>(cms_counters / 4, 16),
                                   77, /*conservative=*/true);
  baselines::SampledFlowTable sampled(100, 7);
  baselines::ExactFlowTable exact;

  std::unordered_map<FiveTuple, std::uint64_t> truth;
  trace::FlowSessionGenerator gen(config);
  while (auto rec = gen.next()) {
    const auto bytes = rec->pkt.flow.to_bytes();
    const Key key{std::span<const std::byte>{bytes.data(), bytes.size()}};
    with_merge.process(key, *rec);
    no_merge.process(key, *rec);
    sketch.add(rec->pkt.flow);
    sampled.process(*rec);
    exact.process(*rec);
    ++truth[rec->pkt.flow];
  }
  with_merge.flush(config.duration);
  no_merge.flush(config.duration);

  auto kv_estimate = [](const kv::KeyValueStore& store) {
    return [&store](const FiveTuple& flow) {
      const auto bytes = flow.to_bytes();
      const Key key{std::span<const std::byte>{bytes.data(), bytes.size()}};
      const kv::StateVector* v = store.read(key);
      return v == nullptr ? 0.0 : (*v)[0];
    };
  };

  const ErrorStats merged = score(truth, kv_estimate(with_merge));
  const ErrorStats unmerged = score(truth, kv_estimate(no_merge));
  const ErrorStats cms = score(truth, [&](const FiveTuple& f) {
    return static_cast<double>(sketch.estimate(f));
  });
  const ErrorStats sflow = score(truth, [&](const FiveTuple& f) {
    return sampled.estimate_packets(f);
  });

  TextTable table("Per-flow COUNT at ~" + fmt_double(budget_mbits, 1) +
                  " Mbit on-chip budget");
  table.set_header(
      {"approach", "mean |rel. error|", "flows covered", "on-chip Mbit"});
  table.add_row({"split KV store + merge (this paper)",
                 fmt_percent(merged.mean_rel_error),
                 fmt_percent(merged.covered_fraction),
                 fmt_double(budget_mbits, 1)});
  table.add_row({"split KV store, no merge (ablation)",
                 fmt_percent(unmerged.mean_rel_error),
                 fmt_percent(unmerged.covered_fraction),
                 fmt_double(budget_mbits, 1)});
  table.add_row({"Count-Min sketch (conservative)",
                 fmt_percent(cms.mean_rel_error),
                 fmt_percent(cms.covered_fraction),
                 fmt_double(sketch.mbits(), 1)});
  table.add_row({"sampled NetFlow (1-in-100)", fmt_percent(sflow.mean_rel_error),
                 fmt_percent(sflow.covered_fraction), "n/a (off-switch)"});
  table.add_row({"exact unbounded table (strawman)", "0.00%", "100.00%",
                 fmt_double(exact.required_mbits(), 1) + " (!)"});
  table.print();

  std::printf(
      "\nExpected shape: merge => 0%% error at cache-sized SRAM; no-merge "
      "loses evicted history; CMS/sampling trade accuracy; exact needs %.0fx "
      "the SRAM.\n",
      exact.required_mbits() / budget_mbits);
  return 0;
}

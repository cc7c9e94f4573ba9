// Figure 5: eviction rate vs. cache size for the three cache geometries.
//
// Setup mirrors §4: the query is SELECT COUNT GROUPBY 5tuple over a 5-minute
// CAIDA-like trace; key-value pairs are 128 bits (104-bit 5-tuple key +
// 24-bit counter), cache capacities sweep 8..256 Mbit (2^16..2^21 pairs at
// full scale). Left panel: evictions as % of packets (trace-size
// independent). Right panel: absolute backing-store writes/s under the
// datacenter workload model (850 B avg packets, 30% utilization, 1 GHz).
#include <cstdio>
#include <memory>
#include <vector>

#include "analysis/area_model.hpp"
#include "bench_util.hpp"
#include "common/table.hpp"
#include "kvstore/cache.hpp"
#include "trace/flow_session.hpp"

namespace {

using namespace perfq;

struct GeometryResult {
  double eviction_fraction = 0.0;
  std::uint64_t packets = 0;
  std::uint64_t evictions = 0;
};

GeometryResult run_config(const trace::TraceConfig& config,
                          kv::CacheGeometry geometry) {
  kv::Cache cache(geometry,
                  bench::compiled_kernel("SELECT COUNT GROUPBY 5tuple"));
  // Pure eviction-rate study: evicted values are dropped (Fig. 5 measures
  // the write rate, not merge semantics — those are property-tested).
  cache.set_eviction_sink({});

  trace::FlowSessionGenerator gen(config);
  while (auto rec = gen.next()) {
    const auto bytes = rec->pkt.flow.to_bytes();
    cache.process(kv::Key{std::span<const std::byte>{bytes.data(), bytes.size()}},
                  *rec);
  }
  GeometryResult out;
  out.eviction_fraction = cache.stats().eviction_fraction();
  out.packets = cache.stats().packets;
  out.evictions = cache.stats().evictions;
  return out;
}

}  // namespace

int main() {
  const double scale = bench::scale_from_env();
  const trace::TraceConfig config = bench::scaled_caida(scale);
  bench::print_scale_banner("Figure 5: eviction rate vs cache size", scale,
                            config);

  constexpr int kBitsPerPair = 128;  // §4: 104-bit key + 24-bit value
  const analysis::DatacenterWorkloadModel dc;

  TextTable left("Fig 5 (left): evictions as % of packets");
  left.set_header({"cache (Mbit, full-scale)", "pairs (scaled)", "hash-table",
                   "8-way", "fully-assoc"});
  TextTable right("Fig 5 (right): backing-store writes/s at 22.6M pkts/s");
  right.set_header({"cache (Mbit, full-scale)", "hash-table", "8-way",
                    "fully-assoc"});

  for (int log2_pairs = 16; log2_pairs <= 21; ++log2_pairs) {
    const std::uint64_t full_pairs = 1ull << log2_pairs;
    auto scaled_pairs = static_cast<std::uint64_t>(
        static_cast<double>(full_pairs) * scale);
    scaled_pairs = std::max<std::uint64_t>(scaled_pairs - scaled_pairs % 8, 8);

    const double mbits = kv::mbits_for_pairs(full_pairs, kBitsPerPair);
    const GeometryResult hash =
        run_config(config, kv::CacheGeometry::hash_table(scaled_pairs));
    const GeometryResult eight =
        run_config(config, kv::CacheGeometry::set_associative(scaled_pairs, 8));
    const GeometryResult full =
        run_config(config, kv::CacheGeometry::fully_associative(scaled_pairs));

    left.add_row({fmt_double(mbits, 0), std::to_string(scaled_pairs),
                  fmt_percent(hash.eviction_fraction),
                  fmt_percent(eight.eviction_fraction),
                  fmt_percent(full.eviction_fraction)});
    right.add_row({fmt_double(mbits, 0),
                   fmt_si(dc.evictions_per_sec(hash.eviction_fraction)),
                   fmt_si(dc.evictions_per_sec(eight.eviction_fraction)),
                   fmt_si(dc.evictions_per_sec(full.eviction_fraction))});

    // Paper-shape checkpoints at the 32-Mbit target size.
    if (log2_pairs == 18) {
      std::printf(
          "# 32-Mbit checkpoint: 8-way %.2f%% of packets (paper: 3.55%%), "
          "=> %s writes/s (paper: ~802K); 8-way vs fully-assoc gap %.2f%% "
          "(paper: within 2%% of optimum)\n",
          eight.eviction_fraction * 100.0,
          fmt_si(dc.evictions_per_sec(eight.eviction_fraction)).c_str(),
          (eight.eviction_fraction - full.eviction_fraction) * 100.0);
    }
  }

  left.print();
  right.print();
  std::printf("\nCSV (left panel):\n%s", left.to_csv().c_str());
  return 0;
}

// §4 "Eviction Rate": the backing-store feasibility argument.
//
// Measures the 8-way cache's eviction fraction at the 32-Mbit target size on
// the CAIDA-like trace, converts it to writes/s under the datacenter
// workload model (22.6 M avg pkts/s), and compares against published
// single-core throughput of memcached/Redis-class stores — the paper's
// "802K writes per second ... within the capabilities of scale-out
// key-value stores".
#include <cstdio>
#include <memory>

#include "analysis/area_model.hpp"
#include "bench_util.hpp"
#include "common/table.hpp"
#include "kvstore/cache.hpp"
#include "trace/flow_session.hpp"

int main() {
  using namespace perfq;
  const double scale = bench::scale_from_env();
  const trace::TraceConfig config = bench::scaled_caida(scale);
  bench::print_scale_banner("Backing-store write budget (32-Mbit, 8-way)",
                            scale, config);

  constexpr int kBitsPerPair = 128;
  const std::uint64_t full_pairs = kv::pairs_for_mbits(32.0, kBitsPerPair);
  auto scaled_pairs =
      static_cast<std::uint64_t>(static_cast<double>(full_pairs) * scale);
  scaled_pairs = std::max<std::uint64_t>(scaled_pairs - scaled_pairs % 8, 8);

  kv::Cache cache(kv::CacheGeometry::set_associative(scaled_pairs, 8),
                  bench::compiled_kernel("SELECT COUNT GROUPBY 5tuple"));
  cache.set_eviction_sink({});
  trace::FlowSessionGenerator gen(config);
  while (auto rec = gen.next()) {
    const auto bytes = rec->pkt.flow.to_bytes();
    cache.process(
        kv::Key{std::span<const std::byte>{bytes.data(), bytes.size()}}, *rec);
  }
  const double fraction = cache.stats().eviction_fraction();

  const analysis::DatacenterWorkloadModel dc;
  const analysis::BackingStoreCapacity stores;
  const double writes = dc.evictions_per_sec(fraction);

  TextTable table("Backing-store budget at the 32-Mbit design point");
  table.set_header({"quantity", "measured / derived", "paper"});
  table.add_row({"eviction fraction (8-way, 32 Mbit)", fmt_percent(fraction),
                 "3.55%"});
  table.add_row({"avg packet rate (850B, 30% util, 1GHz)",
                 fmt_si(dc.avg_pkts_per_sec()) + " pkts/s", "22.6M pkts/s"});
  table.add_row({"backing-store writes", fmt_si(writes) + " /s", "~802K /s"});
  table.add_row({"Redis-class cores needed",
                 fmt_double(stores.cores_needed(writes), 2),
                 "a few (100s of K ops/s/core)"});
  table.print();

  std::printf("\nfeasible: %s (writes/s within a handful of store cores)\n",
              stores.cores_needed(writes) < 16.0 ? "YES" : "NO");
  return 0;
}

// Figure 6: accuracy for a query that is NOT linear in state, vs. cache size
// and query interval (1/3/5 minutes), on the 8-way associative cache.
//
// Query: Fig. 2's "TCP non-monotonic" (the paper's one non-linear example).
// A key is *valid* within a window when a single value segment covers the
// window (§3.2); accuracy = % valid keys, averaged over the window count.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "kvstore/kvstore.hpp"
#include "trace/flow_session.hpp"

namespace {

using namespace perfq;

/// Windowed run: restart the store at every `window` boundary; report the
/// key-weighted average validity across windows.
double windowed_accuracy(const trace::TraceConfig& config,
                         kv::CacheGeometry geometry, Nanos window) {
  const auto kernel = bench::compiled_kernel(R"(
def nonmt ((maxseq, nm_count), (tcpseq)):
    if maxseq > tcpseq: nm_count = nm_count + 1
    maxseq = max(maxseq, tcpseq)

SELECT 5tuple, nonmt GROUPBY 5tuple
)");
  auto store = std::make_unique<kv::KeyValueStore>(geometry, kernel);
  trace::FlowSessionGenerator gen(config);

  std::uint64_t valid = 0;
  std::uint64_t total = 0;
  Nanos boundary = window;
  auto close_window = [&](Nanos now) {
    store->flush(now);
    const kv::AccuracyStats acc = store->backing().accuracy();
    valid += acc.valid_keys;
    total += acc.total_keys;
    store = std::make_unique<kv::KeyValueStore>(geometry, kernel);
  };

  while (auto rec = gen.next()) {
    while (rec->tin > boundary) {
      close_window(boundary);
      boundary += window;
    }
    if (rec->pkt.flow.proto != static_cast<std::uint8_t>(IpProto::kTcp)) {
      continue;  // WHERE proto == TCP
    }
    const auto bytes = rec->pkt.flow.to_bytes();
    store->process(
        kv::Key{std::span<const std::byte>{bytes.data(), bytes.size()}}, *rec);
  }
  close_window(config.duration);
  return total == 0 ? 1.0 : static_cast<double>(valid) / static_cast<double>(total);
}

}  // namespace

int main() {
  const double scale = bench::scale_from_env();
  const trace::TraceConfig config = bench::scaled_caida(scale);
  bench::print_scale_banner(
      "Figure 6: accuracy of the non-linear 'TCP non-monotonic' query", scale,
      config);

  constexpr int kBitsPerPair = 128;
  TextTable table("Fig 6: % valid keys, 8-way cache");
  table.set_header({"cache (Mbit, full-scale)", "pairs (scaled)", "1 min",
                    "3 min", "5 min"});

  double acc_1min_32 = 0.0;
  double acc_5min_32 = 0.0;
  for (int log2_pairs = 16; log2_pairs <= 21; ++log2_pairs) {
    const std::uint64_t full_pairs = 1ull << log2_pairs;
    auto scaled_pairs = static_cast<std::uint64_t>(
        static_cast<double>(full_pairs) * scale);
    scaled_pairs = std::max<std::uint64_t>(scaled_pairs - scaled_pairs % 8, 8);
    const auto geometry = kv::CacheGeometry::set_associative(scaled_pairs, 8);

    const double a1 = windowed_accuracy(config, geometry, 60_s);
    const double a3 = windowed_accuracy(config, geometry, 180_s);
    const double a5 = windowed_accuracy(config, geometry, 300_s);
    table.add_row({fmt_double(kv::mbits_for_pairs(full_pairs, kBitsPerPair), 0),
                   std::to_string(scaled_pairs), fmt_percent(a1, 1),
                   fmt_percent(a3, 1), fmt_percent(a5, 1)});
    if (log2_pairs == 18) {
      acc_1min_32 = a1;
      acc_5min_32 = a5;
    }
  }

  table.print();
  std::printf(
      "# 32-Mbit checkpoint: 5-min accuracy %.0f%%, 1-min accuracy %.0f%% "
      "(paper: 74%% -> 84%%); shorter windows must not reduce accuracy\n",
      acc_5min_32 * 100.0, acc_1min_32 * 100.0);
  std::printf("\nCSV:\n%s", table.to_csv().c_str());
  return 0;
}

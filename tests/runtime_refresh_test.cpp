// Periodic backing-store refresh (§3.2: "keys can be periodically evicted to
// ensure the backing store is fresh"). The strong property: because the
// merge is exact, refreshing at ANY interval must not change the results of
// linear queries — only non-linear queries pay (more segments => lower
// accuracy), which is exactly the paper's framing.
#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <span>
#include <thread>

#include "packet/wire.hpp"
#include "runtime_test_util.hpp"
#include "trace/flow_session.hpp"

namespace perfq::runtime {
namespace {

using compiler::compile_source;

std::vector<PacketRecord> workload() {
  trace::TraceConfig c;
  c.seed = 77;
  c.duration = 20_s;
  c.num_flows = 500;
  c.mean_flow_pkts = 30.0;
  return trace::generate_all(c);
}

EngineConfig config_with_refresh(Nanos interval) {
  EngineConfig config;
  config.geometry = kv::CacheGeometry::set_associative(64, 8);
  config.refresh_interval = interval;
  return config;
}

constexpr const char* kLinearQuery = R"(
def ewma (lat_est, (tin, tout)):
    lat_est = (1 - alpha) * lat_est + alpha * (tout - tin)

SELECT 5tuple, COUNT, SUM(pkt_len), ewma GROUPBY 5tuple WHERE tout != infinity
)";

TEST(Refresh, LinearResultsIdenticalAtAnyInterval) {
  const auto records = workload();
  std::vector<std::vector<std::vector<double>>> all_rows;
  for (const Nanos interval : {0_s, 5_s, 1_s, 100_ms}) {
    auto engine = build_engine(
        compile_source(kLinearQuery, {{"alpha", 0.125}}), kSerial,
        config_with_refresh(interval));
    for (const auto& rec : records) engine->process(rec);
    engine->finish(25_s);
    if (interval > 0_ns) {
      EXPECT_GT(engine->refresh_count(), 0u);
    }
    auto rows = engine->result().rows();
    std::sort(rows.begin(), rows.end());
    all_rows.push_back(std::move(rows));
  }
  for (std::size_t i = 1; i < all_rows.size(); ++i) {
    ASSERT_EQ(all_rows[i].size(), all_rows[0].size());
    for (std::size_t r = 0; r < all_rows[0].size(); ++r) {
      ASSERT_EQ(all_rows[i][r].size(), all_rows[0][r].size());
      for (std::size_t c = 0; c < all_rows[0][r].size(); ++c) {
        EXPECT_NEAR(all_rows[i][r][c], all_rows[0][r][c],
                    1e-9 * std::max(1.0, std::abs(all_rows[0][r][c])))
            << "interval run " << i << " row " << r << " col " << c;
      }
    }
  }
}

TEST(Refresh, CountsAreUntouchedByAggressiveRefresh) {
  const auto records = workload();
  auto base = build_engine(
      compile_source("SELECT COUNT GROUPBY srcip"), kSerial,
      config_with_refresh(0_s));
  auto refreshed = build_engine(
      compile_source("SELECT COUNT GROUPBY srcip"), kSerial,
      config_with_refresh(10_ms));
  for (const auto& rec : records) {
    base->process(rec);
    refreshed->process(rec);
  }
  base->finish(25_s);
  refreshed->finish(25_s);
  EXPECT_GT(refreshed->refresh_count(), 100u);

  auto a = base->result().rows();
  auto b = refreshed->result().rows();
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST(Refresh, NonLinearAccuracyDegradesWithRefreshRate) {
  const char* query = R"(
def nonmt ((maxseq, nm_count), (tcpseq)):
    if maxseq > tcpseq: nm_count = nm_count + 1
    maxseq = max(maxseq, tcpseq)

SELECT 5tuple, nonmt GROUPBY 5tuple WHERE proto == TCP
)";
  const auto records = workload();
  double prev_accuracy = -1.0;
  for (const Nanos interval : {1_s, 5_s, 0_s}) {  // aggressive -> none
    auto engine = build_engine(
        compile_source(query), kSerial, config_with_refresh(interval));
    for (const auto& rec : records) engine->process(rec);
    engine->finish(25_s);
    const double acc = engine->store_stats()[0].accuracy.accuracy();
    EXPECT_GE(acc, prev_accuracy)
        << "less frequent refresh must not lower non-linear validity";
    prev_accuracy = acc;
  }
}

TEST(Refresh, FiresBeforeTheRecordThatCrossesTheInterval) {
  // One flow, one record per ms from 1 ms on: with a 10 ms interval the
  // clock fires before the records stamped 11 ms and 21 ms, so of 25
  // records the backing store holds exactly the first 20 (the flow's key is
  // never evicted). Fed whole, in 7s and in 10s, as records and as wire
  // frames, on every topology: where a batch or a fold chunk splits the
  // records must not move a boundary.
  std::vector<PacketRecord> records(25);
  std::vector<std::vector<std::byte>> storage;
  std::vector<FrameObservation> frames;
  storage.reserve(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    PacketRecord& rec = records[i];
    rec.pkt.flow = FiveTuple{0x0A000001, 0x0A000002, 40000, 80, 6};
    rec.pkt.payload_len = 64;
    rec.pkt.pkt_len = 64 + 54;
    rec.tin = Nanos{static_cast<std::int64_t>(i + 1) * 1'000'000};
    rec.tout = rec.tin + Nanos{1'000};
    storage.push_back(wire::serialize(rec.pkt));
    frames.push_back(
        FrameObservation{storage.back(), rec.qid, rec.tin, rec.tout, rec.qsize});
  }
  for (const Topology& topo : kTopologies) {
    for (const bool wire_path : {false, true}) {
      for (const std::size_t batch : {25, 7, 10}) {
        SCOPED_TRACE(std::string{topo.name} + (wire_path ? " wire" : "") +
                     " batch " + std::to_string(batch));
        auto engine =
            build_engine(compile_source("R1 = SELECT COUNT GROUPBY 5tuple"),
                         topo, config_with_refresh(10_ms));
        for (std::size_t base = 0; base < records.size(); base += batch) {
          const std::size_t n = std::min(batch, records.size() - base);
          if (wire_path) {
            engine->process_wire_batch(
                std::span<const FrameObservation>(frames).subspan(base, n));
          } else {
            engine->process_batch(
                std::span<const PacketRecord>(records).subspan(base, n));
          }
        }
        // The threaded executor's boundary.
        (void)engine->snapshot("R1", records.back().tin);
        EXPECT_EQ(engine->refresh_count(), 2u);
        EXPECT_EQ(engine->store_stats().at(0).backing_packets, 20u);
      }
    }
  }
}

TEST(Refresh, BackingStoreIsFreshMidRun) {
  // The whole point of refreshing: mid-run reads from the backing store see
  // (nearly) all packets, not just evicted epochs. With 500 ms refresh on a
  // 20 s trace the store lags by at most one interval. On the threaded
  // executor each worker's refresh flushes its slices into its own backing
  // stores while folding continues, so the packets surface without
  // finish().
  const auto records = workload();
  const std::size_t half = records.size() / 2;
  for (const Topology& topo : kTopologies) {
    SCOPED_TRACE(topo.name);
    auto engine =
        build_engine(compile_source("R1 = SELECT COUNT GROUPBY srcip"), topo,
                     config_with_refresh(500_ms));
    engine->process_batch(std::span<const PacketRecord>(records).first(half));
    const auto in_backing = [&engine] {
      return static_cast<double>(engine->store_stats().at(0).backing_packets);
    };
    // Pipeline threads run asynchronously; poll briefly.
    double total = in_backing();
    for (int i = 0; i < 2000 && total <= 0.8 * static_cast<double>(half); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      total = in_backing();
    }
    EXPECT_GT(total, 0.8 * static_cast<double>(half));
    engine->finish(25_s);
    EXPECT_DOUBLE_EQ(in_backing(), static_cast<double>(half));
    double counted = 0;
    for (const auto& row : engine->result().rows()) counted += row.back();
    EXPECT_DOUBLE_EQ(counted, static_cast<double>(half));
  }
}

}  // namespace
}  // namespace perfq::runtime

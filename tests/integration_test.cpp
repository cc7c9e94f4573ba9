// Full-stack integration: network simulator -> telemetry stream -> compiled
// queries -> results, validated against the simulator's own ground truth.
// This is the system the paper describes operating end-to-end.
#include <gtest/gtest.h>

#include <map>

#include "netsim/network.hpp"
#include "runtime/engine_builder.hpp"

namespace perfq {
namespace {

TEST(Integration, DropQueryMatchesQueueCountersExactly) {
  net::Network network(21);
  net::LinkConfig edge{10.0, 1000_ns, 16};
  const net::LeafSpine topo = net::build_leaf_spine(network, 2, 1, 4, edge, edge);

  auto engine = runtime::EngineBuilder(
                    compiler::compile_source(
                        "SELECT COUNT GROUPBY qid WHERE tout == infinity"))
                    .build();
  network.set_telemetry_sink(
      [&engine](const PacketRecord& rec) { engine->process(rec); });

  // Overdrive two hosts on leaf 1 from everyone on leaf 0.
  int port = 0;
  for (std::uint32_t h = 0; h < 4; ++h) {
    for (std::uint32_t target : {0u, 1u}) {
      FiveTuple flow{net::leaf_spine_ip(0, h), net::leaf_spine_ip(1, target),
                     static_cast<std::uint16_t>(10000 + port++), 80,
                     static_cast<std::uint8_t>(IpProto::kUdp)};
      network.add_udp_flow(flow, 0_ns, 5000, 1200, 400000.0);
    }
  }
  network.run_until(50_ms);
  engine->finish(network.now());

  // The query's per-qid counts must equal the simulator's drop counters for
  // every queue (zero-drop queues are simply absent from the table).
  const runtime::ResultTable& result = engine->result();
  std::map<std::uint32_t, double> measured;
  for (const auto& row : result.rows()) {
    measured[static_cast<std::uint32_t>(row[result.column("qid")])] =
        row[result.column("COUNT")];
  }
  std::uint64_t total_sim_drops = 0;
  for (std::uint32_t q = 0; q < network.queue_count(); ++q) {
    const auto drops = network.queue_stats(q).dropped;
    total_sim_drops += drops;
    if (drops == 0) {
      EXPECT_EQ(measured.count(q), 0u) << network.queue_name(q);
    } else {
      ASSERT_EQ(measured.count(q), 1u) << network.queue_name(q);
      EXPECT_DOUBLE_EQ(measured[q], static_cast<double>(drops))
          << network.queue_name(q);
    }
  }
  EXPECT_GT(total_sim_drops, 0u) << "scenario must actually drop";
}

TEST(Integration, RetransmissionsShowUpInNonMonotonicQuery) {
  // A lossy path forces timeout retransmissions; the nonmt query must count
  // non-monotonic sequence numbers for exactly the flows that retransmitted.
  net::Network network(22);
  const auto a = network.add_host(ipv4_from_string("10.0.0.1"));
  const auto b = network.add_host(ipv4_from_string("10.0.0.2"));
  const auto sw = network.add_switch("s");
  net::LinkConfig tight{10.0, 1000_ns, 6};
  network.connect(a, sw, tight);
  network.connect(b, sw, tight);
  network.finalize_routes();

  auto engine = runtime::EngineBuilder(compiler::compile_source(R"(
def nonmt ((maxseq, nm_count), (tcpseq)):
    if maxseq > tcpseq: nm_count = nm_count + 1
    maxseq = max(maxseq, tcpseq)

SELECT 5tuple, nonmt GROUPBY 5tuple WHERE proto == TCP
)"))
                    .build();
  network.set_telemetry_sink(
      [&engine](const PacketRecord& rec) { engine->process(rec); });

  FiveTuple flow{ipv4_from_string("10.0.0.1"), ipv4_from_string("10.0.0.2"),
                 7777, 80, static_cast<std::uint8_t>(IpProto::kTcp)};
  network.add_window_flow(flow, 0_ns, 400, 1200, 24, 1_ms);
  network.run_until(1_s);
  engine->finish(network.now());

  const net::FlowStats& truth = network.flow_stats(flow);
  EXPECT_TRUE(truth.completed);
  EXPECT_GT(truth.retransmits, 0u) << "tight queue must force retransmissions";

  const runtime::ResultTable& result = engine->result();
  double nm_total = 0;
  for (const auto& row : result.rows()) {
    if (static_cast<std::uint32_t>(row[result.column("srcip")]) ==
        flow.src_ip) {
      nm_total += row[result.column("nm_count")];
    }
  }
  EXPECT_GT(nm_total, 0.0)
      << "retransmitted segments re-use old sequence numbers";
}

TEST(Integration, EcmpSpreadsFlowsAcrossSpines) {
  net::Network network(23);
  net::LinkConfig link{10.0, 1000_ns, 256};
  const net::LeafSpine topo = net::build_leaf_spine(network, 2, 4, 4, link, link);

  // Many distinct inter-leaf flows: with 4 spines and hash-based ECMP, each
  // spine should carry a nontrivial share.
  for (int i = 0; i < 64; ++i) {
    FiveTuple flow{net::leaf_spine_ip(0, static_cast<std::uint32_t>(i % 4)),
                   net::leaf_spine_ip(1, static_cast<std::uint32_t>((i / 4) % 4)),
                   static_cast<std::uint16_t>(20000 + i), 443,
                   static_cast<std::uint8_t>(IpProto::kUdp)};
    // 16 flows/host x 1e5 pps x 500 B = 0.64 Gb/s per 10G edge: no drops.
    network.add_udp_flow(flow, 0_ns, 50, 500, 1e5, false);
  }
  network.run_until(100_ms);

  std::uint64_t spines_used = 0;
  std::uint64_t total = 0;
  for (const auto spine : topo.spines) {
    const std::uint32_t q = network.queue_id(topo.leaves[0], spine);
    total += network.queue_stats(q).enqueued;
    if (network.queue_stats(q).enqueued > 0) ++spines_used;
  }
  EXPECT_EQ(total, 64u * 50u) << "all inter-leaf packets cross some spine";
  EXPECT_GE(spines_used, 3u) << "hash ECMP must use most spines";
}

TEST(Integration, EcmpKeepsEachFlowOnOnePath) {
  // No intra-flow multipath: a single flow's packets must all use the same
  // spine (5-tuple hashing), or TCP-style streams would reorder.
  net::Network network(24);
  net::LinkConfig link{10.0, 1000_ns, 256};
  const net::LeafSpine topo = net::build_leaf_spine(network, 2, 4, 2, link, link);

  std::map<std::uint32_t, std::set<std::uint32_t>> spine_queues_per_flow;
  network.set_telemetry_sink([&](const PacketRecord& rec) {
    for (const auto spine : topo.spines) {
      if (rec.qid == network.queue_id(topo.leaves[0], spine)) {
        spine_queues_per_flow[rec.pkt.flow.src_port].insert(rec.qid);
      }
    }
  });
  for (int i = 0; i < 16; ++i) {
    FiveTuple flow{net::leaf_spine_ip(0, 0), net::leaf_spine_ip(1, 0),
                   static_cast<std::uint16_t>(30000 + i), 443,
                   static_cast<std::uint8_t>(IpProto::kUdp)};
    network.add_udp_flow(flow, 0_ns, 40, 400, 1e6, false);
  }
  network.run_until(100_ms);
  ASSERT_FALSE(spine_queues_per_flow.empty());
  for (const auto& [port, queues] : spine_queues_per_flow) {
    EXPECT_EQ(queues.size(), 1u) << "flow srcport " << port << " split paths";
  }
}

TEST(Integration, PerQueueByteCountsMatchSimulator) {
  net::Network network(25);
  const auto a = network.add_host(ipv4_from_string("10.0.0.1"));
  const auto b = network.add_host(ipv4_from_string("10.0.0.2"));
  const auto sw = network.add_switch("s");
  net::LinkConfig roomy{10.0, 1000_ns, 1024};
  network.connect(a, sw, roomy);
  network.connect(b, sw, roomy);
  network.finalize_routes();

  auto engine = runtime::EngineBuilder(
                    compiler::compile_source(
                        "SELECT COUNT, SUM(pkt_len) GROUPBY qid"))
                    .build();
  std::map<std::uint32_t, std::pair<double, double>> truth;
  network.set_telemetry_sink([&](const PacketRecord& rec) {
    engine->process(rec);
    if (!rec.dropped()) {
      truth[rec.qid].first += 1.0;
      truth[rec.qid].second += rec.pkt.pkt_len;
    }
  });

  FiveTuple flow{ipv4_from_string("10.0.0.1"), ipv4_from_string("10.0.0.2"),
                 1234, 80, static_cast<std::uint8_t>(IpProto::kUdp)};
  network.add_udp_flow(flow, 0_ns, 2000, 900, 1e5);
  network.run_until(100_ms);
  engine->finish(network.now());

  const runtime::ResultTable& result = engine->result();
  EXPECT_EQ(result.row_count(), truth.size());
  for (const auto& row : result.rows()) {
    const auto qid = static_cast<std::uint32_t>(row[result.column("qid")]);
    EXPECT_DOUBLE_EQ(row[result.column("COUNT")], truth[qid].first);
    EXPECT_DOUBLE_EQ(row[result.column("SUM(pkt_len)")], truth[qid].second);
  }
}

}  // namespace
}  // namespace perfq

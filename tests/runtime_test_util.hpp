// Shared helpers for the runtime test suites (engine equivalence, sinks,
// snapshots): one definition of the engine topologies and how to build an
// engine on one, the bit-for-bit table comparison and the standard synthetic
// workload, so the suites cannot drift apart.
#pragma once

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "runtime/engine_builder.hpp"
#include "runtime/table.hpp"
#include "trace/fabric_trace.hpp"
#include "trace/flow_session.hpp"

namespace perfq::runtime {

/// Where the engine folds: shards == 0 is the inline executor, otherwise
/// the threaded one with that many shard workers.
struct Topology {
  const char* name = "serial";
  std::size_t shards = 0;
};

inline constexpr Topology kSerial{"serial", 0};

/// The contract matrix: inline, and threaded with 1 and 4 shards.
inline constexpr Topology kTopologies[] = {kSerial, {"s1", 1}, {"s4", 4}};

/// Build `program` on `topology` through EngineBuilder with every `config`
/// field applied; `tune` sets threaded-only knobs and runs only for a
/// threaded topology.
inline std::unique_ptr<Engine> build_engine(
    compiler::CompiledProgram program, const Topology& topology,
    const EngineConfig& config = {},
    const std::function<void(EngineBuilder&)>& tune = {}) {
  EngineBuilder builder(std::move(program));
  builder.geometry(config.geometry)
      .refresh(config.refresh_interval)
      .verify_checksums(config.verify_checksums);
  for (const auto& [query, sink] : config.stream_sinks) {
    builder.stream_sink(query, sink);
  }
  if (topology.shards > 0) {
    builder.sharded(topology.shards);
    if (tune) tune(builder);
  }
  return builder.build();
}

/// The equivalence workload: enough flows and packets that a small cache
/// thrashes (evictions + merges on every prefix), deterministic by seed.
inline std::vector<PacketRecord> test_workload(std::uint64_t seed = 77,
                                               std::uint32_t num_flows = 400,
                                               double mean_flow_pkts = 25.0,
                                               Nanos duration = 10_s) {
  trace::TraceConfig c;
  c.seed = seed;
  c.duration = duration;
  c.num_flows = num_flows;
  c.mean_flow_pkts = mean_flow_pkts;
  return trace::generate_all(c);
}

/// The fabric equivalence workload: a leaf-spine network with a heavy-tailed
/// flow mix, bursty arrivals, one incast and one hotspot episode —
/// test-sized (the netsim/federation/codegen suites share it; scale
/// num_flows up for fabric-sized runs). Deterministic by seed.
inline trace::FabricTraceConfig fabric_test_config(std::uint64_t seed = 77,
                                                   std::uint32_t leaves = 2,
                                                   std::uint32_t spines = 2) {
  trace::FabricTraceConfig c;
  c.seed = seed;
  c.leaves = leaves;
  c.spines = spines;
  c.hosts_per_leaf = 4;
  c.duration = Nanos{2'000'000};
  c.num_flows = 160;
  c.mean_flow_pkts = 10.0;
  c.tcp_fraction = 0.5;
  c.burst_period = Nanos{250'000};
  c.burst_on = 0.25;
  c.edge.queue_capacity_pkts = 24;  // small queues: real drops to localize
  c.fabric_links.queue_capacity_pkts = 24;
  c.incasts.push_back(trace::FabricIncast{8, 0, 0, Nanos{500'000}, 48, 1500});
  c.hotspots.push_back(
      trace::FabricHotspot{0, leaves - 1, Nanos{1'000'000}, Nanos{400'000}, 1.5});
  return c;
}

/// Build the topology and install the flows of `config` in one step.
inline net::LeafSpine build_test_fabric(net::Network& net,
                                        const trace::FabricTraceConfig& config) {
  net::LeafSpine fabric = trace::build_fabric(net, config);
  trace::install_fabric_flows(net, fabric, config);
  return fabric;
}

/// Exact double equality, cell by cell: the engines under comparison must
/// not differ in a single IEEE operation.
inline void expect_tables_bit_identical(const ResultTable& want,
                                        const ResultTable& got,
                                        const std::string& context) {
  ASSERT_EQ(got.row_count(), want.row_count()) << context;
  for (std::size_t r = 0; r < want.row_count(); ++r) {
    const auto& wrow = want.rows()[r];
    const auto& grow = got.rows()[r];
    ASSERT_EQ(grow.size(), wrow.size()) << context << " row " << r;
    for (std::size_t c = 0; c < wrow.size(); ++c) {
      EXPECT_EQ(grow[c], wrow[c]) << context << " row " << r << " col " << c;
    }
  }
}

}  // namespace perfq::runtime

// Workload model configuration for synthetic packet traces.
//
// The paper evaluates on a 5-minute CAIDA 2016 trace: 157 M packets,
// ~3.8 M unique 5-tuples, 10 Gb/s (§4). We cannot redistribute CAIDA data,
// so src/trace synthesizes an Internet-mix trace with the properties that
// drive cache behaviour: heavy-tailed flow sizes (mean ≈ 41 pkts/flow like
// the CAIDA numbers), Poisson flow arrivals (churn creates compulsory
// misses), and within-flow packet pacing (temporal locality determines LRU
// hit rates). The `scale` knob shrinks packets, flows, AND cache sizes by
// the same factor so the eviction-rate *shape* (Fig. 5) is preserved while
// benches stay laptop-sized; scale = 1.0 reproduces paper-scale counts.
#pragma once

#include <cstdint>

#include "common/error.hpp"
#include "common/time.hpp"

namespace perfq::trace {

struct TraceConfig {
  std::uint64_t seed = 1;

  /// Trace length in simulated time.
  Nanos duration = 300_s;

  /// Unique flows (5-tuples) arriving over the whole trace.
  std::uint64_t num_flows = 3'800'000;

  /// Mean packets per flow (CAIDA 2016-04: 157 M / 3.8 M ≈ 41).
  double mean_flow_pkts = 41.0;

  /// Flow-size distribution: bounded Pareto shape (heavy tail; ~1.1-1.3 for
  /// Internet traffic) with the mean above and this cap.
  double flow_size_alpha = 1.2;
  std::uint64_t max_flow_pkts = 200'000;

  /// Flow duration is lognormal(mu derived from these, sigma): most flows
  /// live O(seconds), a fat tail persists for minutes — matching the mix of
  /// short transactions and long-lived connections in Internet traces, which
  /// is what makes evicted keys *reappear* (the driver of Fig. 6's invalid
  /// keys and of capacity-miss churn in Fig. 5).
  Nanos median_flow_duration = 4_s;
  double flow_duration_sigma = 1.8;

  /// A slice of flows is *sparse*: few packets spread over minutes (keep-
  /// alives, periodic telemetry, slow scans). Within a short query window
  /// such a key appears once (valid); over the full trace it reappears after
  /// every eviction (invalid) — this is what gives Fig. 6 its accuracy gain
  /// at shorter intervals.
  double sparse_flow_fraction = 0.15;
  Nanos sparse_min_duration = 60_s;

  /// Fraction of flows that are TCP (rest UDP).
  double tcp_fraction = 0.9;

  /// Mean wire packet size in bytes (Internet mix ≈ 700; the paper's
  /// datacenter workload model uses 850 for rate conversion).
  std::uint32_t mean_pkt_bytes = 700;

  /// Per-packet probability of sequence-number anomalies, exercising the
  /// TCP out-of-seq / non-monotonic queries (Fig. 2).
  double reorder_prob = 0.01;
  double retx_prob = 0.005;

  /// Per-packet drop probability at the synthetic bottleneck queue (tout
  /// becomes infinity, feeding the loss-rate queries). The netsim module
  /// produces *real* congestive drops; this keeps trace-driven runs honest.
  double drop_prob = 0.002;

  /// Returns a copy scaled by `s` in {packets, flows}: duration is kept so
  /// time-windowed experiments (Fig. 6) remain meaningful.
  [[nodiscard]] TraceConfig scaled(double s) const {
    if (s <= 0.0 || s > 1.0) throw ConfigError{"TraceConfig: scale must be in (0,1]"};
    TraceConfig c = *this;
    c.num_flows = static_cast<std::uint64_t>(static_cast<double>(num_flows) * s);
    if (c.num_flows == 0) c.num_flows = 1;
    return c;
  }

  [[nodiscard]] double expected_packets() const {
    return static_cast<double>(num_flows) * mean_flow_pkts;
  }

  void validate() const {
    if (num_flows == 0) throw ConfigError{"TraceConfig: num_flows == 0"};
    if (duration <= 0_ns) throw ConfigError{"TraceConfig: non-positive duration"};
    if (mean_flow_pkts < 1.0) throw ConfigError{"TraceConfig: mean_flow_pkts < 1"};
    if (flow_size_alpha <= 1.0) {
      throw ConfigError{"TraceConfig: flow_size_alpha must exceed 1 (finite mean)"};
    }
    if (tcp_fraction < 0.0 || tcp_fraction > 1.0) {
      throw ConfigError{"TraceConfig: tcp_fraction outside [0,1]"};
    }
  }

  /// Preset mirroring the paper's CAIDA trace at full scale.
  [[nodiscard]] static TraceConfig caida_like() { return TraceConfig{}; }
};

}  // namespace perfq::trace

// Flow-session trace generator: the CAIDA-trace stand-in.
//
// Flows arrive by a Poisson process over the trace window; each flow draws a
// heavy-tailed packet count and a lognormal lifetime, then paces its packets
// across that lifetime with exponential jitter. The interleaving of a large,
// churning flow population is what stresses the cache: popular flows stay
// resident, the long tail of mice causes initializations and evictions —
// the dynamics behind Fig. 5.
//
// Records are emitted in nondecreasing timestamp order via an event heap.
// Telemetry fields (qid/tin/tout/qsize) are filled with a single synthetic
// bottleneck-queue model so that latency/queue queries have meaningful input
// even on trace-driven (non-netsim) runs.
#pragma once

#include <optional>
#include <queue>
#include <vector>

#include "common/rng.hpp"
#include "packet/record.hpp"
#include "trace/config.hpp"

namespace perfq::trace {

/// Pull-based generator; next() returns records until the trace ends.
class FlowSessionGenerator {
 public:
  explicit FlowSessionGenerator(const TraceConfig& config);

  /// Next record in timestamp order, or nullopt at end of trace.
  [[nodiscard]] std::optional<PacketRecord> next();

  [[nodiscard]] const TraceConfig& config() const { return config_; }

 private:
  struct ActiveFlow {
    FiveTuple tuple;
    std::uint64_t remaining_pkts = 0;
    Nanos gap;               ///< mean inter-packet spacing
    std::uint32_t next_seq = 0;
    std::uint32_t prev_seq_adv = 0;  ///< last seq advance (for retx emulation)
    std::uint32_t flow_label = 0;    ///< feeds pkt_path
  };

  struct Event {
    Nanos when;
    std::uint32_t flow_slot;  ///< index into active_, or kArrival
    friend bool operator>(const Event& a, const Event& b) { return a.when > b.when; }
  };
  static constexpr std::uint32_t kArrival = ~std::uint32_t{0};

  void schedule_next_arrival(Nanos now);
  void start_flow(Nanos now);
  [[nodiscard]] PacketRecord emit_packet(ActiveFlow& flow, Nanos now);
  [[nodiscard]] FiveTuple random_tuple(bool tcp);
  [[nodiscard]] std::uint64_t draw_flow_size();
  [[nodiscard]] std::uint32_t draw_pkt_len(const ActiveFlow& flow) const;

  TraceConfig config_;
  mutable Rng rng_;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events_;
  std::vector<ActiveFlow> active_;
  std::vector<std::uint32_t> free_slots_;
  double arrival_rate_per_ns_;
  std::uint64_t flows_started_ = 0;  ///< numbers each flow's flow_label
  std::uint64_t uniq_counter_ = 0;
  // Synthetic bottleneck queue state for telemetry fields.
  Nanos queue_busy_until_;
  std::uint32_t queue_depth_pkts_ = 0;
  Nanos last_emit_time_;
};

/// Convenience: drain the generator into a vector (tests, small traces).
[[nodiscard]] std::vector<PacketRecord> generate_all(const TraceConfig& config,
                                                     std::uint64_t max_packets = 0);

}  // namespace perfq::trace

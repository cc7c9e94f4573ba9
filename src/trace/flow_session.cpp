#include "trace/flow_session.hpp"

#include <algorithm>
#include <cmath>

namespace perfq::trace {
namespace {

constexpr std::uint32_t kMinWire = 64;
constexpr std::uint32_t kMaxWire = 1500;

}  // namespace

FlowSessionGenerator::FlowSessionGenerator(const TraceConfig& config)
    : config_(config), rng_(config.seed) {
  config_.validate();
  arrival_rate_per_ns_ = static_cast<double>(config_.num_flows) /
                         static_cast<double>(config_.duration.count());
  queue_busy_until_ = 0_ns;
  last_emit_time_ = 0_ns;
  schedule_next_arrival(0_ns);
}

void FlowSessionGenerator::schedule_next_arrival(Nanos now) {
  const double gap = rng_.exponential(arrival_rate_per_ns_);
  const Nanos when = now + Nanos{static_cast<std::int64_t>(gap)};
  if (when <= config_.duration) events_.push(Event{when, kArrival});
}

std::uint64_t FlowSessionGenerator::draw_flow_size() {
  // Bounded Pareto sized so the unbounded mean matches mean_flow_pkts.
  const double alpha = config_.flow_size_alpha;
  const double xm = config_.mean_flow_pkts * (alpha - 1.0) / alpha;
  const double raw = rng_.pareto(xm, alpha);
  const double capped = std::min(raw, static_cast<double>(config_.max_flow_pkts));
  return std::max<std::uint64_t>(1, static_cast<std::uint64_t>(capped));
}

FiveTuple FlowSessionGenerator::random_tuple(bool tcp) {
  FiveTuple t;
  t.src_ip = static_cast<std::uint32_t>(rng_());
  t.dst_ip = static_cast<std::uint32_t>(rng_());
  t.src_port = static_cast<std::uint16_t>(rng_.between(1024, 65535));
  t.dst_port = static_cast<std::uint16_t>(
      rng_.chance(0.5) ? rng_.between(1, 1023) : rng_.between(1024, 65535));
  t.proto = static_cast<std::uint8_t>(tcp ? IpProto::kTcp : IpProto::kUdp);
  return t;
}

void FlowSessionGenerator::start_flow(Nanos now) {
  ActiveFlow flow;
  flow.tuple = random_tuple(rng_.chance(config_.tcp_fraction));
  flow.remaining_pkts = draw_flow_size();
  // Lifetime lognormal around the configured median; pace packets over it.
  // Sparse flows instead live for a large fraction of the trace window.
  const double median_ns = static_cast<double>(config_.median_flow_duration.count());
  double life_ns = rng_.lognormal(std::log(median_ns), config_.flow_duration_sigma);
  if (rng_.chance(config_.sparse_flow_fraction)) {
    const double lo = static_cast<double>(config_.sparse_min_duration.count());
    const double hi = static_cast<double>(config_.duration.count());
    if (hi > lo) life_ns = lo + rng_.uniform() * (hi - lo);
    // Sparse flows carry only a handful of packets, so consecutive packets
    // of one key are minutes apart.
    flow.remaining_pkts = 2 + rng_.below(6);
  }
  const double gap_ns =
      std::max(1.0, life_ns / static_cast<double>(flow.remaining_pkts));
  flow.gap = Nanos{static_cast<std::int64_t>(gap_ns)};
  flow.next_seq = static_cast<std::uint32_t>(rng_());
  flow.flow_label = static_cast<std::uint32_t>(flows_started_);
  ++flows_started_;

  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    active_[slot] = flow;
  } else {
    slot = static_cast<std::uint32_t>(active_.size());
    active_.push_back(flow);
  }
  // First packet almost immediately (SYN-ish), with small jitter.
  const Nanos first = now + Nanos{static_cast<std::int64_t>(rng_.exponential(1e-3))};
  if (first <= config_.duration) {
    events_.push(Event{first, slot});
  } else {
    free_slots_.push_back(slot);
  }
}

std::uint32_t FlowSessionGenerator::draw_pkt_len(const ActiveFlow& flow) const {
  // Mix of minimum-size (ACK-like) and exponential-bodied packets, clamped to
  // the Ethernet MTU; mean approximately config_.mean_pkt_bytes.
  if (rng_.chance(0.25)) return kMinWire;
  const double body_mean =
      (static_cast<double>(config_.mean_pkt_bytes) - 0.25 * kMinWire) / 0.75 -
      static_cast<double>(kMinWire);
  const double body = rng_.exponential(1.0 / std::max(1.0, body_mean));
  const auto len = static_cast<std::uint32_t>(static_cast<double>(kMinWire) + body);
  const bool udp = flow.tuple.proto == static_cast<std::uint8_t>(IpProto::kUdp);
  return std::clamp(len, kMinWire, udp ? std::uint32_t{1492} : kMaxWire);
}

PacketRecord FlowSessionGenerator::emit_packet(ActiveFlow& flow, Nanos now) {
  PacketRecord rec;
  rec.pkt.flow = flow.tuple;
  rec.pkt.pkt_len = draw_pkt_len(flow);
  const std::uint32_t hdr = flow.tuple.proto == static_cast<std::uint8_t>(IpProto::kTcp)
                                ? 54u
                                : 42u;
  rec.pkt.payload_len = rec.pkt.pkt_len > hdr ? rec.pkt.pkt_len - hdr : 0u;
  rec.pkt.pkt_uniq = ++uniq_counter_;
  rec.pkt.pkt_path = flow.flow_label;
  rec.qid = 0;

  if (rec.pkt.flow.proto == static_cast<std::uint8_t>(IpProto::kTcp)) {
    if (flow.prev_seq_adv > 0 && rng_.chance(config_.retx_prob)) {
      // Retransmission: resend the previous segment's sequence number.
      rec.pkt.tcp_seq = flow.next_seq - flow.prev_seq_adv;
    } else if (rng_.chance(config_.reorder_prob)) {
      // Reordering: a later segment overtakes; do not advance next_seq, so
      // the following packet appears with a lower (non-monotonic) number.
      rec.pkt.tcp_seq = flow.next_seq + rec.pkt.payload_len;
    } else {
      rec.pkt.tcp_seq = flow.next_seq;
      flow.next_seq += rec.pkt.payload_len;
      flow.prev_seq_adv = rec.pkt.payload_len;
    }
  }

  // Synthetic bottleneck queue (FIFO, work-conserving) for telemetry fields.
  const double pps = config_.expected_packets() /
                     (static_cast<double>(config_.duration.count()) * 1e-9);
  const double mean_service_ns = 0.5e9 / std::max(1.0, pps);  // ~50% utilization
  const auto service = Nanos{static_cast<std::int64_t>(
      mean_service_ns * static_cast<double>(rec.pkt.pkt_len) /
      static_cast<double>(config_.mean_pkt_bytes))};

  rec.tin = now;
  const Nanos start = std::max(queue_busy_until_, now);
  if (queue_busy_until_ > now) {
    rec.qsize = static_cast<std::uint32_t>(
        static_cast<double>((queue_busy_until_ - now).count()) / mean_service_ns);
  } else {
    rec.qsize = 0;
  }
  if (rng_.chance(config_.drop_prob)) {
    rec.tout = Nanos::infinity();  // dropped: does not occupy the queue
  } else {
    queue_busy_until_ = start + service;
    rec.tout = queue_busy_until_;
  }
  last_emit_time_ = now;
  return rec;
}

std::optional<PacketRecord> FlowSessionGenerator::next() {
  while (!events_.empty()) {
    const Event e = events_.top();
    events_.pop();
    if (e.when > config_.duration) return std::nullopt;  // heap is time-ordered
    if (e.flow_slot == kArrival) {
      start_flow(e.when);
      schedule_next_arrival(e.when);
      continue;
    }
    ActiveFlow& flow = active_[e.flow_slot];
    PacketRecord rec = emit_packet(flow, e.when);
    if (--flow.remaining_pkts > 0) {
      const double jitter = rng_.exponential(1.0 / static_cast<double>(flow.gap.count()));
      const Nanos next_at = e.when + Nanos{static_cast<std::int64_t>(jitter) + 1};
      if (next_at <= config_.duration) {
        events_.push(Event{next_at, e.flow_slot});
      } else {
        free_slots_.push_back(e.flow_slot);
      }
    } else {
      free_slots_.push_back(e.flow_slot);
    }
    return rec;
  }
  return std::nullopt;
}

std::vector<PacketRecord> generate_all(const TraceConfig& config,
                                       std::uint64_t max_packets) {
  FlowSessionGenerator gen(config);
  std::vector<PacketRecord> out;
  while (auto rec = gen.next()) {
    out.push_back(*rec);
    if (max_packets != 0 && out.size() >= max_packets) break;
  }
  return out;
}

}  // namespace perfq::trace

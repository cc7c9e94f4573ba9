#include "obs/metrics_export.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

namespace perfq::obs {

namespace {

/// Integers render without a fraction; everything else with %.6g.
std::string num(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    return std::to_string(static_cast<long long>(v));
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

void visit_histogram(std::string_view prefix, const HistogramSnapshot& h,
                     const MetricFn& fn) {
  const MetricLabels none;
  const std::string p{prefix};
  fn(p + "_count", none, static_cast<double>(h.count));
  fn(p + "_sum_ns", none, static_cast<double>(h.sum_ns));
  fn(p + "_p50_ns", none, h.quantile_ns(0.50));
  fn(p + "_p99_ns", none, h.quantile_ns(0.99));
}

}  // namespace

void visit_metrics(const runtime::EngineMetrics& m, const MetricFn& fn) {
  const MetricLabels none;
  fn("engine_records", none, static_cast<double>(m.records));
  fn("engine_batches", none, static_cast<double>(m.batches));
  fn("engine_refreshes", none, static_cast<double>(m.refreshes));
  fn("engine_snapshots", none, static_cast<double>(m.snapshots));
  fn("engine_faulted", none, m.faulted ? 1.0 : 0.0);

  for (const runtime::StoreStats& q : m.queries) {
    const MetricLabels labels{{"query", q.name}};
    fn("store_packets", labels, static_cast<double>(q.cache.packets));
    fn("store_hits", labels, static_cast<double>(q.cache.hits));
    fn("store_initializations", labels,
       static_cast<double>(q.cache.initializations));
    fn("store_evictions", labels, static_cast<double>(q.cache.evictions));
    fn("store_flushes", labels, static_cast<double>(q.cache.flushes));
    fn("store_backing_writes", labels, static_cast<double>(q.backing_writes));
    fn("store_backing_capacity_writes", labels,
       static_cast<double>(q.backing_capacity_writes));
    fn("store_backing_packets", labels,
       static_cast<double>(q.backing_packets));
    fn("store_keys", labels, static_cast<double>(q.keys));
    fn("store_valid_keys", labels,
       static_cast<double>(q.accuracy.valid_keys));
    fn("store_total_keys", labels,
       static_cast<double>(q.accuracy.total_keys));
    fn("store_accuracy", labels, q.accuracy.accuracy());
    fn("store_attached", labels, q.attached ? 1.0 : 0.0);
    fn("store_attach_records", labels, static_cast<double>(q.attach_records));
  }

  for (const runtime::StreamSinkMetrics& s : m.streams) {
    const MetricLabels labels{{"query", s.query}};
    fn("stream_rows_delivered", labels,
       static_cast<double>(s.rows_delivered));
    fn("stream_rows_dropped", labels, static_cast<double>(s.rows_dropped));
    fn("stream_saturated", labels, s.saturated ? 1.0 : 0.0);
    fn("stream_attached", labels, s.attached ? 1.0 : 0.0);
    fn("stream_attach_records", labels, static_cast<double>(s.attach_records));
  }

  for (const runtime::ShardMetrics& s : m.shards) {
    const MetricLabels labels{{"shard", std::to_string(s.shard)}};
    fn("shard_worker_exited", labels, s.worker_exited ? 1.0 : 0.0);
    fn("shard_idle_ns", labels, static_cast<double>(s.idle_ns));
  }
  for (const runtime::RingMetrics& r : m.rings) {
    const MetricLabels labels{{"shard", std::to_string(r.shard)}};
    fn("ring_occupancy", labels, static_cast<double>(r.occupancy));
    fn("ring_occupancy_hwm", labels, static_cast<double>(r.occupancy_hwm));
    fn("ring_capacity", labels, static_cast<double>(r.capacity));
    fn("ring_records", labels, static_cast<double>(r.records));
    fn("ring_push_stalls", labels, static_cast<double>(r.push_stalls));
    fn("ring_push_stall_ns", labels, static_cast<double>(r.push_stall_ns));
  }

  visit_histogram("batch_ns", m.batch_ns, fn);
  visit_histogram("snapshot_ns", m.snapshot_ns, fn);
  // Only threaded executors flush shards (and a fabric pools theirs).
  if (m.absorb_ns.count > 0) visit_histogram("absorb_ns", m.absorb_ns, fn);

  fn("ingest_parsed", none, static_cast<double>(m.ingest.parsed));
  fn("ingest_truncated", none, static_cast<double>(m.ingest.truncated));
  fn("ingest_unsupported", none, static_cast<double>(m.ingest.unsupported));
  fn("ingest_bad_length", none, static_cast<double>(m.ingest.bad_length));
  fn("ingest_bad_checksum", none, static_cast<double>(m.ingest.bad_checksum));
}

void visit_metrics(const runtime::EngineMetrics& m, const MetricFn& fn,
                   const MetricLabels& base) {
  if (base.empty()) {
    visit_metrics(m, fn);
    return;
  }
  visit_metrics(m, [&](std::string_view name, const MetricLabels& labels,
                       double value) {
    MetricLabels scoped = base;
    scoped.insert(scoped.end(), labels.begin(), labels.end());
    fn(name, scoped, value);
  });
}

std::string samples_to_json(std::string_view engine,
                            const MetricEmitter& emit) {
  std::string out = "{\"engine\": \"" + escape(engine) + "\", \"metrics\": [";
  bool first = true;
  emit([&](std::string_view name, const MetricLabels& labels, double value) {
    if (!first) out += ", ";
    first = false;
    out += "{\"name\": \"";
    out += name;
    out += "\", \"labels\": {";
    for (std::size_t i = 0; i < labels.size(); ++i) {
      if (i > 0) out += ", ";
      out += '"';
      out += escape(labels[i].first);
      out += "\": \"";
      out += escape(labels[i].second);
      out += '"';
    }
    out += "}, \"value\": " + num(value) + "}";
  });
  out += "]}";
  return out;
}

std::string samples_to_prometheus(const MetricEmitter& emit) {
  // The exposition format wants each family in one group, but label sets
  // interleave in visit order: collect each family's lines in first-seen
  // order, then concatenate.
  std::vector<std::string> families;
  std::map<std::string, std::size_t, std::less<>> index;
  emit([&](std::string_view name, const MetricLabels& labels, double value) {
    auto it = index.find(name);
    if (it == index.end()) {
      it = index.emplace(std::string{name}, families.size()).first;
      // Gauge is the honest universal type here: counters are monotone but
      // a scraper restarting mid-run must not assume resets.
      std::string& type = families.emplace_back("# TYPE perfq_");
      type += name;
      type += " gauge\n";
    }
    std::string& out = families[it->second];
    out += "perfq_";
    out += name;
    if (!labels.empty()) {
      out += '{';
      for (std::size_t i = 0; i < labels.size(); ++i) {
        if (i > 0) out += ',';
        out += labels[i].first;
        out += "=\"";
        out += escape(labels[i].second);
        out += '"';
      }
      out += '}';
    }
    out += ' ';
    out += num(value);
    out += '\n';
  });
  std::size_t size = 0;
  for (const std::string& family : families) size += family.size();
  std::string out;
  out.reserve(size);
  for (const std::string& family : families) out += family;
  return out;
}

std::string metrics_to_json(const runtime::EngineMetrics& m) {
  return samples_to_json(m.engine,
                         [&](const MetricFn& fn) { visit_metrics(m, fn); });
}

std::string metrics_to_prometheus(const runtime::EngineMetrics& m) {
  return samples_to_prometheus(
      [&](const MetricFn& fn) { visit_metrics(m, fn); });
}

std::string format_metrics(const runtime::EngineMetrics& m) {
  // Label sets in order of first appearance, each with its samples' text.
  std::vector<std::pair<MetricLabels, std::string>> lines;
  visit_metrics(m, [&](std::string_view name, const MetricLabels& labels,
                       double value) {
    auto it = std::find_if(lines.begin(), lines.end(),
                           [&](const auto& l) { return l.first == labels; });
    if (it == lines.end()) {
      it = lines.emplace(lines.end(), labels, std::string{});
    } else {
      it->second += ' ';
    }
    it->second += std::string{name} + "=" + num(value);
  });
  std::string out = "engine: " + m.engine + "\n";
  for (const auto& [labels, samples] : lines) {
    for (std::size_t i = 0; i < labels.size(); ++i) {
      out += (i > 0 ? " " : "") + labels[i].first + " '" + labels[i].second +
             "'";
    }
    out += (labels.empty() ? "" : ": ") + samples + "\n";
  }
  return out;
}

std::string format_pipeline(const runtime::EngineMetrics& m) {
  std::string out;
  for (const runtime::ShardMetrics& s : m.shards) {
    out += "\n  shard " + std::to_string(s.shard) + ": worker ";
    out += s.worker_exited ? "exited" : "running";
    out += " (idle " + std::to_string(s.idle_ns) + " ns)";
    for (const runtime::RingMetrics& r : m.rings) {
      if (r.shard != s.shard) continue;
      out += ", ring occupancy " + std::to_string(r.occupancy) + "/" +
             std::to_string(r.capacity) + ", records " +
             std::to_string(r.records) + ", push stalls " +
             std::to_string(r.push_stalls) + " (" +
             std::to_string(r.push_stall_ns) + " ns)";
    }
  }
  return out;
}

}  // namespace perfq::obs

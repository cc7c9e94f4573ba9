// Rendering the live metrics surface (runtime::EngineMetrics) for humans
// and scrapers.
//
// Everything is built on ONE enumeration — visit_metrics() — which walks
// every scalar the metrics struct carries as (name, labels, value) triples.
// The JSON and Prometheus exporters are both thin renderers over that walk,
// and so is format_metrics(), the text view; so the round-trip property
// ("every registered metric appears in every exporter") holds by
// construction: adding a metric to visit_metrics() adds it to all three;
// adding it anywhere else is a compile-time dead end.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "runtime/engine_api.hpp"

namespace perfq::obs {

/// Label set of one metric sample, e.g. {{"query", "loss"}, {"shard", "3"}}.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/// Called once per (name, labels, value) sample.
using MetricFn =
    std::function<void(std::string_view name, const MetricLabels& labels,
                       double value)>;

/// THE metric enumeration: every scalar EngineMetrics carries, flattened.
/// Counter values are exact up to 2^53 (they ride in a double).
void visit_metrics(const runtime::EngineMetrics& m, const MetricFn& fn);

/// Same enumeration with `base` labels prepended to every sample — how a
/// multi-engine surface (the federation layer's per-switch metrics) scopes
/// one engine's metrics, e.g. base = {{"switch", "leaf0"}}.
void visit_metrics(const runtime::EngineMetrics& m, const MetricFn& fn,
                   const MetricLabels& base);

/// A producer of metric samples: called with the sink, it may invoke
/// visit_metrics() any number of times — e.g. once per switch engine with a
/// distinguishing base label. Lets multi-engine surfaces (federation) render
/// through the same JSON/Prometheus serializers as a single engine.
using MetricEmitter = std::function<void(const MetricFn&)>;

/// {"engine": ..., "metrics": [{"name", "labels", "value"}, ...]} over
/// whatever samples `emit` produces.
[[nodiscard]] std::string samples_to_json(std::string_view engine,
                                          const MetricEmitter& emit);

/// Prometheus text exposition of whatever samples `emit` produces:
/// perfq_<name>{label="value"} value, each metric family in one group under
/// its # TYPE line, families in order of first appearance.
[[nodiscard]] std::string samples_to_prometheus(const MetricEmitter& emit);

/// {"engine": ..., "metrics": [{"name", "labels", "value"}, ...]}
[[nodiscard]] std::string metrics_to_json(const runtime::EngineMetrics& m);

/// Prometheus text exposition: perfq_<name>{label="value"} value, grouped
/// by metric family as samples_to_prometheus() groups them.
[[nodiscard]] std::string metrics_to_prometheus(const runtime::EngineMetrics& m);

/// The same enumeration as text (STATS on the line protocol, in the REPL
/// console too): an "engine:" line, then one line per label set, e.g.
/// `query 'loss': store_packets=... store_hits=...`, its samples as
/// name=value in visit order.
[[nodiscard]] std::string format_metrics(const runtime::EngineMetrics& m);

/// The per-thread pipeline state dump (worker liveness and idle time,
/// ring occupancy, records and push stalls) — the body of the sharded
/// engine's watchdog diagnostic. Uses only the lock-free pipeline fields.
[[nodiscard]] std::string format_pipeline(const runtime::EngineMetrics& m);

}  // namespace perfq::obs

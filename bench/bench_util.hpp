// Shared helpers for the figure-regeneration benches.
//
// Scale: the paper's trace is 157 M packets / 3.8 M flows. The benches run a
// scaled-down synthetic trace (PERFQ_SCALE, default 1/32) and scale the cache
// sizes by the same factor, which preserves the cache-pairs : flows ratio
// that drives eviction behaviour. Every table prints both the scaled pair
// count and the equivalent full-scale cache size in Mbit so rows align with
// the paper's axes. Set PERFQ_SCALE=1 for a full-scale run.
//
// Folds: every bench folds the kernel the query compiler emits for its
// query (compiled_kernel), so the figures measure the fold the system runs.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "compiler/program.hpp"
#include "trace/config.hpp"
#include "trace/flow_session.hpp"

namespace perfq::bench {

inline double scale_from_env(double default_scale = 1.0 / 32.0) {
  if (const char* env = std::getenv("PERFQ_SCALE")) {
    const double s = std::atof(env);
    if (s > 0.0 && s <= 1.0) return s;
    std::fprintf(stderr, "PERFQ_SCALE '%s' invalid; using %.4f\n", env,
                 default_scale);
  }
  return default_scale;
}

/// The paper's CAIDA-like workload at the chosen scale.
inline trace::TraceConfig scaled_caida(double scale, std::uint64_t seed = 2016) {
  trace::TraceConfig c = trace::TraceConfig::caida_like().scaled(scale);
  c.seed = seed;
  return c;
}

/// Prints the bench's header. A trace with no packet would print ratios of
/// nothing (nan%, "0x the SRAM", a feasible design from zero packets), so
/// the bench exits nonzero instead, naming the scale.
inline void print_scale_banner(const char* what, double scale,
                               const trace::TraceConfig& config) {
  if (!trace::FlowSessionGenerator(config).next()) {
    std::fprintf(stderr,
                 "%s: PERFQ_SCALE=%g generates no packet; raise the scale\n",
                 what, scale);
    std::exit(2);
  }
  std::printf(
      "# %s\n"
      "# scale=%.5f: ~%.2fM flows, ~%.1fM packets over %.0f s "
      "(paper: 3.8M flows, 157M packets; set PERFQ_SCALE=1 to match)\n",
      what, scale, static_cast<double>(config.num_flows) / 1e6,
      config.expected_packets() / 1e6, to_seconds(config.duration));
}

/// The fold kernel the compiler emits for `source`'s first on-switch GROUPBY.
inline std::shared_ptr<const compiler::CompiledFoldKernel> compiled_kernel(
    std::string_view source, const std::map<std::string, double>& params = {}) {
  return compiler::compile_source(source, params).switch_plans.at(0).kernel;
}

}  // namespace perfq::bench

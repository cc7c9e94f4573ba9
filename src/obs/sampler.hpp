// Background metrics sampling: a poller that reads an engine's metrics() on
// its own thread at a fixed interval and keeps a bounded time series — the
// "metrics over the run" view a monitoring UI or a post-hoc analysis wants,
// without the caller having to thread a poller through its processing loop.
//
// The poller only ever calls metrics(), which the coherence contract
// (runtime/engine_api.hpp) makes safe from any thread, including while the
// caller processes and even after a fault poisons the engine. The engine
// must outlive the sampler.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/engine_api.hpp"

namespace perfq::obs {

/// One timestamped EngineMetrics from the sampler.
struct MetricsSample {
  std::uint64_t elapsed_ns = 0;  ///< since the sampler started
  runtime::EngineMetrics metrics;
};

class MetricsSampler {
 public:
  /// Samples engine.metrics() every `interval` into a series of at most
  /// `capacity` samples (oldest dropped). Throws ConfigError on a
  /// non-positive interval or a zero capacity.
  MetricsSampler(const runtime::Engine& engine,
                 std::chrono::milliseconds interval, std::size_t capacity);
  /// Stops and joins the sampler thread.
  ~MetricsSampler();
  MetricsSampler(const MetricsSampler&) = delete;
  MetricsSampler& operator=(const MetricsSampler&) = delete;

  /// The collected time series so far (oldest first). Thread-safe.
  [[nodiscard]] std::vector<MetricsSample> series() const;

 private:
  void sampler_loop();

  const runtime::Engine& engine_;
  std::chrono::milliseconds interval_;
  std::size_t capacity_;
  std::chrono::steady_clock::time_point start_;
  mutable std::mutex mu_;  ///< guards stop_ and series_
  std::condition_variable cv_;
  bool stop_ = false;
  std::deque<MetricsSample> series_;
  std::thread thread_;  ///< last member: starts after everything is ready
};

}  // namespace perfq::obs

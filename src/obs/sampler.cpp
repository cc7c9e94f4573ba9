#include "obs/sampler.hpp"

#include "common/error.hpp"

namespace perfq::obs {

MetricsSampler::MetricsSampler(const runtime::Engine& engine,
                               std::chrono::milliseconds interval,
                               std::size_t capacity)
    : engine_(engine),
      interval_(interval),
      capacity_(capacity),
      start_(std::chrono::steady_clock::now()) {
  if (interval_.count() <= 0) {
    throw ConfigError{"MetricsSampler: sampling interval must be positive"};
  }
  if (capacity_ == 0) {
    throw ConfigError{"MetricsSampler: zero sample capacity"};
  }
  thread_ = std::thread([this] { sampler_loop(); });
}

MetricsSampler::~MetricsSampler() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void MetricsSampler::sampler_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (cv_.wait_for(lock, interval_, [this] { return stop_; })) return;
    lock.unlock();
    MetricsSample sample;
    sample.elapsed_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
    bool ok = true;
    try {
      sample.metrics = engine_.metrics();
    } catch (...) {
      // metrics() is contractually non-throwing on engine faults; anything
      // escaping anyway (allocation failure under pressure) just skips the
      // sample — the sampler must never take the process down.
      ok = false;
    }
    lock.lock();
    if (ok && !stop_) {
      series_.push_back(std::move(sample));
      while (series_.size() > capacity_) series_.pop_front();
    }
  }
}

std::vector<MetricsSample> MetricsSampler::series() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return {series_.begin(), series_.end()};
}

}  // namespace perfq::obs

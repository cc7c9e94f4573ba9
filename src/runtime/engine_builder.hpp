// Fluent construction of the Engine — the only way to build one.
//
//   auto engine = runtime::EngineBuilder(compiler::compile_source(src))
//                     .geometry(kv::CacheGeometry::set_associative(4096, 8))
//                     .refresh(1_s)
//                     .sharded(8)
//                     .build();   // std::unique_ptr<Engine>
//
// Without sharded(N) the engine folds on the caller (the inline executor);
// with it, on N shard worker threads fed by the caller (the threaded
// executor) — same results either way (bit-identical for linear kernels), so
// the choice is purely a deployment knob. Threaded-only tuning knobs
// (ring_capacity, dispatch_batch, drain_timeout) are rejected at build()
// when no sharding was requested, so a config can't silently misapply.
// The placement-hash seed and the LRU policy are EngineConfig constants,
// not setters; a tenant attached later brings its own cache geometry
// (AttachOptions::geometry).
#pragma once

#include <chrono>
#include <cstddef>
#include <memory>
#include <optional>
#include <string>

#include "runtime/engine_api.hpp"

namespace perfq::runtime {

class EngineBuilder {
 public:
  explicit EngineBuilder(compiler::CompiledProgram program)
      : program_(std::move(program)) {}

  /// Cache geometry for every on-switch GROUPBY (total budget; the threaded
  /// executor slices it across shards).
  EngineBuilder& geometry(const kv::CacheGeometry& g) {
    config_.geometry = g;
    return *this;
  }
  /// Periodic cache→backing refresh interval (§3.2); zero disables.
  EngineBuilder& refresh(Nanos interval) {
    config_.refresh_interval = interval;
    return *this;
  }
  /// Attach a user sink to the named stream SELECT query (stream_sink.hpp).
  EngineBuilder& stream_sink(const std::string& query,
                             std::shared_ptr<StreamSink> sink) {
    config_.stream_sinks[query] = std::move(sink);
    return *this;
  }
  /// Verify IPv4 header checksums on the wire ingest path
  /// (Engine::process_wire_batch); failures skip-and-count as bad_checksum.
  /// Off by default — software captures rarely carry valid checksums.
  EngineBuilder& verify_checksums(bool on = true) {
    config_.verify_checksums = on;
    return *this;
  }

  /// Scale the store across `num_shards` worker cores (at least one; without
  /// this call the engine folds on the caller). Requires
  /// num_buckets % num_shards == 0 per geometry.
  EngineBuilder& sharded(std::size_t num_shards) {
    shards_ = num_shards;
    return *this;
  }
  /// Capacity of each shard's record ring, in messages.
  EngineBuilder& ring_capacity(std::size_t messages) {
    threaded_.ring_capacity = messages;
    return threaded_knob("ring_capacity()");
  }
  /// Records the caller stages per shard before publishing.
  EngineBuilder& dispatch_batch(std::size_t records) {
    threaded_.dispatch_batch = records;
    return threaded_knob("dispatch_batch()");
  }
  /// Drain watchdog deadline for every caller-side wait on the threaded
  /// pipeline (full-ring pushes, the snapshot rendezvous, the finish()
  /// joins). On expiry the blocked call throws EngineFaultError with a
  /// pipeline diagnostic instead of hanging. Zero disables.
  EngineBuilder& drain_timeout(std::chrono::milliseconds deadline) {
    threaded_.drain_timeout = deadline;
    return threaded_knob("drain_timeout()");
  }

  /// Construct the engine. Consumes the builder's program: call once.
  [[nodiscard]] std::unique_ptr<Engine> build();

 private:
  EngineBuilder& threaded_knob(const char* name) {
    if (threaded_knob_ == nullptr) threaded_knob_ = name;
    return *this;
  }

  compiler::CompiledProgram program_;
  EngineConfig config_;
  std::optional<std::size_t> shards_;  ///< unset = the inline executor
  ThreadedConfig threaded_;
  /// The first threaded-only knob set; build() rejects it without sharded().
  const char* threaded_knob_ = nullptr;
  bool built_ = false;
};

}  // namespace perfq::runtime

// Functional model of the paper's switch architecture (§3):
//
//   frame bytes -> programmable parser -> match stages (TCAM where the WHERE
//   predicate is match-expressible, ALU fallback otherwise) -> stateful
//   key-value store stage -> (record continues to the queue/telemetry path).
//
// SwitchPipeline is the architectural counterpart of runtime::Engine's inline
// executor loop: it consumes raw frames plus the queue metadata the
// traffic manager supplies (enqueue/dequeue timestamps, depth — §3.1 notes
// these "are provided by metadata available on programmable switches"), and
// must produce byte-identical aggregation state. Tests assert exactly that.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "compiler/program.hpp"
#include "kvstore/kvstore.hpp"
#include "switchsim/match_compiler.hpp"
#include "switchsim/parser.hpp"
#include "switchsim/tcam.hpp"

namespace perfq::sw {

/// Per-packet metadata injected by the traffic manager.
struct QueueMetadata {
  std::uint32_t qid = 0;
  Nanos tin;
  Nanos tout;
  std::uint32_t qsize = 0;
};

struct StageReport {
  std::string query;
  bool tcam = false;             ///< predicate realized as match entries
  std::size_t tcam_entries = 0;
  std::uint64_t matched = 0;     ///< records passed to the KV stage
  std::uint64_t filtered = 0;    ///< records rejected by the predicate
};

class SwitchPipeline {
 public:
  /// The pipeline holds a reference to `program`; it must outlive this.
  SwitchPipeline(const compiler::CompiledProgram& program,
                 kv::CacheGeometry geometry,
                 ParserGraph parser = ParserGraph::standard());

  /// Parse a raw frame and run every query stage.
  void process_frame(std::span<const std::byte> frame, const QueueMetadata& meta);

  /// Run stages on an already-parsed record (bypasses the parser).
  void process_record(const PacketRecord& rec);

  void flush(Nanos now);

  [[nodiscard]] const kv::KeyValueStore& store(std::size_t stage) const {
    return *stages_.at(stage).store;
  }
  [[nodiscard]] std::vector<StageReport> report() const;
  [[nodiscard]] std::uint64_t frames_parsed() const { return frames_; }
  [[nodiscard]] std::size_t stage_count() const { return stages_.size(); }

 private:
  struct Stage {
    const compiler::SwitchQueryPlan* plan;
    std::optional<TcamTable> tcam;  ///< engaged when predicate lowered
    std::unique_ptr<kv::KeyValueStore> store;
    std::uint64_t matched = 0;
    std::uint64_t filtered = 0;
  };

  const compiler::CompiledProgram& program_;
  ParserGraph parser_;
  std::vector<Stage> stages_;
  std::uint64_t frames_ = 0;
};

}  // namespace perfq::sw

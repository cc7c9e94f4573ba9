// The engine-internal stage behind stream SELECT sinks: wires each of the
// program's stream selects (CompiledProgram::stream_selects, compiled with
// the program) to its StreamSink (user-provided via
// EngineConfig::stream_sinks, or a default TableStreamSink), evaluates
// filters/projections per record on the caller thread (row appends are
// order-sensitive, so the engine observes every record there, in record
// order, whichever executor folds it), and delivers the buffered rows once
// per engine-level process_batch() call.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "compiler/program.hpp"
#include "runtime/engine_api.hpp"
#include "runtime/table.hpp"

namespace perfq::runtime {

class StreamStage {
 public:
  /// Opens a sink for each of the program's stream selects and validates
  /// `config.stream_sinks` (unknown or non-stream names throw ConfigError).
  StreamStage(const compiler::CompiledProgram& program,
              const EngineConfig& config);

  /// No stream sinks in the program: observe() calls can be skipped.
  [[nodiscard]] bool empty() const { return entries_.empty(); }

  /// Evaluate every sink's filter/projections on one record (record order).
  /// Generic over the record representation; the wire ingest path evaluates
  /// straight off frame bytes. Instantiated in stream_stage.cpp.
  template <typename Rec>
  void observe(const Rec& rec);

  /// Flush the rows buffered since the last deliver() to the sinks — one
  /// on_batch() per sink per process_batch() call with matching rows.
  void deliver();

  /// deliver() any tail rows, signal on_finish(), and materialize the table
  /// of every sink that exposes one (default table sinks are moved,
  /// user-provided ones copied): base-program entries into `tables` by query
  /// index, dynamically attached ones into `attached_tables` by name (their
  /// query indices belong to their own programs and would collide).
  void finish(std::map<int, ResultTable>& tables,
              std::map<std::string, ResultTable, std::less<>>& attached_tables);

  /// Dynamically attach one stream-SELECT tenant. `program` must classify as
  /// AttachKind::kStreamSelect (the engine validates before calling); a null
  /// `sink` gets a default TableStreamSink. `epoch` is the attach record
  /// boundary reported via StreamSinkMetrics::attach_records. Caller-thread
  /// only, serialized with observe()/deliver() by the engine's lifecycle
  /// contract.
  void attach(const compiler::CompiledProgram& program,
              const std::string& name, std::shared_ptr<StreamSink> sink,
              std::uint64_t epoch);

  /// Detach a dynamically attached tenant: deliver its buffered rows, signal
  /// on_finish(), return its table (empty-by-schema if the sink exposes
  /// none), drop the entry. Throws QueryError if `name` is unknown or names
  /// a base-program stream.
  ResultTable detach(std::string_view name);

  /// Whether any live entry (base or attached) has this result name.
  [[nodiscard]] bool has(std::string_view name) const;

  /// Whether a DYNAMICALLY ATTACHED entry has this name (engines use this to
  /// reject base-program detaches cleanly, before any side effects).
  [[nodiscard]] bool has_attached(std::string_view name) const;

  /// Append one StreamSinkMetrics per stream query (delivery counts come
  /// from single-writer slots; drop counts from the sinks). Safe from a
  /// metrics thread while the caller thread delivers, PROVIDED the engine
  /// guards attach()/detach() against collect() (topology mutex).
  void collect(std::vector<StreamSinkMetrics>& out) const;

 private:
  struct Entry {
    compiler::CompiledStreamSelect compiled;
    std::string name;          ///< result name ("" if unnamed)
    lang::Schema schema;
    std::shared_ptr<StreamSink> sink;
    TableStreamSink* default_sink = nullptr;  ///< set iff engine-owned
    std::vector<std::vector<double>> batch;   ///< rows since last deliver()
    obs::RelaxedU64 delivered;  ///< rows offered via on_batch (caller thread)
    bool attached = false;             ///< a dynamically attached tenant
    std::uint64_t attach_records = 0;  ///< attach epoch
  };

  /// Build the entry for one of `program`'s stream selects and open its
  /// sink: `sink`, or a default TableStreamSink when null.
  Entry& open_entry(const compiler::CompiledProgram& program,
                    const compiler::CompiledStreamSelect& select,
                    std::string name, std::shared_ptr<StreamSink> sink);
  void deliver_entry(Entry& entry);
  /// Deliver the entry's tail rows, signal on_finish() and hand back its
  /// table: the default sink's (moved), a user sink's finished_table()
  /// (copied), or nullopt when the sink exposes none.
  std::optional<ResultTable> close_entry(Entry& entry);

  std::vector<Entry> entries_;
};

}  // namespace perfq::runtime

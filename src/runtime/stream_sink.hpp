// Pluggable delivery of stream SELECT rows (§3.1: "SELECT ... FROM T"
// queries that stream per-packet rows instead of aggregating on-switch).
//
// Every stream SELECT a program leaves unconsumed (its
// CompiledProgram::stream_selects) gets a StreamSink. The engine evaluates
// the query's filter/projections per record (in record order, on the caller
// thread whichever executor folds) and delivers the matching rows in
// batches: exactly one on_batch() call per engine-level process_batch() call
// that produced at least one row, carrying the rows of exactly those
// records, in record order. finish() flushes any remaining rows and then
// calls on_finish() once.
//
// Three implementations cover the paper's deployment modes:
//   TableStreamSink    buffer rows into a ResultTable up to a row cap, then
//                      saturate (the default, capped at 1,000,000 rows; a
//                      user sink of this type may set its own cap);
//   CallbackStreamSink hand each batch to a user function (export to an
//                      external collector without any engine-side buffering);
//   RingStreamSink     bounded drop-oldest ring a monitoring thread drains
//                      concurrently (the "tail -f" view of the stream).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "lang/schema.hpp"
#include "obs/metrics.hpp"
#include "runtime/table.hpp"

namespace perfq::runtime {

/// One delivery of stream rows: row-major values under `schema`, all
/// produced by the same process_batch() call. Spans borrow engine-internal
/// buffers — valid only for the duration of the on_batch() call; sinks that
/// keep rows must copy them.
struct StreamBatch {
  std::string_view query;  ///< the query's result name ("" if unnamed)
  const lang::Schema* schema = nullptr;
  std::span<const std::vector<double>> rows;
};

class StreamSink {
 public:
  virtual ~StreamSink() = default;

  /// Called once, before any rows, when the engine wires the sink to a
  /// stream query (engine construction time).
  virtual void open(std::string_view /*query*/, const lang::Schema& /*schema*/) {}

  /// Deliver one batch of rows (never empty). Runs on the engine's caller
  /// thread inside process_batch()/finish().
  virtual void on_batch(const StreamBatch& batch) = 0;

  /// The stream is complete (engine finish()); no further batches follow.
  virtual void on_finish() {}

  /// A saturated sink drops everything it is offered from now on; the
  /// engine then stops evaluating and buffering rows for it entirely (the
  /// per-record fast path the capped default sink relied on before sinks
  /// were pluggable). Once true it must stay true.
  [[nodiscard]] virtual bool saturated() const { return false; }

  /// A sink that buffers the complete stream as a table may expose it here;
  /// the engine then materializes the query's result table from it at
  /// finish(), making table(name)/result() work exactly as with the default
  /// sink. Return nullptr (the default) for pass-through sinks — the query's
  /// table is then simply not materialized.
  [[nodiscard]] virtual const ResultTable* finished_table() const {
    return nullptr;
  }

  /// Rows this sink was offered but discarded (capped tables, full rings).
  /// Surfaced uniformly through EngineMetrics::streams; must be safe to call
  /// from a metrics thread while the engine delivers. Unbounded sinks keep
  /// the default 0.
  [[nodiscard]] virtual std::uint64_t rows_dropped() const { return 0; }
};

/// The default sink: buffer rows into a ResultTable, capped at `max_rows`.
/// Past the cap rows are dropped, counted, and saturated() latches true.
class TableStreamSink : public StreamSink {
 public:
  explicit TableStreamSink(std::size_t max_rows = 1'000'000)
      : max_rows_(max_rows) {}

  void open(std::string_view query, const lang::Schema& schema) override;
  void on_batch(const StreamBatch& batch) override;
  /// Saturates once the first row has been dropped (the overflow flag is
  /// latched then — matching the pre-sink engine, which recorded overflow on
  /// the first excess row before short-circuiting the rest).
  [[nodiscard]] bool saturated() const override {
    return overflowed_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const ResultTable* finished_table() const override {
    return &table_;
  }
  [[nodiscard]] std::uint64_t rows_dropped() const override { return dropped_; }

  [[nodiscard]] const ResultTable& table() const { return table_; }
  /// Engine-internal (default-sink) path: move the table out at finish().
  [[nodiscard]] ResultTable take_table() { return std::move(table_); }

 private:
  std::size_t max_rows_;
  ResultTable table_;
  /// atomic/RelaxedU64 so a metrics thread can poll saturation and drops
  /// while the caller thread delivers (single writer: the caller thread).
  std::atomic<bool> overflowed_{false};
  obs::RelaxedU64 dropped_;
};

/// Hand every batch to a user function; nothing is buffered engine-side.
class CallbackStreamSink : public StreamSink {
 public:
  using Callback = std::function<void(const StreamBatch&)>;
  using FinishCallback = std::function<void()>;

  explicit CallbackStreamSink(Callback on_batch,
                              FinishCallback on_finish = nullptr)
      : callback_(std::move(on_batch)), finish_(std::move(on_finish)) {}

  void on_batch(const StreamBatch& batch) override { callback_(batch); }
  void on_finish() override {
    if (finish_) finish_();
  }

 private:
  Callback callback_;
  FinishCallback finish_;
};

/// Bounded ring of the most recent rows, safe to drain from another thread
/// while the engine keeps processing (the paper's monitoring pull, applied
/// to streams): a full ring drops its oldest rows and counts them.
class RingStreamSink : public StreamSink {
 public:
  explicit RingStreamSink(std::size_t capacity);

  void on_batch(const StreamBatch& batch) override;

  /// Move all currently buffered rows into `out` (cleared first); returns
  /// the number of rows drained. Thread-safe against on_batch().
  std::size_t drain(std::vector<std::vector<double>>& out);

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint64_t dropped() const;
  [[nodiscard]] std::uint64_t rows_dropped() const override { return dropped(); }

 private:
  std::size_t capacity_;
  mutable std::mutex mu_;
  std::deque<std::vector<double>> rows_;
  std::uint64_t dropped_ = 0;
};

}  // namespace perfq::runtime

#include "runtime/stream_stage.hpp"

#include <set>
#include <utility>

#include "common/error.hpp"

namespace perfq::runtime {

StreamStage::StreamStage(const compiler::CompiledProgram& program,
                         const EngineConfig& config) {
  std::set<std::string> matched;
  for (const compiler::CompiledStreamSelect& select : program.stream_selects) {
    const std::string& name =
        program.analysis->queries[static_cast<std::size_t>(select.query_index)]
            .def.result_name;
    std::shared_ptr<StreamSink> sink;
    if (const auto it = config.stream_sinks.find(name);
        !name.empty() && it != config.stream_sinks.end()) {
      if (it->second == nullptr) {
        throw ConfigError{"stream sink for '" + name + "' is null"};
      }
      sink = it->second;
      matched.insert(name);
    }
    open_entry(program, select, name, std::move(sink));
  }
  for (const auto& [name, sink] : config.stream_sinks) {
    if (matched.count(name) == 0) {
      throw ConfigError{"stream sink '" + name +
                        "' does not name an unconsumed stream SELECT query"};
    }
  }
}

StreamStage::Entry& StreamStage::open_entry(
    const compiler::CompiledProgram& program,
    const compiler::CompiledStreamSelect& select, std::string name,
    std::shared_ptr<StreamSink> sink) {
  Entry entry;
  entry.compiled = select;
  entry.name = std::move(name);
  entry.schema =
      program.analysis->queries[static_cast<std::size_t>(select.query_index)]
          .output;
  if (sink != nullptr) {
    entry.sink = std::move(sink);
  } else {
    auto table_sink = std::make_shared<TableStreamSink>();
    entry.default_sink = table_sink.get();
    entry.sink = std::move(table_sink);
  }
  entry.sink->open(entry.name, entry.schema);
  return entries_.emplace_back(std::move(entry));
}

template <typename Rec>
void StreamStage::observe(const Rec& rec) {
  const auto source = compiler::record_source(rec);
  for (Entry& entry : entries_) {
    // A saturated sink (e.g. an overflowed table sink) drops every further
    // row anyway: skip the filter/projection work per record.
    if (entry.sink->saturated()) continue;
    if (entry.compiled.filter.has_value() &&
        !entry.compiled.filter->eval_bool(source)) {
      continue;
    }
    std::vector<double> row;
    row.reserve(entry.compiled.projections.size());
    for (const auto& [name, expr] : entry.compiled.projections) {
      row.push_back(expr.eval(source));
    }
    entry.batch.push_back(std::move(row));
  }
}

template void StreamStage::observe<PacketRecord>(const PacketRecord&);
template void StreamStage::observe<WireRecordView>(const WireRecordView&);

void StreamStage::deliver_entry(Entry& entry) {
  if (entry.batch.empty()) return;
  StreamBatch batch;
  batch.query = entry.name;
  batch.schema = &entry.schema;
  batch.rows = entry.batch;
  entry.delivered += entry.batch.size();
  entry.sink->on_batch(batch);
  entry.batch.clear();
}

void StreamStage::deliver() {
  for (Entry& entry : entries_) deliver_entry(entry);
}

void StreamStage::attach(const compiler::CompiledProgram& program,
                         const std::string& name,
                         std::shared_ptr<StreamSink> sink,
                         std::uint64_t epoch) {
  Entry& entry = open_entry(program, program.stream_selects.front(), name,
                            std::move(sink));
  entry.attached = true;
  entry.attach_records = epoch;
}

std::optional<ResultTable> StreamStage::close_entry(Entry& entry) {
  deliver_entry(entry);
  entry.sink->on_finish();
  if (entry.default_sink != nullptr) return entry.default_sink->take_table();
  if (const ResultTable* t = entry.sink->finished_table()) return *t;
  return std::nullopt;
}

ResultTable StreamStage::detach(std::string_view name) {
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->name != name) continue;
    if (!it->attached) {
      throw QueryError{"result",
                       "detach: '" + std::string(name) +
                           "' is a base-program stream, not a dynamic attach"};
    }
    ResultTable table = close_entry(*it).value_or(ResultTable{it->schema});
    entries_.erase(it);
    return table;
  }
  throw QueryError{"result",
                   "detach: unknown stream query '" + std::string(name) + "'"};
}

bool StreamStage::has(std::string_view name) const {
  for (const Entry& entry : entries_) {
    if (entry.name == name) return true;
  }
  return false;
}

bool StreamStage::has_attached(std::string_view name) const {
  for (const Entry& entry : entries_) {
    if (entry.name == name) return entry.attached;
  }
  return false;
}

void StreamStage::collect(std::vector<StreamSinkMetrics>& out) const {
  for (const Entry& entry : entries_) {
    StreamSinkMetrics m;
    m.query = entry.name;
    m.rows_delivered = entry.delivered;
    m.rows_dropped = entry.sink->rows_dropped();
    m.saturated = entry.sink->saturated();
    m.attached = entry.attached;
    m.attach_records = entry.attach_records;
    out.push_back(std::move(m));
  }
}

void StreamStage::finish(
    std::map<int, ResultTable>& tables,
    std::map<std::string, ResultTable, std::less<>>& attached_tables) {
  for (Entry& entry : entries_) {
    std::optional<ResultTable> table = close_entry(entry);
    if (entry.attached) {
      if (!table.has_value()) table.emplace(entry.schema);
      attached_tables.emplace(entry.name, std::move(*table));
    } else if (table.has_value()) {
      tables.emplace(entry.compiled.query_index, std::move(*table));
    }
  }
}

}  // namespace perfq::runtime

#include "runtime/stream_stage.hpp"

#include <set>
#include <utility>

#include "common/error.hpp"

namespace perfq::runtime {

std::vector<int> stream_sink_queries(const compiler::CompiledProgram& program) {
  const auto& queries = program.analysis->queries;
  std::set<int> consumed;
  for (const auto& q : queries) {
    consumed.insert(q.input);
    consumed.insert(q.left);
    consumed.insert(q.right);
  }
  std::vector<int> out;
  for (int i = 0; i < static_cast<int>(queries.size()); ++i) {
    const auto& q = queries[static_cast<std::size_t>(i)];
    if (q.def.kind == lang::QueryDef::Kind::kSelect &&
        q.output.stream_over_base && consumed.count(i) == 0) {
      out.push_back(i);
    }
  }
  return out;
}

StreamStage::StreamStage(const compiler::CompiledProgram& program,
                         const EngineConfig& config) {
  std::set<std::string> matched;
  for (const int i : stream_sink_queries(program)) {
    const auto& q = program.analysis->queries[static_cast<std::size_t>(i)];
    Entry entry;
    entry.compiled = compiler::compile_stream_select(*program.analysis, i);
    entry.name = q.def.result_name;
    entry.schema = q.output;
    if (const auto it = config.stream_sinks.find(entry.name);
        !entry.name.empty() && it != config.stream_sinks.end()) {
      if (it->second == nullptr) {
        throw ConfigError{"stream sink for '" + entry.name + "' is null"};
      }
      entry.sink = it->second;
      matched.insert(entry.name);
    } else {
      auto table_sink =
          std::make_shared<TableStreamSink>(config.max_stream_rows);
      entry.default_sink = table_sink.get();
      entry.sink = std::move(table_sink);
    }
    entry.sink->open(entry.name, entry.schema);
    entries_.push_back(std::move(entry));
  }
  for (const auto& [name, sink] : config.stream_sinks) {
    if (matched.count(name) == 0) {
      throw ConfigError{"stream sink '" + name +
                        "' does not name an unconsumed stream SELECT query"};
    }
  }
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

void StreamStage::attach(
    std::shared_ptr<const compiler::CompiledProgram> program,
    const std::string& name, std::shared_ptr<StreamSink> sink,
    const EngineConfig& config, std::uint64_t epoch) {
  const int index =
      static_cast<int>(program->analysis->queries.size()) - 1;
  const auto& q = program->analysis->queries[index];
  Entry entry;
  entry.compiled = compiler::compile_stream_select(*program->analysis, index);
  entry.name = name;
  entry.schema = q.output;
  if (sink != nullptr) {
    entry.sink = std::move(sink);
  } else {
    auto table_sink = std::make_shared<TableStreamSink>(config.max_stream_rows);
    entry.default_sink = table_sink.get();
    entry.sink = std::move(table_sink);
  }
  entry.attached_program = std::move(program);
  entry.attach_records = epoch;
  entry.sink->open(entry.name, entry.schema);
  entries_.push_back(std::move(entry));
}

ResultTable StreamStage::detach(std::string_view name) {
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->name != name) continue;
    if (it->attached_program == nullptr) {
      throw QueryError{"result",
                       "detach: '" + std::string(name) +
                           "' is a base-program stream, not a dynamic attach"};
    }
    deliver_entry(*it);
    it->sink->on_finish();
    ResultTable table{it->schema};
    if (it->default_sink != nullptr) {
      table = it->default_sink->take_table();
    } else if (const ResultTable* t = it->sink->finished_table()) {
      table = *t;
    }
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
    if (entry.name == name) return entry.attached_program != nullptr;
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
    m.attached = entry.attached_program != nullptr;
    m.attach_records = entry.attach_records;
    out.push_back(std::move(m));
  }
}

void StreamStage::finish(
    std::map<int, ResultTable>& tables,
    std::map<std::string, ResultTable, std::less<>>& attached_tables) {
  deliver();
  for (Entry& entry : entries_) {
    entry.sink->on_finish();
    ResultTable table{entry.schema};
    bool have = false;
    if (entry.default_sink != nullptr) {
      table = entry.default_sink->take_table();
      have = true;
    } else if (const ResultTable* t = entry.sink->finished_table()) {
      table = *t;
      have = true;
    }
    if (entry.attached_program != nullptr) {
      attached_tables.emplace(entry.name, std::move(table));
    } else if (have) {
      tables.emplace(entry.compiled.query_index, std::move(table));
    }
  }
}

}  // namespace perfq::runtime

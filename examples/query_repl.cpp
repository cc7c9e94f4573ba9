// Query runner / REPL: compile and execute an arbitrary query over a
// synthetic trace (or a PQWF/pcap capture file), printing the compilation
// report and the result table. Demonstrates the toolchain the way an
// operator console would use it.
//
// Usage:
//   ./build/query_repl                       # demo query
//   ./build/query_repl query.pq              # query from file
//   ./build/query_repl query.pq trace.pqwf   # ... over a capture (or .pcap)
//   ./build/query_repl - trace.pqwf          # query on stdin, over a capture
//   echo 'SELECT COUNT GROUPBY srcip' | ./build/query_repl -
//   ./build/query_repl -i [query.pq]         # interactive console
//
// A capture replays through the engine's wire front in bursts
// (Engine::process_wire_batch): damaged frames and a torn file tail are
// skipped and counted, and the counts are printed before the result.
// tools/make_wire_trace writes such captures.
//
// Interactive mode keeps the engine live between commands: .run feeds
// synthetic traffic and .finish ends the window; every other line is a
// command of the line protocol (service/line_protocol.hpp) that the socket
// server in examples/query_server.cpp speaks — SNAPSHOT pulls a mid-run
// result, ATTACH/DETACH add and remove resident queries mid-stream, LIST
// shows them, and STATS/JSON/PROM read the engine's own telemetry — printed
// as its payload lines, or as ERR <message>.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "runtime/engine_builder.hpp"
#include "service/line_protocol.hpp"
#include "service/query_service.hpp"
#include "switchsim/match_compiler.hpp"
#include "trace/flow_session.hpp"
#include "trace/wire_trace.hpp"

namespace {

using namespace perfq;

constexpr const char* kDemoQuery = R"(
def ewma (lat_est, (tin, tout)):
    lat_est = (1 - alpha) * lat_est + alpha * (tout - tin)

SELECT 5tuple, COUNT, ewma GROUPBY 5tuple WHERE proto == TCP
)";

std::string read_source(const char* arg) {
  if (arg == nullptr) return kDemoQuery;
  if (std::string{arg} == "-") {
    std::ostringstream ss;
    ss << std::cin.rdbuf();
    return ss.str();
  }
  std::ifstream in(arg);
  if (!in) throw ConfigError{std::string{"cannot open query file "} + arg};
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void print_compilation_report(const compiler::CompiledProgram& program) {
  std::printf("-- compilation report --------------------------------------\n");
  for (std::size_t i = 0; i < program.analysis->queries.size(); ++i) {
    const auto& q = program.analysis->queries[i];
    const char* kind = q.def.kind == lang::QueryDef::Kind::kGroupBy
                           ? (q.on_switch ? "GROUPBY (on-switch KV store)"
                                          : "GROUPBY (collection layer)")
                       : q.def.kind == lang::QueryDef::Kind::kJoin
                           ? "JOIN (collection layer)"
                           : "SELECT";
    std::printf("  [%zu] %s%s%s -> schema %s\n", i,
                q.def.result_name.empty() ? "" : q.def.result_name.c_str(),
                q.def.result_name.empty() ? "" : " = ", kind,
                q.output.to_string().c_str());
  }
  for (const auto& plan : program.switch_plans) {
    std::printf("  store '%s': key %dB, %zu state dims, %s", plan.name.c_str(),
                plan.key_bytes(), plan.kernel->state_dims(),
                kv::to_cstring(plan.linearity));
    if (plan.prefilter_ast != nullptr) {
      const auto tcam = sw::compile_where_to_tcam(*plan.prefilter_ast, 1);
      if (tcam.has_value()) {
        std::printf(", WHERE -> %zu TCAM entries", tcam->size());
      } else {
        std::printf(", WHERE -> ALU stage");
      }
    }
    std::printf("\n");
  }
  std::printf("-------------------------------------------------------------\n");
}

void print_repl_help() {
  std::printf(
      ".run [n]            feed n synthetic records (default 10000)\n"
      ".finish             end the window and print the result table\n"
      ".quit               exit\n"
      "anything else       a line-protocol command: SNAPSHOT <name>,\n"
      "                    ATTACH <name> <query>, DETACH <name>, DRAIN <name>,\n"
      "                    LIST, STATS, JSON, PROM\n");
}

int run_interactive(std::unique_ptr<runtime::Engine> engine) {
  // The same service the socket server fronts, driven by the same line
  // protocol.
  service::QueryService service(std::move(engine));
  // A long synthetic workload the operator draws from with .run.
  trace::TraceConfig workload = trace::TraceConfig::caida_like().scaled(0.002);
  workload.duration = 3600_s;
  trace::FlowSessionGenerator gen(workload);
  std::printf("interactive console; .help lists commands\n");
  std::string line;
  while (std::printf("perfq> "), std::fflush(stdout),
         std::getline(std::cin, line)) {
    std::istringstream ss(line);
    std::string cmd;
    ss >> cmd;
    if (cmd.empty()) continue;
    if (cmd.front() != '.') {
      const service::Response r = service::execute_line(service, line);
      if (!r.ok) std::printf("ERR %s\n", r.error.c_str());
      for (const std::string& payload : r.lines) {
        std::printf("%s\n", payload.c_str());
      }
      if (r.shutdown) break;
      continue;
    }
    try {
      if (cmd == ".quit" || cmd == ".exit") break;
      if (cmd == ".help") {
        print_repl_help();
      } else if (cmd == ".run") {
        if (service.finished()) {
          std::printf("window already finished\n");
          continue;
        }
        std::size_t n = 10'000;
        ss >> n;
        std::vector<PacketRecord> batch;
        std::size_t fed = 0;
        while (fed < n) {
          const auto rec = gen.next();
          if (!rec) break;
          batch.push_back(*rec);
          // The last batch stops at n - fed, so exactly n records go in.
          if (batch.size() == std::min<std::size_t>(512, n - fed)) {
            service.process_batch(batch);
            fed += batch.size();
            batch.clear();
          }
        }
        if (!batch.empty()) {
          service.process_batch(batch);
          fed += batch.size();
        }
        std::printf("fed %zu records (total %llu)\n", fed,
                    static_cast<unsigned long long>(
                        service.records_processed()));
      } else if (cmd == ".finish") {
        if (service.finished()) {
          std::printf("window already finished\n");
          continue;
        }
        service.finish();
        std::printf("%s", service.result().to_text("result", 20).c_str());
      } else {
        std::printf("unknown command '%s'; .help lists commands\n",
                    cmd.c_str());
      }
    } catch (const Error& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    bool interactive = false;
    int argi = 1;
    if (argc > 1 && (std::string{argv[1]} == "-i" ||
                     std::string{argv[1]} == "--interactive")) {
      interactive = true;
      argi = 2;
    }
    const std::string source = read_source(argc > argi ? argv[argi] : nullptr);
    std::printf("query:\n%s\n", source.c_str());

    // Common thresholds available as constants; extend as needed.
    const std::map<std::string, double> params{
        {"alpha", 0.125}, {"K", 32.0}, {"L", 1'000'000.0}};
    compiler::CompiledProgram program = compiler::compile_source(source, params);
    print_compilation_report(program);

    // One builder line is the whole runtime setup; an operator console
    // wanting the multi-core engine would only append .sharded(N) here.
    std::unique_ptr<runtime::Engine> engine =
        runtime::EngineBuilder(std::move(program))
            .geometry(kv::CacheGeometry::set_associative(1u << 13, 8))
            .build();

    if (interactive) return run_interactive(std::move(engine));

    Nanos end;
    if (argc >= argi + 2) {
      const char* trace_path = argv[argi + 1];
      trace::WireTraceReader reader(trace_path);
      std::printf("replaying %s\n", trace_path);
      constexpr std::size_t kBurst = 1024;
      std::vector<FrameObservation> burst;
      burst.reserve(kBurst);
      trace::IngestStats stats;
      end = Nanos{0};
      while (auto frame = reader.next()) {
        burst.push_back(*frame);
        end = frame->tin;  // frames are time-ordered
        if (burst.size() == kBurst) {
          stats += engine->process_wire_batch(burst);
          burst.clear();
        }
      }
      if (!burst.empty()) stats += engine->process_wire_batch(burst);
      // A torn file tail never reached the engine: the reader counts it.
      trace::IngestStats lost;
      lost.truncated = reader.stats().truncated;
      engine->record_ingest(lost);
      stats += lost;
      std::printf("%s\n", stats.to_string().c_str());
    } else {
      trace::TraceConfig workload =
          trace::TraceConfig::caida_like().scaled(0.002);
      workload.duration = 30_s;
      trace::FlowSessionGenerator gen(workload);
      while (auto rec = gen.next()) engine->process(*rec);
      end = workload.duration;
      std::printf("processed %llu synthetic records\n",
                  static_cast<unsigned long long>(engine->records_processed()));
    }
    engine->finish(end);

    const runtime::ResultTable& result = engine->result();
    std::printf("%s", result.to_text("result", 20).c_str());
    for (const auto& stats : engine->store_stats()) {
      std::printf("store '%s': eviction rate %.2f%%, accuracy %.1f%%\n",
                  stats.name.c_str(), stats.cache.eviction_fraction() * 100.0,
                  stats.accuracy.accuracy() * 100.0);
    }
    return 0;
  } catch (const QueryError& e) {
    std::fprintf(stderr, "query error: %s\n", e.what());
    return 1;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

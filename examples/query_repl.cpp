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
// synthetic traffic, .snapshot pulls a mid-run result, .attach/.detach add
// and remove resident queries mid-stream (the same QueryService API the
// socket server in examples/query_server.cpp speaks), and .stats/.json/.prom
// read the engine's own telemetry (Engine::metrics()) — the operator-console
// view of "the monitor monitoring itself".
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "obs/metrics_export.hpp"
#include "runtime/engine_builder.hpp"
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
      ".snapshot <name>    mid-run result pull of one on-switch GROUPBY\n"
      ".attach <name> <q>  attach a query mid-stream (rest of line is text)\n"
      ".detach <name>      detach it and print its final table\n"
      ".tenants            list attached queries and the die-area budget\n"
      ".stats              engine telemetry summary (Engine::metrics())\n"
      ".json               telemetry as JSON\n"
      ".prom               telemetry as Prometheus text\n"
      ".finish             end the window and print the result table\n"
      ".quit               exit\n");
}

int run_interactive(std::unique_ptr<runtime::Engine> engine) {
  // The same service the socket server fronts: the console commands below
  // are the in-process view of the line protocol.
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
          if (batch.size() == 512) {
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
      } else if (cmd == ".snapshot") {
        std::string name;
        ss >> name;
        const runtime::EngineSnapshot snap = service.snapshot(name);
        std::printf("%s", snap.table
                              .to_text("snapshot '" + name + "' @ record " +
                                           std::to_string(snap.records),
                                       10)
                              .c_str());
      } else if (cmd == ".attach") {
        std::string name;
        ss >> name;
        std::string source;
        std::getline(ss, source);
        // The language is indentation-sensitive: the query must start at
        // column 1, so strip the separator spaces getline kept.
        source.erase(0, source.find_first_not_of(" \t"));
        const service::TenantInfo info = service.attach(name, source);
        std::printf("attached '%s' (%s, %.4f%% die) at record %llu\n",
                    info.name.c_str(),
                    info.kind == runtime::AttachKind::kSwitchQuery ? "switch"
                                                                   : "stream",
                    info.die_fraction * 100.0,
                    static_cast<unsigned long long>(info.attach_records));
      } else if (cmd == ".detach") {
        std::string name;
        ss >> name;
        const runtime::ResultTable table = service.detach(name);
        std::printf("%s", table.to_text("final '" + name + "'", 20).c_str());
      } else if (cmd == ".tenants") {
        for (const auto& t : service.tenants()) {
          std::printf("tenant '%s' (%s, %.4f%% die) since record %llu\n",
                      t.name.c_str(),
                      t.kind == runtime::AttachKind::kSwitchQuery ? "switch"
                                                                  : "stream",
                      t.die_fraction * 100.0,
                      static_cast<unsigned long long>(t.attach_records));
        }
        std::printf("budget: %.4f%% of %.4f%% die in use\n",
                    service.used_die_fraction() * 100.0,
                    service.config().budget.max_die_fraction * 100.0);
      } else if (cmd == ".stats") {
        std::printf("%s", obs::format_metrics(service.metrics()).c_str());
      } else if (cmd == ".json") {
        std::printf("%s\n", obs::metrics_to_json(service.metrics()).c_str());
      } else if (cmd == ".prom") {
        std::printf("%s",
                    obs::metrics_to_prometheus(service.metrics()).c_str());
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

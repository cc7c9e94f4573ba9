// The resident multi-tenant query service: one live Engine hosting queries
// that operators attach and detach while traffic flows — the paper's §3.2
// operating model ("monitoring applications can pull results"; operators
// submit queries against a switch that never stops forwarding) promoted to a
// first-class subsystem.
//
// The service adds three things on top of the raw engine lifecycle contract
// (engine_api.hpp, "Query lifecycle contract"):
//
//   1. RUNTIME COMPILATION. attach() takes query SOURCE TEXT, compiles it
//      (lexer → sema → fold compiler), classifies it via attachable_kind(),
//      and hands the engine a finished CompiledProgram. Compilation errors
//      surface as the compiler's own QueryError — nothing touches the engine.
//
//   2. ADMISSION CONTROL. Every on-switch GROUPBY tenant is priced in switch
//      die area through analysis::AdmissionBudget (§3.3 arithmetic: slots ×
//      bits-per-pair → Mbit → die fraction); an attach that would exceed the
//      budget is a clean ConfigError BEFORE the engine sees it — never a
//      degraded-accuracy admit. Stream SELECT tenants hold no switch state
//      and are free. detach() releases the tenant's charge.
//
//   3. SERIALIZATION. One mutex serializes attach/detach/snapshot/finish
//      with process_batch()/process_wire_batch(), exactly as the lifecycle
//      contract requires — so a socket front end (service/server.hpp) can
//      run ingest on one thread and client commands on others without any
//      caller-side coordination. Reads that the engine already makes
//      thread-safe (metrics()) pass through without the service mutex.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/area_model.hpp"
#include "runtime/engine_api.hpp"

namespace perfq::service {

/// The configuration of both front ends, QueryService and FabricService.
struct ServiceConfig {
  /// Admission pricing (die-area budget for dynamically attached tenants).
  /// The default budget is the paper's "< 2.5% additional die area" claim.
  /// A fabric prices per switch: every switch carries the same slice.
  analysis::AdmissionBudget budget;
  /// Cache slice geometry for switch tenants that do not override it. Kept
  /// deliberately small: tenants share the die budget.
  kv::CacheGeometry tenant_geometry = kv::CacheGeometry::set_associative(1u << 12, 8);
  /// Named constants available to tenant query text (WHERE qsize > K, ...).
  std::map<std::string, double> params{
      {"alpha", 0.125}, {"K", 32.0}, {"L", 1'000'000.0}};
};

/// Hard cap on concurrently attached tenants per service (socket-facing
/// sanity bound).
inline constexpr std::size_t kMaxTenants = 64;

/// The admission step both front ends run under their lock, before any
/// engine sees a tenant. It rejects a name in use (`exists`), a full tenant
/// list (`tenants` at kMaxTenants) and an on-switch GROUPBY (`plan`
/// non-null) whose `geometry` slice would take the die-area budget past its
/// limit, each with a ConfigError that starts with `verb` and changes
/// nothing. Returns the price to charge once the attach commits:
/// total_slots() × bits_per_pair(key, state dims) in die area, 0 for a
/// stream tenant.
[[nodiscard]] double admit_tenant(const ServiceConfig& config,
                                  std::string_view verb,
                                  const std::string& name, bool exists,
                                  std::size_t tenants,
                                  const compiler::SwitchQueryPlan* plan,
                                  const kv::CacheGeometry& geometry);

/// What the service knows about one attached tenant (LIST output).
struct TenantInfo {
  std::string name;
  runtime::AttachKind kind = runtime::AttachKind::kSwitchQuery;
  double die_fraction = 0.0;          ///< admission charge (0 for streams)
  std::uint64_t attach_records = 0;   ///< attach epoch
};

class QueryService {
 public:
  /// Takes ownership of a built engine (serial or sharded — the service is
  /// engine-agnostic like every other driver).
  explicit QueryService(std::unique_ptr<runtime::Engine> engine,
                        ServiceConfig config = {});

  // ---- ingest (the processing domain; serialized with everything below) ----

  void process_batch(std::span<const PacketRecord> records);
  trace::IngestStats process_wire_batch(std::span<const FrameObservation> frames);

  /// End the window for every resident query. Idempotence is NOT provided
  /// (matches the engine); callers gate on finished().
  void finish();
  [[nodiscard]] bool finished() const;

  // ---- tenant lifecycle ----------------------------------------------------

  /// Compile `source` and attach it under `name`, through admit_tenant():
  /// a rejected tenant is a ConfigError and leaves the engine untouched.
  /// A stream tenant given no sink gets a RingStreamSink of
  /// kStreamRingCapacity rows. Returns the tenant's info (kind, charge,
  /// attach epoch).
  TenantInfo attach(const std::string& name, const std::string& source,
                    std::optional<kv::CacheGeometry> geometry = std::nullopt,
                    std::shared_ptr<runtime::StreamSink> sink = nullptr);

  /// Detach `name`: returns its final table and releases its budget charge.
  runtime::ResultTable detach(const std::string& name);

  /// Mid-run result pull of one on-switch GROUPBY (tenant or base query),
  /// stamped with the latest record timestamp the service has seen.
  [[nodiscard]] runtime::EngineSnapshot snapshot(std::string_view name);

  /// Drain the buffered rows of a stream tenant whose sink the service
  /// auto-created (a RingStreamSink). Throws ConfigError for switch tenants,
  /// unknown names, or tenants attached with a caller-provided sink.
  std::size_t drain(std::string_view name,
                    std::vector<std::vector<double>>& out);

  /// Final table of a resident query after finish().
  [[nodiscard]] const runtime::ResultTable& table(std::string_view name) const;
  /// The base program's primary result after finish().
  [[nodiscard]] const runtime::ResultTable& result() const;

  // ---- observation ---------------------------------------------------------

  [[nodiscard]] std::vector<TenantInfo> tenants() const;
  /// Die fraction currently charged across all tenants.
  [[nodiscard]] double used_die_fraction() const;
  /// Engine telemetry; thread-safe without the service mutex by the metrics
  /// coherence contract.
  [[nodiscard]] runtime::EngineMetrics metrics() const {
    return engine_->metrics();
  }
  [[nodiscard]] std::uint64_t records_processed() const;
  /// Latest record timestamp fed through the service (snapshot/finish stamp).
  [[nodiscard]] Nanos now() const;

  [[nodiscard]] const ServiceConfig& config() const { return config_; }

  /// Ring capacity of the RingStreamSink made for a stream tenant.
  static constexpr std::size_t kStreamRingCapacity = 4096;

 private:
  struct Tenant {
    runtime::AttachKind kind = runtime::AttachKind::kSwitchQuery;
    double die_fraction = 0.0;
    std::uint64_t attach_records = 0;
    /// Set iff the service auto-created the tenant's stream sink.
    std::shared_ptr<runtime::RingStreamSink> ring;
  };

  ServiceConfig config_;
  std::unique_ptr<runtime::Engine> engine_;
  /// THE service lock: serializes the processing domain (ingest, attach,
  /// detach, snapshot, finish) and guards the tenant map + clock below.
  mutable std::mutex mu_;
  std::map<std::string, Tenant, std::less<>> tenants_;
  Nanos end_{0};
  bool finished_ = false;
};

}  // namespace perfq::service

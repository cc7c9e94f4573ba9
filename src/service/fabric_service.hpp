// The multi-tenant front end of a FABRIC: QueryService's operating model
// (compile source text, price in die area, attach while traffic flows)
// applied to every switch of a network at once through a
// federation::FabricEngine.
//
// Admission is priced per SWITCH: a fabric tenant allocates one cache slice
// on each instrumented switch, and the §3.3 die-area claim is a per-die
// budget, so the charge is the single-switch price of the tenant's geometry
// — the same fraction of every switch's die, charged once against one
// shared budget (all switches carry identical slices). Over budget is a
// clean ConfigError before any engine sees the program.
//
// Unlike QueryService, the fabric service does not own ingest: the
// Network's taps feed the per-switch engines. All calls must come from the
// network's driver thread between run steps (FabricEngine's threading
// contract); the internal mutex only serializes overlapping front-end
// callers against each other.
#pragma once

#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "federation/fabric_engine.hpp"
#include "service/query_service.hpp"

namespace perfq::service {

/// One fabric tenant (LIST output).
struct FabricTenantInfo {
  std::string name;
  double die_fraction = 0.0;        ///< per-switch admission charge
  std::uint64_t attach_records = 0; ///< fabric-wide records at the attach epoch
};

class FabricService {
 public:
  /// Non-owning: `fabric` (and its Network) must outlive the service.
  explicit FabricService(federation::FabricEngine& fabric,
                         ServiceConfig config = {});

  /// Compile `source` and attach it network-wide under `name`, through
  /// admit_tenant() (query_service.hpp). Only on-switch GROUPBY tenants are
  /// fabric-attachable (stream SELECTs are per-switch; FabricEngine rejects
  /// them). Rejected or malformed queries throw before the fabric is
  /// touched.
  FabricTenantInfo attach(const std::string& name, const std::string& source,
                          std::optional<kv::CacheGeometry> geometry = std::nullopt);

  /// Detach `name` everywhere: federated final result, budget released.
  federation::FederatedResult detach(const std::string& name);

  /// Network-wide mid-run pull of a tenant or base GROUPBY, stamped with the
  /// latest record time the taps have seen.
  [[nodiscard]] federation::FederatedResult snapshot(std::string_view name);

  [[nodiscard]] std::vector<FabricTenantInfo> tenants() const;
  [[nodiscard]] double used_die_fraction() const;
  [[nodiscard]] federation::FabricMetrics metrics() const {
    return fabric_->metrics();
  }
  [[nodiscard]] const ServiceConfig& config() const { return config_; }

 private:
  struct Tenant {
    double die_fraction = 0.0;
    std::uint64_t attach_records = 0;
  };

  ServiceConfig config_;
  federation::FabricEngine* fabric_;
  mutable std::mutex mu_;
  std::map<std::string, Tenant, std::less<>> tenants_;
};

}  // namespace perfq::service

#include "service/fabric_service.hpp"

#include <utility>

#include "common/error.hpp"
#include "compiler/program.hpp"

namespace perfq::service {

FabricService::FabricService(federation::FabricEngine& fabric,
                             ServiceConfig config)
    : config_(std::move(config)), fabric_(&fabric) {}

FabricTenantInfo FabricService::attach(const std::string& name,
                                       const std::string& source,
                                       std::optional<kv::CacheGeometry> geometry) {
  // Compile outside any fabric interaction: a malformed query is the
  // compiler's QueryError and leaves service + fabric untouched.
  compiler::CompiledProgram program =
      compiler::compile_source(source, config_.params);
  const runtime::AttachKind kind = runtime::attachable_kind(program);
  if (kind != runtime::AttachKind::kSwitchQuery) {
    throw ConfigError{"fabric attach: tenant '" + name +
                      "' is not an on-switch GROUPBY; stream SELECTs are "
                      "per-switch state"};
  }

  // All switches carry identical slices, so one per-switch price is charged
  // once against the shared per-die budget (see the file comment).
  const std::scoped_lock lock(mu_);
  const kv::CacheGeometry g = geometry.value_or(config_.tenant_geometry);
  const double fraction =
      admit_tenant(config_, "fabric attach", name, tenants_.count(name) > 0,
                   tenants_.size(), &program.switch_plans.front(), g);

  runtime::AttachOptions options;
  options.name = name;
  options.geometry = g;
  fabric_->attach_query(program, options);
  // Past this point the attach is committed on every switch: charge it.
  config_.budget.charge(fraction);
  Tenant tenant{fraction, fabric_->records()};
  FabricTenantInfo info{name, tenant.die_fraction, tenant.attach_records};
  tenants_.emplace(name, tenant);
  return info;
}

federation::FederatedResult FabricService::detach(const std::string& name) {
  const std::scoped_lock lock(mu_);
  const auto it = tenants_.find(name);
  if (it == tenants_.end()) {
    throw ConfigError{"fabric detach: unknown tenant '" + name + "'"};
  }
  federation::FederatedResult result =
      fabric_->detach_query(name, fabric_->end_time());
  config_.budget.release(it->second.die_fraction);
  tenants_.erase(it);
  return result;
}

federation::FederatedResult FabricService::snapshot(std::string_view name) {
  const std::scoped_lock lock(mu_);
  return fabric_->snapshot(name, fabric_->end_time());
}

std::vector<FabricTenantInfo> FabricService::tenants() const {
  const std::scoped_lock lock(mu_);
  std::vector<FabricTenantInfo> out;
  out.reserve(tenants_.size());
  for (const auto& [name, t] : tenants_) {
    out.push_back(FabricTenantInfo{name, t.die_fraction, t.attach_records});
  }
  return out;
}

double FabricService::used_die_fraction() const {
  const std::scoped_lock lock(mu_);
  return config_.budget.used_die_fraction;
}

}  // namespace perfq::service

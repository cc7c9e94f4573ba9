#include "service/query_service.hpp"

#include <cstdio>
#include <utility>

#include "common/error.hpp"
#include "compiler/program.hpp"

namespace perfq::service {

double admit_tenant(const ServiceConfig& config, std::string_view verb,
                    const std::string& name, bool exists, std::size_t tenants,
                    const compiler::SwitchQueryPlan* plan,
                    const kv::CacheGeometry& geometry) {
  const std::string prefix = std::string{verb} + ": ";
  if (exists) {
    throw ConfigError{prefix + "tenant '" + name + "' already exists"};
  }
  if (tenants >= kMaxTenants) {
    throw ConfigError{prefix + "tenant limit (" + std::to_string(kMaxTenants) +
                      ") reached"};
  }
  if (plan == nullptr) return 0.0;
  const analysis::AdmissionBudget& budget = config.budget;
  const double fraction = budget.price(
      geometry.total_slots(), analysis::AdmissionBudget::bits_per_pair(
                                  plan->key_bytes(), plan->kernel->state_dims()));
  if (!budget.would_admit(fraction)) {
    char frac[64];
    std::snprintf(frac, sizeof(frac), "%.4f%% + %.4f%% > %.4f%%",
                  budget.used_die_fraction * 100.0, fraction * 100.0,
                  budget.max_die_fraction * 100.0);
    throw ConfigError{prefix + "'" + name + "' exceeds the die-area budget (" +
                      frac + ")"};
  }
  return fraction;
}

QueryService::QueryService(std::unique_ptr<runtime::Engine> engine,
                           ServiceConfig config)
    : config_(std::move(config)), engine_(std::move(engine)) {
  if (engine_ == nullptr) throw ConfigError{"QueryService: null engine"};
}

void QueryService::process_batch(std::span<const PacketRecord> records) {
  const std::scoped_lock lock(mu_);
  check(!finished_, "QueryService: ingest after finish");
  engine_->process_batch(records);
  // Records are time-ordered per the engine contract: the batch tail carries
  // the latest timestamp, which stamps later snapshots/detaches/finish.
  if (!records.empty() && records.back().tin > end_) end_ = records.back().tin;
}

trace::IngestStats QueryService::process_wire_batch(
    std::span<const FrameObservation> frames) {
  const std::scoped_lock lock(mu_);
  check(!finished_, "QueryService: ingest after finish");
  auto stats = engine_->process_wire_batch(frames);
  if (!frames.empty() && frames.back().tin > end_) end_ = frames.back().tin;
  return stats;
}

void QueryService::finish() {
  const std::scoped_lock lock(mu_);
  check(!finished_, "QueryService: finish called twice");
  engine_->finish(end_);
  finished_ = true;
}

bool QueryService::finished() const {
  const std::scoped_lock lock(mu_);
  return finished_;
}

TenantInfo QueryService::attach(const std::string& name,
                                const std::string& source,
                                std::optional<kv::CacheGeometry> geometry,
                                std::shared_ptr<runtime::StreamSink> sink) {
  // Compile outside any engine interaction: a malformed query is the
  // compiler's QueryError and leaves service + engine untouched.
  compiler::CompiledProgram program =
      compiler::compile_source(source, config_.params);
  const runtime::AttachKind kind = runtime::attachable_kind(program);

  const std::scoped_lock lock(mu_);
  check(!finished_, "QueryService: attach after finish");
  // The service resolves the geometry itself (caller override or the
  // configured tenant default) and passes it down explicitly, so the
  // admission price and the engine's allocation can never disagree.
  const bool switch_tenant = kind == runtime::AttachKind::kSwitchQuery;
  const kv::CacheGeometry g = geometry.value_or(config_.tenant_geometry);
  Tenant tenant;
  tenant.kind = kind;
  tenant.die_fraction = admit_tenant(
      config_, "attach", name, tenants_.count(name) > 0, tenants_.size(),
      switch_tenant ? &program.switch_plans.front() : nullptr, g);
  runtime::AttachOptions options;
  options.name = name;
  if (switch_tenant) {
    options.geometry = g;
  } else {
    // Stream tenants hold no switch state: free. If the caller gave no
    // sink, wire a ring the DRAIN surface can pull from another thread.
    if (sink == nullptr) {
      tenant.ring =
          std::make_shared<runtime::RingStreamSink>(kStreamRingCapacity);
      sink = tenant.ring;
    }
    options.sink = std::move(sink);
  }

  engine_->attach_query(std::move(program), options);
  // Past this point the attach is committed: charge and record the tenant.
  tenant.attach_records = engine_->records_processed();
  config_.budget.charge(tenant.die_fraction);
  TenantInfo info{name, tenant.kind, tenant.die_fraction,
                  tenant.attach_records};
  tenants_.emplace(name, std::move(tenant));
  return info;
}

runtime::ResultTable QueryService::detach(const std::string& name) {
  const std::scoped_lock lock(mu_);
  const auto it = tenants_.find(name);
  if (it == tenants_.end()) {
    throw ConfigError{"detach: unknown tenant '" + name + "'"};
  }
  check(!finished_, "QueryService: detach after finish");
  runtime::ResultTable table = engine_->detach_query(name, end_);
  config_.budget.release(it->second.die_fraction);
  tenants_.erase(it);
  return table;
}

runtime::EngineSnapshot QueryService::snapshot(std::string_view name) {
  const std::scoped_lock lock(mu_);
  check(!finished_, "QueryService: snapshot after finish");
  return engine_->snapshot(name, end_);
}

std::size_t QueryService::drain(std::string_view name,
                                std::vector<std::vector<double>>& out) {
  std::shared_ptr<runtime::RingStreamSink> ring;
  {
    const std::scoped_lock lock(mu_);
    const auto it = tenants_.find(name);
    if (it == tenants_.end()) {
      throw ConfigError{"drain: unknown tenant '" + std::string(name) + "'"};
    }
    if (it->second.ring == nullptr) {
      throw ConfigError{"drain: tenant '" + std::string(name) +
                        "' has no service-owned stream ring"};
    }
    ring = it->second.ring;
  }
  // Drain outside the service lock: RingStreamSink is thread-safe against
  // the delivering engine, so ingest need not stall behind a slow reader.
  return ring->drain(out);
}

const runtime::ResultTable& QueryService::table(std::string_view name) const {
  const std::scoped_lock lock(mu_);
  check(finished_, "QueryService: table() before finish");
  return engine_->table(name);
}

const runtime::ResultTable& QueryService::result() const {
  const std::scoped_lock lock(mu_);
  check(finished_, "QueryService: result() before finish");
  return engine_->result();
}

std::vector<TenantInfo> QueryService::tenants() const {
  const std::scoped_lock lock(mu_);
  std::vector<TenantInfo> out;
  out.reserve(tenants_.size());
  for (const auto& [name, t] : tenants_) {
    out.push_back(TenantInfo{name, t.kind, t.die_fraction, t.attach_records});
  }
  return out;
}

double QueryService::used_die_fraction() const {
  const std::scoped_lock lock(mu_);
  return config_.budget.used_die_fraction;
}

std::uint64_t QueryService::records_processed() const {
  const std::scoped_lock lock(mu_);
  return engine_->records_processed();
}

Nanos QueryService::now() const {
  const std::scoped_lock lock(mu_);
  return end_;
}

}  // namespace perfq::service

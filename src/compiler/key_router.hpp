// A forwarding adapter over the one key packer, extract_key()
// (compiler/program.hpp). It is kept only because perfbench/layers.cpp times
// the threaded caller's routing hash (`compiler.route_ns.*`) through make()
// and raw_hash(); nothing under src/ includes this header. Dropping it, and
// calling extract_key() there directly, is a benchmark change of its own.
#pragma once

#include <cstdint>
#include <optional>

#include "compiler/program.hpp"

namespace perfq::compiler {

class KeyRouter {
 public:
  /// A router over `plan` (which must outlive it); nullopt for a computed
  /// key.
  [[nodiscard]] static std::optional<KeyRouter> make(
      const SwitchQueryPlan& plan) {
    if (!plan.key_layout.plain) return std::nullopt;
    return KeyRouter(plan);
  }

  /// The key's seed-0 byte hash: extract_key(plan, rec).raw_hash().
  template <typename Rec>
  [[nodiscard]] std::uint64_t raw_hash(const Rec& rec) const {
    return extract_key(*plan_, rec).raw_hash();
  }

 private:
  explicit KeyRouter(const SwitchQueryPlan& plan) : plan_(&plan) {}

  const SwitchQueryPlan* plan_;
};

}  // namespace perfq::compiler

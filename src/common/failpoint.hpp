// Failpoint fault injection: named sites compiled into the engine's failure
// domains (fold core, ring push/pop, snapshot rendezvous) that tests can arm
// to throw or stall on demand.
//
// The whole framework is compiled OUT by default: PERFQ_FAILPOINT(name)
// expands to nothing unless the build defines PERFQ_FAILPOINTS (CMake option
// -DPERFQ_FAILPOINTS=ON), so the hot paths carry zero cost in production
// builds. In an instrumented build a disarmed site costs one relaxed atomic
// load (a global armed-site counter); only armed sites take the registry
// lock. The arm/disarm/hit_count API below is compiled unconditionally so
// test code links in every build and can skip itself via compiled_in().
//
// Triggers:
//   - programmatic: failpoint::arm("sharded.ring_pop", {...}) / disarm /
//     disarm_all (tests use this; always disarm_all in teardown);
//   - environment:  PERFQ_FAILPOINTS="site=throw;site2=sleep50:skip=3:count=1"
//     parsed once on first site evaluation — lets a stock binary run a fault
//     drill without recompiling the harness.
//
// Spec grammar (env form): `name=action[:skip=N][:count=M]` entries joined
// by ';'. Actions: `throw` (throw FaultInjected at the site) or `sleep<ms>`
// (stall the calling thread — exercises the drain watchdogs). `skip` fires
// the action only after N hits; `count` fires it at most M times (0 = every
// hit once past skip).
#pragma once

#include <cstdint>
#include <string>

#include "common/error.hpp"

#if defined(PERFQ_FAILPOINTS)
#define PERFQ_FAILPOINT(name) ::perfq::failpoint::evaluate(name)
#else
#define PERFQ_FAILPOINT(name) ((void)0)
#endif

namespace perfq {

/// The exception an armed `throw` failpoint raises: a synthetic fault,
/// distinguishable from organic errors so tests can assert provenance.
class FaultInjected : public Error {
 public:
  using Error::Error;
};

namespace failpoint {

enum class Action : std::uint8_t {
  kThrow,  ///< throw FaultInjected{"failpoint <name>"}
  kSleep,  ///< stall the calling thread for sleep_ms milliseconds
};

struct Spec {
  Action action = Action::kThrow;
  std::uint32_t sleep_ms = 0;  ///< kSleep only
  std::uint64_t skip = 0;      ///< hits to pass through before firing
  std::uint64_t count = 0;     ///< max fires (0 = unlimited once past skip)
};

/// True when the library was built with -DPERFQ_FAILPOINTS=ON, i.e. the
/// PERFQ_FAILPOINT sites actually call evaluate(). Tests gate on this.
[[nodiscard]] bool compiled_in();

/// Arm `name` with `spec`. Replaces any existing spec (hit/fire counters
/// reset). Safe from any thread.
void arm(const std::string& name, Spec spec);

/// Disarm one site / every site (counters kept for hit_count()).
void disarm(const std::string& name);
void disarm_all();

/// Hits observed at a site since it was (last) armed. Zero for names never
/// armed — disarmed sites are not tracked, to keep them near-free.
[[nodiscard]] std::uint64_t hit_count(const std::string& name);

/// Times the site's action actually fired (past skip, within count).
[[nodiscard]] std::uint64_t fire_count(const std::string& name);

/// The site call, reached through the PERFQ_FAILPOINT macro. May throw
/// FaultInjected or sleep, per the armed spec; a no-op when nothing is armed.
void evaluate(const char* name);

}  // namespace failpoint
}  // namespace perfq

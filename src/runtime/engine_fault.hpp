// Structured engine faults: the failure-domain contract of the runtime.
//
// The engine converts ANY exception escaping its processing machinery — a
// shard worker body of the threaded executor, the fold or stream-sink path
// on the caller, or a drain-watchdog expiry — into one
// permanent poisoned state: the first exception wins the engine's FaultSlot,
// every sibling thread unwinds cleanly (no std::terminate, no wedged peer),
// and every subsequent engine call (process_batch / finish / snapshot /
// result / table / store_stats) throws an EngineFaultError carrying the
// originating thread role, shard id and cause, instead of hanging or
// corrupting results. See the "Failure semantics" section of engine_api.hpp
// for the full contract.
#pragma once

#include <atomic>
#include <cstddef>
#include <string>
#include <utility>

#include "common/error.hpp"

namespace perfq::runtime {

/// Which engine thread the first fault originated on.
enum class ThreadRole : std::uint8_t {
  kCaller,    ///< the application thread, inside an engine call
  kWorker,    ///< a shard worker thread
  kWatchdog,  ///< a drain deadline expired on the caller thread
};

[[nodiscard]] constexpr const char* to_string(ThreadRole role) {
  switch (role) {
    case ThreadRole::kCaller: return "caller";
    case ThreadRole::kWorker: return "worker";
    case ThreadRole::kWatchdog: return "watchdog";
  }
  return "?";
}

/// Shard id meaning "not shard-specific" (caller/watchdog faults).
inline constexpr std::size_t kNoShard = static_cast<std::size_t>(-1);

/// The structured error a poisoned engine throws from every call. `cause` is
/// the what() of the original exception; `diagnostic` is the watchdog's
/// pipeline dump (ring occupancy, worker states) when the fault is a
/// drain-deadline expiry, empty otherwise.
class EngineFaultError : public Error {
 public:
  EngineFaultError(ThreadRole role, std::size_t shard, std::string cause,
                   std::string diagnostic = {})
      : Error(format(role, shard, cause, diagnostic)),
        role_(role),
        shard_(shard),
        cause_(std::move(cause)),
        diagnostic_(std::move(diagnostic)) {}

  [[nodiscard]] ThreadRole role() const { return role_; }
  /// Originating shard, or kNoShard when the fault is not shard-specific.
  [[nodiscard]] std::size_t shard() const { return shard_; }
  [[nodiscard]] const std::string& cause() const { return cause_; }
  [[nodiscard]] const std::string& diagnostic() const { return diagnostic_; }

 private:
  static std::string format(ThreadRole role, std::size_t shard,
                            const std::string& cause,
                            const std::string& diagnostic) {
    std::string out = "engine fault [";
    out += to_string(role);
    if (shard != kNoShard) out += " shard " + std::to_string(shard);
    out += "]: " + cause;
    if (!diagnostic.empty()) out += "\n" + diagnostic;
    return out;
  }

  ThreadRole role_;
  std::size_t shard_;
  std::string cause_;
  std::string diagnostic_;
};

/// First-exception-wins slot shared by every engine thread. record() is safe
/// from any thread (one CAS decides the winner; losers are dropped — the
/// first fault is the root cause, later ones are its fallout). faulted() is
/// an acquire load, so once it returns true the winner's fields are visible
/// and raise()/describe() may read them. The engine guarantees only the
/// caller thread reads the slot (its own API calls), so no lock is needed.
class FaultSlot {
 public:
  /// Record a fault; returns true if this call won the slot.
  bool record(ThreadRole role, std::size_t shard, std::string cause,
              std::string diagnostic = {}) noexcept {
    int expected = kClear;
    if (!state_.compare_exchange_strong(expected, kWriting,
                                        std::memory_order_acquire)) {
      return false;
    }
    // The winner: fill the fields, then publish with a release store that
    // pairs with faulted()'s acquire.
    try {
      role_ = role;
      shard_ = shard;
      cause_ = std::move(cause);
      diagnostic_ = std::move(diagnostic);
    } catch (...) {
      cause_ = "fault (detail lost: out of memory)";
    }
    state_.store(kSet, std::memory_order_release);
    return true;
  }

  [[nodiscard]] bool faulted() const noexcept {
    return state_.load(std::memory_order_acquire) == kSet;
  }

  /// Throw the recorded fault. Only call after faulted() returned true.
  [[noreturn]] void raise() const {
    throw EngineFaultError{role_, shard_, cause_, diagnostic_};
  }

 private:
  enum : int { kClear, kWriting, kSet };
  std::atomic<int> state_{kClear};
  ThreadRole role_ = ThreadRole::kCaller;
  std::size_t shard_ = kNoShard;
  std::string cause_;
  std::string diagnostic_;
};

}  // namespace perfq::runtime

// Cache geometry (Fig. 4): a hash table of n buckets, each an m-slot LRU.
//
// The three geometries of §4's evaluation are special cases:
//   - "Hash table":        m = 1  (evict on any collision)
//   - "Fully associative": n = 1  (one global LRU)
//   - "8-way associative": m = 8  (processor-L1-like)
#pragma once

#include <cstdint>
#include <string>

#include "common/error.hpp"

namespace perfq::kv {

/// Within-bucket replacement policy. The paper uses LRU ("Currently, we use
/// the least recently used (LRU) cache-eviction policy"); FIFO and random
/// are cheaper in hardware (no touch-on-hit update path) and are provided
/// for the ablation bench, which quantifies what LRU buys.
enum class EvictionPolicy : std::uint8_t {
  kLru,     ///< evict the least recently *used* slot (paper's choice)
  kFifo,    ///< evict the least recently *inserted* slot
  kRandom,  ///< evict a uniformly random slot of the bucket
};

[[nodiscard]] constexpr const char* to_cstring(EvictionPolicy p) {
  switch (p) {
    case EvictionPolicy::kLru: return "LRU";
    case EvictionPolicy::kFifo: return "FIFO";
    case EvictionPolicy::kRandom: return "random";
  }
  return "?";
}

struct CacheGeometry {
  std::uint64_t num_buckets = 0;  ///< n
  std::uint32_t associativity = 0;  ///< m (slots per bucket)

  [[nodiscard]] std::uint64_t total_slots() const {
    return num_buckets * associativity;
  }

  /// m = 1: evict on hash collision.
  [[nodiscard]] static CacheGeometry hash_table(std::uint64_t pairs) {
    return make(pairs, 1);
  }

  /// n = 1: one bucket holding all pairs, exact global LRU.
  [[nodiscard]] static CacheGeometry fully_associative(std::uint64_t pairs) {
    if (pairs == 0) throw ConfigError{"CacheGeometry: zero pairs"};
    if (pairs > static_cast<std::uint64_t>(~std::uint32_t{0})) {
      throw ConfigError{"CacheGeometry: too many pairs for one bucket"};
    }
    return CacheGeometry{1, static_cast<std::uint32_t>(pairs)};
  }

  /// General k-way set-associative layout with `pairs` total slots.
  [[nodiscard]] static CacheGeometry set_associative(std::uint64_t pairs,
                                                     std::uint32_t ways) {
    return make(pairs, ways);
  }

  [[nodiscard]] std::string to_string() const {
    if (num_buckets == 1) return "fully-associative(" + std::to_string(associativity) + ")";
    if (associativity == 1) return "hash-table(" + std::to_string(num_buckets) + ")";
    return std::to_string(associativity) + "-way(" + std::to_string(num_buckets) +
           " buckets)";
  }

 private:
  [[nodiscard]] static CacheGeometry make(std::uint64_t pairs, std::uint32_t ways) {
    if (pairs == 0 || ways == 0) throw ConfigError{"CacheGeometry: zero size"};
    if (pairs % ways != 0) {
      throw ConfigError{"CacheGeometry: pairs must be a multiple of ways"};
    }
    return CacheGeometry{pairs / ways, ways};
  }
};

/// Number of key-value pairs a cache of `mbits` megabits holds at
/// `bits_per_pair` bits per pair — §4's sizing arithmetic (e.g. 8 Mbit at
/// 128 b/pair = 2^16 pairs).
[[nodiscard]] constexpr std::uint64_t pairs_for_mbits(double mbits, int bits_per_pair) {
  return static_cast<std::uint64_t>(mbits * 1024.0 * 1024.0 /
                                    static_cast<double>(bits_per_pair));
}

/// Inverse of pairs_for_mbits: cache size in Mbit.
[[nodiscard]] constexpr double mbits_for_pairs(std::uint64_t pairs, int bits_per_pair) {
  return static_cast<double>(pairs) * static_cast<double>(bits_per_pair) /
         (1024.0 * 1024.0);
}

}  // namespace perfq::kv

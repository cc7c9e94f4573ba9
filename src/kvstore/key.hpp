// Aggregation keys for the programmable key-value store (§3.2).
//
// A key is the concatenation of the GROUPBY fields' canonical encodings —
// e.g. the transport 5-tuple is 13 bytes (104 bits, the figure §4 uses when
// sizing key-value pairs). Keys are small fixed-capacity values so the cache
// can store them inline, exactly as SRAM would.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>

#include "common/error.hpp"
#include "common/hash.hpp"

namespace perfq::kv {

/// Fixed-capacity byte-string key. Max 32 bytes = 256 bits, comfortably above
/// any GROUPBY field combination in the paper.
///
/// Hot-path design: the 64-bit hash of the key bytes is computed ONCE at
/// construction and carried with the key (`raw_hash()`). Every downstream
/// consumer — the cache's bucket index, the per-bucket probe tag, and the
/// backing store's index — derives its value by mixing the
/// cached hash with its own seed instead of rehashing the bytes, so a packet
/// pays for exactly one byte-level hash no matter how many structures it
/// touches (§3.3's "one hash" per-packet budget).
class Key {
 public:
  static constexpr std::size_t kCapacity = 32;

  /// The empty key, zero-filled: cache slots start as it.
  Key() : bytes_{}, hash_(empty_hash()) {}

  explicit Key(std::span<const std::byte> bytes) : Key(Unfilled{}) {
    if (bytes.size() > kCapacity) throw ConfigError{"kv::Key: key too long"};
    len_ = static_cast<std::uint8_t>(bytes.size());
    std::memcpy(bytes_.data(), bytes.data(), bytes.size());
    hash_ = hash_bytes(this->bytes(), 0);
  }

  /// Build a key from a list of 64-bit field values, packing each into the
  /// given number of bytes (big-endian). Used by the compiler's key extractor.
  static Key pack(std::span<const std::uint64_t> values,
                  std::span<const std::uint8_t> widths) {
    Key k = pack_bytes(values, widths);
    k.hash_ = hash_bytes(k.bytes(), 0);
    return k;
  }

  /// pack() with the byte-level hash supplied by the caller instead of
  /// recomputed. The threaded executor's caller routes each record by its
  /// key's hash and ships that hash to the shard worker, which re-packs the
  /// key on its own core and installs the hash here (through
  /// compiler::extract_key_prehashed). The caller guarantees
  /// `raw_hash == hash_bytes(packed bytes, 0)` — every downstream consumer
  /// (bucket index, probe tag, std::hash) derives from it.
  static Key pack_prehashed(std::span<const std::uint64_t> values,
                            std::span<const std::uint8_t> widths,
                            std::uint64_t raw_hash) {
    Key k = pack_bytes(values, widths);
    k.hash_ = raw_hash;
    return k;
  }

  [[nodiscard]] std::span<const std::byte> bytes() const {
    return {bytes_.data(), len_};
  }
  [[nodiscard]] std::size_t size() const { return len_; }
  [[nodiscard]] bool empty() const { return len_ == 0; }

  /// The cached seed-0 hash of the key bytes; never rehashes.
  [[nodiscard]] std::uint64_t raw_hash() const { return hash_; }

  /// Seeded hash derived from the cached hash by mixing, not rehashing
  /// (placement_hash below). Equal keys agree for every seed; distinct
  /// seeds give decorrelated values (mix64 is bijective, so no information
  /// is lost).
  [[nodiscard]] std::uint64_t hash(std::uint64_t seed = 0) const;

  friend bool operator==(const Key& a, const Key& b) {
    return a.len_ == b.len_ &&
           std::memcmp(a.bytes_.data(), b.bytes_.data(), a.len_) == 0;
  }

  [[nodiscard]] std::string to_hex() const {
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string out;
    out.reserve(2 * len_);
    for (std::size_t i = 0; i < len_; ++i) {
      const auto v = std::to_integer<std::uint8_t>(bytes_[i]);
      out.push_back(kDigits[v >> 4]);
      out.push_back(kDigits[v & 0xF]);
    }
    return out;
  }

 private:
  /// Shared packing loop of pack()/pack_prehashed(): bytes and length only,
  /// hash left for the caller to install. Each value, width and the length
  /// sit in locals: a std::byte store may alias anything, so reading them
  /// through memory would reload them after every byte.
  static Key pack_bytes(std::span<const std::uint64_t> values,
                        std::span<const std::uint8_t> widths) {
    check(values.size() == widths.size(), "kv::Key::pack: arity mismatch");
    Key k{Unfilled{}};
    std::size_t len = 0;
    for (std::size_t i = 0; i < values.size(); ++i) {
      const std::uint64_t value = values[i];
      const int width = widths[i];
      if (len + width > kCapacity) throw ConfigError{"kv::Key: key too long"};
      for (int b = width - 1; b >= 0; --b) {
        k.bytes_[len++] = static_cast<std::byte>(value >> (8 * b));
      }
    }
    k.len_ = static_cast<std::uint8_t>(len);
    return k;
  }

  /// A key that the packers and the span constructor fill in next: its
  /// bytes and hash are neither zero-filled nor set to the empty key's hash
  /// first. Nothing reads a key's bytes past size() — ==, the hashes,
  /// to_hex and runtime::RowOrder::of all stop at len_ — so the tail may
  /// stay unset.
  struct Unfilled {};
  explicit Key(Unfilled) {}

  /// Hash of the empty key, computed once: caches of millions of slots
  /// default-construct that many Keys, which must not each rehash.
  static std::uint64_t empty_hash() {
    static const std::uint64_t kEmptyHash = hash_bytes({}, 0);
    return kEmptyHash;
  }

  std::array<std::byte, kCapacity> bytes_;
  std::uint64_t hash_;  ///< seed-0 hash of bytes(), maintained on mutation
  std::uint8_t len_ = 0;
};

/// The one seeded-hash formula: a key's raw (seed-0) hash mixed with a
/// structure's `seed`, given `seed_mix` == mix64(seed). Key::hash(seed)
/// computes it; the cache places buckets and the threaded executor routes
/// shards by calling it on the raw hash with their precomputed mix, so
/// shard slices stay bit-aligned with the one-cache layout (cache.hpp).
[[nodiscard]] inline std::uint64_t placement_hash(std::uint64_t raw_hash,
                                                  std::uint64_t seed,
                                                  std::uint64_t seed_mix) {
  return seed == 0 ? raw_hash : mix64(raw_hash ^ seed_mix);
}

inline std::uint64_t Key::hash(std::uint64_t seed) const {
  return placement_hash(hash_, seed, mix64(seed));
}

/// Seed of the backing store's probe hash and of `std::hash<Key>` (any map
/// user). Chosen distinct from Cache's default bucket seed (0x5eedcafe) AND
/// from the raw seed-0 hash, so backing-store placement is decorrelated from
/// the SRAM cache's bucket placement: a pathological trace that collides in
/// one structure does not automatically collide in the other.
inline constexpr std::uint64_t kStdHashSeed = 0x9e3779b97f4a7c15ULL;

}  // namespace perfq::kv

template <>
struct std::hash<perfq::kv::Key> {
  std::size_t operator()(const perfq::kv::Key& k) const noexcept {
    return static_cast<std::size_t>(k.hash(perfq::kv::kStdHashSeed));
  }
};

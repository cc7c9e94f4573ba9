// Record-direct key routing for plain-field GROUPBY keys.
//
// The sharded runtime's dispatcher must know each record's key hash to pick a
// shard, and a full extract_key() would pay for it: evaluate/clamp the
// fields, pack a kv::Key (32-byte inline array + length bookkeeping), hash
// it, then copy the whole Key into the shard message. For plain-field keys
// (5tuple, srcip, qid — every key component a direct FieldId load, i.e.
// SwitchQueryPlan::fast_key_fields non-empty) none of that materialization is
// needed on the dispatch path: KeyRouter packs the key bytes into a stack
// buffer and hashes them there, so dispatch cost drops to the hash-only
// floor and the shard message carries an 8-byte hash instead of a 48-byte
// Key. The dispatcher hashes once per record and key class (queries with
// one key identity share the hash; runtime/fold_core.hpp). The shard worker
// re-packs the key on its own core — parallel, off the serial dispatcher —
// and installs the shipped hash via Key::pack_prehashed, so the byte-level
// hash is still computed exactly once per record and class.
//
// Equivalence contract: raw_hash(rec) == extract_key(plan, rec).raw_hash()
// and make_key(rec, raw_hash(rec)) == extract_key(plan, rec), bit for bit
// (same key_field_value() reads, same big-endian packing).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <type_traits>

#include "compiler/program.hpp"
#include "kvstore/key.hpp"

namespace perfq::compiler {

class KeyRouter {
 public:
  /// A router for `plan`, or nullopt when the plan has computed key
  /// components (those must take extract_key()'s expression-tree path).
  /// Self-contained: the router copies the field ids and widths it needs.
  [[nodiscard]] static std::optional<KeyRouter> make(const SwitchQueryPlan& plan);

  /// The key's seed-0 byte hash computed straight from the record: pack the
  /// plain fields into a stack buffer, hash once. No kv::Key materialized.
  /// Generic over the record representation — on a WireRecordView the fields
  /// decode lazily from frame bytes, so a plain-field key hashes straight
  /// off the wire without ever building a PacketRecord.
  template <typename Rec>
  [[nodiscard]] std::uint64_t raw_hash(const Rec& rec) const {
    if constexpr (std::is_same_v<Rec, WireRecordView>) {
      // Byte-direct plans: the key bytes are frame bytes (same layout as
      // gather_wire_key / Key::pack — see SwitchQueryPlan::wire_direct_key),
      // so hashing is a gather + one hash_bytes, no doubles anywhere.
      if (wire_direct_) {
        std::array<std::byte, kv::Key::kCapacity> buf;
        return hash_bytes({buf.data(), gather(rec, buf.data())}, 0);
      }
    }
    // Value extraction and byte layout each have exactly one definition:
    // pack_values (shared with make_key) and Key::pack_bytes (via
    // hash_packed, shared with every Key packer).
    std::array<std::uint64_t, 16> values;
    std::array<std::uint8_t, 16> widths;
    const std::size_t n = pack_values(rec, values.data(), widths.data());
    return kv::Key::hash_packed({values.data(), n}, {widths.data(), n});
  }

  /// Worker-side rebuild: pack the key and install the dispatcher's hash
  /// (skipping the byte-level rehash). `raw_hash` must come from
  /// raw_hash(rec) for this same record.
  template <typename Rec>
  [[nodiscard]] kv::Key make_key(const Rec& rec, std::uint64_t raw_hash) const {
    if constexpr (std::is_same_v<Rec, WireRecordView>) {
      if (wire_direct_) {
        std::array<std::byte, kv::Key::kCapacity> buf;
        const std::size_t len = gather(rec, buf.data());
        return kv::Key::from_bytes_prehashed({buf.data(), len}, raw_hash);
      }
    }
    std::array<std::uint64_t, 16> values;
    std::array<std::uint8_t, 16> widths;
    const std::size_t n = pack_values(rec, values.data(), widths.data());
    return kv::Key::pack_prehashed({values.data(), n}, {widths.data(), n},
                                   raw_hash);
  }

 private:
  explicit KeyRouter(const SwitchQueryPlan& plan);

  /// Pack the key's fields (key_field_value, identical to extract_key's
  /// fast path) into `values`/`widths`; returns arity.
  template <typename Rec>
  std::size_t pack_values(const Rec& rec, std::uint64_t* values,
                          std::uint8_t* widths) const {
    for (std::size_t i = 0; i < arity_; ++i) {
      // The packed bytes, and therefore the hash, must be bit-identical
      // between both paths.
      values[i] = key_field_value(rec, components_[i].field);
      widths[i] = components_[i].bytes;
    }
    return arity_;
  }

  /// Byte-direct gather (precondition: wire_direct_): copy each component's
  /// wire slice into `buf`; returns the key length. Identical bytes to
  /// pack_values + Key::pack_bytes for these plans.
  [[nodiscard]] std::size_t gather(const WireRecordView& rec,
                                   std::byte* buf) const {
    const std::byte* b = rec.bytes.data();
    std::size_t len = 0;
    for (std::size_t i = 0; i < arity_; ++i) {
      const WireFieldSlice s = slices_[i];
      std::memcpy(buf + len, b + s.offset, s.width);
      len += s.width;
    }
    return len;
  }

  struct Component {
    FieldId field;
    std::uint8_t bytes;
  };
  /// Key components never exceed extract_key's 16-component bound.
  std::array<Component, 16> components_{};
  std::array<WireFieldSlice, 16> slices_{};
  std::size_t arity_ = 0;
  std::size_t key_len_ = 0;  ///< total packed bytes
  bool wire_direct_ = false;  ///< mirrors SwitchQueryPlan::wire_direct_key
};

}  // namespace perfq::compiler

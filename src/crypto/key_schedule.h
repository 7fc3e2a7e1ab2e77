// The sealing-key schedule: every store's keys from one root and a
// label.
//
// Each sealer draws its nonces from a counter that starts at 0, so two
// stores under one key would reuse ChaCha20 keystream. This module is
// the one place that decides store keys. The root is
// horam_config::key_seed, expanded once by derive_seal_keys() into a
// 256-bit ChaCha20 key. A store's keys are one ChaCha20 block under
// that root, its nonce the store's label (kind, level): bytes 0–31 are
// the encryption key, 32–47 the MAC key and 48–55 Ring ORAM's dummy-pad
// key. A multi-shard engine gives each shard its own root, drawn from
// the machine root under the label (shard, shard index).
#ifndef HORAM_CRYPTO_KEY_SCHEDULE_H
#define HORAM_CRYPTO_KEY_SCHEDULE_H

#include <cstdint>

#include "crypto/chacha20.h"
#include "crypto/seal.h"

namespace horam::crypto {

/// Derives both keys deterministically from a 64-bit master seed.
seal_keys derive_seal_keys(std::uint64_t master_seed);

/// What a label names: one store of a shard, or a shard's own root.
enum class store_kind : std::uint32_t {
  shard,         ///< a shard's root seed; level = the shard index
  cache_tree,    ///< the controller's in-memory Path ORAM tree
  partitioned,   ///< storage_layer's partitioned store
  hier,          ///< hier_backend's level store
  backend_tree,  ///< tree_backend's Path or Ring ORAM tree
  map_level,     ///< recursive_position_map level; level = k
  ring_pads,     ///< Ring ORAM's deterministic dummy pads
};

struct store_label {
  store_kind kind;
  std::uint64_t level = 0;
};

/// The key material of one label.
struct store_keys {
  seal_keys seal;
  /// Key of Ring ORAM's dummy-pad stream.
  std::uint64_t pad = 0;
};

class key_schedule {
 public:
  /// The all-zero root: for stores built directly, outside a backend.
  key_schedule() = default;
  explicit key_schedule(std::uint64_t root_seed);

  [[nodiscard]] store_keys derive(store_label label) const;
  [[nodiscard]] seal_keys seal(store_label label) const {
    return derive(label).seal;
  }
  /// The root seed of shard `shard`'s own schedule.
  [[nodiscard]] std::uint64_t shard_seed(std::uint32_t shard) const;

 private:
  chacha_key root_{};
};

}  // namespace horam::crypto

#endif  // HORAM_CRYPTO_KEY_SCHEDULE_H

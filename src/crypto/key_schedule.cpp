#include "crypto/key_schedule.h"

#include <array>
#include <cstring>

namespace horam::crypto {

seal_keys derive_seal_keys(std::uint64_t master_seed) {
  // Expand the master seed through a ChaCha20 stream keyed off the seed;
  // the first 32 bytes become the encryption key, the next 16 the MAC key.
  chacha_rng expander(master_seed, /*stream=*/0x5ea1);
  seal_keys keys;
  for (auto& byte : keys.encryption_key) {
    byte = static_cast<std::uint8_t>(expander.next_u64());
  }
  for (auto& byte : keys.mac_key) {
    byte = static_cast<std::uint8_t>(expander.next_u64());
  }
  return keys;
}

key_schedule::key_schedule(std::uint64_t root_seed)
    : root_(derive_seal_keys(root_seed).encryption_key) {}

store_keys key_schedule::derive(store_label label) const {
  // Nonce = kind (4 bytes) ‖ level (8 bytes), host byte order.
  chacha_nonce nonce{};
  const auto kind = static_cast<std::uint32_t>(label.kind);
  std::memcpy(nonce.data(), &kind, sizeof(kind));
  std::memcpy(nonce.data() + sizeof(kind), &label.level, sizeof(label.level));
  std::array<std::uint8_t, 64> block{};
  chacha20_block(root_, /*counter=*/0, nonce, block);

  store_keys keys;
  std::memcpy(keys.seal.encryption_key.data(), block.data(), 32);
  std::memcpy(keys.seal.mac_key.data(), block.data() + 32, 16);
  std::memcpy(&keys.pad, block.data() + 48, 8);
  return keys;
}

std::uint64_t key_schedule::shard_seed(std::uint32_t shard) const {
  const store_keys keys = derive({store_kind::shard, shard});
  std::uint64_t seed = 0;
  std::memcpy(&seed, keys.seal.encryption_key.data(), sizeof(seed));
  return seed;
}

}  // namespace horam::crypto

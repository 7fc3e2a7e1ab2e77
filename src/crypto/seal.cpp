#include "crypto/seal.h"

#include <cstring>

#include "util/contracts.h"

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

block_sealer::block_sealer(const seal_keys& keys) : keys_(keys) {}

void block_sealer::seal_in_place(std::span<std::uint8_t> record) {
  expects(record.size() >= seal_overhead,
          "sealed record shorter than seal overhead");
  const std::size_t payload_size = record.size() - seal_overhead;

  // Nonce: 8-byte counter || 4 zero bytes. Unique per seal per instance.
  chacha_nonce nonce{};
  const std::uint64_t n = nonce_counter_++;
  for (int i = 0; i < 8; ++i) {
    nonce[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(n >> (8 * i));
  }
  std::memcpy(record.data(), nonce.data(), nonce.size());

  // Ciphertext, in place over the plaintext.
  chacha20_xor(keys_.encryption_key, nonce, /*initial_counter=*/1,
               record.subspan(seal_nonce_bytes, payload_size));

  // MAC over nonce || ciphertext.
  const std::uint64_t tag = siphash24(
      keys_.mac_key, record.first(seal_nonce_bytes + payload_size));
  std::uint8_t* const mac = record.data() + seal_nonce_bytes + payload_size;
  for (int i = 0; i < 8; ++i) {
    mac[i] = static_cast<std::uint8_t>(tag >> (8 * i));
  }
}

void block_sealer::open_into(std::span<const std::uint8_t> sealed,
                             std::span<std::uint8_t> plain_out) const {
  if (sealed.size() < seal_overhead) {
    throw crypto_error("sealed buffer shorter than seal overhead");
  }
  const std::size_t payload_size = sealed.size() - seal_overhead;
  expects(plain_out.size() == payload_size,
          "plaintext buffer must match the sealed payload size");

  const std::uint64_t expected_tag = siphash24(
      keys_.mac_key, sealed.first(seal_nonce_bytes + payload_size));
  std::uint64_t stored_tag = 0;
  for (int i = 0; i < 8; ++i) {
    stored_tag |= static_cast<std::uint64_t>(
                      sealed[seal_nonce_bytes + payload_size +
                             static_cast<std::size_t>(i)])
                  << (8 * i);
  }
  if (stored_tag != expected_tag) {
    throw crypto_error("MAC verification failed: block tampered or corrupt");
  }

  chacha_nonce nonce{};
  std::memcpy(nonce.data(), sealed.data(), nonce.size());
  if (payload_size > 0) {
    std::memcpy(plain_out.data(), sealed.data() + seal_nonce_bytes,
                payload_size);
  }
  chacha20_xor(keys_.encryption_key, nonce, /*initial_counter=*/1,
               plain_out);
}

}  // namespace horam::crypto

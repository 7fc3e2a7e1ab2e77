// ChaCha20 stream cipher (RFC 8439), implemented from scratch.
//
// Used for two jobs in this codebase:
//   * sealing block payloads before they leave the trusted control layer
//     (see crypto/seal.h), and
//   * as the core of chacha_rng, the CSPRNG behind all security-relevant
//     random choices (leaf remapping, permutation generation).
#ifndef HORAM_CRYPTO_CHACHA20_H
#define HORAM_CRYPTO_CHACHA20_H

#include <array>
#include <cstdint>
#include <span>

#include "util/rng.h"

namespace horam::crypto {

/// 256-bit key.
using chacha_key = std::array<std::uint8_t, 32>;
/// 96-bit nonce (RFC 8439 layout).
using chacha_nonce = std::array<std::uint8_t, 12>;

/// Computes one 64-byte ChaCha20 keystream block for (key, counter, nonce).
void chacha20_block(const chacha_key& key, std::uint32_t counter,
                    const chacha_nonce& nonce,
                    std::span<std::uint8_t, 64> out);

/// XORs `data` in place with the ChaCha20 keystream starting at block
/// `initial_counter`. Encryption and decryption are the same operation.
void chacha20_xor(const chacha_key& key, const chacha_nonce& nonce,
                  std::uint32_t initial_counter,
                  std::span<std::uint8_t> data);

/// XORs `data` in place with the keystream bytes [offset, offset +
/// data.size()) of the stream chacha20_xor starts at block
/// `initial_counter`, so one stretch of a longer message can be
/// decrypted on its own. chacha20_xor is the offset-0 case.
void chacha20_xor_at(const chacha_key& key, const chacha_nonce& nonce,
                     std::uint32_t initial_counter, std::uint64_t offset,
                     std::span<std::uint8_t> data);

/// Cryptographically strong random stream built on the ChaCha20 block
/// function in counter mode. Deterministic for a fixed key, which keeps
/// simulations reproducible while exercising the exact code path a
/// deployment would use with a hardware-seeded key.
class chacha_rng final : public util::random_source {
 public:
  explicit chacha_rng(const chacha_key& key, std::uint64_t stream = 0);

  /// Convenience: derives the 256-bit key from a 64-bit seed (test use).
  explicit chacha_rng(std::uint64_t seed, std::uint64_t stream = 0);

  std::uint64_t next_u64() override;

 private:
  void refill();

  chacha_key key_{};
  chacha_nonce nonce_{};
  std::uint32_t counter_ = 0;
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t used_ = 64;  // Forces a refill on first use.
};

}  // namespace horam::crypto

#endif  // HORAM_CRYPTO_CHACHA20_H

// Authenticated block sealing: encrypt-then-MAC with ChaCha20 + SipHash.
//
// Every block leaving the trusted control layer is sealed under a fresh
// nonce, so two ciphertexts of the same plaintext are unlinkable — the
// property that lets H-ORAM rewrite unmodified data during path
// write-back and shuffles without revealing that nothing changed.
#ifndef HORAM_CRYPTO_SEAL_H
#define HORAM_CRYPTO_SEAL_H

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>

#include "crypto/chacha20.h"
#include "crypto/siphash.h"

namespace horam::crypto {

/// Bytes of the nonce that opens every sealed record.
inline constexpr std::size_t seal_nonce_bytes = 12;
/// Bytes of the MAC that closes every sealed record.
inline constexpr std::size_t seal_mac_bytes = 8;
/// Extra bytes a sealed record carries beyond the plaintext.
inline constexpr std::size_t seal_overhead = seal_nonce_bytes + seal_mac_bytes;

/// Key material for the sealing scheme (independent encryption and MAC
/// keys, per standard encrypt-then-MAC practice).
struct seal_keys {
  chacha_key encryption_key{};
  siphash_key mac_key{};
};

/// Derives both keys deterministically from a 64-bit master seed.
seal_keys derive_seal_keys(std::uint64_t master_seed);

/// Stateful sealer. Nonces are drawn from an internal counter, which is
/// unique-per-seal as long as one sealer instance guards one store.
/// Neither call allocates.
///
/// A sealed record is nonce || ciphertext || mac: seal_nonce_bytes,
/// then as many bytes as the plaintext, then seal_mac_bytes.
class block_sealer {
 public:
  explicit block_sealer(const seal_keys& keys);

  /// Seals `record` in place. On entry the plaintext sits where the
  /// ciphertext goes, at record[seal_nonce_bytes, size - seal_mac_bytes);
  /// the nonce and MAC slots are overwritten. Throws contract_error if
  /// `record` is shorter than seal_overhead.
  void seal_in_place(std::span<std::uint8_t> record);

  /// Opens `sealed` into `plain_out`, which must hold exactly
  /// sealed.size() - seal_overhead bytes and must not overlap `sealed`.
  /// The MAC is checked before anything is written. Throws crypto_error
  /// if `sealed` is shorter than seal_overhead or fails the MAC check
  /// (tampering), leaving `plain_out` untouched; throws contract_error
  /// if `plain_out` has the wrong size.
  void open_into(std::span<const std::uint8_t> sealed,
                 std::span<std::uint8_t> plain_out) const;

 private:
  seal_keys keys_;
  std::uint64_t nonce_counter_ = 0;
};

/// Thrown when authentication fails or a sealed buffer is malformed.
class crypto_error : public std::runtime_error {
 public:
  explicit crypto_error(const std::string& what)
      : std::runtime_error(what) {}
};

}  // namespace horam::crypto

#endif  // HORAM_CRYPTO_SEAL_H

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

/// One stretch of a sealed record's ciphertext and the keystream bytes
/// it is encrypted under. `offset` counts from the first ciphertext
/// byte; `keystream_offset` from the first byte of the record's
/// keystream (ChaCha20 block 1 under the record's nonce).
struct keystream_piece {
  std::size_t offset = 0;
  std::size_t length = 0;
  std::uint64_t keystream_offset = 0;
};

/// Stateful sealer. Nonces are drawn from an internal counter, which is
/// unique-per-seal as long as one sealer instance guards one store.
/// No call allocates.
///
/// A sealed record is nonce || ciphertext || mac: seal_nonce_bytes,
/// then as many bytes as the plaintext, then seal_mac_bytes. The MAC
/// covers nonce || ciphertext. By default the ciphertext is one
/// contiguous keystream; a caller that wants to decrypt parts of a
/// record on their own seals it as keystream pieces instead, and opens
/// it with verify() followed by open_range() per wanted piece.
class block_sealer {
 public:
  explicit block_sealer(const seal_keys& keys);

  /// Seals `record` in place. On entry the plaintext sits where the
  /// ciphertext goes, at record[seal_nonce_bytes, size - seal_mac_bytes);
  /// the nonce and MAC slots are overwritten. Throws contract_error if
  /// `record` is shorter than seal_overhead.
  void seal_in_place(std::span<std::uint8_t> record);

  /// seal_in_place() with the ciphertext encrypted piece by piece.
  /// `pieces` must tile the ciphertext in order (each piece starts where
  /// the last ended, and together they cover all of it), and their
  /// keystream ranges must ascend without overlapping, so no keystream
  /// byte is used twice. Throws contract_error otherwise.
  void seal_in_place(std::span<std::uint8_t> record,
                     std::span<const keystream_piece> pieces);

  /// Checks the MAC of `sealed`. Throws crypto_error if `sealed` is
  /// shorter than seal_overhead or fails the check (tampering).
  void verify(std::span<const std::uint8_t> sealed) const;

  /// Decrypts one piece of `sealed` into `plain_out` (piece.length
  /// bytes, not overlapping `sealed`). Checks no MAC: call it only on a
  /// record verify() accepted. Throws contract_error if the piece falls
  /// outside the ciphertext or `plain_out` has the wrong size.
  void open_range(std::span<const std::uint8_t> sealed,
                  const keystream_piece& piece,
                  std::span<std::uint8_t> plain_out) const;

  /// verify() then open_range() over the whole ciphertext of a record
  /// sealed with the contiguous seal_in_place(). `plain_out` must hold
  /// exactly sealed.size() - seal_overhead bytes and must not overlap
  /// `sealed`; on a failed MAC it is left untouched.
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

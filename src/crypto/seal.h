// Authenticated block sealing: encrypt-then-MAC with ChaCha20 + SipHash.
//
// Every block leaving the trusted control layer is sealed under a fresh
// nonce, so two ciphertexts of the same plaintext are unlinkable — the
// property that lets H-ORAM rewrite unmodified data during path
// write-back and shuffles without revealing that nothing changed.
//
// All encryption runs on the lane-parallel kernels of chacha20.h and
// siphash.h (widest of AVX-512, AVX2, portable, picked once per
// process). Pieces adjacent in both ciphertext and keystream are merged
// first, so no block is split. A single record (seal_in_place,
// open_range, open_pieces) goes through the one-nonce
// chacha20_xor_at(). seal_many() and verify_many() batch several
// records: all of their keystream blocks share the lanes as jobs
// (chacha20_xor_jobs), and their MACs are computed side by side
// (siphash24_many). A range_batch does the same for open_range() calls.
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
/// keys, per standard encrypt-then-MAC practice). Stores take theirs
/// from crypto/key_schedule.h.
struct seal_keys {
  chacha_key encryption_key{};
  siphash_key mac_key{};
};

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

  [[nodiscard]] const seal_keys& keys() const noexcept { return keys_; }

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

  /// seal_in_place(record, pieces) for every record of `records`, in
  /// order (record i takes the i-th fresh nonce), as one batch. Each
  /// record is the first seal_overhead + (total piece length) bytes of
  /// its span; bytes past it are left alone.
  void seal_many(std::span<const std::span<std::uint8_t>> records,
                 std::span<const keystream_piece> pieces);

  /// Checks the MAC of `sealed`. Throws crypto_error if `sealed` is
  /// shorter than seal_overhead or fails the check (tampering).
  void verify(std::span<const std::uint8_t> sealed) const;

  /// verify() of the first `record_bytes` bytes of every span of
  /// `records`, the MACs computed side by side. Throws crypto_error if
  /// any record fails.
  void verify_many(std::span<const std::span<const std::uint8_t>> records,
                   std::size_t record_bytes) const;

  /// Decrypts one piece of `sealed` into `plain_out` (piece.length
  /// bytes, not overlapping `sealed`). Checks no MAC: call it only on a
  /// record verify() accepted. Throws contract_error if the piece falls
  /// outside the ciphertext or `plain_out` has the wrong size.
  void open_range(std::span<const std::uint8_t> sealed,
                  const keystream_piece& piece,
                  std::span<std::uint8_t> plain_out) const;

  /// open_range() of every piece of a record sealed with
  /// seal_in_place(record, pieces), into `plain_out` (the pieces' total
  /// length, laid out as the ciphertext is). Pieces adjacent in both
  /// ciphertext and keystream open as one run, as they were sealed.
  void open_pieces(std::span<const std::uint8_t> sealed,
                   std::span<const keystream_piece> pieces,
                   std::span<std::uint8_t> plain_out) const;

  /// verify() then open_range() over the whole ciphertext of a record
  /// sealed with the contiguous seal_in_place(). `plain_out` must hold
  /// exactly sealed.size() - seal_overhead bytes and must not overlap
  /// `sealed`; on a failed MAC it is left untouched.
  void open_into(std::span<const std::uint8_t> sealed,
                 std::span<std::uint8_t> plain_out) const;

  /// Batched open_range(): add() takes the same arguments and checks,
  /// copies the ciphertext out and queues its keystream blocks; they
  /// are XORed lane-parallel as the queue fills and at flush(). An
  /// output holds plaintext only once flush() has returned. No call
  /// allocates.
  class range_batch {
   public:
    explicit range_batch(const block_sealer& sealer) noexcept
        : queue_(sealer.keys_.encryption_key) {}

    void add(std::span<const std::uint8_t> sealed,
             const keystream_piece& piece, std::span<std::uint8_t> plain_out);
    void flush() { queue_.flush(); }

   private:
    friend class block_sealer;
    /// Queues the XOR of `data` with the record keystream under `nonce`
    /// from byte `keystream_offset` on; a start inside a block is
    /// XORed at once.
    void queue(const chacha_nonce& nonce, std::uint64_t keystream_offset,
               std::span<std::uint8_t> data);

    chacha_job_queue queue_;
  };

 private:
  /// Draws the next nonce and writes it to the head of `record`.
  chacha_nonce take_nonce(std::span<std::uint8_t> record);

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

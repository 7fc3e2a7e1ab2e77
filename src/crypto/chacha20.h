// ChaCha20 stream cipher (RFC 8439), implemented from scratch.
//
// Used for two jobs in this codebase:
//   * sealing block payloads before they leave the trusted control layer
//     (see crypto/seal.h), and
//   * as the core of chacha_rng, the CSPRNG behind all security-relevant
//     random choices (leaf remapping, permutation generation).
//
// Batch layer: chacha20_xor_jobs() takes a list of keystream jobs, each
// at most one 64-byte block under its own nonce and counter, and
// computes one job per SIMD lane. The lane width is chosen once, at the
// first call, from what the host CPU runs: 16 lanes on AVX-512F+VL,
// 8 on AVX2 (both x86-64 only, compiled through target attributes, so
// the build flags stay generic), and otherwise 4 lanes of GCC/Clang
// vector types, which lower to SSE2 or NEON. A batch runs on that
// kernel in groups of its width, the last group padded with repeats
// whose output is dropped; a single job left after whole groups runs on
// the scalar block function instead. chacha20_xor_at() is the one-nonce
// case of the same kernels and builds no job list: whole groups of
// whole blocks broadcast one state and step the counter per lane, and
// only the tail goes through the per-lane path. Every path produces the
// keystream chacha20_block() defines; tests compare each width against
// it (crypto/detail/kernels.h).
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

/// One lane of a keystream batch: XORs the `len` <= 64 bytes at `data`
/// with the first `len` bytes of keystream block `counter` under
/// `nonce`. A plain aggregate (no member initialisers), so the
/// fixed-size job queues the sealer keeps on the stack cost nothing to
/// declare.
struct chacha_job {
  chacha_nonce nonce;
  std::uint32_t counter;
  std::uint8_t* data;
  std::size_t len;
};

/// Runs every job of `jobs`, lane-parallel. Jobs must not overlap one
/// another's data. Equivalent to one chacha20_block() XOR per job.
void chacha20_xor_jobs(const chacha_key& key,
                       std::span<const chacha_job> jobs);

/// Splits stretches of data into keystream jobs and runs them through
/// chacha20_xor_jobs() a full buffer at a time, so a caller can batch
/// any number of stretches, under any number of nonces, without
/// allocating. A stretch is XORed at the latest when flush() returns.
/// `key` must outlive the queue.
class chacha_job_queue {
 public:
  explicit chacha_job_queue(const chacha_key& key) noexcept : key_(key) {}

  /// Queues the XOR of `data` with consecutive keystream blocks under
  /// `nonce`, the first being block `counter` (counters wrap modulo
  /// 2^32, as in chacha20_xor).
  void add(const chacha_nonce& nonce, std::uint32_t counter,
           std::span<std::uint8_t> data);
  void flush();

  [[nodiscard]] const chacha_key& key() const noexcept { return key_; }

 private:
  const chacha_key& key_;
  std::array<chacha_job, 64> jobs_;
  std::size_t queued_ = 0;
};

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

// SipHash-2-4 (Aumasson & Bernstein), implemented from scratch.
//
// Serves as the keyed PRF of the codebase: block MACs (crypto/seal.h) and
// pseudorandom address derivation where a permutation needs to be
// recomputable from a small secret.
//
// Batch layer: siphash24_many() tags several equal-length messages side
// by side, one message per 64-bit SIMD lane. Like the ChaCha20 batch
// (crypto/chacha20.h) it picks its width once, at the first call: 8
// lanes on AVX-512F+VL, 4 on AVX2 (x86-64 target attributes), and
// otherwise the scalar siphash24() per message. A batch runs on that
// kernel in groups of its width, the last group padded; a single
// message left after whole groups runs on siphash24() instead. Every
// path returns exactly siphash24()'s tags.
#ifndef HORAM_CRYPTO_SIPHASH_H
#define HORAM_CRYPTO_SIPHASH_H

#include <array>
#include <cstdint>
#include <span>

namespace horam::crypto {

/// 128-bit SipHash key.
using siphash_key = std::array<std::uint8_t, 16>;

/// SipHash-2-4 of `data` under `key`; returns the 64-bit tag.
std::uint64_t siphash24(const siphash_key& key,
                        std::span<const std::uint8_t> data);

/// SipHash-2-4 of several messages of `length` bytes each:
/// tags[i] = siphash24(key, {messages[i], length}), computed
/// lane-parallel. `tags` must hold messages.size() values.
void siphash24_many(const siphash_key& key,
                    std::span<const std::uint8_t* const> messages,
                    std::size_t length, std::span<std::uint64_t> tags);

/// PRF convenience: SipHash of a single 64-bit message word.
std::uint64_t siphash24_u64(const siphash_key& key, std::uint64_t value);

}  // namespace horam::crypto

#endif  // HORAM_CRYPTO_SIPHASH_H

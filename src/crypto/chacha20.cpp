#include "crypto/chacha20.h"

#include <bit>
#include <cstring>

namespace horam::crypto {

namespace {

// Keystream words are little-endian on the wire; the whole-word loads,
// stores and XORs below reinterpret bytes in host order.
static_assert(std::endian::native == std::endian::little,
              "chacha20 word loads assume a little-endian host");

/// Four 32-bit lanes; GCC and Clang lower it to SSE2 on x86-64 and NEON
/// on AArch64 without any target flag.
using u32x4 = std::uint32_t __attribute__((vector_size(16)));

constexpr std::uint32_t rotl32(std::uint32_t v, int n) noexcept {
  return (v << n) | (v >> (32 - n));
}

u32x4 rotl32(u32x4 v, int n) noexcept {
  return (v << n) | (v >> (32 - n));
}

std::uint32_t load_le32(const std::uint8_t* p) noexcept {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}

u32x4 load_u32x4(const std::uint8_t* p) noexcept {
  u32x4 v{};
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store_u32x4(std::uint8_t* p, u32x4 v) noexcept {
  std::memcpy(p, &v, sizeof v);
}

/// One ChaCha quarter round; works on scalars and on u32x4 lanes alike.
template <typename Word>
void quarter_round(Word& a, Word& b, Word& c, Word& d) noexcept {
  a += b;
  d = rotl32(d ^ a, 16);
  c += d;
  b = rotl32(b ^ c, 12);
  a += b;
  d = rotl32(d ^ a, 8);
  c += d;
  b = rotl32(b ^ c, 7);
}

/// The 20 rounds (10 column + diagonal double rounds) over 16 words.
template <typename Word>
void chacha_rounds(Word (&x)[16]) noexcept {
  for (int round = 0; round < 10; ++round) {
    quarter_round(x[0], x[4], x[8], x[12]);
    quarter_round(x[1], x[5], x[9], x[13]);
    quarter_round(x[2], x[6], x[10], x[14]);
    quarter_round(x[3], x[7], x[11], x[15]);
    quarter_round(x[0], x[5], x[10], x[15]);
    quarter_round(x[1], x[6], x[11], x[12]);
    quarter_round(x[2], x[7], x[8], x[13]);
    quarter_round(x[3], x[4], x[9], x[14]);
  }
}

/// RFC 8439 state layout: constants, key, counter, nonce.
void init_state(const chacha_key& key, std::uint32_t counter,
                const chacha_nonce& nonce, std::uint32_t (&state)[16]) {
  state[0] = 0x61707865;
  state[1] = 0x3320646e;
  state[2] = 0x79622d32;
  state[3] = 0x6b206574;
  for (int i = 0; i < 8; ++i) {
    state[4 + i] = load_le32(key.data() + 4 * i);
  }
  state[12] = counter;
  for (int i = 0; i < 3; ++i) {
    state[13 + i] = load_le32(nonce.data() + 4 * i);
  }
}

/// Writes the 64-byte keystream block for `state` (its word 12 is the
/// block counter) to `out`.
void keystream_block(const std::uint32_t (&state)[16],
                     std::uint8_t* out) noexcept {
  std::uint32_t x[16];
  std::memcpy(x, state, sizeof x);
  chacha_rounds(x);
  for (int i = 0; i < 16; ++i) {
    x[i] += state[i];
  }
  std::memcpy(out, x, sizeof x);
}

/// XORs `n` <= 64 bytes of `data` with `keystream`, a word at a time.
void xor_keystream(std::uint8_t* data, const std::uint8_t* keystream,
                   std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t d = 0;
    std::uint64_t k = 0;
    std::memcpy(&d, data + i, 8);
    std::memcpy(&k, keystream + i, 8);
    d ^= k;
    std::memcpy(data + i, &d, 8);
  }
  for (; i < n; ++i) {
    data[i] ^= keystream[i];
  }
}

/// XORs 256 bytes of `data` with keystream blocks state[12] + 0..3. Lane
/// k of every vector computes block k; a 4x4 transpose per word group
/// then turns lanes back into contiguous keystream bytes.
void xor_four_blocks(const std::uint32_t (&state)[16],
                     std::uint8_t* data) noexcept {
  u32x4 input[16];
  for (int i = 0; i < 16; ++i) {
    input[i] = u32x4{state[i], state[i], state[i], state[i]};
  }
  // Lane counters wrap modulo 2^32, exactly as the scalar counter does.
  input[12] += u32x4{0, 1, 2, 3};
  u32x4 x[16];
  std::memcpy(x, input, sizeof x);
  chacha_rounds(x);
  for (int i = 0; i < 16; ++i) {
    x[i] += input[i];
  }

  for (int group = 0; group < 4; ++group) {
    const u32x4 a = x[4 * group];
    const u32x4 b = x[4 * group + 1];
    const u32x4 c = x[4 * group + 2];
    const u32x4 d = x[4 * group + 3];
    const u32x4 ab_lo = __builtin_shufflevector(a, b, 0, 4, 1, 5);
    const u32x4 cd_lo = __builtin_shufflevector(c, d, 0, 4, 1, 5);
    const u32x4 ab_hi = __builtin_shufflevector(a, b, 2, 6, 3, 7);
    const u32x4 cd_hi = __builtin_shufflevector(c, d, 2, 6, 3, 7);
    // rows[k] = words 4*group .. 4*group+3 of block k.
    const u32x4 rows[4] = {__builtin_shufflevector(ab_lo, cd_lo, 0, 1, 4, 5),
                           __builtin_shufflevector(ab_lo, cd_lo, 2, 3, 6, 7),
                           __builtin_shufflevector(ab_hi, cd_hi, 0, 1, 4, 5),
                           __builtin_shufflevector(ab_hi, cd_hi, 2, 3, 6, 7)};
    for (int k = 0; k < 4; ++k) {
      std::uint8_t* const p = data + 64 * k + 16 * group;
      store_u32x4(p, load_u32x4(p) ^ rows[k]);
    }
  }
}

}  // namespace

void chacha20_block(const chacha_key& key, std::uint32_t counter,
                    const chacha_nonce& nonce,
                    std::span<std::uint8_t, 64> out) {
  std::uint32_t state[16];
  init_state(key, counter, nonce, state);
  keystream_block(state, out.data());
}

void chacha20_xor(const chacha_key& key, const chacha_nonce& nonce,
                  std::uint32_t initial_counter,
                  std::span<std::uint8_t> data) {
  chacha20_xor_at(key, nonce, initial_counter, /*offset=*/0, data);
}

void chacha20_xor_at(const chacha_key& key, const chacha_nonce& nonce,
                     std::uint32_t initial_counter, std::uint64_t offset,
                     std::span<std::uint8_t> data) {
  std::uint32_t state[16];
  // Block counters wrap modulo 2^32, as in chacha20_xor.
  init_state(key,
             initial_counter + static_cast<std::uint32_t>(offset / 64),
             nonce, state);
  std::uint8_t* p = data.data();
  std::size_t left = data.size();
  // A start inside a keystream block uses that block's tail first.
  const std::size_t skip = offset % 64;
  if (skip != 0 && left > 0) {
    std::uint8_t keystream[64] = {};
    keystream_block(state, keystream);
    ++state[12];
    const std::size_t chunk = left < 64 - skip ? left : 64 - skip;
    xor_keystream(p, keystream + skip, chunk);
    p += chunk;
    left -= chunk;
  }
  for (; left >= 256; p += 256, left -= 256) {
    xor_four_blocks(state, p);
    state[12] += 4;
  }
  while (left > 0) {
    std::uint8_t keystream[64] = {};
    keystream_block(state, keystream);
    ++state[12];
    const std::size_t chunk = left < 64 ? left : 64;
    xor_keystream(p, keystream, chunk);
    p += chunk;
    left -= chunk;
  }
}

chacha_rng::chacha_rng(const chacha_key& key, std::uint64_t stream)
    : key_(key) {
  // The stream index occupies the first 8 nonce bytes; the remaining 4
  // stay zero. Each (key, stream) pair yields an independent keystream.
  for (int i = 0; i < 8; ++i) {
    nonce_[i] = static_cast<std::uint8_t>(stream >> (8 * i));
  }
}

chacha_rng::chacha_rng(std::uint64_t seed, std::uint64_t stream)
    : chacha_rng(
          [&] {
            chacha_key key{};
            // Expand the seed with splitmix64 so near-by seeds yield
            // unrelated keys.
            std::uint64_t x = seed;
            for (int word = 0; word < 4; ++word) {
              x += 0x9e3779b97f4a7c15ULL;
              std::uint64_t z = x;
              z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
              z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
              z ^= z >> 31;
              for (int i = 0; i < 8; ++i) {
                key[8 * word + i] = static_cast<std::uint8_t>(z >> (8 * i));
              }
            }
            return key;
          }(),
          stream) {}

std::uint64_t chacha_rng::next_u64() {
  if (used_ + 8 > buffer_.size()) {
    refill();
  }
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<std::uint64_t>(buffer_[used_ + i]) << (8 * i);
  }
  used_ += 8;
  return value;
}

void chacha_rng::refill() {
  chacha20_block(key_, counter_++, nonce_, buffer_);
  used_ = 0;
}

}  // namespace horam::crypto

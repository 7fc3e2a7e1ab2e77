#include "crypto/siphash.h"

#include <bit>
#include <cstring>

namespace horam::crypto {

namespace {

// Message words are little-endian; the memcpy loads below read them in
// host order.
static_assert(std::endian::native == std::endian::little,
              "siphash word loads assume a little-endian host");

constexpr std::uint64_t rotl64(std::uint64_t v, int n) noexcept {
  return (v << n) | (v >> (64 - n));
}

std::uint64_t load_le64(const std::uint8_t* p) noexcept {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}

struct sip_state {
  std::uint64_t v0, v1, v2, v3;

  void round() noexcept {
    v0 += v1;
    v1 = rotl64(v1, 13);
    v1 ^= v0;
    v0 = rotl64(v0, 32);
    v2 += v3;
    v3 = rotl64(v3, 16);
    v3 ^= v2;
    v0 += v3;
    v3 = rotl64(v3, 21);
    v3 ^= v0;
    v2 += v1;
    v1 = rotl64(v1, 17);
    v1 ^= v2;
    v2 = rotl64(v2, 32);
  }
};

}  // namespace

std::uint64_t siphash24(const siphash_key& key,
                        std::span<const std::uint8_t> data) {
  const std::uint64_t k0 = load_le64(key.data());
  const std::uint64_t k1 = load_le64(key.data() + 8);

  sip_state s{0x736f6d6570736575ULL ^ k0, 0x646f72616e646f6dULL ^ k1,
              0x6c7967656e657261ULL ^ k0, 0x7465646279746573ULL ^ k1};

  const std::size_t full_words = data.size() / 8;
  for (std::size_t w = 0; w < full_words; ++w) {
    const std::uint64_t m = load_le64(data.data() + 8 * w);
    s.v3 ^= m;
    s.round();
    s.round();
    s.v0 ^= m;
  }

  // Final word: remaining bytes plus the length in the top byte.
  std::uint64_t last = 0;
  if (const std::size_t tail = data.size() & 7; tail != 0) {
    std::memcpy(&last, data.data() + 8 * full_words, tail);
  }
  last |= static_cast<std::uint64_t>(data.size() & 0xff) << 56;
  s.v3 ^= last;
  s.round();
  s.round();
  s.v0 ^= last;

  s.v2 ^= 0xff;
  s.round();
  s.round();
  s.round();
  s.round();
  return s.v0 ^ s.v1 ^ s.v2 ^ s.v3;
}

std::uint64_t siphash24_u64(const siphash_key& key, std::uint64_t value) {
  std::array<std::uint8_t, 8> bytes;
  for (int i = 0; i < 8; ++i) {
    bytes[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(value >> (8 * i));
  }
  return siphash24(key, bytes);
}

}  // namespace horam::crypto

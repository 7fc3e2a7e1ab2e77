#include "crypto/siphash.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "crypto/detail/kernels.h"
#include "util/contracts.h"

namespace horam::crypto {

namespace {

// Message words are little-endian; the memcpy loads below read them in
// host order.
static_assert(std::endian::native == std::endian::little,
              "siphash word loads assume a little-endian host");

/// Rotates left in place; works on scalars and on vector lanes alike
/// (in place, so no wide vector crosses a call boundary by value).
template <typename Word>
[[gnu::always_inline]] inline void rotl64(Word& v, int n) noexcept {
  v = (v << n) | (v >> (64 - n));
}

std::uint64_t load_le64(const std::uint8_t* p) noexcept {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// The initialisation constants ("somepseudorandomlygeneratedbytes").
constexpr std::uint64_t iv[4] = {0x736f6d6570736575ULL, 0x646f72616e646f6dULL,
                                 0x6c7967656e657261ULL, 0x7465646279746573ULL};

/// SipHash state over one message (Word = std::uint64_t) or one
/// message per vector lane.
template <typename Word>
struct sip_state {
  Word v0, v1, v2, v3;

  [[gnu::always_inline]] void round() noexcept {
    v0 += v1;
    rotl64(v1, 13);
    v1 ^= v0;
    rotl64(v0, 32);
    v2 += v3;
    rotl64(v3, 16);
    v3 ^= v2;
    v0 += v3;
    rotl64(v3, 21);
    v3 ^= v0;
    v2 += v1;
    rotl64(v1, 17);
    v1 ^= v2;
    rotl64(v2, 32);
  }

  /// Two compression rounds over one message word.
  [[gnu::always_inline]] void compress(const Word& m) noexcept {
    v3 ^= m;
    round();
    round();
    v0 ^= m;
  }

  /// Four finalisation rounds; leaves the tag in v0.
  [[gnu::always_inline]] void finish() noexcept {
    v2 ^= 0xff;
    round();
    round();
    round();
    round();
    v0 ^= v1 ^ v2 ^ v3;
  }
};

/// The last message word: the 0..7 tail bytes plus the length in the
/// top byte.
std::uint64_t last_word(const std::uint8_t* data, std::size_t length) {
  std::uint64_t last = 0;
  if (const std::size_t tail = length & 7; tail != 0) {
    std::memcpy(&last, data + (length & ~std::size_t{7}), tail);
  }
  return last | static_cast<std::uint64_t>(length & 0xff) << 56;
}

/// Tags 1..lanes(V) messages, lane j hashing messages[j]. Lanes past
/// `count` repeat message 0 and their tags are dropped.
template <typename V>
[[gnu::always_inline]] inline void sip_group(
    const siphash_key& key, const std::uint8_t* const* messages,
    std::size_t count, std::size_t length, std::uint64_t* tags) noexcept {
  constexpr std::size_t lanes = sizeof(V) / sizeof(std::uint64_t);
  const std::uint8_t* m[lanes];
  for (std::size_t j = 0; j < lanes; ++j) {
    m[j] = messages[j < count ? j : 0];
  }
  const std::uint64_t k0 = load_le64(key.data());
  const std::uint64_t k1 = load_le64(key.data() + 8);
  sip_state<V> s{V{} + (iv[0] ^ k0), V{} + (iv[1] ^ k1), V{} + (iv[2] ^ k0),
                 V{} + (iv[3] ^ k1)};
  const std::size_t full_words = length / 8;
  for (std::size_t w = 0; w < full_words; ++w) {
    V word;
    for (std::size_t j = 0; j < lanes; ++j) {
      word[j] = load_le64(m[j] + 8 * w);
    }
    s.compress(word);
  }
  V last;
  for (std::size_t j = 0; j < lanes; ++j) {
    last[j] = last_word(m[j], length);
  }
  s.compress(last);
  s.finish();
  for (std::size_t j = 0; j < count; ++j) {
    tags[j] = s.v0[j];
  }
}

/// All messages in groups of lanes(V), the last one padded.
template <typename V>
[[gnu::always_inline]] inline void sip_lanes(
    const siphash_key& key, const std::uint8_t* const* messages,
    std::size_t count, std::size_t length, std::uint64_t* tags) noexcept {
  constexpr std::size_t lanes = sizeof(V) / sizeof(std::uint64_t);
  for (std::size_t first = 0; first < count; first += lanes) {
    sip_group<V>(key, messages + first, std::min(lanes, count - first),
                 length, tags + first);
  }
}

using many_kernel = void (*)(const siphash_key&, const std::uint8_t* const*,
                             std::size_t, std::size_t,
                             std::uint64_t*) noexcept;

void sip_scalar(const siphash_key& key, const std::uint8_t* const* messages,
                std::size_t count, std::size_t length,
                std::uint64_t* tags) noexcept {
  for (std::size_t i = 0; i < count; ++i) {
    tags[i] = siphash24(key, {messages[i], length});
  }
}

#if defined(__x86_64__)
__attribute__((target("avx2"))) void sip_avx2(
    const siphash_key& key, const std::uint8_t* const* messages,
    std::size_t count, std::size_t length, std::uint64_t* tags) noexcept {
  using u64x4 = std::uint64_t __attribute__((vector_size(32)));
  sip_lanes<u64x4>(key, messages, count, length, tags);
}

__attribute__((target("avx512f,avx512vl"))) void sip_avx512(
    const siphash_key& key, const std::uint8_t* const* messages,
    std::size_t count, std::size_t length, std::uint64_t* tags) noexcept {
  using u64x8 = std::uint64_t __attribute__((vector_size(64)));
  sip_lanes<u64x8>(key, messages, count, length, tags);
}
#endif

many_kernel kernel_for(detail::kernel_isa isa) noexcept {
#if defined(__x86_64__)
  switch (isa) {
    case detail::kernel_isa::avx512:
      return sip_avx512;
    case detail::kernel_isa::avx2:
      return sip_avx2;
    case detail::kernel_isa::portable:
      break;
  }
#else
  (void)isa;
#endif
  return sip_scalar;
}

}  // namespace

std::uint64_t siphash24(const siphash_key& key,
                        std::span<const std::uint8_t> data) {
  const std::uint64_t k0 = load_le64(key.data());
  const std::uint64_t k1 = load_le64(key.data() + 8);
  sip_state<std::uint64_t> s{iv[0] ^ k0, iv[1] ^ k1, iv[2] ^ k0, iv[3] ^ k1};
  const std::size_t full_words = data.size() / 8;
  for (std::size_t w = 0; w < full_words; ++w) {
    s.compress(load_le64(data.data() + 8 * w));
  }
  s.compress(last_word(data.data(), data.size()));
  s.finish();
  return s.v0;
}

void siphash24_many(const siphash_key& key,
                    std::span<const std::uint8_t* const> messages,
                    std::size_t length, std::span<std::uint64_t> tags) {
  expects(tags.size() == messages.size(), "one tag per message");
  // The widest kernel, its last group padded; a lone message after
  // whole groups is cheaper on the scalar function.
  const detail::kernel_isa widest = detail::dispatched_isa();
  const bool lone_tail = messages.size() % detail::siphash_lanes(widest) == 1;
  const std::size_t vector_messages = messages.size() - (lone_tail ? 1 : 0);
  if (vector_messages > 0) {
    kernel_for(widest)(key, messages.data(), vector_messages, length,
                       tags.data());
  }
  if (lone_tail) {
    tags.back() = siphash24(key, {messages.back(), length});
  }
}

namespace detail {

void siphash24_many_on(kernel_isa isa, const siphash_key& key,
                       std::span<const std::uint8_t* const> messages,
                       std::size_t length, std::span<std::uint64_t> tags) {
  expects(host_runs(isa), "kernel not available on this host");
  expects(tags.size() == messages.size(), "one tag per message");
  kernel_for(isa)(key, messages.data(), messages.size(), length,
                  tags.data());
}

}  // namespace detail

std::uint64_t siphash24_u64(const siphash_key& key, std::uint64_t value) {
  std::array<std::uint8_t, 8> bytes;
  for (int i = 0; i < 8; ++i) {
    bytes[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(value >> (8 * i));
  }
  return siphash24(key, bytes);
}

}  // namespace horam::crypto

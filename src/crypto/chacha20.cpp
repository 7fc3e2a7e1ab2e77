#include "crypto/chacha20.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#include "crypto/detail/kernels.h"
#include "util/contracts.h"

namespace horam::crypto {

namespace {

// Keystream words are little-endian on the wire; the whole-word loads,
// stores and XORs below reinterpret bytes in host order.
static_assert(std::endian::native == std::endian::little,
              "chacha20 word loads assume a little-endian host");

/// Four 32-bit lanes; GCC and Clang lower it to SSE2 on x86-64 and NEON
/// on AArch64 without any target flag. The wider lane types exist only
/// inside the target-attributed kernels below.
using u32x4 = std::uint32_t __attribute__((vector_size(16)));

/// Words 0..3 of every ChaCha20 state ("expand 32-byte k").
constexpr std::uint32_t sigma[4] = {0x61707865, 0x3320646e, 0x79622d32,
                                    0x6b206574};

/// Rotates left in place; works on scalars and on vector lanes alike
/// (in place, so no wide vector crosses a call boundary by value).
template <typename Word>
[[gnu::always_inline]] inline void rotl32(Word& v, int n) noexcept {
  v = (v << n) | (v >> (32 - n));
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

/// One ChaCha quarter round; works on scalars and on vector lanes alike.
template <typename Word>
[[gnu::always_inline]] inline void quarter_round(Word& a, Word& b, Word& c,
                                                 Word& d) noexcept {
  a += b;
  d ^= a;
  rotl32(d, 16);
  c += d;
  b ^= c;
  rotl32(b, 12);
  a += b;
  d ^= a;
  rotl32(d, 8);
  c += d;
  b ^= c;
  rotl32(b, 7);
}

/// The 20 rounds (10 column + diagonal double rounds) over 16 words.
template <typename Word>
[[gnu::always_inline]] inline void chacha_rounds(Word (&x)[16]) noexcept {
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

/// The key as the eight little-endian state words 4..11.
struct key_words {
  std::uint32_t w[8];

  explicit key_words(const chacha_key& key) noexcept {
    for (int i = 0; i < 8; ++i) {
      w[i] = load_le32(key.data() + 4 * i);
    }
  }
};

/// RFC 8439 state layout: constants, key, counter, nonce.
void init_state(const chacha_key& key, std::uint32_t counter,
                const chacha_nonce& nonce, std::uint32_t (&state)[16]) {
  const key_words words(key);
  for (int i = 0; i < 4; ++i) {
    state[i] = sigma[i];
  }
  for (int i = 0; i < 8; ++i) {
    state[4 + i] = words.w[i];
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
[[gnu::always_inline]] inline void xor_keystream(
    std::uint8_t* data, const std::uint8_t* keystream,
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

/// The lanes of a job list: lane j runs jobs[j].
struct job_lanes {
  const chacha_job* jobs;

  [[gnu::always_inline]] std::uint32_t counter(std::size_t j) const noexcept {
    return jobs[j].counter;
  }
  [[gnu::always_inline]] std::uint32_t nonce_word(std::size_t j,
                                                  int w) const noexcept {
    return load_le32(jobs[j].nonce.data() + 4 * w);
  }
  [[gnu::always_inline]] std::uint8_t* data(std::size_t j) const noexcept {
    return jobs[j].data;
  }
  [[gnu::always_inline]] std::size_t len(std::size_t j) const noexcept {
    return jobs[j].len;
  }
  [[gnu::always_inline]] job_lanes from(std::size_t first) const noexcept {
    return {jobs + first};
  }
};

/// The lanes of one nonce's consecutive keystream blocks over one
/// buffer: lane j XORs bytes [64 j, 64 j + 64) with block counter + j.
/// No job list is built, so a one-nonce stretch skips that cost.
struct run_lanes {
  std::uint32_t first_counter;
  std::uint32_t nonce[3];
  std::uint8_t* bytes;
  std::size_t size;

  [[gnu::always_inline]] std::uint32_t counter(std::size_t j) const noexcept {
    // Wraps modulo 2^32, as chacha20_xor's counter does.
    return first_counter + static_cast<std::uint32_t>(j);
  }
  [[gnu::always_inline]] std::uint32_t nonce_word(std::size_t /*j*/,
                                                  int w) const noexcept {
    return nonce[w];
  }
  [[gnu::always_inline]] std::uint8_t* data(std::size_t j) const noexcept {
    return bytes + 64 * j;
  }
  [[gnu::always_inline]] std::size_t len(std::size_t j) const noexcept {
    return std::min<std::size_t>(64, size - 64 * j);
  }
  [[gnu::always_inline]] run_lanes from(std::size_t first) const noexcept {
    return {counter(first), {nonce[0], nonce[1], nonce[2]}, data(first),
            size - 64 * first};
  }
};

/// The keystream of one SIMD group: lane j of x[i] becomes word i of
/// the block whose state words 12..15 sit in lane j of input[12..15].
template <typename V>
[[gnu::always_inline]] inline void keystream_lanes(const V (&input)[16],
                                                   V (&x)[16]) noexcept {
  std::memcpy(x, input, sizeof x);
  chacha_rounds(x);
  for (int i = 0; i < 16; ++i) {
    x[i] += input[i];
  }
}

/// Keystream bytes back from lanes: rows[k] = words 4*group ..
/// 4*group+3 of the block in lane 4*chunk + k, by a 4x4 transpose of
/// that 16-byte chunk of four words.
template <typename V>
[[gnu::always_inline]] inline void transposed_rows(const V (&x)[16],
                                                   int group,
                                                   std::size_t chunk,
                                                   u32x4 (&rows)[4]) noexcept {
  u32x4 w[4];
  for (int i = 0; i < 4; ++i) {
    std::memcpy(&w[i],
                reinterpret_cast<const std::uint8_t*>(&x[4 * group + i]) +
                    16 * chunk,
                sizeof(u32x4));
  }
  const u32x4 ab_lo = __builtin_shufflevector(w[0], w[1], 0, 4, 1, 5);
  const u32x4 cd_lo = __builtin_shufflevector(w[2], w[3], 0, 4, 1, 5);
  const u32x4 ab_hi = __builtin_shufflevector(w[0], w[1], 2, 6, 3, 7);
  const u32x4 cd_hi = __builtin_shufflevector(w[2], w[3], 2, 6, 3, 7);
  rows[0] = __builtin_shufflevector(ab_lo, cd_lo, 0, 1, 4, 5);
  rows[1] = __builtin_shufflevector(ab_lo, cd_lo, 2, 3, 6, 7);
  rows[2] = __builtin_shufflevector(ab_hi, cd_hi, 0, 1, 4, 5);
  rows[3] = __builtin_shufflevector(ab_hi, cd_hi, 2, 3, 6, 7);
}

/// The state words every lane shares: constants and key (V may be a
/// scalar word or a vector).
template <typename V>
[[gnu::always_inline]] inline void shared_words(const key_words& key,
                                                V (&input)[16]) noexcept {
  for (int i = 0; i < 4; ++i) {
    input[i] = V{} + sigma[i];
  }
  for (int i = 0; i < 8; ++i) {
    input[4 + i] = V{} + key.w[i];
  }
}

/// Lane 0 of `lanes` on the scalar block function.
template <typename Lanes>
void xor_one(const key_words& key, const Lanes& lanes) noexcept {
  std::uint32_t state[16];
  shared_words(key, state);
  state[12] = lanes.counter(0);
  for (int w = 0; w < 3; ++w) {
    state[13 + w] = lanes.nonce_word(0, w);
  }
  std::uint8_t keystream[64];
  keystream_block(state, keystream);
  xor_keystream(lanes.data(0), keystream, lanes.len(0));
}

/// Runs lanes 0 .. count-1 of `lanes`, 1 <= count <= lanes(V), each
/// SIMD lane computing one keystream block. SIMD lanes past `count`
/// repeat lane 0's inputs and their output is dropped.
template <typename V, typename Lanes>
[[gnu::always_inline]] inline void xor_group(const key_words& key,
                                             const Lanes& lanes,
                                             std::size_t count) noexcept {
  constexpr std::size_t width = sizeof(V) / sizeof(std::uint32_t);
  // Per-lane state words 12..15: the counter and the three nonce words.
  std::uint32_t lane_words[4][width];
  for (std::size_t j = 0; j < width; ++j) {
    const std::size_t lane = j < count ? j : 0;
    lane_words[0][j] = lanes.counter(lane);
    for (int w = 0; w < 3; ++w) {
      lane_words[1 + w][j] = lanes.nonce_word(lane, w);
    }
  }
  V input[16];
  shared_words(key, input);
  for (int i = 0; i < 4; ++i) {
    std::memcpy(&input[12 + i], lane_words[i], sizeof(V));
  }
  V x[16];
  keystream_lanes(input, x);

  // Whole blocks are XORed straight from the transposed rows; shorter
  // ones go through `partial`.
  std::uint8_t partial[width * 64];
  for (int group = 0; group < 4; ++group) {
    for (std::size_t chunk = 0; chunk < width / 4 && 4 * chunk < count;
         ++chunk) {
      u32x4 rows[4];
      transposed_rows(x, group, chunk, rows);
      for (std::size_t k = 0; k < 4 && 4 * chunk + k < count; ++k) {
        const std::size_t lane = 4 * chunk + k;
        if (lanes.len(lane) == 64) {
          std::uint8_t* const p = lanes.data(lane) + 16 * group;
          store_u32x4(p, load_u32x4(p) ^ rows[k]);
        } else {
          store_u32x4(partial + 64 * lane + 16 * group, rows[k]);
        }
      }
    }
  }
  for (std::size_t j = 0; j < count; ++j) {
    if (lanes.len(j) != 64) {
      xor_keystream(lanes.data(j), partial + 64 * j, lanes.len(j));
    }
  }
}

/// A job list has no lanes that share inputs: every group is general.
template <typename V>
[[gnu::always_inline]] inline std::size_t xor_whole_groups(
    const key_words& /*key*/, const job_lanes& /*lanes*/,
    std::size_t /*count*/) noexcept {
  return 0;
}

/// The whole groups of whole blocks at the head of a one-nonce run,
/// with the state broadcast once and the counters a lane-index offset
/// (no per-lane gathering, no length checks). Returns the lanes done.
template <typename V>
[[gnu::always_inline]] inline std::size_t xor_whole_groups(
    const key_words& key, const run_lanes& lanes, std::size_t count) noexcept {
  constexpr std::size_t width = sizeof(V) / sizeof(std::uint32_t);
  const std::size_t groups = std::min(count, lanes.size / 64) / width;
  if (groups == 0) {
    return 0;
  }
  V input[16];
  shared_words(key, input);
  V lane_index;
  for (std::size_t j = 0; j < width; ++j) {
    lane_index[j] = static_cast<std::uint32_t>(j);
  }
  // Lane counters wrap modulo 2^32, exactly as the scalar counter does.
  input[12] = (V{} + lanes.first_counter) + lane_index;
  for (int w = 0; w < 3; ++w) {
    input[13 + w] = V{} + lanes.nonce[w];
  }
  for (std::size_t g = 0; g < groups; ++g) {
    V x[16];
    keystream_lanes(input, x);
    std::uint8_t* const data = lanes.bytes + g * width * 64;
    for (int group = 0; group < 4; ++group) {
      for (std::size_t chunk = 0; chunk < width / 4; ++chunk) {
        u32x4 rows[4];
        transposed_rows(x, group, chunk, rows);
        for (std::size_t k = 0; k < 4; ++k) {
          std::uint8_t* const p = data + 64 * (4 * chunk + k) + 16 * group;
          store_u32x4(p, load_u32x4(p) ^ rows[k]);
        }
      }
    }
    input[12] += static_cast<std::uint32_t>(width);
  }
  return groups * width;
}

/// All `count` lanes in groups of lanes(V), the last one padded.
template <typename V, typename Lanes>
[[gnu::always_inline]] inline void xor_groups(const key_words& key,
                                              const Lanes& lanes,
                                              std::size_t count) noexcept {
  constexpr std::size_t width = sizeof(V) / sizeof(std::uint32_t);
  for (std::size_t first = xor_whole_groups<V>(key, lanes, count);
       first < count; first += width) {
    xor_group<V>(key, lanes.from(first), std::min(width, count - first));
  }
}

template <typename Lanes>
using lanes_kernel = void (*)(const key_words&, const Lanes&,
                              std::size_t) noexcept;

template <typename Lanes>
void xor_portable(const key_words& key, const Lanes& lanes,
                  std::size_t count) noexcept {
  xor_groups<u32x4>(key, lanes, count);
}

#if defined(__x86_64__)
template <typename Lanes>
__attribute__((target("avx2"))) void xor_avx2(const key_words& key,
                                               const Lanes& lanes,
                                               std::size_t count) noexcept {
  using u32x8 = std::uint32_t __attribute__((vector_size(32)));
  xor_groups<u32x8>(key, lanes, count);
}

template <typename Lanes>
__attribute__((target("avx512f,avx512vl"))) void xor_avx512(
    const key_words& key, const Lanes& lanes, std::size_t count) noexcept {
  using u32x16 = std::uint32_t __attribute__((vector_size(64)));
  xor_groups<u32x16>(key, lanes, count);
}
#endif

template <typename Lanes>
lanes_kernel<Lanes> kernel_for(detail::kernel_isa isa) noexcept {
#if defined(__x86_64__)
  switch (isa) {
    case detail::kernel_isa::avx512:
      return xor_avx512<Lanes>;
    case detail::kernel_isa::avx2:
      return xor_avx2<Lanes>;
    case detail::kernel_isa::portable:
      break;
  }
#else
  (void)isa;
#endif
  return xor_portable<Lanes>;
}

/// All `count` lanes on the widest kernel, its last group padded; a
/// lone lane after whole groups is cheaper on the scalar block
/// function.
template <typename Lanes>
void xor_dispatched(const chacha_key& key, const Lanes& lanes,
                    std::size_t count) {
  const key_words words(key);
  const detail::kernel_isa widest = detail::dispatched_isa();
  const bool lone_tail = count % detail::chacha_lanes(widest) == 1;
  const std::size_t vector_lanes = count - (lone_tail ? 1 : 0);
  if (vector_lanes > 0) {
    kernel_for<Lanes>(widest)(words, lanes, vector_lanes);
  }
  if (lone_tail) {
    xor_one(words, lanes.from(count - 1));
  }
}

/// The blocks of `data` from block `counter` under `nonce` as lanes.
run_lanes run_of(const chacha_nonce& nonce, std::uint32_t counter,
                 std::span<std::uint8_t> data) noexcept {
  return {counter,
          {load_le32(nonce.data()), load_le32(nonce.data() + 4),
           load_le32(nonce.data() + 8)},
          data.data(),
          data.size()};
}

std::size_t blocks_in(std::size_t bytes) noexcept { return (bytes + 63) / 64; }

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
  // Block counters wrap modulo 2^32, as in chacha20_xor.
  std::uint32_t counter =
      initial_counter + static_cast<std::uint32_t>(offset / 64);
  std::uint8_t* p = data.data();
  std::size_t left = data.size();
  // A start inside a keystream block uses that block's tail first.
  const std::size_t skip = offset % 64;
  if (skip != 0 && left > 0) {
    std::uint32_t state[16];
    init_state(key, counter++, nonce, state);
    std::uint8_t keystream[64];
    keystream_block(state, keystream);
    const std::size_t chunk = left < 64 - skip ? left : 64 - skip;
    xor_keystream(p, keystream + skip, chunk);
    p += chunk;
    left -= chunk;
  }
  // The rest is one run of whole blocks (the last maybe partial).
  xor_dispatched(key, run_of(nonce, counter, {p, left}), blocks_in(left));
}

void chacha20_xor_jobs(const chacha_key& key,
                       std::span<const chacha_job> jobs) {
  xor_dispatched(key, job_lanes{jobs.data()}, jobs.size());
}

void chacha_job_queue::add(const chacha_nonce& nonce, std::uint32_t counter,
                           std::span<std::uint8_t> data) {
  for (std::size_t at = 0; at < data.size(); at += 64) {
    if (queued_ == jobs_.size()) {
      flush();
    }
    jobs_[queued_++] = chacha_job{nonce, counter++, data.data() + at,
                                  std::min<std::size_t>(64, data.size() - at)};
  }
}

void chacha_job_queue::flush() {
  chacha20_xor_jobs(key_, std::span<const chacha_job>(jobs_).first(queued_));
  queued_ = 0;
}

namespace detail {

void chacha20_xor_jobs_on(kernel_isa isa, const chacha_key& key,
                          std::span<const chacha_job> jobs) {
  expects(host_runs(isa), "kernel not available on this host");
  kernel_for<job_lanes>(isa)(key_words(key), job_lanes{jobs.data()},
                             jobs.size());
}

void chacha20_xor_run_on(kernel_isa isa, const chacha_key& key,
                         const chacha_nonce& nonce, std::uint32_t counter,
                         std::span<std::uint8_t> data) {
  expects(host_runs(isa), "kernel not available on this host");
  kernel_for<run_lanes>(isa)(key_words(key), run_of(nonce, counter, data),
                             blocks_in(data.size()));
}

}  // namespace detail

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

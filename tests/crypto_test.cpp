// Unit tests for src/crypto: ChaCha20 against RFC 8439 vectors and a
// block-by-block reference, SipHash against the reference-implementation
// vectors and a byte-wise reference, a golden sealed record, sealing
// round trips, tamper detection and buffer-size contracts, CSPRNG
// behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <string>
#include <vector>

#include "crypto/chacha20.h"
#include "crypto/seal.h"
#include "crypto/siphash.h"
#include "util/contracts.h"

namespace horam::crypto {
namespace {

chacha_key rfc_key() {
  chacha_key key;
  for (int i = 0; i < 32; ++i) {
    key[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
  }
  return key;
}

TEST(ChaCha20, Rfc8439BlockVector) {
  // RFC 8439 section 2.3.2: key 00..1f, nonce 00:00:00:09:00:00:00:4a:
  // 00:00:00:00, counter 1.
  const chacha_key key = rfc_key();
  const chacha_nonce nonce = {0x00, 0x00, 0x00, 0x09, 0x00, 0x00,
                              0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  std::array<std::uint8_t, 64> block;
  chacha20_block(key, 1, nonce, block);

  constexpr std::uint8_t expected[64] = {
      0x10, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b, 0x59, 0x15, 0x50, 0x0f, 0xdd,
      0x1f, 0xa3, 0x20, 0x71, 0xc4, 0xc7, 0xd1, 0xf4, 0xc7, 0x33, 0xc0,
      0x68, 0x03, 0x04, 0x22, 0xaa, 0x9a, 0xc3, 0xd4, 0x6c, 0x4e, 0xd2,
      0x82, 0x64, 0x46, 0x07, 0x9f, 0xaa, 0x09, 0x14, 0xc2, 0xd7, 0x05,
      0xd9, 0x8b, 0x02, 0xa2, 0xb5, 0x12, 0x9c, 0xd1, 0xde, 0x16, 0x4e,
      0xb9, 0xcb, 0xd0, 0x83, 0xe8, 0xa2, 0x50, 0x3c, 0x4e};
  EXPECT_EQ(std::memcmp(block.data(), expected, 64), 0);
}

TEST(ChaCha20, Rfc8439EncryptionVector) {
  // RFC 8439 section 2.4.2.
  const chacha_key key = rfc_key();
  const chacha_nonce nonce = {0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                              0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  const std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  std::vector<std::uint8_t> data(plaintext.begin(), plaintext.end());
  chacha20_xor(key, nonce, 1, data);

  constexpr std::uint8_t expected_head[16] = {
      0x6e, 0x2e, 0x35, 0x9a, 0x25, 0x68, 0xf9, 0x80,
      0x41, 0xba, 0x07, 0x28, 0xdd, 0x0d, 0x69, 0x81};
  ASSERT_GE(data.size(), 16u);
  EXPECT_EQ(std::memcmp(data.data(), expected_head, 16), 0);

  constexpr std::uint8_t expected_tail[8] = {0x8e, 0xed, 0xf2, 0x78,
                                             0x5e, 0x42, 0x87, 0x4d};
  EXPECT_EQ(std::memcmp(data.data() + data.size() - 8, expected_tail, 8),
            0);
}

TEST(ChaCha20, XorIsItsOwnInverse) {
  const chacha_key key = rfc_key();
  const chacha_nonce nonce{};
  std::vector<std::uint8_t> data(300);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i);
  }
  const std::vector<std::uint8_t> original = data;
  chacha20_xor(key, nonce, 0, data);
  EXPECT_NE(data, original);
  chacha20_xor(key, nonce, 0, data);
  EXPECT_EQ(data, original);
}

// Keystream XOR one chacha20_block at a time: the reference the
// lane-parallel kernels must match byte for byte.
void reference_xor(const chacha_key& key, const chacha_nonce& nonce,
                   std::uint32_t counter, std::span<std::uint8_t> data) {
  std::array<std::uint8_t, 64> keystream;
  for (std::size_t offset = 0; offset < data.size(); offset += 64) {
    chacha20_block(key, counter++, nonce, keystream);
    for (std::size_t i = 0; i < 64 && offset + i < data.size(); ++i) {
      data[offset + i] ^= keystream[i];
    }
  }
}

// Every length from 0 to 1100 B crosses the group boundary of every
// kernel width (4, 8 or 16 blocks: 256, 512 or 1024 B) and hits every
// tail size. The data starts one byte into a guarded buffer, so loads
// and stores are misaligned and any write outside the span shows up in
// the guard bytes.
void expect_xor_matches_reference(std::uint32_t initial_counter) {
  const chacha_key key = rfc_key();
  const chacha_nonce nonce = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  constexpr std::uint8_t guard = 0xa5;
  for (std::size_t length = 0; length <= 1100; ++length) {
    std::vector<std::uint8_t> buffer(length + 2, guard);
    for (std::size_t i = 0; i < length; ++i) {
      buffer[1 + i] = static_cast<std::uint8_t>(i * 13 + length);
    }
    std::vector<std::uint8_t> expected = buffer;
    reference_xor(key, nonce, initial_counter,
                  std::span<std::uint8_t>(expected).subspan(1, length));
    chacha20_xor(key, nonce, initial_counter,
                 std::span<std::uint8_t>(buffer).subspan(1, length));
    ASSERT_EQ(buffer, expected) << "length " << length << ", counter "
                                << initial_counter;
  }
}

TEST(ChaCha20, XorMatchesBlockReferenceAtEveryLength) {
  expect_xor_matches_reference(0);
  expect_xor_matches_reference(1);
}

TEST(ChaCha20, XorCounterWrapsLikeTheBlockReference) {
  // Lanes of one kernel group straddle the 2^32 wrap.
  for (const std::uint32_t counter : {0xfffffffdU, 0xfffffffeU, 0xffffffffU}) {
    expect_xor_matches_reference(counter);
  }
}

// chacha20_xor_at must XOR exactly the keystream bytes a full-stream
// chacha20_xor would use at that position, for every start offset and
// length inside the first 1100 bytes (every skip into a block, every
// group and tail split after it), writing nothing outside the span.
void expect_xor_at_matches_full_stream(std::uint32_t initial_counter) {
  const chacha_key key = rfc_key();
  const chacha_nonce nonce = {12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
  constexpr std::size_t kStream = 1100;
  constexpr std::uint8_t guard = 0x5a;
  std::vector<std::uint8_t> keystream(kStream, 0);
  chacha20_xor(key, nonce, initial_counter, keystream);

  std::vector<std::uint8_t> buffer(kStream + 2);
  for (std::size_t offset = 0; offset <= kStream; ++offset) {
    for (std::size_t length = 0; offset + length <= kStream; ++length) {
      buffer[0] = guard;
      buffer[1 + length] = guard;
      std::fill_n(buffer.begin() + 1, length, std::uint8_t{0});
      chacha20_xor_at(key, nonce, initial_counter, offset,
                      std::span<std::uint8_t>(buffer).subspan(1, length));
      ASSERT_TRUE(std::equal(buffer.begin() + 1,
                             buffer.begin() + 1 +
                                 static_cast<std::ptrdiff_t>(length),
                             keystream.begin() +
                                 static_cast<std::ptrdiff_t>(offset)))
          << "offset " << offset << ", length " << length << ", counter "
          << initial_counter;
      ASSERT_EQ(buffer[0], guard) << "offset " << offset;
      ASSERT_EQ(buffer[1 + length], guard) << "offset " << offset;
    }
  }
}

TEST(ChaCha20, XorAtMatchesFullStreamAtEveryOffsetAndLength) {
  expect_xor_at_matches_full_stream(1);
}

TEST(ChaCha20, XorAtCounterWrapsLikeTheFullStream) {
  // Offsets that land past block 2^32 - 1 wrap to block 0, as in
  // chacha20_xor.
  const chacha_key key = rfc_key();
  const chacha_nonce nonce{};
  std::vector<std::uint8_t> keystream(512, 0);
  chacha20_xor(key, nonce, 0xfffffffeU, keystream);
  for (const std::size_t offset : {0u, 63u, 64u, 100u, 128u, 200u, 300u}) {
    std::vector<std::uint8_t> piece(512 - offset, 0);
    chacha20_xor_at(key, nonce, 0xfffffffeU, offset, piece);
    EXPECT_TRUE(std::equal(piece.begin(), piece.end(),
                           keystream.begin() +
                               static_cast<std::ptrdiff_t>(offset)))
        << "offset " << offset;
  }
}

TEST(ChaCha20, DifferentCountersProduceDifferentBlocks) {
  const chacha_key key = rfc_key();
  const chacha_nonce nonce{};
  std::array<std::uint8_t, 64> a, b;
  chacha20_block(key, 0, nonce, a);
  chacha20_block(key, 1, nonce, b);
  EXPECT_NE(std::memcmp(a.data(), b.data(), 64), 0);
}

// SipHash-2-4 reference vectors (Aumasson & Bernstein reference code):
// key = 000102...0f, message = first n bytes of 00 01 02 ...
TEST(SipHash, ReferenceVectors) {
  siphash_key key;
  for (int i = 0; i < 16; ++i) {
    key[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
  }
  std::vector<std::uint8_t> message;
  const std::uint64_t expected[] = {
      0x726fdb47dd0e0e31ULL, 0x74f839c593dc67fdULL, 0x0d6c8009d9a94f5aULL,
      0x85676696d7fb7e2dULL, 0xcf2794e0277187b7ULL, 0x18765564cd99a68dULL,
      0xcbc9466e58fee3ceULL, 0xab0200f58b01d137ULL, 0x93f5f5799a932462ULL};
  for (std::size_t n = 0; n < std::size(expected); ++n) {
    EXPECT_EQ(siphash24(key, message), expected[n]) << "length " << n;
    message.push_back(static_cast<std::uint8_t>(n));
  }
}

// Byte-at-a-time SipHash-2-4: the reference the word-loading
// implementation must match.
std::uint64_t reference_siphash24(const siphash_key& key,
                                  std::span<const std::uint8_t> data) {
  const auto load = [](const std::uint8_t* p) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    }
    return v;
  };
  const auto rotl = [](std::uint64_t v, int n) {
    return (v << n) | (v >> (64 - n));
  };
  const std::uint64_t k0 = load(key.data());
  const std::uint64_t k1 = load(key.data() + 8);
  std::uint64_t v0 = 0x736f6d6570736575ULL ^ k0;
  std::uint64_t v1 = 0x646f72616e646f6dULL ^ k1;
  std::uint64_t v2 = 0x6c7967656e657261ULL ^ k0;
  std::uint64_t v3 = 0x7465646279746573ULL ^ k1;
  const auto round = [&] {
    v0 += v1;
    v1 = rotl(v1, 13);
    v1 ^= v0;
    v0 = rotl(v0, 32);
    v2 += v3;
    v3 = rotl(v3, 16);
    v3 ^= v2;
    v0 += v3;
    v3 = rotl(v3, 21);
    v3 ^= v0;
    v2 += v1;
    v1 = rotl(v1, 17);
    v1 ^= v2;
    v2 = rotl(v2, 32);
  };
  const std::size_t full_words = data.size() / 8;
  for (std::size_t w = 0; w < full_words; ++w) {
    const std::uint64_t m = load(data.data() + 8 * w);
    v3 ^= m;
    round();
    round();
    v0 ^= m;
  }
  std::uint64_t last = static_cast<std::uint64_t>(data.size() & 0xff) << 56;
  for (std::size_t i = 0; i < (data.size() & 7); ++i) {
    last |= static_cast<std::uint64_t>(data[8 * full_words + i]) << (8 * i);
  }
  v3 ^= last;
  round();
  round();
  v0 ^= last;
  v2 ^= 0xff;
  round();
  round();
  round();
  round();
  return v0 ^ v1 ^ v2 ^ v3;
}

TEST(SipHash, MatchesByteWiseReferenceAtEveryLength) {
  siphash_key key;
  for (int i = 0; i < 16; ++i) {
    key[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(0x30 + i);
  }
  // One byte in, so the word loads are misaligned.
  std::vector<std::uint8_t> buffer(301);
  for (std::size_t i = 0; i < buffer.size(); ++i) {
    buffer[i] = static_cast<std::uint8_t>(i * 29 + 7);
  }
  for (std::size_t length = 0; length <= 300; ++length) {
    const auto message =
        std::span<const std::uint8_t>(buffer).subspan(1, length);
    EXPECT_EQ(siphash24(key, message), reference_siphash24(key, message))
        << "length " << length;
  }
}

TEST(SipHash, U64ConvenienceMatchesByteForm) {
  siphash_key key{};
  key[0] = 0xaa;
  const std::uint64_t value = 0x0123456789abcdefULL;
  std::array<std::uint8_t, 8> bytes;
  for (int i = 0; i < 8; ++i) {
    bytes[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(value >> (8 * i));
  }
  EXPECT_EQ(siphash24_u64(key, value), siphash24(key, bytes));
}

TEST(SipHash, KeyMatters) {
  siphash_key a{}, b{};
  b[15] = 1;
  std::vector<std::uint8_t> message{1, 2, 3};
  EXPECT_NE(siphash24(a, message), siphash24(b, message));
}

// ----------------------------------------------------------------- seal

// Seals a copy of `plaintext` into a fresh record.
std::vector<std::uint8_t> seal_copy(block_sealer& sealer,
                                    std::span<const std::uint8_t> plaintext) {
  std::vector<std::uint8_t> record(plaintext.size() + seal_overhead);
  std::copy(plaintext.begin(), plaintext.end(),
            record.begin() + seal_nonce_bytes);
  sealer.seal_in_place(record);
  return record;
}

// Opens `sealed` into a fresh plaintext buffer of the matching size.
std::vector<std::uint8_t> open_copy(const block_sealer& sealer,
                                    std::span<const std::uint8_t> sealed) {
  std::vector<std::uint8_t> plaintext(
      sealed.size() >= seal_overhead ? sealed.size() - seal_overhead : 0);
  sealer.open_into(sealed, plaintext);
  return plaintext;
}

TEST(Seal, GoldenRecordIsPinned) {
  // Fixed keys, a 264-B plaintext (the 8-B id + 256-B payload record the
  // benchmark seals) and nonce counter 0. The bytes were produced by the
  // original byte-at-a-time kernels, so any change to the on-device
  // record format, the keystream or the MAC fails here.
  seal_keys keys;
  for (std::size_t i = 0; i < keys.encryption_key.size(); ++i) {
    keys.encryption_key[i] = static_cast<std::uint8_t>(0x40 + i);
  }
  for (std::size_t i = 0; i < keys.mac_key.size(); ++i) {
    keys.mac_key[i] = static_cast<std::uint8_t>(0xa0 + i);
  }
  std::vector<std::uint8_t> plaintext(264);
  for (std::size_t i = 0; i < plaintext.size(); ++i) {
    plaintext[i] = static_cast<std::uint8_t>(i * 7 + 3);
  }
  const std::vector<std::uint8_t> golden = {
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x85, 0x14, 0x27, 0x9a, 0xfb, 0x77, 0x8a, 0x7a, 0xee, 0x5f, 0x5d, 0x05,
      0xa2, 0x01, 0x9f, 0x06, 0x99, 0x3d, 0x91, 0x6f, 0x9a, 0xb4, 0x2a, 0x42,
      0xdd, 0xaa, 0x72, 0x48, 0x90, 0x2b, 0x68, 0xe1, 0x26, 0xf8, 0xa0, 0x11,
      0x69, 0x01, 0x3e, 0x81, 0x5b, 0xed, 0x07, 0x1e, 0x9d, 0xaf, 0xa3, 0x97,
      0xa6, 0x18, 0x61, 0xb5, 0x68, 0xcc, 0xc7, 0x43, 0x44, 0x8b, 0xba, 0x5d,
      0x36, 0x9b, 0xbd, 0x87, 0x53, 0x82, 0x08, 0x70, 0x84, 0xb2, 0x22, 0x9d,
      0xdf, 0x1b, 0xb3, 0x97, 0x70, 0x86, 0x3f, 0x0f, 0x47, 0x9d, 0xf0, 0xaa,
      0xec, 0x14, 0x83, 0xd6, 0xb8, 0xd0, 0xe3, 0x05, 0x27, 0x47, 0x5e, 0x2d,
      0x10, 0x56, 0x02, 0xb0, 0x7a, 0xfa, 0xde, 0x83, 0x03, 0x40, 0x92, 0x55,
      0x29, 0xfb, 0xa6, 0xde, 0xbd, 0x6a, 0x17, 0xf0, 0x53, 0x0a, 0x2f, 0xca,
      0x2b, 0x06, 0xa6, 0xbe, 0xbc, 0xef, 0x95, 0xf5, 0x63, 0x48, 0xd2, 0xd2,
      0xa3, 0x38, 0xa3, 0x72, 0xad, 0xd6, 0x4e, 0x15, 0xb7, 0x15, 0x7e, 0x89,
      0x2e, 0xd6, 0x5f, 0x37, 0xc2, 0xf0, 0x14, 0x61, 0xdb, 0xf1, 0x38, 0x36,
      0x32, 0x63, 0xeb, 0x5b, 0xae, 0x98, 0xd8, 0x0c, 0x41, 0x99, 0x4a, 0xd4,
      0xc4, 0x77, 0x81, 0x27, 0x91, 0xf4, 0x34, 0x92, 0x1f, 0x98, 0x2e, 0xd3,
      0x00, 0x0b, 0xa9, 0xca, 0x1f, 0x46, 0x2b, 0x3f, 0x9d, 0x8d, 0x73, 0xf9,
      0x35, 0x4b, 0xc0, 0x26, 0xfc, 0x09, 0xb6, 0x4a, 0x94, 0x10, 0xc9, 0x4e,
      0x1b, 0xf9, 0xcd, 0x71, 0xfd, 0xc0, 0xd4, 0x9c, 0x1d, 0x10, 0x38, 0x9b,
      0x3f, 0xe6, 0x97, 0x86, 0xb6, 0x60, 0x6d, 0x21, 0x41, 0x43, 0xd2, 0xdc,
      0x11, 0xa2, 0xd2, 0xd0, 0xb2, 0xdf, 0x38, 0x2d, 0xe0, 0x6b, 0x50, 0xc5,
      0x43, 0x2d, 0xf9, 0x4c, 0x07, 0x0b, 0xa6, 0x27, 0x06, 0x58, 0x92, 0x63,
      0x9f, 0x4c, 0x6f, 0x3e, 0x5d, 0xfd, 0x80, 0xc1, 0x85, 0x23, 0x45, 0xd2,
      0xf2, 0x19, 0x9a, 0xf2, 0x45, 0xda, 0xa4, 0xea};
  block_sealer sealer(keys);
  const std::vector<std::uint8_t> sealed = seal_copy(sealer, plaintext);
  EXPECT_EQ(sealed, golden);
  EXPECT_EQ(open_copy(sealer, golden), plaintext);
}

TEST(Seal, RoundTrip) {
  block_sealer sealer(derive_seal_keys(1));
  std::vector<std::uint8_t> plaintext(100);
  for (std::size_t i = 0; i < plaintext.size(); ++i) {
    plaintext[i] = static_cast<std::uint8_t>(i * 3);
  }
  const auto sealed = seal_copy(sealer, plaintext);
  EXPECT_EQ(sealed.size(), plaintext.size() + seal_overhead);
  EXPECT_EQ(open_copy(sealer, sealed), plaintext);
}

TEST(Seal, SameplaintextSealsDiffer) {
  // Fresh nonces make repeated seals of identical data unlinkable —
  // the property H-ORAM's re-encrypting write-backs rely on.
  block_sealer sealer(derive_seal_keys(2));
  const std::vector<std::uint8_t> plaintext(64, 0x5a);
  const auto first = seal_copy(sealer, plaintext);
  const auto second = seal_copy(sealer, plaintext);
  EXPECT_NE(first, second);
  EXPECT_EQ(open_copy(sealer, first), plaintext);
  EXPECT_EQ(open_copy(sealer, second), plaintext);
}

TEST(Seal, TamperedCiphertextRejected) {
  block_sealer sealer(derive_seal_keys(3));
  const std::vector<std::uint8_t> plaintext(32, 1);
  auto sealed = seal_copy(sealer, plaintext);
  sealed[14] ^= 0x01;  // flip one ciphertext bit
  EXPECT_THROW(open_copy(sealer, sealed), crypto_error);
}

TEST(Seal, TamperedMacRejected) {
  block_sealer sealer(derive_seal_keys(4));
  auto sealed = seal_copy(sealer, std::vector<std::uint8_t>(32, 2));
  sealed.back() ^= 0x80;  // flip one MAC bit
  EXPECT_THROW(open_copy(sealer, sealed), crypto_error);
}

TEST(Seal, TamperedNonceRejected) {
  block_sealer sealer(derive_seal_keys(5));
  auto sealed = seal_copy(sealer, std::vector<std::uint8_t>(32, 3));
  sealed[0] ^= 0x01;  // nonce is MACed too
  EXPECT_THROW(open_copy(sealer, sealed), crypto_error);
}

TEST(Seal, TruncatedBufferRejected) {
  block_sealer sealer(derive_seal_keys(6));
  EXPECT_THROW(open_copy(sealer, std::vector<std::uint8_t>(seal_overhead - 1)),
               crypto_error);
}

TEST(Seal, WrongKeyRejected) {
  block_sealer alice(derive_seal_keys(7));
  block_sealer mallory(derive_seal_keys(8));
  const auto sealed = seal_copy(alice, std::vector<std::uint8_t>(16, 9));
  EXPECT_THROW(open_copy(mallory, sealed), crypto_error);
}

TEST(Seal, EmptyishAndLargePayloads) {
  block_sealer sealer(derive_seal_keys(9));
  for (const std::size_t size : {0u, 1u, 63u, 64u, 65u, 4096u}) {
    std::vector<std::uint8_t> plaintext(size, 0xcd);
    EXPECT_EQ(open_copy(sealer, seal_copy(sealer, plaintext)), plaintext)
        << "payload size " << size;
  }
}

TEST(Seal, FailedMacLeavesOutputUntouched) {
  block_sealer sealer(derive_seal_keys(10));
  auto sealed = seal_copy(sealer, std::vector<std::uint8_t>(264, 4));
  sealed[seal_nonce_bytes + 200] ^= 0x10;
  std::vector<std::uint8_t> plain_out(264, 0xee);
  EXPECT_THROW(sealer.open_into(sealed, plain_out), crypto_error);
  EXPECT_EQ(plain_out, std::vector<std::uint8_t>(264, 0xee));
}

TEST(Seal, MisSizedOutputThrowsWithoutWriting) {
  // plain_out one byte short or one byte long, inside a guarded buffer:
  // both are contract errors and nothing around or inside is written.
  block_sealer sealer(derive_seal_keys(11));
  const auto sealed = seal_copy(sealer, std::vector<std::uint8_t>(64, 5));
  for (const std::size_t size : {63u, 65u}) {
    std::vector<std::uint8_t> guarded(64 + 16, 0xee);
    EXPECT_THROW(sealer.open_into(
                     sealed, std::span<std::uint8_t>(guarded).subspan(8, size)),
                 contract_error)
        << "plain_out size " << size;
    EXPECT_EQ(guarded, std::vector<std::uint8_t>(64 + 16, 0xee));
  }
}

TEST(Seal, ShortRecordRejectedOnBothPaths) {
  block_sealer sealer(derive_seal_keys(12));
  std::vector<std::uint8_t> guarded(seal_overhead + 8, 0xee);
  const auto short_record =
      std::span<std::uint8_t>(guarded).subspan(4, seal_overhead - 1);
  EXPECT_THROW(sealer.seal_in_place(short_record), contract_error);
  EXPECT_THROW(sealer.open_into(short_record, {}), crypto_error);
  EXPECT_EQ(guarded, std::vector<std::uint8_t>(seal_overhead + 8, 0xee));
}

TEST(Seal, SealInPlaceStaysInsideTheRecord) {
  block_sealer sealer(derive_seal_keys(13));
  const std::vector<std::uint8_t> plaintext(300, 0x77);
  std::vector<std::uint8_t> guarded(300 + seal_overhead + 2, 0xee);
  const auto record = std::span<std::uint8_t>(guarded).subspan(
      1, 300 + seal_overhead);
  std::copy(plaintext.begin(), plaintext.end(),
            record.begin() + seal_nonce_bytes);
  sealer.seal_in_place(record);
  EXPECT_EQ(guarded.front(), 0xee);
  EXPECT_EQ(guarded.back(), 0xee);
  EXPECT_EQ(open_copy(sealer, record), plaintext);
}

// Two 100-B pieces at block-aligned keystream offsets 0 and 128, then a
// 16-B piece at 256: the shape of a two-slot bucket.
constexpr std::array<keystream_piece, 3> kBucketPieces = {
    keystream_piece{0, 100, 0}, keystream_piece{100, 100, 128},
    keystream_piece{200, 16, 256}};

TEST(Seal, PieceSealIsTheKeystreamAtEachPieceOffset) {
  block_sealer sealer(derive_seal_keys(14));
  const seal_keys keys = derive_seal_keys(14);
  std::vector<std::uint8_t> plaintext(216);
  for (std::size_t i = 0; i < plaintext.size(); ++i) {
    plaintext[i] = static_cast<std::uint8_t>(i * 5 + 1);
  }
  std::vector<std::uint8_t> record(plaintext.size() + seal_overhead);
  std::copy(plaintext.begin(), plaintext.end(),
            record.begin() + seal_nonce_bytes);
  sealer.seal_in_place(record, kBucketPieces);

  chacha_nonce nonce{};
  std::copy_n(record.begin(), nonce.size(), nonce.begin());
  for (const keystream_piece& piece : kBucketPieces) {
    std::vector<std::uint8_t> expected(
        plaintext.begin() + static_cast<std::ptrdiff_t>(piece.offset),
        plaintext.begin() +
            static_cast<std::ptrdiff_t>(piece.offset + piece.length));
    chacha20_xor_at(keys.encryption_key, nonce, 1, piece.keystream_offset,
                    expected);
    EXPECT_TRUE(std::equal(
        expected.begin(), expected.end(),
        record.begin() +
            static_cast<std::ptrdiff_t>(seal_nonce_bytes + piece.offset)))
        << "piece at " << piece.offset;
  }

  ASSERT_NO_THROW(sealer.verify(record));
  for (const keystream_piece& piece : kBucketPieces) {
    std::vector<std::uint8_t> plain(piece.length);
    sealer.open_range(record, piece, plain);
    EXPECT_TRUE(std::equal(
        plain.begin(), plain.end(),
        plaintext.begin() + static_cast<std::ptrdiff_t>(piece.offset)))
        << "piece at " << piece.offset;
  }
}

TEST(Seal, OnePieceSealIsTheContiguousSeal) {
  block_sealer contiguous(derive_seal_keys(15));
  block_sealer pieced(derive_seal_keys(15));
  const std::vector<std::uint8_t> plaintext(300, 0x3c);
  const keystream_piece whole{0, plaintext.size(), 0};
  std::vector<std::uint8_t> record(plaintext.size() + seal_overhead);
  std::copy(plaintext.begin(), plaintext.end(),
            record.begin() + seal_nonce_bytes);
  pieced.seal_in_place(record, std::span<const keystream_piece>(&whole, 1));
  EXPECT_EQ(record, seal_copy(contiguous, plaintext));
}

TEST(Seal, PiecesMustTileTheCiphertextWithoutSharingKeystream) {
  block_sealer sealer(derive_seal_keys(16));
  std::vector<std::uint8_t> record(216 + seal_overhead, 0);
  const std::vector<std::vector<keystream_piece>> bad = {
      // A gap between pieces.
      {{0, 100, 0}, {101, 115, 128}},
      // Pieces that stop short of the ciphertext end.
      {{0, 100, 0}, {100, 100, 128}},
      // Two pieces on overlapping keystream.
      {{0, 100, 0}, {100, 116, 64}},
  };
  for (const auto& pieces : bad) {
    EXPECT_THROW(sealer.seal_in_place(record, pieces), contract_error);
  }
  EXPECT_EQ(record, std::vector<std::uint8_t>(216 + seal_overhead, 0))
      << "a rejected layout must not touch the record";
}

TEST(Seal, VerifyRejectsTamperingAndOpenRangeStaysInBounds) {
  block_sealer sealer(derive_seal_keys(17));
  std::vector<std::uint8_t> record(216 + seal_overhead, 0x11);
  sealer.seal_in_place(record, kBucketPieces);
  for (const std::size_t byte : {std::size_t{0}, seal_nonce_bytes + 150,
                                 record.size() - 1}) {
    auto tampered = record;
    tampered[byte] ^= 0x01;
    EXPECT_THROW(sealer.verify(tampered), crypto_error) << "byte " << byte;
  }
  EXPECT_THROW(sealer.verify(std::vector<std::uint8_t>(seal_overhead - 1)),
               crypto_error);

  std::vector<std::uint8_t> plain(17);
  EXPECT_THROW(sealer.open_range(record, keystream_piece{200, 17, 256}, plain),
               contract_error);
  EXPECT_THROW(sealer.open_range(record, keystream_piece{0, 16, 0}, plain),
               contract_error);
}

// --------------------------------------------------------------- csprng

TEST(ChaChaRng, DeterministicPerSeed) {
  chacha_rng a(std::uint64_t{11}), b(std::uint64_t{11});
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(ChaChaRng, StreamsIndependent) {
  chacha_rng a(std::uint64_t{11}, 0), b(std::uint64_t{11}, 1);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    equal += a.next_u64() == b.next_u64() ? 1 : 0;
  }
  EXPECT_LT(equal, 3);
}

TEST(ChaChaRng, BitsLookBalanced) {
  chacha_rng rng(std::uint64_t{12});
  std::uint64_t ones = 0;
  constexpr int words = 10000;
  for (int i = 0; i < words; ++i) {
    ones += static_cast<std::uint64_t>(__builtin_popcountll(rng.next_u64()));
  }
  const double fraction =
      static_cast<double>(ones) / (64.0 * static_cast<double>(words));
  EXPECT_NEAR(fraction, 0.5, 0.005);
}

TEST(DeriveSealKeys, DistinctSeedsDistinctKeys) {
  const seal_keys a = derive_seal_keys(100);
  const seal_keys b = derive_seal_keys(101);
  EXPECT_NE(a.encryption_key, b.encryption_key);
  EXPECT_NE(a.mac_key, b.mac_key);
}

}  // namespace
}  // namespace horam::crypto

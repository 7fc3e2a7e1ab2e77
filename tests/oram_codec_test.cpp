// Tests for the sealed-unit codec, the position map and the stash
// — the common layer the ORAM constructions share — plus fault
// injection through a store (tampered records must surface as crypto
// errors, not silent corruption).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "crypto/chacha20.h"
#include "crypto/key_schedule.h"
#include "crypto/detail/kernels.h"
#include "crypto/siphash.h"
#include "oram/common/block_codec.h"
#include "oram/common/position_map.h"
#include "oram/common/stash.h"
#include "sim/profiles.h"
#include "storage/block_store.h"
#include "util/contracts.h"
#include "util/rng.h"

namespace horam::oram {
namespace {

// ------------------------------------------------- one-slot units
//
// Per-slot records are one-slot units; their round trips over every
// occupancy run in BucketCodecShapes (z1).

class CodecSealModes : public ::testing::TestWithParam<bool> {};
INSTANTIATE_TEST_SUITE_P(Modes, CodecSealModes, ::testing::Bool());

TEST_P(CodecSealModes, ShortPayloadIsZeroPadded) {
  block_codec codec(1, 32, GetParam(), crypto::derive_seal_keys(7));
  const std::vector<std::uint8_t> partial(10, 0xee);
  std::vector<std::uint8_t> record(codec.record_bytes());
  codec.encode(9, partial, record);
  std::vector<std::uint8_t> out(32);
  codec.decode(record, out);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(out[i], 0xee);
  }
  for (std::size_t i = 10; i < 32; ++i) {
    EXPECT_EQ(out[i], 0);
  }
}

TEST_P(CodecSealModes, EmptyPayloadRoundTripsAsZeros) {
  block_codec codec(1, 32, GetParam(), crypto::derive_seal_keys(8));
  std::vector<std::uint8_t> record(codec.record_bytes());
  codec.encode(42, {}, record);
  std::vector<std::uint8_t> out(32, 0xee);
  EXPECT_EQ(codec.decode(record, out), 42u);
  EXPECT_EQ(out, std::vector<std::uint8_t>(32, 0));
  EXPECT_EQ(codec.decode(record, {}), 42u);
}

TEST_P(CodecSealModes, ReusedRecordBufferIsFullyRewritten) {
  // encode writes straight into the caller's buffer: stale bytes from a
  // previous record must not leak into the zero pad, and bytes past
  // record_bytes stay untouched.
  block_codec codec(1, 32, GetParam(), crypto::derive_seal_keys(11));
  std::vector<std::uint8_t> record(codec.record_bytes() + 4, 0xff);
  codec.encode(7, std::vector<std::uint8_t>(3, 0x11), record);
  EXPECT_EQ(record.back(), 0xff);
  std::vector<std::uint8_t> out(32);
  EXPECT_EQ(codec.decode(record, out), 7u);
  std::vector<std::uint8_t> expected(32, 0);
  std::fill_n(expected.begin(), 3, 0x11);
  EXPECT_EQ(out, expected);

  // A dummy's payload is never opened: the output keeps its bytes.
  codec.encode_dummy(record);
  EXPECT_EQ(codec.decode(record, out), dummy_block_id);
  EXPECT_EQ(out, expected);
}

TEST(Codec, SealedRecordIsTheSealedPlaintextLayout) {
  // A one-slot unit is block_sealer's record over payload || zero pad ||
  // id under the codec's keys, the payload at keystream offset 0 and the
  // id at the next 64-byte keystream block; with the sealer's golden
  // record (crypto_test) this pins the on-device format.
  block_codec codec(1, 32, true, crypto::derive_seal_keys(12));
  crypto::block_sealer sealer(crypto::derive_seal_keys(12));
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  const crypto::keystream_piece pieces[] = {{0, 32, 0}, {32, 8, 64}};
  for (int round = 0; round < 3; ++round) {
    std::vector<std::uint8_t> record(codec.record_bytes());
    codec.encode(0x0102030405060708ULL, payload, record);

    std::vector<std::uint8_t> expected(codec.record_bytes(), 0);
    std::copy(payload.begin(), payload.end(),
              expected.begin() + crypto::seal_nonce_bytes);
    const std::vector<std::uint8_t> id = {8, 7, 6, 5, 4, 3, 2, 1};
    std::copy(id.begin(), id.end(),
              expected.begin() + crypto::seal_nonce_bytes + 32);
    sealer.seal_in_place(expected, pieces);
    EXPECT_EQ(record, expected) << "record " << round;
  }
}

TEST(Codec, RecordSizeAccountsForSealing) {
  block_codec plain(1, 32, false, crypto::derive_seal_keys(1));
  block_codec sealed(1, 32, true, crypto::derive_seal_keys(1));
  EXPECT_EQ(plain.record_bytes(), 8u + 32u);
  EXPECT_EQ(sealed.record_bytes(), 8u + 32u + crypto::seal_overhead);
  EXPECT_EQ(sealed.bucket_bytes(), sealed.record_bytes());
}

TEST(Codec, SealedRecordsOfSameBlockDiffer) {
  // Unlinkability: re-encoding the same (id, payload) yields a fresh
  // ciphertext every time.
  block_codec codec(1, 32, true, crypto::derive_seal_keys(2));
  const std::vector<std::uint8_t> payload(32, 0x42);
  std::vector<std::uint8_t> a(codec.record_bytes());
  std::vector<std::uint8_t> b(codec.record_bytes());
  codec.encode(1, payload, a);
  codec.encode(1, payload, b);
  EXPECT_NE(a, b);
}

TEST(Codec, PlainDecodeNeedsNoAllocation) {
  // Smoke test for the bench fast path: decoding an unsealed record
  // must not throw and must not read past record_bytes.
  block_codec codec(1, 16, false, crypto::derive_seal_keys(3));
  std::vector<std::uint8_t> record(codec.record_bytes() + 64, 0xaa);
  codec.encode(77, std::vector<std::uint8_t>(16, 1), record);
  std::vector<std::uint8_t> out(16);
  EXPECT_EQ(codec.decode(record, out), 77u);
}

TEST(Codec, SealingRefusesAllZeroKeys) {
  // The default keys are all zero; sealing under them would share one
  // keystream across every store built that way.
  try {
    block_codec codec(1, 32, true, crypto::seal_keys{});
    ADD_FAILURE() << "a sealed codec accepted all-zero keys";
  } catch (const contract_error& error) {
    EXPECT_NE(std::string(error.what()).find("crypto::key_schedule"),
              std::string::npos)
        << error.what();
  }
  EXPECT_THROW(block_codec(4, 32, true, crypto::seal_keys{}), contract_error);
  // Unsealed units carry no keystream: default keys are fine.
  block_codec plain(4, 32, false, crypto::seal_keys{});
  std::vector<std::uint8_t> unit(plain.bucket_bytes());
  plain.encode(7, std::vector<std::uint8_t>(32, 7), unit);
  std::vector<block_id> ids(4);
  EXPECT_EQ(plain.decode(unit, ids, {}), 1u);
  EXPECT_EQ(ids[0], 7u);
}

// ------------------------------------------------ units of S slots

/// A distinct payload for slot `k` of a bucket.
std::vector<std::uint8_t> slot_payload(std::size_t payload_bytes,
                                       std::uint32_t k) {
  std::vector<std::uint8_t> payload(payload_bytes);
  for (std::size_t i = 0; i < payload_bytes; ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 11 + k * 37 + 1);
  }
  return payload;
}

struct bucket_shape {
  std::uint32_t slots;
  std::size_t payload_bytes;
  bool seal;
};

class BucketCodecShapes : public ::testing::TestWithParam<bucket_shape> {};

std::vector<bucket_shape> all_bucket_shapes() {
  std::vector<bucket_shape> shapes;
  for (const bool seal : {false, true}) {
    for (const std::uint32_t slots : {1u, 2u, 3u, 4u, 8u}) {
      for (const std::size_t payload_bytes : {16u, 100u, 256u}) {
        shapes.push_back(bucket_shape{slots, payload_bytes, seal});
      }
    }
  }
  return shapes;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BucketCodecShapes, ::testing::ValuesIn(all_bucket_shapes()),
    [](const ::testing::TestParamInfo<bucket_shape>& info) {
      return std::string(info.param.seal ? "sealed" : "plain") + "_z" +
             std::to_string(info.param.slots) + "_p" +
             std::to_string(info.param.payload_bytes);
    });

TEST_P(BucketCodecShapes, RoundTripsEveryOccupancy) {
  const bucket_shape shape = GetParam();
  block_codec codec(shape.slots, shape.payload_bytes, shape.seal,
                    crypto::derive_seal_keys(21));
  EXPECT_EQ(codec.record_bytes(),
            record_bytes_for(shape.payload_bytes, shape.seal));
  const std::size_t image = shape.slots * (8 + shape.payload_bytes) +
                            (shape.seal ? crypto::seal_overhead : 0);
  EXPECT_GE(codec.bucket_bytes(), image)
      << "the unit must fit in its slots' records";
  if (shape.slots == 1) {
    EXPECT_EQ(codec.bucket_bytes(), image) << "a record is a one-slot unit";
  }

  std::vector<std::vector<std::uint8_t>> payloads;
  for (std::uint32_t k = 0; k < shape.slots; ++k) {
    payloads.push_back(slot_payload(shape.payload_bytes, k));
  }
  for (std::uint32_t reals = 0; reals <= shape.slots; ++reals) {
    std::vector<block_codec::entry> entries;
    for (std::uint32_t k = 0; k < reals; ++k) {
      entries.push_back(block_codec::entry{1000 + k, payloads[k]});
    }
    // Bytes past the bucket must survive encode.
    std::vector<std::uint8_t> bucket(codec.bucket_bytes() + 3, 0xee);
    codec.encode(entries, bucket);
    EXPECT_EQ(bucket[codec.bucket_bytes()], 0xee);

    std::vector<block_id> ids(shape.slots);
    std::vector<std::uint8_t> out(shape.slots * shape.payload_bytes, 0xcc);
    EXPECT_EQ(codec.decode(bucket, ids, out), reals);
    for (std::uint32_t k = 0; k < shape.slots; ++k) {
      const auto slot_out =
          std::span<const std::uint8_t>(out).subspan(
              k * shape.payload_bytes, shape.payload_bytes);
      if (k < reals) {
        EXPECT_EQ(ids[k], 1000u + k);
        EXPECT_TRUE(std::equal(slot_out.begin(), slot_out.end(),
                               payloads[k].begin()))
            << "slot " << k << " of " << reals;
      } else {
        EXPECT_EQ(ids[k], dummy_block_id);
        EXPECT_TRUE(std::all_of(slot_out.begin(), slot_out.end(),
                                [](std::uint8_t b) { return b == 0xcc; }))
            << "dummy slot " << k << " must not be written";
      }
    }
    // Ids alone need no payload buffer.
    std::vector<block_id> ids_only(shape.slots);
    EXPECT_EQ(codec.decode(bucket, ids_only, {}), reals);
    EXPECT_EQ(ids_only, ids);
  }
}

TEST_P(BucketCodecShapes, ShortPayloadsAreZeroPadded) {
  const bucket_shape shape = GetParam();
  block_codec codec(shape.slots, shape.payload_bytes, shape.seal,
                    crypto::derive_seal_keys(22));
  const std::vector<std::uint8_t> partial(shape.payload_bytes / 2 + 1, 0x7f);
  const std::vector<block_codec::entry> entries(
      1, block_codec::entry{5, partial});
  // A reused buffer full of stale bytes.
  std::vector<std::uint8_t> bucket(codec.bucket_bytes(), 0xff);
  codec.encode(entries, bucket);
  std::vector<block_id> ids(shape.slots);
  std::vector<std::uint8_t> out(shape.slots * shape.payload_bytes);
  ASSERT_EQ(codec.decode(bucket, ids, out), 1u);
  std::vector<std::uint8_t> expected(shape.payload_bytes, 0);
  std::copy(partial.begin(), partial.end(), expected.begin());
  EXPECT_TRUE(std::equal(expected.begin(), expected.end(), out.begin()));
}

TEST(BucketCodec, SealedBucketsOfTheSameContentDiffer) {
  // Write-back re-seals whole buckets under fresh nonces: an all-dummy
  // bucket written twice must not repeat a byte image.
  block_codec codec(4, 256, true, crypto::derive_seal_keys(23));
  std::vector<std::uint8_t> a(codec.bucket_bytes());
  std::vector<std::uint8_t> b(codec.bucket_bytes());
  codec.encode_dummy(a);
  codec.encode_dummy(b);
  EXPECT_NE(a, b);
  // Every payload byte of a dummy slot is encrypted, not left zero.
  const std::size_t zeros = static_cast<std::size_t>(
      std::count(a.begin() + static_cast<std::ptrdiff_t>(
                                 codec.payload_offset(0)),
                 a.begin() + static_cast<std::ptrdiff_t>(codec.id_offset(0)),
                 std::uint8_t{0}));
  EXPECT_LT(zeros, 4u * 256u / 64u);
}

TEST(BucketCodec, FailedMacLeavesEveryOutputUntouched) {
  block_codec codec(4, 100, true, crypto::derive_seal_keys(24));
  const std::vector<std::uint8_t> payload = slot_payload(100, 0);
  const std::vector<block_codec::entry> entries = {
      block_codec::entry{1, payload}, block_codec::entry{2, payload}};
  std::vector<std::uint8_t> bucket(codec.bucket_bytes());
  codec.encode(entries, bucket);
  for (const std::size_t byte :
       {std::size_t{0}, codec.payload_offset(0), codec.payload_offset(3) + 5,
        codec.id_offset(1), codec.mac_offset() + 7}) {
    std::vector<std::uint8_t> tampered = bucket;
    tampered[byte] ^= 0x04;
    std::vector<block_id> ids(4, 77);
    std::vector<std::uint8_t> out(4 * 100, 0xcc);
    EXPECT_THROW(codec.decode(tampered, ids, out), crypto::crypto_error)
        << "byte " << byte;
    EXPECT_EQ(ids, std::vector<block_id>(4, 77)) << "byte " << byte;
    EXPECT_EQ(out, std::vector<std::uint8_t>(4 * 100, 0xcc))
        << "byte " << byte;
  }
}

TEST(BucketCodec, DifferentKeySeedsCannotDecodeEachOther) {
  for (const std::uint32_t slots : {1u, 4u}) {
    block_codec alice(slots, 64, true, crypto::derive_seal_keys(100));
    block_codec mallory(slots, 64, true, crypto::derive_seal_keys(101));
    std::vector<std::uint8_t> bucket(alice.bucket_bytes());
    alice.encode(5, std::vector<std::uint8_t>(64, 5), bucket);
    std::vector<block_id> ids(slots);
    std::vector<std::uint8_t> out(slots * 64);
    EXPECT_THROW(mallory.decode(bucket, ids, out), crypto::crypto_error)
        << slots << " slots";
    EXPECT_THROW(mallory.decode(bucket, ids, {}), crypto::crypto_error)
        << slots << " slots";
  }
}

TEST(BucketCodec, ContractsOnBufferSizes) {
  block_codec codec(2, 16, true, crypto::derive_seal_keys(25));
  const std::vector<std::uint8_t> payload(16, 1);
  const std::vector<block_codec::entry> three(
      3, block_codec::entry{1, payload});
  std::vector<std::uint8_t> bucket(codec.bucket_bytes());
  EXPECT_THROW(codec.encode(three, bucket), contract_error);
  EXPECT_THROW(codec.encode({}, std::span<std::uint8_t>(bucket).first(10)),
               contract_error);
  codec.encode_dummy(bucket);
  std::vector<block_id> one_id(1);
  EXPECT_THROW(codec.decode(bucket, one_id, {}), contract_error);
  std::vector<block_id> ids(2);
  std::vector<std::uint8_t> short_out(16);
  EXPECT_THROW(codec.decode(bucket, ids, short_out), contract_error);
}

/// FNV-1a over a byte string (a compact fingerprint for golden images).
std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : bytes) {
    h = (h ^ b) * 0x100000001b3ULL;
  }
  return h;
}

TEST(BucketCodec, GoldenSealedBucketIsPinned) {
  // Z = 4, P = 256, keys derive_seal_keys(0x601d), the codec's first
  // seal (nonce 0): real blocks in slots 0 and 1, dummies in 2 and 3.
  // The image is rebuilt from the kernels (ChaCha20 at each piece's
  // keystream offset, SipHash over nonce || ciphertext), and its
  // fingerprint is pinned, so neither the layout nor the keystream
  // mapping can drift unnoticed.
  constexpr std::uint32_t kSlots = 4;
  constexpr std::size_t kPayload = 256;
  constexpr std::uint64_t kSeed = 0x601d;
  const crypto::seal_keys keys = crypto::derive_seal_keys(kSeed);
  block_codec codec(kSlots, kPayload, true, keys);
  const std::vector<std::uint8_t> first = slot_payload(kPayload, 0);
  const std::vector<std::uint8_t> second = slot_payload(kPayload, 1);
  const std::vector<block_codec::entry> entries = {
      block_codec::entry{0x0102030405060708ULL, first},
      block_codec::entry{42, second}};
  std::vector<std::uint8_t> bucket(codec.bucket_bytes(), 0xff);
  codec.encode(entries, bucket);

  // Plaintext: payloads, then little-endian ids.
  constexpr std::size_t kSealed = 12 + kSlots * (8 + kPayload) + 8;
  std::vector<std::uint8_t> expected(codec.bucket_bytes(), 0);
  std::copy(first.begin(), first.end(), expected.begin() + 12);
  std::copy(second.begin(), second.end(), expected.begin() + 12 + kPayload);
  const std::uint8_t ids[kSlots * 8] = {
      8,    7,    6,    5,    4,    3,    2,    1,     // slot 0
      42,   0,    0,    0,    0,    0,    0,    0,     // slot 1
      0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,  // dummy
      0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff};  // dummy
  std::copy(std::begin(ids), std::end(ids),
            expected.begin() + 12 + kSlots * kPayload);
  // Nonce 0; each payload at keystream offset k * 256, ids at 1024.
  const crypto::chacha_nonce nonce{};
  const auto body = std::span<std::uint8_t>(expected).subspan(12);
  for (std::uint32_t k = 0; k < kSlots; ++k) {
    crypto::chacha20_xor(keys.encryption_key, nonce, 1 + 4 * k,
                         body.subspan(k * kPayload, kPayload));
  }
  crypto::chacha20_xor(keys.encryption_key, nonce, 1 + 16,
                       body.subspan(kSlots * kPayload, kSlots * 8));
  const std::uint64_t tag = crypto::siphash24(
      keys.mac_key, std::span<const std::uint8_t>(expected).first(
                        kSealed - crypto::seal_mac_bytes));
  for (int i = 0; i < 8; ++i) {
    expected[kSealed - 8 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(tag >> (8 * i));
  }
  ASSERT_EQ(codec.mac_offset(), kSealed - 8);
  EXPECT_EQ(bucket, expected);
  EXPECT_EQ(fnv1a(bucket), 0xba438e474ca6dbd2ULL)
      << std::hex << fnv1a(bucket);
}

// ------------------------------------------------ bucket windows

/// The buckets of `window`, `bytes` long each and held back to back.
std::vector<std::span<const std::uint8_t>> window_buckets(
    std::span<const std::uint8_t> window, std::size_t bytes) {
  std::vector<std::span<const std::uint8_t>> buckets;
  for (std::size_t at = 0; at < window.size(); at += bytes) {
    buckets.push_back(window.subspan(at, bytes));
  }
  return buckets;
}

/// A path window of `levels` buckets with random occupancy, composed by
/// two codecs of one key: `per_bucket` by encode() leaf to root,
/// `batched` by encode_plain() and one seal_many() leaf to root.
struct window_pair {
  static constexpr std::uint32_t kSlots = 4;
  static constexpr std::size_t kPayload = 256;
  block_codec per_bucket_codec{kSlots, kPayload, true,
                               crypto::derive_seal_keys(0x3a1)};
  block_codec batched_codec{kSlots, kPayload, true,
                            crypto::derive_seal_keys(0x3a1)};
  std::size_t levels;
  std::vector<std::vector<std::uint8_t>> payloads;
  std::vector<std::vector<block_codec::entry>> reals;  // per level
  std::vector<std::uint8_t> per_bucket;
  std::vector<std::uint8_t> batched;

  window_pair(std::size_t levels_in, util::pcg64& rng)
      : levels(levels_in), reals(levels_in) {
    payloads.reserve(levels * kSlots);
    for (std::size_t level = 0; level < levels; ++level) {
      const std::size_t count = rng.next_u64() % (kSlots + 1);
      for (std::size_t k = 0; k < count; ++k) {
        payloads.push_back(slot_payload(kPayload, static_cast<std::uint32_t>(
                                                      rng.next_u64() % 97)));
        reals[level].push_back(
            block_codec::entry{level * 100 + k, payloads.back()});
      }
    }
    const std::size_t bytes = per_bucket_codec.bucket_bytes();
    per_bucket.assign(levels * bytes, 0xee);
    batched.assign(levels * bytes, 0xdd);
    std::vector<std::span<std::uint8_t>> leaf_first;
    for (std::size_t down = 0; down < levels; ++down) {
      const std::size_t level = levels - 1 - down;
      per_bucket_codec.encode(
          reals[level],
          std::span<std::uint8_t>(per_bucket).subspan(level * bytes, bytes));
      leaf_first.push_back(
          std::span<std::uint8_t>(batched).subspan(level * bytes, bytes));
      batched_codec.encode_plain(reals[level], leaf_first.back());
    }
    batched_codec.seal_many(leaf_first);
  }
};

TEST(BucketCodecWindow, BatchIsByteIdenticalToPerBucketCalls) {
  util::pcg64 rng(0x3a1);
  for (const std::size_t levels : {1u, 7u, 9u, 10u, 17u}) {
    for (int trial = 0; trial < 4; ++trial) {
      window_pair pair(levels, rng);
      ASSERT_EQ(pair.batched, pair.per_bucket) << levels << " buckets";

      // decode_many() against decode() bucket by bucket.
      const block_codec& codec = pair.batched_codec;
      const std::size_t slots = codec.slots();
      const std::size_t payload = codec.payload_bytes();
      std::vector<block_id> ids(levels * slots, 0);
      std::vector<std::uint8_t> out(levels * slots * payload, 0xcc);
      std::vector<block_id> expected_ids(levels * slots, 0);
      std::vector<std::uint8_t> expected_out(out.size(), 0xcc);
      std::uint32_t expected_reals = 0;
      for (std::size_t level = 0; level < levels; ++level) {
        expected_reals += codec.decode(
            std::span<const std::uint8_t>(pair.batched)
                .subspan(level * codec.bucket_bytes(), codec.bucket_bytes()),
            std::span<block_id>(expected_ids).subspan(level * slots, slots),
            std::span<std::uint8_t>(expected_out)
                .subspan(level * slots * payload, slots * payload));
      }
      const auto buckets =
          window_buckets(pair.batched, codec.bucket_bytes());
      EXPECT_EQ(codec.decode_many(buckets, ids, out), expected_reals);
      EXPECT_EQ(ids, expected_ids);
      EXPECT_EQ(out, expected_out);
      // Ids alone need no payload buffer.
      std::vector<block_id> ids_only(levels * slots, 0);
      EXPECT_EQ(codec.decode_many(buckets, ids_only, {}), expected_reals);
      EXPECT_EQ(ids_only, expected_ids);
    }
  }
}

TEST(BucketCodecWindow, TamperedBucketFailsTheWholeWindowUnwritten) {
  util::pcg64 rng(0x7a3);
  // The first bucket of the second MAC lane group sits on the boundary.
  const std::size_t boundary = crypto::detail::siphash_lanes(
      crypto::detail::dispatched_isa());
  for (const std::size_t levels : {9u, 10u, 17u}) {
    const window_pair pair(levels, rng);
    const block_codec& codec = pair.batched_codec;
    for (const std::size_t bucket :
         {std::size_t{0}, std::min(boundary, levels - 1), levels - 1}) {
      for (const std::size_t offset :
           {std::size_t{3}, codec.payload_offset(2) + 17,
            codec.id_offset(1) + 2, codec.mac_offset() + 5}) {
        std::vector<std::uint8_t> tampered = pair.batched;
        tampered[bucket * codec.bucket_bytes() + offset] ^= 0x20;
        std::vector<block_id> ids(levels * codec.slots(), 77);
        std::vector<std::uint8_t> out(
            levels * codec.slots() * codec.payload_bytes(), 0xcc);
        EXPECT_THROW(
            codec.decode_many(window_buckets(tampered, codec.bucket_bytes()),
                              ids, out),
            crypto::crypto_error)
            << "bucket " << bucket << ", byte " << offset;
        EXPECT_EQ(ids, std::vector<block_id>(ids.size(), 77))
            << "bucket " << bucket << ", byte " << offset;
        EXPECT_EQ(out, std::vector<std::uint8_t>(out.size(), 0xcc))
            << "bucket " << bucket << ", byte " << offset;
      }
    }
  }
}

// ------------------------------------------------ record batches

/// `count` records composed by two block_codecs of one key:
/// `per_record` by encode() one after another, `batched` by
/// encode_plain() and one seal_many() in the same order. Every fourth
/// record is a dummy and every fifth payload is short.
struct record_batch_pair {
  static constexpr std::size_t kPayload = 256;
  block_codec per_record_codec;
  block_codec batched_codec;
  std::size_t count;
  std::vector<std::uint8_t> per_record;
  std::vector<std::uint8_t> batched;

  record_batch_pair(std::size_t count_in, bool seal)
      : per_record_codec(1, kPayload, seal, crypto::derive_seal_keys(0x8ec)),
        batched_codec(1, kPayload, seal, crypto::derive_seal_keys(0x8ec)),
        count(count_in) {
    const std::size_t bytes = per_record_codec.record_bytes();
    per_record.assign(count * bytes, 0xee);
    batched.assign(count * bytes, 0xdd);
    std::vector<std::span<std::uint8_t>> records;
    for (std::size_t i = 0; i < count; ++i) {
      std::vector<std::uint8_t> payload =
          slot_payload(kPayload, static_cast<std::uint32_t>(i));
      if (i % 5 == 1) {
        payload.resize(kPayload / 2);
      }
      const block_id id = i % 4 == 3 ? dummy_block_id : 1000 + i;
      if (id == dummy_block_id) {
        payload.clear();
      }
      per_record_codec.encode(
          id, payload, std::span<std::uint8_t>(per_record).subspan(
                           i * bytes, bytes));
      records.push_back(
          std::span<std::uint8_t>(batched).subspan(i * bytes, bytes));
      batched_codec.encode_plain(id, payload, records.back());
    }
    batched_codec.seal_many(records);
  }
};

TEST(RecordCodecBatch, ByteIdenticalToPerRecordCalls) {
  for (const bool seal : {false, true}) {
    for (const std::size_t count : {1u, 7u, 8u, 9u, 16u, 17u, 512u}) {
      record_batch_pair pair(count, seal);
      ASSERT_EQ(pair.batched, pair.per_record)
          << count << " records, seal " << seal;

      // decode_many() against decode() record by record.
      block_codec& codec = pair.batched_codec;
      const std::size_t bytes = codec.record_bytes();
      const std::size_t payload = codec.payload_bytes();
      std::vector<block_id> expected_ids(count);
      std::vector<std::uint8_t> expected_out(count * payload, 0xcc);
      for (std::size_t i = 0; i < count; ++i) {
        expected_ids[i] = codec.decode(
            std::span<const std::uint8_t>(pair.batched)
                .subspan(i * bytes, bytes),
            std::span<std::uint8_t>(expected_out)
                .subspan(i * payload, payload));
      }
      const auto records = window_buckets(pair.batched, bytes);
      std::vector<block_id> ids(count, 0);
      std::vector<std::uint8_t> out(count * payload, 0xcc);
      codec.decode_many(records, ids, out);
      EXPECT_EQ(ids, expected_ids) << count << " records, seal " << seal;
      EXPECT_EQ(out, expected_out) << count << " records, seal " << seal;
      // Ids alone need no payload buffer.
      std::vector<block_id> ids_only(count, 0);
      codec.decode_many(records, ids_only, {});
      EXPECT_EQ(ids_only, expected_ids);
      // Payloads may land over the records themselves (in place); a
      // dummy's share of the output keeps the record bytes under it.
      std::vector<std::uint8_t> image = pair.batched;
      std::vector<block_id> in_place_ids(count, 0);
      codec.decode_many(window_buckets(image, bytes), in_place_ids,
                        std::span<std::uint8_t>(image).first(count * payload));
      EXPECT_EQ(in_place_ids, expected_ids);
      for (std::size_t i = 0; i < count; ++i) {
        const auto from = [&](const std::vector<std::uint8_t>& bytes_of) {
          return bytes_of.begin() + static_cast<std::ptrdiff_t>(i * payload);
        };
        const bool dummy = expected_ids[i] == dummy_block_id;
        EXPECT_TRUE(std::equal(from(image), from(image) + payload,
                               dummy ? from(pair.batched) : from(expected_out)))
            << "record " << i << " of " << count << ", seal " << seal;
      }
    }
  }
}

TEST(RecordCodecBatch, PayloadsOpenInPlaceOverTheirRecords) {
  // Every unit is read before any payload byte is written, however the
  // output overlaps the records: from the first record's first byte,
  // shifted into it, or ending at the last record's last byte. Run
  // under AddressSanitizer this also checks that no copy overlaps.
  for (const bool seal : {false, true}) {
    for (const std::size_t count : {1u, 9u, 512u}) {
      const record_batch_pair pair(count, seal);
      const block_codec& codec = pair.batched_codec;
      const std::size_t bytes = codec.record_bytes();
      const std::size_t payload = codec.payload_bytes();
      std::vector<block_id> ids(count);
      std::vector<std::uint8_t> payloads(count * payload);
      codec.decode_many(window_buckets(pair.batched, bytes), ids, payloads);
      const std::size_t slack = count * (bytes - payload);
      for (const std::size_t shift : {std::size_t{0}, std::size_t{3}, slack}) {
        std::vector<std::uint8_t> image = pair.batched;
        std::vector<block_id> in_place_ids(count, 0);
        EXPECT_EQ(codec.decode_many(
                      window_buckets(image, bytes), in_place_ids,
                      std::span<std::uint8_t>(image).subspan(shift,
                                                             count * payload)),
                  static_cast<std::uint32_t>(std::count_if(
                      ids.begin(), ids.end(),
                      [](block_id id) { return id != dummy_block_id; })));
        EXPECT_EQ(in_place_ids, ids);
        std::vector<std::uint8_t> expected = pair.batched;
        for (std::size_t i = 0; i < count; ++i) {
          if (ids[i] != dummy_block_id) {
            std::copy_n(payloads.begin() +
                            static_cast<std::ptrdiff_t>(i * payload),
                        payload,
                        expected.begin() +
                            static_cast<std::ptrdiff_t>(shift + i * payload));
          }
        }
        EXPECT_EQ(image, expected)
            << count << " records, seal " << seal << ", shift " << shift;
      }
      // A lone record decoded into its own bytes.
      std::vector<std::uint8_t> record(pair.batched.begin(),
                                       pair.batched.begin() +
                                           static_cast<std::ptrdiff_t>(bytes));
      const auto inside = std::span<std::uint8_t>(record).subspan(
          bytes - payload, payload);
      EXPECT_EQ(codec.decode(record, inside), ids[0]);
      EXPECT_TRUE(std::equal(inside.begin(), inside.end(), payloads.begin()));
    }
  }
}

TEST(RecordCodecBatch, TamperedRecordFailsTheWholeBatchUnwritten) {
  // The first record of the second MAC lane group sits on the boundary.
  const std::size_t boundary = crypto::detail::siphash_lanes(
      crypto::detail::dispatched_isa());
  for (const std::size_t count : {9u, 17u, 512u}) {
    const record_batch_pair pair(count, true);
    const block_codec& codec = pair.batched_codec;
    const std::size_t bytes = codec.record_bytes();
    for (const std::size_t record :
         {std::size_t{0}, std::min(boundary, count - 1), count - 1}) {
      for (const std::size_t offset : {std::size_t{3}, std::size_t{20},
                                       bytes - 2}) {
        std::vector<std::uint8_t> tampered = pair.batched;
        tampered[record * bytes + offset] ^= 0x20;
        std::vector<block_id> ids(count, 77);
        std::vector<std::uint8_t> out(count * codec.payload_bytes(), 0xcc);
        EXPECT_THROW(
            codec.decode_many(window_buckets(tampered, bytes), ids, out),
            crypto::crypto_error)
            << "record " << record << ", byte " << offset;
        EXPECT_EQ(ids, std::vector<block_id>(ids.size(), 77))
            << "record " << record << ", byte " << offset;
        EXPECT_EQ(out, std::vector<std::uint8_t>(out.size(), 0xcc))
            << "record " << record << ", byte " << offset;
      }
    }
  }
}

// --------------------------------------------- fault injection e2e

TEST(FaultInjection, TamperedStoreRecordIsRejectedOnRead) {
  sim::block_device device(sim::dram_ddr4());
  block_codec codec(1, 32, true, crypto::derive_seal_keys(9));
  storage::block_store store(device, 0, 8, codec.record_bytes(),
                             codec.record_bytes());
  std::vector<std::uint8_t> record(codec.record_bytes());
  codec.encode(3, std::vector<std::uint8_t>(32, 3), record);
  store.write(2, record);

  // Bit rot / adversarial modification in untrusted storage.
  store.corrupt(2, 15, 0x40);

  std::vector<std::uint8_t> read_back(codec.record_bytes());
  store.read(2, read_back);
  std::vector<std::uint8_t> out(32);
  EXPECT_THROW(codec.decode(read_back, out), crypto::crypto_error);
}

TEST(FaultInjection, EveryByteOfTheRecordIsProtected) {
  sim::block_device device(sim::dram_ddr4());
  block_codec codec(1, 16, true, crypto::derive_seal_keys(10));
  storage::block_store store(device, 0, 1, codec.record_bytes(),
                             codec.record_bytes());
  std::vector<std::uint8_t> record(codec.record_bytes());
  codec.encode(1, std::vector<std::uint8_t>(16, 1), record);

  for (std::size_t byte = 0; byte < codec.record_bytes(); ++byte) {
    store.write(0, record);
    store.corrupt(0, byte, 0x01);
    std::vector<std::uint8_t> read_back(codec.record_bytes());
    store.read(0, read_back);
    std::vector<std::uint8_t> out(16);
    EXPECT_THROW(codec.decode(read_back, out), crypto::crypto_error)
        << "byte " << byte << " not protected";
  }
}

// ------------------------------------------------------ position map

TEST(PositionMap, AssignLookupRemove) {
  position_map map(100, 64);
  EXPECT_FALSE(map.contains(5));
  map.assign(5, 17);
  EXPECT_TRUE(map.contains(5));
  EXPECT_EQ(map.leaf_of(5), 17u);
  map.assign(5, 3);
  EXPECT_EQ(map.leaf_of(5), 3u);
  map.remove(5);
  EXPECT_FALSE(map.contains(5));
  EXPECT_THROW(static_cast<void>(map.leaf_of(5)), contract_error);
}

TEST(PositionMap, BoundsChecked) {
  position_map map(10, 16);
  EXPECT_THROW(static_cast<void>(map.contains(10)), contract_error);
  EXPECT_THROW(map.assign(10, 0), contract_error);
}

TEST(PositionMap, SizeAndClear) {
  position_map map(50, 64);
  for (block_id id = 0; id < 20; ++id) {
    map.assign(id, id);
  }
  EXPECT_EQ(map.size(), 20u);
  map.clear();
  EXPECT_EQ(map.size(), 0u);
}

TEST(PositionMap, MemoryBytesFollowLeafWidth) {
  // Figure 4-1 annotates a flat 8-byte map, "Position map (4MB)" at
  // 2^19 entries. Leaves are stored at the tree's width instead: 2 B
  // below 65,535 leaves, 4 B from there on.
  EXPECT_EQ(position_map(1 << 19, 1 << 15).memory_bytes(), (1ULL << 19) * 2);
  EXPECT_EQ(position_map(1 << 19, 1 << 16).memory_bytes(), (1ULL << 19) * 4);
}

TEST(PositionMap, EveryLeafOfTheWidthRoundTrips) {
  // The largest leaf of each width is a real leaf, not the absent mark.
  position_map narrow(4, 1 << 15);
  narrow.assign(1, (1 << 15) - 1);
  EXPECT_EQ(narrow.leaf_of(1), (1u << 15) - 1);
  EXPECT_FALSE(narrow.contains(0));
  EXPECT_THROW(narrow.assign(2, 65535), contract_error);

  position_map wide(4, 1 << 20);
  wide.assign(1, 65535);
  EXPECT_EQ(wide.leaf_of(1), 65535u);
  wide.assign(2, (1 << 20) - 1);
  EXPECT_EQ(wide.leaf_of(2), (1u << 20) - 1);
  EXPECT_FALSE(wide.contains(0));
  EXPECT_EQ(wide.size(), 2u);
}

TEST(PositionMap, ResidentOnlyMatchesAStdMapOracle) {
  // Random assigns, reassigns and removes over a 5,000-id universe with
  // at most ~300 residents, against std::map: every lookup agrees,
  // including ids whose probe runs were shifted by a removal.
  for (const std::uint64_t leaves : {std::uint64_t{1} << 10,
                                     std::uint64_t{1} << 17}) {
    position_map map(5000, leaves, /*resident_only=*/true);
    std::map<block_id, leaf_id> oracle;
    util::pcg64 rng(leaves);
    for (int step = 0; step < 20000; ++step) {
      // Ids cluster in a narrow band so probe runs collide and wrap.
      const block_id id = util::uniform_below(rng, 600) * 7 % 5000;
      if (oracle.size() < 300 && util::uniform_below(rng, 3) != 0) {
        const leaf_id leaf = util::uniform_below(rng, leaves);
        map.assign(id, leaf);
        oracle[id] = leaf;
      } else {
        map.remove(id);
        oracle.erase(id);
      }
      ASSERT_EQ(map.size(), oracle.size()) << "step " << step;
      if (step % 97 == 0) {
        for (block_id probe = 0; probe < 5000; probe += 1) {
          const auto it = oracle.find(probe);
          ASSERT_EQ(map.contains(probe), it != oracle.end()) << probe;
          if (it != oracle.end()) {
            ASSERT_EQ(map.leaf_of(probe), it->second) << probe;
          }
        }
      }
    }
    map.clear();
    EXPECT_EQ(map.size(), 0u);
    EXPECT_FALSE(map.contains(0));
  }
}

TEST(PositionMap, ResidentOnlyGrowsAtHalfLoadAndIsPricedAtCapacity) {
  // An entry is a 32-bit id plus a leaf at the map's width. The table
  // starts at 16 slots and doubles when an insert would take it past
  // half full; removals never shrink it.
  position_map narrow(1 << 20, 1 << 10, /*resident_only=*/true);
  EXPECT_EQ(narrow.memory_bytes(), 16u * (4 + 2));
  for (block_id k = 0; k < 8; ++k) {
    narrow.assign(k * 4099, k);
  }
  EXPECT_EQ(narrow.memory_bytes(), 16u * (4 + 2));
  narrow.assign(1, 1);  // the 9th resident passes load ½ of 16
  EXPECT_EQ(narrow.memory_bytes(), 32u * (4 + 2));
  for (block_id k = 0; k < 1000; ++k) {
    narrow.assign(k * 1021 + 7, k);
  }
  EXPECT_EQ(narrow.size(), 1009u);
  EXPECT_EQ(narrow.memory_bytes(), 2048u * (4 + 2));
  for (block_id k = 0; k < 1000; ++k) {
    narrow.remove(k * 1021 + 7);
  }
  EXPECT_EQ(narrow.size(), 9u);
  EXPECT_EQ(narrow.memory_bytes(), 2048u * (4 + 2));

  position_map wide(1 << 20, 1 << 17, /*resident_only=*/true);
  EXPECT_EQ(wide.memory_bytes(), 16u * (4 + 4));
  wide.assign(3, (1 << 17) - 1);
  EXPECT_EQ(wide.leaf_of(3), (1u << 17) - 1);
  EXPECT_THROW(wide.assign(1 << 20, 0), contract_error);
  EXPECT_THROW(position_map(std::uint64_t{1} << 32, 16, true),
               contract_error);
}

// ------------------------------------------------------------- stash

TEST(Stash, PutGetEraseAndPeak) {
  stash s;
  EXPECT_FALSE(s.contains(1));
  s.put(1, 10, std::vector<std::uint8_t>{1, 2, 3});
  s.put(2, 20, std::vector<std::uint8_t>{4});
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s.at(1).leaf, 10u);
  EXPECT_EQ(s.at(1).payload, (std::vector<std::uint8_t>{1, 2, 3}));
  s.erase(1);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.peak_size(), 2u);  // peak survives erase
  s.clear();
  EXPECT_EQ(s.size(), 0u);
  EXPECT_EQ(s.peak_size(), 2u);
}

TEST(Stash, PutOverwritesInPlace) {
  stash s;
  s.put(7, 1, std::vector<std::uint8_t>{1});
  s.put(7, 2, std::vector<std::uint8_t>{2});
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.at(7).leaf, 2u);
  EXPECT_EQ(s.at(7).payload[0], 2);
}

}  // namespace
}  // namespace horam::oram

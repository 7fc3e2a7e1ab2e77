// Tests for the block and bucket codecs, the position map and the stash
// — the common layer the ORAM constructions share — plus fault
// injection through a store (tampered records must surface as crypto
// errors, not silent corruption).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "crypto/chacha20.h"
#include "crypto/siphash.h"
#include "oram/common/block_codec.h"
#include "oram/common/bucket_codec.h"
#include "oram/common/position_map.h"
#include "oram/common/stash.h"
#include "sim/profiles.h"
#include "storage/block_store.h"
#include "util/contracts.h"

namespace horam::oram {
namespace {

// ----------------------------------------------------------- codec

class CodecSealModes : public ::testing::TestWithParam<bool> {};
INSTANTIATE_TEST_SUITE_P(Modes, CodecSealModes, ::testing::Bool());

TEST_P(CodecSealModes, RoundTripRealBlock) {
  block_codec codec(32, GetParam(), 5);
  std::vector<std::uint8_t> payload(32);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 7);
  }
  std::vector<std::uint8_t> record(codec.record_bytes());
  codec.encode(123456789, payload, record);
  std::vector<std::uint8_t> out(32);
  EXPECT_EQ(codec.decode(record, out), 123456789u);
  EXPECT_EQ(out, payload);
}

TEST_P(CodecSealModes, DummyRoundTrip) {
  block_codec codec(32, GetParam(), 6);
  std::vector<std::uint8_t> record(codec.record_bytes());
  codec.encode_dummy(record);
  std::vector<std::uint8_t> out(32);
  EXPECT_EQ(codec.decode(record, out), dummy_block_id);
}

TEST_P(CodecSealModes, ShortPayloadIsZeroPadded) {
  block_codec codec(32, GetParam(), 7);
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
  block_codec codec(32, GetParam(), 8);
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
  block_codec codec(32, GetParam(), 11);
  std::vector<std::uint8_t> record(codec.record_bytes() + 4, 0xff);
  codec.encode(7, std::vector<std::uint8_t>(3, 0x11), record);
  EXPECT_EQ(record.back(), 0xff);
  std::vector<std::uint8_t> out(32);
  EXPECT_EQ(codec.decode(record, out), 7u);
  std::vector<std::uint8_t> expected(32, 0);
  std::fill_n(expected.begin(), 3, 0x11);
  EXPECT_EQ(out, expected);

  codec.encode_dummy(record);
  EXPECT_EQ(codec.decode(record, out), dummy_block_id);
  EXPECT_EQ(out, std::vector<std::uint8_t>(32, 0));
}

TEST(Codec, SealedRecordIsTheSealedPlaintextLayout) {
  // The sealed record is block_sealer's record over id || payload ||
  // zero pad under derive_seal_keys(key_seed); with the sealer's golden
  // record (crypto_test) this pins the on-device format.
  block_codec codec(32, true, 12);
  crypto::block_sealer sealer(crypto::derive_seal_keys(12));
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  for (int round = 0; round < 3; ++round) {
    std::vector<std::uint8_t> record(codec.record_bytes());
    codec.encode(0x0102030405060708ULL, payload, record);

    std::vector<std::uint8_t> expected(codec.record_bytes(), 0);
    const std::vector<std::uint8_t> id = {8, 7, 6, 5, 4, 3, 2, 1};
    std::copy(id.begin(), id.end(),
              expected.begin() + crypto::seal_nonce_bytes);
    std::copy(payload.begin(), payload.end(),
              expected.begin() + crypto::seal_nonce_bytes + 8);
    sealer.seal_in_place(expected);
    EXPECT_EQ(record, expected) << "record " << round;
  }
}

TEST(Codec, RecordSizeAccountsForSealing) {
  block_codec plain(32, false, 1);
  block_codec sealed(32, true, 1);
  EXPECT_EQ(plain.record_bytes(), 8u + 32u);
  EXPECT_EQ(sealed.record_bytes(), 8u + 32u + crypto::seal_overhead);
}

TEST(Codec, SealedRecordsOfSameBlockDiffer) {
  // Unlinkability: re-encoding the same (id, payload) yields a fresh
  // ciphertext every time.
  block_codec codec(32, true, 2);
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
  block_codec codec(16, false, 3);
  std::vector<std::uint8_t> record(codec.record_bytes() + 64, 0xaa);
  codec.encode(77, std::vector<std::uint8_t>(16, 1), record);
  std::vector<std::uint8_t> out(16);
  EXPECT_EQ(codec.decode(record, out), 77u);
}

TEST(Codec, DifferentKeySeedsCannotDecodeEachOther) {
  block_codec alice(32, true, 100);
  block_codec mallory(32, true, 101);
  std::vector<std::uint8_t> record(alice.record_bytes());
  alice.encode(5, std::vector<std::uint8_t>(32, 5), record);
  std::vector<std::uint8_t> out(32);
  EXPECT_THROW(mallory.decode(record, out), crypto::crypto_error);
}

// ---------------------------------------------------- bucket codec

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
  bucket_codec codec(shape.slots, shape.payload_bytes, shape.seal, 21);
  EXPECT_EQ(codec.record_bytes(),
            block_codec(shape.payload_bytes, shape.seal, 21).record_bytes());
  EXPECT_GE(codec.bucket_bytes(),
            shape.slots * (8 + shape.payload_bytes) +
                (shape.seal ? crypto::seal_overhead : 0))
      << "the bucket must fit in its slots' records";

  std::vector<std::vector<std::uint8_t>> payloads;
  for (std::uint32_t k = 0; k < shape.slots; ++k) {
    payloads.push_back(slot_payload(shape.payload_bytes, k));
  }
  for (std::uint32_t reals = 0; reals <= shape.slots; ++reals) {
    std::vector<bucket_codec::entry> entries;
    for (std::uint32_t k = 0; k < reals; ++k) {
      entries.push_back(bucket_codec::entry{1000 + k, payloads[k]});
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
  bucket_codec codec(shape.slots, shape.payload_bytes, shape.seal, 22);
  const std::vector<std::uint8_t> partial(shape.payload_bytes / 2 + 1, 0x7f);
  const std::vector<bucket_codec::entry> entries(
      1, bucket_codec::entry{5, partial});
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
  bucket_codec codec(4, 256, true, 23);
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
  bucket_codec codec(4, 100, true, 24);
  const std::vector<std::uint8_t> payload = slot_payload(100, 0);
  const std::vector<bucket_codec::entry> entries = {
      bucket_codec::entry{1, payload}, bucket_codec::entry{2, payload}};
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
  bucket_codec alice(4, 64, true, 100);
  bucket_codec mallory(4, 64, true, 101);
  std::vector<std::uint8_t> bucket(alice.bucket_bytes());
  alice.encode_dummy(bucket);
  std::vector<block_id> ids(4);
  EXPECT_THROW(mallory.decode(bucket, ids, {}), crypto::crypto_error);
}

TEST(BucketCodec, ContractsOnBufferSizes) {
  bucket_codec codec(2, 16, true, 25);
  const std::vector<std::uint8_t> payload(16, 1);
  const std::vector<bucket_codec::entry> three(
      3, bucket_codec::entry{1, payload});
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
  // Z = 4, P = 256, key seed 0x601d, the codec's first seal (nonce 0):
  // real blocks in slots 0 and 1, dummies in 2 and 3. The image is
  // rebuilt from the kernels (ChaCha20 at each piece's keystream offset,
  // SipHash over nonce || ciphertext), and its fingerprint is pinned, so
  // neither the layout nor the keystream mapping can drift unnoticed.
  constexpr std::uint32_t kSlots = 4;
  constexpr std::size_t kPayload = 256;
  constexpr std::uint64_t kSeed = 0x601d;
  bucket_codec codec(kSlots, kPayload, true, kSeed);
  const std::vector<std::uint8_t> first = slot_payload(kPayload, 0);
  const std::vector<std::uint8_t> second = slot_payload(kPayload, 1);
  const std::vector<bucket_codec::entry> entries = {
      bucket_codec::entry{0x0102030405060708ULL, first},
      bucket_codec::entry{42, second}};
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
  const crypto::seal_keys keys = crypto::derive_seal_keys(kSeed);
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

// --------------------------------------------- fault injection e2e

TEST(FaultInjection, TamperedStoreRecordIsRejectedOnRead) {
  sim::block_device device(sim::dram_ddr4());
  block_codec codec(32, true, 9);
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
  block_codec codec(16, true, 10);
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
  position_map map(100);
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
  position_map map(10);
  EXPECT_THROW(static_cast<void>(map.contains(10)), contract_error);
  EXPECT_THROW(map.assign(10, 0), contract_error);
}

TEST(PositionMap, SizeAndClear) {
  position_map map(50);
  for (block_id id = 0; id < 20; ++id) {
    map.assign(id, id);
  }
  EXPECT_EQ(map.size(), 20u);
  map.clear();
  EXPECT_EQ(map.size(), 0u);
}

TEST(PositionMap, MemoryBytesMatchesPaperFigure) {
  // Figure 4-1 annotates "Position map (4MB)": 2^19 entries * 8 B.
  position_map map(1 << 19);
  EXPECT_EQ(map.memory_bytes(), (1ULL << 19) * 8);
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

// Tests for the block codec, the position map and the stash — the
// common layer the ORAM constructions share — plus fault injection
// through a store (tampered records must surface as crypto errors, not
// silent corruption).
#include <gtest/gtest.h>

#include <algorithm>

#include "oram/common/block_codec.h"
#include "oram/common/position_map.h"
#include "oram/common/stash.h"
#include "sim/profiles.h"
#include "storage/block_store.h"

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

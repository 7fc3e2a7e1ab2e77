// Unit tests for src/storage: block store and partitioned store.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "sim/profiles.h"
#include "storage/block_store.h"
#include "storage/partitioned_store.h"
#include "util/contracts.h"

namespace horam::storage {
namespace {

std::vector<std::uint8_t> record_of(std::uint8_t fill, std::size_t size) {
  return std::vector<std::uint8_t>(size, fill);
}

TEST(BlockStore, RoundTripSingleRecords) {
  sim::block_device device(sim::dram_ddr4());
  block_store store(device, 0, 16, 32, 64);
  store.write(3, record_of(0xab, 32));
  std::vector<std::uint8_t> out(32);
  store.read(3, out);
  EXPECT_EQ(out, record_of(0xab, 32));
}

TEST(BlockStore, RangeRoundTrip) {
  sim::block_device device(sim::dram_ddr4());
  block_store store(device, 0, 16, 8, 8);
  std::vector<std::uint8_t> data(4 * 8);
  std::iota(data.begin(), data.end(), std::uint8_t{0});
  store.write_range(4, 4, data);
  std::vector<std::uint8_t> out(4 * 8);
  store.read_range(4, 4, out);
  EXPECT_EQ(out, data);
  // Single-record view agrees.
  std::vector<std::uint8_t> one(8);
  store.read(5, one);
  EXPECT_EQ(one, std::vector<std::uint8_t>(data.begin() + 8,
                                           data.begin() + 16));
}

TEST(BlockStore, StagedCommitMatchesWriteRange) {
  // Composing records in place and committing them must leave the same
  // bytes, cost and device counters as writing them from a buffer.
  sim::block_device copied_device(sim::hdd_paper());
  sim::block_device staged_device(sim::hdd_paper());
  block_store copied(copied_device, 0, 16, 8, 512);
  block_store staged(staged_device, 0, 16, 8, 512);
  std::vector<std::uint8_t> data(5 * 8);
  std::iota(data.begin(), data.end(), std::uint8_t{1});

  const sim::sim_time t_copied = copied.write_range(6, 5, data);
  const std::span<std::uint8_t> host = staged.stage_range(6, 5);
  ASSERT_EQ(host.size(), data.size());
  std::copy(data.begin(), data.end(), host.begin());
  EXPECT_EQ(staged_device.stats().write_ops, 0u);  // staging is free
  const sim::sim_time t_staged = staged.commit_range(6, 5);

  EXPECT_EQ(t_staged, t_copied);
  EXPECT_EQ(staged_device.stats().write_ops, copied_device.stats().write_ops);
  EXPECT_EQ(staged_device.stats().bytes_written,
            copied_device.stats().bytes_written);
  EXPECT_EQ(staged_device.stats().busy_time, copied_device.stats().busy_time);
  for (std::uint64_t slot = 0; slot < 16; ++slot) {
    EXPECT_TRUE(std::ranges::equal(staged.peek(slot), copied.peek(slot)))
        << "slot " << slot;
  }
  EXPECT_THROW((void)staged.stage_range(12, 5), contract_error);
  EXPECT_THROW(staged.commit_range(12, 5), contract_error);
  EXPECT_THROW(staged.commit_range(0, 0), contract_error);
}

TEST(BlockStore, PeekRangeIsTheRecordsItCovers) {
  sim::block_device device(sim::hdd_paper());
  block_store store(device, 0, 8, 4, 512);
  std::vector<std::uint8_t> data(8 * 4);
  std::iota(data.begin(), data.end(), std::uint8_t{1});
  store.write_range(0, 8, data);
  device.reset_stats();

  const std::span<const std::uint8_t> view = store.peek_range(2, 3);
  ASSERT_EQ(view.size(), 3u * 4u);
  for (std::uint64_t k = 0; k < 3; ++k) {
    EXPECT_TRUE(std::ranges::equal(view.subspan(k * 4, 4), store.peek(2 + k)))
        << "record " << k;
  }
  EXPECT_EQ(device.stats().read_ops, 0u);  // peeking is free
  EXPECT_THROW((void)store.peek_range(6, 3), contract_error);
}

TEST(BlockStore, BoundsChecked) {
  sim::block_device device(sim::dram_ddr4());
  block_store store(device, 0, 4, 8, 8);
  std::vector<std::uint8_t> buf(8);
  EXPECT_THROW(store.read(4, buf), contract_error);
  EXPECT_THROW(store.write(4, buf), contract_error);
  EXPECT_THROW(store.read_range(3, 2, buf), contract_error);
  std::vector<std::uint8_t> tiny(4);
  EXPECT_THROW(store.read(0, tiny), contract_error);
}

TEST(BlockStore, ChargesLogicalBlockTiming) {
  // Two stores with identical record sizes but different logical block
  // sizes must charge different device time.
  sim::block_device device_small(sim::hdd_paper());
  sim::block_device device_large(sim::hdd_paper());
  block_store small(device_small, 0, 8, 32, 64);
  block_store large(device_large, 0, 8, 32, 1024);
  std::vector<std::uint8_t> buf(32);
  const sim::sim_time t_small = small.read(7, buf);
  const sim::sim_time t_large = large.read(7, buf);
  EXPECT_LT(t_small, t_large);
  EXPECT_EQ(device_small.stats().bytes_read, 64u);
  EXPECT_EQ(device_large.stats().bytes_read, 1024u);
}

TEST(BlockStore, RangeIsSingleDeviceOp) {
  sim::block_device device(sim::hdd_paper());
  block_store store(device, 0, 64, 16, 1024);
  std::vector<std::uint8_t> buf(32 * 16);
  store.read_range(0, 32, buf);
  EXPECT_EQ(device.stats().read_ops, 1u);
  EXPECT_EQ(device.stats().bytes_read, 32u * 1024u);
}

TEST(BlockStore, BaseOffsetSeparatesRegions) {
  sim::block_device device(sim::dram_ddr4());
  block_store region_a(device, 0, 4, 8, 8);
  block_store region_b(device, 4 * 8, 4, 8, 8);
  region_a.write(0, record_of(1, 8));
  region_b.write(0, record_of(2, 8));
  std::vector<std::uint8_t> out(8);
  region_a.read(0, out);
  EXPECT_EQ(out, record_of(1, 8));
  region_b.read(0, out);
  EXPECT_EQ(out, record_of(2, 8));
}

TEST(BlockStore, PeekDoesNotChargeTime) {
  sim::block_device device(sim::dram_ddr4());
  block_store store(device, 0, 4, 8, 8);
  store.write(1, record_of(9, 8));
  device.reset_stats();
  EXPECT_EQ(store.peek(1)[0], 9);
  EXPECT_EQ(device.stats().total_ops(), 0u);
}

// ----------------------------------------------------- partitioned store

partition_geometry small_geometry() {
  return partition_geometry{.partition_count = 4,
                            .main_capacity = 8,
                            .append_capacity = 4};
}

TEST(PartitionedStore, SlotRoundTrip) {
  sim::block_device device(sim::dram_ddr4());
  partitioned_store store(device, 0, small_geometry(), 16, 16);
  store.write_slot(2, 5, record_of(0x77, 16));
  std::vector<std::uint8_t> out(16);
  store.read_slot(2, 5, out);
  EXPECT_EQ(out, record_of(0x77, 16));
}

TEST(PartitionedStore, PartitionsAreDisjoint) {
  sim::block_device device(sim::dram_ddr4());
  partitioned_store store(device, 0, small_geometry(), 16, 16);
  store.write_slot(0, 0, record_of(1, 16));
  store.write_slot(1, 0, record_of(2, 16));
  std::vector<std::uint8_t> out(16);
  store.read_slot(0, 0, out);
  EXPECT_EQ(out[0], 1);
  store.read_slot(1, 0, out);
  EXPECT_EQ(out[0], 2);
}

TEST(PartitionedStore, AppendAndReadBack) {
  sim::block_device device(sim::dram_ddr4());
  partitioned_store store(device, 0, small_geometry(), 16, 16);
  EXPECT_EQ(store.appended_count(1), 0u);
  std::vector<std::uint8_t> two_records(2 * 16, 0x42);
  store.append(1, two_records);
  EXPECT_EQ(store.appended_count(1), 2u);
  std::vector<std::uint8_t> out(16);
  store.read_append_slot(1, 1, out);
  EXPECT_EQ(out, record_of(0x42, 16));
  EXPECT_THROW(store.read_append_slot(1, 2, out), contract_error);
}

TEST(PartitionedStore, AppendOverflowThrows) {
  sim::block_device device(sim::dram_ddr4());
  partitioned_store store(device, 0, small_geometry(), 16, 16);
  store.append(0, std::vector<std::uint8_t>(4 * 16));
  EXPECT_THROW(store.append(0, std::vector<std::uint8_t>(16)),
               contract_error);
}

TEST(PartitionedStore, ReadPartitionIncludesAppends) {
  sim::block_device device(sim::dram_ddr4());
  partitioned_store store(device, 0, small_geometry(), 16, 16);
  store.append(3, std::vector<std::uint8_t>(3 * 16, 0x11));
  std::vector<std::uint8_t> image;
  std::uint64_t records = 0;
  store.read_partition(3, /*include_appends=*/true, image, records);
  EXPECT_EQ(records, 8u + 3u);
  store.read_partition(3, /*include_appends=*/false, image, records);
  EXPECT_EQ(records, 8u);
}

TEST(PartitionedStore, WritePartitionResetsAppends) {
  sim::block_device device(sim::dram_ddr4());
  partitioned_store store(device, 0, small_geometry(), 16, 16);
  store.append(2, std::vector<std::uint8_t>(2 * 16));
  store.write_partition(2, std::vector<std::uint8_t>(8 * 16, 0x33));
  EXPECT_EQ(store.appended_count(2), 0u);
  std::vector<std::uint8_t> out(16);
  store.read_slot(2, 7, out);
  EXPECT_EQ(out, record_of(0x33, 16));
}

TEST(PartitionedStore, PartitionSweepIsSequential) {
  sim::block_device device(sim::hdd_paper());
  partitioned_store store(device, 0, small_geometry(), 16, 1024);
  device.reset_stats();
  std::vector<std::uint8_t> image;
  std::uint64_t records = 0;
  store.read_partition(1, false, image, records);
  EXPECT_EQ(device.stats().read_ops, 1u);  // one streaming transfer
  EXPECT_EQ(device.stats().bytes_read, 8u * 1024u);
}

TEST(PartitionedStore, WritePartitionRequiresFullImage) {
  sim::block_device device(sim::dram_ddr4());
  partitioned_store store(device, 0, small_geometry(), 16, 16);
  EXPECT_THROW(store.write_partition(0, std::vector<std::uint8_t>(16)),
               contract_error);
}

TEST(PartitionedStore, GeometryAccounting) {
  const partition_geometry g = small_geometry();
  EXPECT_EQ(g.slots_per_partition(), 12u);
  EXPECT_EQ(g.total_slots(), 48u);
}

}  // namespace
}  // namespace horam::storage

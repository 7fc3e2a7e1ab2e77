// Unit tests for src/sim: clock, device timing model (seek vs
// sequential), calibration of the paper profile, CPU model.
#include <gtest/gtest.h>

#include "sim/cpu_model.h"
#include "sim/device.h"
#include "sim/profiles.h"
#include "util/contracts.h"
#include "util/units.h"

namespace horam::sim {
namespace {

device_profile simple_profile() {
  return device_profile{.name = "test",
                        .seek_time = 1000,            // 1 us
                        .read_bytes_per_second = 1e9,  // 1 GB/s
                        .write_bytes_per_second = 5e8,  // 0.5 GB/s
                        .per_op_time = 100};
}

TEST(Clock, AdvancesMonotonically) {
  sim_clock clock;
  EXPECT_EQ(clock.now(), 0);
  clock.advance(5);
  clock.advance(0);
  EXPECT_EQ(clock.now(), 5);
  EXPECT_THROW(clock.advance(-1), contract_error);
  clock.reset();
  EXPECT_EQ(clock.now(), 0);
}

TEST(Device, FirstAccessPaysSeek) {
  block_device device(simple_profile());
  // 1000 bytes at 1 GB/s = 1000 ns transfer + 100 per-op + 1000 seek.
  EXPECT_EQ(device.read(0, 1000), 1000 + 100 + 1000);
}

TEST(Device, SequentialAccessSkipsSeek) {
  block_device device(simple_profile());
  device.read(0, 1000);
  // Continues where the head stopped: no seek.
  EXPECT_EQ(device.read(1000, 1000), 1000 + 100);
  // Jumping back pays the seek again.
  EXPECT_EQ(device.read(0, 1000), 1000 + 100 + 1000);
}

TEST(Device, WritesUseWriteThroughput) {
  block_device device(simple_profile());
  // 1000 bytes at 0.5 GB/s = 2000 ns + 100 + seek 1000.
  EXPECT_EQ(device.write(0, 1000), 2000 + 100 + 1000);
}

TEST(Device, ReadAfterWriteAtHeadIsSequential) {
  block_device device(simple_profile());
  device.write(0, 512);
  EXPECT_EQ(device.read(512, 1000), 1000 + 100);
}

TEST(Device, InvalidateHeadForcesSeek) {
  block_device device(simple_profile());
  device.read(0, 1000);
  device.invalidate_head();
  EXPECT_EQ(device.read(1000, 1000), 1000 + 100 + 1000);
}

TEST(Device, StatsAccumulate) {
  block_device device(simple_profile());
  device.read(0, 100);
  device.read(100, 100);  // sequential
  device.write(500, 200);
  const io_stats& stats = device.stats();
  EXPECT_EQ(stats.read_ops, 2u);
  EXPECT_EQ(stats.sequential_read_ops, 1u);
  EXPECT_EQ(stats.write_ops, 1u);
  EXPECT_EQ(stats.sequential_write_ops, 0u);
  EXPECT_EQ(stats.bytes_read, 200u);
  EXPECT_EQ(stats.bytes_written, 200u);
  EXPECT_GT(stats.busy_time, 0);
  device.reset_stats();
  EXPECT_EQ(device.stats().total_ops(), 0u);
}

TEST(Device, RejectsNonPositiveThroughput) {
  device_profile bad = simple_profile();
  bad.read_bytes_per_second = 0.0;
  EXPECT_THROW(block_device{bad}, horam::contract_error);
}

// ------------------------------------------------ round-trip counting

TEST(Device, EachBareOpIsOneRoundTrip) {
  block_device device(simple_profile());
  // Outside any scope, every operation's input could depend on the
  // previous result: each is its own dependent exchange.
  device.read(0, 100);
  device.write(500, 100);
  device.read(1000, 100);
  EXPECT_EQ(device.stats().round_trips, 3u);
}

TEST(Device, TripScopeBatchesOpsIntoOneTrip) {
  block_device device(simple_profile());
  {
    trip_scope trip(&device);
    device.read(0, 100);
    device.read(4096, 100);
    device.write(8192, 200);
  }
  EXPECT_EQ(device.stats().round_trips, 1u);
  // Timing is untouched by scoping: an identical unscoped sequence on
  // a fresh device accumulates the same busy time.
  block_device control(simple_profile());
  control.read(0, 100);
  control.read(4096, 100);
  control.write(8192, 200);
  EXPECT_EQ(device.stats().busy_time, control.stats().busy_time);
}

TEST(Device, EmptyTripScopeCountsNothing) {
  block_device device(simple_profile());
  { trip_scope trip(&device); }
  EXPECT_EQ(device.stats().round_trips, 0u);
}

TEST(Device, NestedTripScopesFoldIntoOutermost) {
  block_device device(simple_profile());
  {
    trip_scope outer(&device);
    device.read(0, 100);
    {
      trip_scope inner(&device);
      device.write(500, 100);
    }
    device.read(1000, 100);
  }
  EXPECT_EQ(device.stats().round_trips, 1u);
}

TEST(Device, TripScopeCountsPerDevice) {
  block_device storage(simple_profile());
  block_device memory(simple_profile());
  {
    trip_scope trip(&storage, &memory);
    storage.read(0, 100);
    memory.read(0, 100);
  }
  EXPECT_EQ(storage.stats().round_trips, 1u);
  EXPECT_EQ(memory.stats().round_trips, 1u);
  {
    // A scope where only one lane sees traffic charges only that lane.
    trip_scope trip(&storage, &memory);
    storage.read(4096, 100);
  }
  EXPECT_EQ(storage.stats().round_trips, 2u);
  EXPECT_EQ(memory.stats().round_trips, 1u);
}

TEST(Device, ResetStatsClearsRoundTrips) {
  block_device device(simple_profile());
  device.read(0, 100);
  EXPECT_EQ(device.stats().round_trips, 1u);
  device.reset_stats();
  EXPECT_EQ(device.stats().round_trips, 0u);
}

// Calibration against the thesis measurements (Table 5-2 / 5-3): a
// random 1 KB read ~ 77 us; a Path ORAM request doing 4 random 4 KB
// bucket reads + 4 random 4 KB bucket writes ~ 1.03 ms.
TEST(Profiles, PaperHddRandomReadLatency) {
  block_device device(hdd_paper());
  const sim_time t = device.read(123456789, 1024);
  EXPECT_NEAR(util::ns_to_us(t), 77.0, 8.0);
}

TEST(Profiles, PaperHddPathOramRequestLatency) {
  block_device device(hdd_paper());
  sim_time total = 0;
  for (int i = 0; i < 4; ++i) {
    total += device.read(static_cast<std::uint64_t>(i) * 7919 * 4096, 4096);
  }
  for (int i = 0; i < 4; ++i) {
    total += device.write(static_cast<std::uint64_t>(i) * 104729 * 4096,
                          4096);
  }
  EXPECT_NEAR(util::ns_to_us(total), 1032.0, 120.0);
}

TEST(Profiles, PaperHddSequentialThroughput) {
  block_device device(hdd_paper());
  // Stream 100 MB in 1 MB chunks; effective rate ~ 102.7 MB/s.
  sim_time total = 0;
  for (int i = 0; i < 100; ++i) {
    total += device.read(static_cast<std::uint64_t>(i) << 20, 1 << 20);
  }
  const double seconds = util::ns_to_s(total);
  // 100 MiB moved; the profile's throughput is in decimal MB/s.
  const double mb_per_s = 100.0 * 1048576.0 / 1e6 / seconds;
  EXPECT_NEAR(mb_per_s, 102.7, 3.0);
}

TEST(Profiles, DeviceOrdering) {
  // Faster devices have strictly smaller random 4 KB read times.
  block_device hdd_raw(hdd_7200_raw());
  block_device hdd(hdd_paper());
  block_device sata(ssd_sata());
  block_device fast(nvme());
  block_device ram(dram_ddr4());
  const auto t = [](block_device& d) { return d.read(1 << 30, 4096); };
  EXPECT_GT(t(hdd_raw), t(hdd));
  EXPECT_GT(t(hdd), t(sata));
  EXPECT_GT(t(sata), t(fast));
  EXPECT_GT(t(fast), t(ram));
}

// ------------------------------------------------------------ cpu model

TEST(CpuModel, CryptoTimeScalesWithBytes) {
  const cpu_model cpu(cpu_profile{.name = "t",
                                  .crypto_bytes_per_second = 1e9,
                                  .per_block_time = 100,
                                  .word_ops_per_second = 1e9});
  // 10 blocks of 1000 bytes: 10 us bulk + 1 us fixed.
  EXPECT_EQ(cpu.crypto_time(10, 1000), 10000 + 1000);
  EXPECT_EQ(cpu.crypto_time(0, 1000), 0);
}

TEST(CpuModel, WordOps) {
  const cpu_model cpu(cpu_profile{.name = "t",
                                  .crypto_bytes_per_second = 1e9,
                                  .per_block_time = 0,
                                  .word_ops_per_second = 1e9});
  EXPECT_EQ(cpu.word_ops_time(1000), 1000);
}

TEST(CpuModel, SoftCryptoSlowerThanAesni) {
  const cpu_model soft(cpu_soft_crypto());
  const cpu_model hw(cpu_aesni());
  EXPECT_GT(soft.crypto_time(100, 1024), hw.crypto_time(100, 1024));
}

}  // namespace
}  // namespace horam::sim

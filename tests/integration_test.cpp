// Cross-module integration tests: cost-shape properties the paper's
// argument depends on, file-backed trace round trips, and edge /
// degenerate configurations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "core/controller.h"
#include "horam.h"
#include "sim/profiles.h"
#include "util/rng.h"
#include "workload/generators.h"
#include "workload/trace_io.h"

namespace horam {
namespace {

using oram::block_id;
using oram::op_kind;

// ------------------------------------------------ cost-shape checks

TEST(CostShapes, HoramAccessPeriodIoIsOneBlockPerCycle) {
  sim::block_device disk(sim::hdd_paper());
  sim::block_device memory(sim::dram_ddr4());
  const sim::cpu_model cpu(sim::cpu_aesni());
  util::pcg64 rng(84);
  horam_config config;
  config.block_count = 1024;
  config.memory_blocks = 128;
  config.payload_bytes = 32;
  config.logical_block_bytes = 1024;
  config.seal = false;
  controller ctrl(config, disk, memory, cpu, rng);

  // Fewer requests than a period: no shuffle, so all storage traffic
  // is loads — exactly cycles * 1 KB read, nothing written.
  std::vector<request> batch;
  for (block_id id = 0; id < 40; ++id) {
    batch.push_back(request{op_kind::read, id, 0, {}});
  }
  ctrl.run(batch);
  EXPECT_EQ(ctrl.stats().periods, 0u);
  EXPECT_EQ(disk.stats().bytes_read, ctrl.stats().cycles * 1024);
  EXPECT_EQ(disk.stats().bytes_written, 0u);
}

TEST(CostShapes, ShuffleTrafficIsOverwhelminglySequential) {
  sim::block_device disk(sim::hdd_paper());
  sim::block_device memory(sim::dram_ddr4());
  const sim::cpu_model cpu(sim::cpu_aesni());
  util::pcg64 rng(85);
  horam_config config;
  config.block_count = 4096;
  config.memory_blocks = 256;
  config.payload_bytes = 32;
  config.seal = false;
  controller ctrl(config, disk, memory, cpu, rng);

  util::pcg64 wl(86);
  workload::stream_config stream;
  stream.request_count = 2000;
  stream.block_count = 4096;
  stream.payload_bytes = 32;
  ctrl.run(workload::uniform(wl, stream));
  ASSERT_GT(ctrl.stats().periods, 0u);

  // Writes only happen in shuffles, and partitions are streamed: the
  // per-op payload must be large (whole partitions, not single blocks).
  const auto& io = disk.stats();
  ASSERT_GT(io.write_ops, 0u);
  EXPECT_GT(io.bytes_written / io.write_ops,
            10 * config.logical_block_bytes == 0
                ? 10 * (config.payload_bytes + 8)
                : 10 * (config.payload_bytes + 8));
}

// ------------------------------------------------- trace file round trip

TEST(TraceFiles, SaveAndReplayFromDisk) {
  util::pcg64 rng(89);
  workload::stream_config stream;
  stream.request_count = 200;
  stream.block_count = 512;
  stream.write_fraction = 0.3;
  stream.payload_bytes = 16;
  const auto original = workload::hotspot(rng, stream);

  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "horam_trace_test.csv";
  {
    std::ofstream out(path);
    workload::save_trace(out, original);
  }
  std::ifstream in(path);
  const auto loaded = workload::load_trace(in, 16);
  std::filesystem::remove(path);

  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    ASSERT_EQ(loaded[i].id, original[i].id);
    ASSERT_EQ(loaded[i].op, original[i].op);
  }

  // Replaying the loaded trace gives identical scheduling statistics.
  const auto run_stats = [](const std::vector<request>& batch) {
    sim::block_device disk(sim::hdd_paper());
    sim::block_device memory(sim::dram_ddr4());
    const sim::cpu_model cpu(sim::cpu_aesni());
    util::pcg64 seed(90);
    horam_config config;
    config.block_count = 512;
    config.memory_blocks = 64;
    config.payload_bytes = 16;
    config.seal = false;
    controller ctrl(config, disk, memory, cpu, seed);
    ctrl.run(batch);
    return std::pair(ctrl.stats().cycles, ctrl.now());
  };
  EXPECT_EQ(run_stats(original).first, run_stats(loaded).first);
}

// -------------------------------------------------------- edge cases

TEST(EdgeCases, SmallestViableHoram) {
  sim::block_device disk(sim::hdd_paper());
  sim::block_device memory(sim::dram_ddr4());
  const sim::cpu_model cpu(sim::cpu_aesni());
  util::pcg64 rng(91);
  horam_config config;
  config.block_count = 32;
  config.memory_blocks = 8;  // period = 4 loads
  config.payload_bytes = 8;
  config.seal = true;
  controller ctrl(config, disk, memory, cpu, rng);
  for (block_id id = 0; id < 32; ++id) {
    ctrl.write(id, std::vector<std::uint8_t>(8, static_cast<std::uint8_t>(
                                                    id)));
  }
  for (block_id id = 0; id < 32; ++id) {
    EXPECT_EQ(ctrl.read(id)[0], static_cast<std::uint8_t>(id));
  }
  EXPECT_GT(ctrl.stats().periods, 2u);
}

TEST(EdgeCases, MemoryAsLargeAsDatasetIsRejected) {
  sim::block_device disk(sim::hdd_paper());
  sim::block_device memory(sim::dram_ddr4());
  const sim::cpu_model cpu(sim::cpu_aesni());
  util::pcg64 rng(92);
  horam_config config;
  config.block_count = 64;
  config.memory_blocks = 128;  // n/2 >= N: storage pointless
  config.payload_bytes = 8;
  EXPECT_THROW(controller(config, disk, memory, cpu, rng),
               contract_error);
}

TEST(EdgeCases, RequestOutsideUniverseIsRejected) {
  sim::block_device disk(sim::hdd_paper());
  sim::block_device memory(sim::dram_ddr4());
  const sim::cpu_model cpu(sim::cpu_aesni());
  util::pcg64 rng(93);
  horam_config config;
  config.block_count = 64;
  config.memory_blocks = 16;
  config.payload_bytes = 8;
  controller ctrl(config, disk, memory, cpu, rng);
  EXPECT_THROW(ctrl.read(64), contract_error);
}

TEST(EdgeCases, OversizedWriteIsRejected) {
  sim::block_device disk(sim::hdd_paper());
  sim::block_device memory(sim::dram_ddr4());
  const sim::cpu_model cpu(sim::cpu_aesni());
  util::pcg64 rng(94);
  horam_config config;
  config.block_count = 64;
  config.memory_blocks = 16;
  config.payload_bytes = 8;
  controller ctrl(config, disk, memory, cpu, rng);
  EXPECT_THROW(ctrl.write(1, std::vector<std::uint8_t>(9, 0)),
               contract_error);
}

TEST(EdgeCases, EmptyBatchIsANoOp) {
  sim::block_device disk(sim::hdd_paper());
  sim::block_device memory(sim::dram_ddr4());
  const sim::cpu_model cpu(sim::cpu_aesni());
  util::pcg64 rng(95);
  horam_config config;
  config.block_count = 64;
  config.memory_blocks = 16;
  config.payload_bytes = 8;
  controller ctrl(config, disk, memory, cpu, rng);
  std::vector<request> empty;
  ctrl.run(empty);
  EXPECT_EQ(ctrl.stats().cycles, 0u);
  EXPECT_EQ(ctrl.now(), 0);
}

TEST(EdgeCases, RepeatedBatchesAccumulateTime) {
  sim::block_device disk(sim::hdd_paper());
  sim::block_device memory(sim::dram_ddr4());
  const sim::cpu_model cpu(sim::cpu_aesni());
  util::pcg64 rng(96);
  horam_config config;
  config.block_count = 128;
  config.memory_blocks = 16;
  config.payload_bytes = 8;
  config.seal = false;
  controller ctrl(config, disk, memory, cpu, rng);
  std::vector<request> batch{request{op_kind::read, 5, 0, {}}};
  ctrl.run(batch);
  const sim::sim_time after_first = ctrl.now();
  ctrl.run(batch);
  EXPECT_GT(ctrl.now(), after_first);
}

}  // namespace
}  // namespace horam

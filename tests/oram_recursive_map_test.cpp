// Tests for the recursive position map extension and path_oram's
// one-access read-modify-write.
#include <gtest/gtest.h>

#include <map>

#include "oram/path/recursive_position_map.h"
#include "sim/profiles.h"
#include "util/rng.h"

namespace horam::oram {
namespace {

struct fixture {
  sim::block_device memory{sim::dram_ddr4()};
  sim::cpu_model cpu{sim::cpu_aesni()};
  util::pcg64 rng{311};
  access_trace trace;

  recursive_map_config config(std::uint64_t universe,
                              std::uint64_t epb = 16,
                              std::uint64_t threshold = 64) {
    recursive_map_config c;
    c.universe = universe;
    c.entries_per_block = epb;
    c.direct_threshold = threshold;
    c.seal = true;
    return c;
  }
};

// ----------------------------------------------------- rmw primitive

TEST(PathOramRmw, SingleAccessReadModifyWrite) {
  fixture fx;
  path_oram_config config;
  config.leaf_count = 16;
  config.bucket_size = 4;
  config.payload_bytes = 16;
  config.id_universe = 64;
  config.seal = true;
  path_oram oram(config, fx.memory, nullptr, fx.cpu, fx.rng, nullptr);

  oram.access(op_kind::write, 5, std::vector<std::uint8_t>(16, 1), {});
  const auto& stats_before = oram.stats();
  const std::uint64_t accesses_before = stats_before.real_accesses;

  std::uint8_t seen = 0;
  oram.access_rmw(5, [&](std::span<std::uint8_t> payload) {
    seen = payload[0];
    payload[0] = 9;
  });
  EXPECT_EQ(seen, 1);
  EXPECT_EQ(oram.stats().real_accesses, accesses_before + 1);

  std::vector<std::uint8_t> out(16);
  oram.access(op_kind::read, 5, {}, out);
  EXPECT_EQ(out[0], 9);
}

TEST(PathOramRmw, AbsentBlockMaterialisesZeroed) {
  fixture fx;
  path_oram_config config;
  config.leaf_count = 8;
  config.bucket_size = 4;
  config.payload_bytes = 8;
  config.id_universe = 32;
  config.seal = false;
  path_oram oram(config, fx.memory, nullptr, fx.cpu, fx.rng, nullptr);
  std::uint8_t seen = 0xff;
  oram.access_rmw(3, [&](std::span<std::uint8_t> payload) {
    seen = payload[0];
  });
  EXPECT_EQ(seen, 0);
  EXPECT_TRUE(oram.contains(3));
}

// ------------------------------------------------------ recursion

TEST(RecursiveMap, DegeneratesToDirectVectorBelowThreshold) {
  fixture fx;
  recursive_position_map map(fx.config(50, 16, 64), fx.memory, fx.cpu,
                             fx.rng, nullptr);
  EXPECT_EQ(map.level_count(), 0u);
  std::optional<leaf_id> out;
  const cost_split cost = map.lookup(7, out);
  EXPECT_FALSE(out.has_value());
  EXPECT_EQ(cost.total(), 0);
}

TEST(RecursiveMap, BuildsExpectedLevelCount) {
  fixture fx;
  // 65,536 entries / 16 per block = 4,096 -> 256 -> 16 (<= 64 stop).
  recursive_position_map map(fx.config(65536, 16, 64), fx.memory, fx.cpu,
                             fx.rng, nullptr);
  EXPECT_EQ(map.level_count(), 3u);
  EXPECT_LE(map.trusted_bytes(), 64u * 8u);
}

TEST(RecursiveMap, LookupPaysOneRoundTripPerLevel) {
  fixture fx;
  // 65,536 / 16 per block = 4,096 -> 256 -> 16 (<= 64 stop): 3 ORAM
  // levels. Each level's path access is one dependent exchange — the
  // deeper block address comes out of the shallower block's payload —
  // so a walk of k levels must count exactly k device round trips.
  recursive_position_map map(fx.config(65536, 16, 64), fx.memory, fx.cpu,
                             fx.rng, nullptr);
  ASSERT_EQ(map.level_count(), 3u);
  fx.memory.reset_stats();
  std::optional<leaf_id> out;
  map.lookup(7, out);
  EXPECT_EQ(fx.memory.stats().round_trips, map.level_count());
}

TEST(RecursiveMap, AssignLookupRemoveRoundTrip) {
  fixture fx;
  recursive_position_map map(fx.config(4096, 16, 32), fx.memory, fx.cpu,
                             fx.rng, nullptr);
  std::optional<leaf_id> out;
  map.lookup(100, out);
  EXPECT_FALSE(out.has_value());
  map.assign(100, 42);
  map.lookup(100, out);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, 42u);
  map.assign(100, 7);
  map.lookup(100, out);
  EXPECT_EQ(*out, 7u);
}

TEST(RecursiveMap, PackedNeighboursDoNotInterfere) {
  fixture fx;
  recursive_position_map map(fx.config(4096, 16, 32), fx.memory, fx.cpu,
                             fx.rng, nullptr);
  // Ids 32..47 share one packed level-0 block.
  for (block_id id = 32; id < 48; ++id) {
    map.assign(id, id * 10);
  }
  for (block_id id = 32; id < 48; ++id) {
    std::optional<leaf_id> out;
    map.lookup(id, out);
    ASSERT_TRUE(out.has_value()) << "id " << id;
    EXPECT_EQ(*out, id * 10) << "id " << id;
  }
}

TEST(RecursiveMap, DifferentialAgainstStdMap) {
  fixture fx;
  recursive_position_map map(fx.config(2048, 8, 16), fx.memory, fx.cpu,
                             fx.rng, nullptr);
  std::map<block_id, leaf_id> shadow;
  util::pcg64 driver(312);
  for (int step = 0; step < 500; ++step) {
    const block_id id = util::uniform_below(driver, 2048);
    const int action = static_cast<int>(util::uniform_below(driver, 2));
    if (action == 0) {
      const leaf_id leaf = util::uniform_below(driver, 1 << 20);
      map.assign(id, leaf);
      shadow[id] = leaf;
    } else {
      std::optional<leaf_id> out;
      map.lookup(id, out);
      if (shadow.contains(id)) {
        ASSERT_TRUE(out.has_value()) << "step " << step;
        ASSERT_EQ(*out, shadow[id]) << "step " << step;
      } else {
        ASSERT_FALSE(out.has_value()) << "step " << step;
      }
    }
  }
}

TEST(RecursiveMap, CostGrowsWithLevels) {
  fixture fx;
  recursive_position_map shallow(fx.config(2048, 16, 2048), fx.memory,
                                 fx.cpu, fx.rng, nullptr);
  recursive_position_map deep(fx.config(65536, 16, 64), fx.memory,
                              fx.cpu, fx.rng, nullptr);
  std::optional<leaf_id> out;
  const cost_split c_shallow = shallow.lookup(1, out);
  const cost_split c_deep = deep.lookup(1, out);
  EXPECT_EQ(c_shallow.total(), 0);  // direct vector
  EXPECT_GT(c_deep.total(), 0);
  EXPECT_EQ(deep.level_count(), 3u);
}

TEST(RecursiveMap, TrustedMemoryShrinksGeometrically) {
  fixture fx;
  // Flat map for 2^16 blocks: 512 KB. Recursion: <= 512 B residue.
  recursive_position_map map(fx.config(65536, 16, 64), fx.memory, fx.cpu,
                             fx.rng, nullptr);
  EXPECT_LE(map.trusted_bytes(), 512u);
  EXPECT_GT(map.oram_bytes(), 0u);
}

class RecursiveMapSweep
    : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(EntriesPerBlock, RecursiveMapSweep,
                         ::testing::Values(2, 4, 8, 32, 128));

TEST_P(RecursiveMapSweep, RoundTripAcrossPackings) {
  const std::uint64_t epb = GetParam();
  fixture fx;
  recursive_position_map map(fx.config(1024, epb, 8), fx.memory, fx.cpu,
                             fx.rng, nullptr);
  for (block_id id = 0; id < 64; ++id) {
    map.assign(id, id + 1000);
  }
  for (block_id id = 0; id < 64; ++id) {
    std::optional<leaf_id> out;
    map.lookup(id, out);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(*out, id + 1000);
  }
}

}  // namespace
}  // namespace horam::oram

// Tests for the recursive position map extension and path_oram's
// one-access read-modify-write request.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <map>

#include "backend_test_access.h"
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

// ------------------------------------------ read-modify-write request

/// One access_batch() request whose `updater` edits the payload in place.
cost_split access_rmw(
    path_oram& oram, block_id id,
    const std::function<void(std::span<std::uint8_t>)>& updater) {
  path_oram::request req;
  req.id = id;
  req.updater = &updater;
  return oram.access_batch({&req, 1});
}

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
  access_rmw(oram, 5, [&](std::span<std::uint8_t> payload) {
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
  access_rmw(oram, 3, [&](std::span<std::uint8_t> payload) {
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

TEST(RecursiveMap, DeeperEntriesNameShallowerLeaves) {
  // Real recursion: no level tree keeps a map; the residue names the
  // leaves of the deepest level's blocks and every deeper entry the
  // leaf of the shallower block it covers, after walks and a pass as
  // after the build.
  fixture fx;
  // 4,096 entries / 8 per block = 512 -> 64 -> 8 (<= 8 stop).
  recursive_position_map map(fx.config(4096, 8, 8), fx.memory, fx.cpu,
                             fx.rng, nullptr);
  ASSERT_EQ(map.level_count(), 3u);
  const auto expect_named = [&] {
    const auto levels = recursive_position_map_test_access::levels(map);
    std::vector<leaf_id> named =
        recursive_position_map_test_access::residue(map);
    for (std::size_t level = levels.size(); level-- > 0;) {
      EXPECT_EQ(levels[level]->position_map_bytes(), 0u);
      EXPECT_EQ(named.size(), levels[level]->config().id_universe);
      std::vector<leaf_id> shallower(
          level == 0 ? 0 : levels[level - 1]->config().id_universe);
      std::uint64_t blocks = 0;
      levels[level]->for_each_resident(
          [&](block_id block, leaf_id leaf,
              std::span<const std::uint8_t> payload) {
            ++blocks;
            EXPECT_EQ(named[block], leaf)
                << "level " << level << " block " << block;
            for (std::uint64_t k = 0; k < 8; ++k) {
              if (block * 8 + k < shallower.size()) {
                std::memcpy(&shallower[block * 8 + k],
                            payload.data() + k * sizeof(leaf_id),
                            sizeof(leaf_id));
              }
            }
          });
      EXPECT_EQ(blocks, named.size()) << "level " << level;
      named = std::move(shallower);
    }
    EXPECT_NO_THROW(map.check_consistency());
  };
  expect_named();
  for (block_id id = 0; id < 4096; id += 97) {
    map.assign(id, id + 1);
    std::optional<leaf_id> out;
    map.lookup(id / 2, out);
  }
  expect_named();
  map.assign_all(std::vector<recursive_position_map::entry>{{3, 30}});
  expect_named();
}

TEST(RecursiveMap, AlteredDeeperEntryFailsTheAudit) {
  fixture fx;
  // 4,096 entries / 8 per block = 512 -> 64 -> 8 (<= 8 stop).
  recursive_position_map map(fx.config(4096, 8, 8), fx.memory, fx.cpu,
                             fx.rng, nullptr);
  ASSERT_EQ(map.level_count(), 3u);
  map.assign(100, 7);
  ASSERT_NO_THROW(map.check_consistency());
  // Level-1 block 2's entry 5 names the leaf of level-0 block 21.
  const auto levels = recursive_position_map_test_access::levels(map);
  std::optional<leaf_id> leaf;
  levels[0]->for_each_resident(
      [&](block_id block, leaf_id at, std::span<const std::uint8_t>) {
        if (block == 21) {
          leaf = at;
        }
      });
  ASSERT_TRUE(leaf.has_value());
  recursive_position_map_test_access::set_entry(
      map, 1, 2, 5, *leaf ^ 1);
  EXPECT_THROW(map.check_consistency(), contract_error);
}

// ------------------------------------------------------- map pass

/// Every assigned (id, leaf) entry of `map`.
std::map<block_id, leaf_id> assigned(const recursive_position_map& map) {
  std::map<block_id, leaf_id> out;
  map.for_each_assigned([&](block_id id, leaf_id leaf) {
    EXPECT_TRUE(out.emplace(id, leaf).second) << "id " << id << " twice";
  });
  return out;
}

/// Applies `entries` to one map with per-id assign() and to a twin
/// (same config, same initial leaves) with one assign_all(), and
/// expects the same assigned entries in both.
void expect_pass_matches_assigns(
    const recursive_map_config& config,
    const std::vector<recursive_position_map::entry>& entries) {
  fixture walks;
  fixture pass;
  std::vector<leaf_id> initial(config.universe / 2);
  for (block_id id = 0; id < initial.size(); ++id) {
    initial[id] = id * 3 + 1;
  }
  recursive_position_map by_id(config, walks.memory, walks.cpu, walks.rng,
                               nullptr, initial);
  recursive_position_map batched(config, pass.memory, pass.cpu, pass.rng,
                                 nullptr, initial);
  for (const recursive_position_map::entry& e : entries) {
    by_id.assign(e.id, e.leaf);
  }
  batched.assign_all(entries);
  EXPECT_EQ(assigned(batched), assigned(by_id));
  for (const recursive_position_map::entry& e : entries) {
    std::optional<leaf_id> out;
    batched.lookup(e.id, out);
    std::optional<leaf_id> expected;
    by_id.lookup(e.id, expected);
    EXPECT_EQ(out, expected) << "id " << e.id;
  }
}

TEST(RecursiveMapPass, MatchesPerIdAssignsUnderForcedRecursion) {
  fixture fx;
  // 4,096 entries / 8 per block = 512 -> 64 -> 8 (<= 8 stop): three
  // levels, the first one 8 batches of kPassBatch blocks.
  const recursive_map_config config = fx.config(4096, 8, 8);
  recursive_position_map probe(config, fx.memory, fx.cpu, fx.rng, nullptr);
  ASSERT_EQ(probe.level_count(), 3u);
  util::pcg64 driver(313);
  std::vector<recursive_position_map::entry> entries;
  for (int i = 0; i < 300; ++i) {
    entries.push_back({util::uniform_below(driver, 4096),
                       util::uniform_below(driver, 1 << 20)});
  }
  expect_pass_matches_assigns(config, entries);
}

TEST(RecursiveMapPass, LaterDuplicateWins) {
  fixture fx;
  expect_pass_matches_assigns(
      fx.config(2048, 8, 16),
      {{5, 50}, {900, 1}, {5, 51}, {900, 2}, {5, 52}, {6, 60}});
}

TEST(RecursiveMapPass, IdsSharingOneMapBlock) {
  fixture fx;
  // Ids 32..47 share one packed level-0 block.
  std::vector<recursive_position_map::entry> entries;
  for (block_id id = 47; id >= 32; --id) {
    entries.push_back({id, id * 10});
  }
  expect_pass_matches_assigns(fx.config(4096, 16, 32), entries);
}

TEST(RecursiveMapPass, DirectResidueTakesEntriesWithoutDeviceWork) {
  fixture fx;
  recursive_position_map map(fx.config(50, 16, 64), fx.memory, fx.cpu,
                             fx.rng, nullptr);
  ASSERT_EQ(map.level_count(), 0u);
  EXPECT_EQ(map.assign_all(std::vector<recursive_position_map::entry>{
                               {7, 70}, {7, 71}, {49, 1}})
                .total(),
            0);
  EXPECT_EQ(assigned(map), (std::map<block_id, leaf_id>{{7, 71}, {49, 1}}));
  expect_pass_matches_assigns(fx.config(50, 16, 64), {{3, 9}, {3, 8}});
}

TEST(RecursiveMapPass, ShapeIsTheMapGeometryWhateverTheEntryCount) {
  // The pass reads and writes back every map block of every level once,
  // in batches of kPassBatch blocks: its round trips and its path
  // accesses per level are the same for no entries as for many, and
  // no entry changes when there are none.
  const std::uint64_t batch = recursive_position_map::kPassBatch;
  std::vector<std::uint64_t> trips;
  std::vector<std::vector<std::uint64_t>> accesses;
  for (const std::uint64_t n : {0u, 1u, 300u}) {
    SCOPED_TRACE("n = " + std::to_string(n));
    fixture fx;
    recursive_position_map map(fx.config(4096, 8, 8), fx.memory, fx.cpu,
                               fx.rng, nullptr);
    std::vector<recursive_position_map::entry> entries;
    for (std::uint64_t i = 0; i < n; ++i) {
      entries.push_back({(i * 37) % 4096, i});
    }
    const std::map<block_id, leaf_id> before = assigned(map);
    const auto levels = recursive_position_map_test_access::levels(map);
    std::vector<std::uint64_t> level_accesses_before;
    for (const path_oram* level : levels) {
      level_accesses_before.push_back(level->stats().real_accesses);
    }
    fx.memory.reset_stats();
    EXPECT_GT(map.assign_all(entries).total(), 0);
    std::uint64_t expected_trips = 0;
    std::vector<std::uint64_t> level_accesses;
    for (std::size_t l = 0; l < levels.size(); ++l) {
      const std::uint64_t blocks = levels[l]->config().id_universe;
      expected_trips += (blocks + batch - 1) / batch;
      level_accesses.push_back(levels[l]->stats().real_accesses -
                               level_accesses_before[l]);
      EXPECT_EQ(level_accesses.back(), blocks) << "level " << l;
    }
    EXPECT_EQ(fx.memory.stats().round_trips, expected_trips);
    trips.push_back(fx.memory.stats().round_trips);
    accesses.push_back(level_accesses);
    if (n == 0) {
      EXPECT_EQ(assigned(map), before);
    }
  }
  EXPECT_EQ(trips[0], trips[2]);
  EXPECT_EQ(accesses[0], accesses[2]);
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

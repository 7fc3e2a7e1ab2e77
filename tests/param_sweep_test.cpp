// Parameterised property sweeps across the dimensions the rest of the
// suite holds fixed: Path ORAM bucket size Z and payload size, the
// geometry of the flat partitioned backend and of the hierarchical
// backend's levels, device profile properties, and end-to-end H-ORAM
// bucket-size variation.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <ostream>
#include <set>
#include <string>
#include <tuple>

#include "core/controller.h"
#include "horam.h"
#include "oram/hier/hier_backend.h"
#include "oram/path/path_oram.h"
#include "sim/profiles.h"
#include "util/rng.h"

namespace horam {
namespace {

using oram::block_id;
using oram::op_kind;

// ------------------------------------------- path ORAM: Z and payload

class PathOramZSweep
    : public ::testing::TestWithParam<std::tuple<std::uint32_t,
                                                 std::size_t>> {};

INSTANTIATE_TEST_SUITE_P(
    Geometries, PathOramZSweep,
    ::testing::Combine(::testing::Values(2u, 3u, 4u, 6u, 8u),
                       ::testing::Values(std::size_t{8},
                                         std::size_t{64},
                                         std::size_t{256})));

TEST_P(PathOramZSweep, DifferentialCorrectnessAndStashBound) {
  const auto [z, payload_bytes] = GetParam();
  sim::block_device memory(sim::dram_ddr4());
  const sim::cpu_model cpu(sim::cpu_aesni());
  util::pcg64 rng(1000 + z);

  oram::path_oram_config config;
  config.leaf_count = 64;
  config.bucket_size = z;
  config.payload_bytes = payload_bytes;
  config.id_universe = 256;
  config.seal = (z % 2) == 0;  // exercise both codec modes
  oram::path_oram oram(config, memory, nullptr, cpu, rng, nullptr);

  std::map<block_id, std::uint8_t> shadow;
  util::pcg64 driver(2000 + z);
  // Keep the working set well under capacity for small Z.
  const std::uint64_t universe = std::min<std::uint64_t>(
      256, oram.capacity_blocks() / 2);
  for (int step = 0; step < 1200; ++step) {
    const block_id id = util::uniform_below(driver, universe);
    if (util::bernoulli(driver, 0.5)) {
      const auto tag = static_cast<std::uint8_t>(step);
      oram.access(op_kind::write, id,
                  std::vector<std::uint8_t>(payload_bytes, tag), {});
      shadow[id] = tag;
    } else if (shadow.contains(id)) {
      std::vector<std::uint8_t> out(payload_bytes);
      oram.access(op_kind::read, id, {}, out);
      ASSERT_EQ(out[0], shadow[id])
          << "Z=" << z << " payload=" << payload_bytes << " step "
          << step;
    }
  }
  // Stash bound degrades as Z shrinks; Z=2 needs the loosest bound.
  const std::size_t bound = z >= 4 ? 64 : 160;
  EXPECT_LT(oram.stash_ref().peak_size(), bound) << "Z=" << z;
}

// ------------------------------- flat backend geometry sweep

/// `steps` random reads and writes of 16-byte blocks through `ctrl`,
/// checked against a shadow map; reads of never-written blocks must
/// return zeros.
void expect_shadow_differential(controller& ctrl, std::uint64_t blocks,
                                std::uint64_t seed, int steps) {
  std::map<block_id, std::uint8_t> shadow;
  util::pcg64 driver(seed);
  for (int step = 0; step < steps; ++step) {
    const block_id id = util::uniform_below(driver, blocks);
    if (util::bernoulli(driver, 0.5)) {
      const auto tag = static_cast<std::uint8_t>(step | 1);
      ctrl.write(id, std::vector<std::uint8_t>(16, tag));
      shadow[id] = tag;
    } else {
      const std::uint8_t expected =
          shadow.contains(id) ? shadow[id] : std::uint8_t{0};
      ASSERT_EQ(ctrl.read(id)[0], expected) << "step " << step;
    }
  }
}

// The flat partitioned backend keeps every block in one slot array of
// ~sqrt(N) partitions and derives that layout from (N, n), so sweep
// block counts that are and are not perfect squares against caches
// whose access period (n/2 loads) is below, near and above sqrt(N).
class FlatBackendGeometry
    : public ::testing::TestWithParam<
          std::tuple<backend_kind, std::uint64_t, std::uint64_t>> {
 protected:
  horam_config config() const {
    const auto [kind, n, memory] = GetParam();
    horam_config c;
    c.block_count = n;
    c.memory_blocks = memory;
    c.payload_bytes = 16;
    c.seal = false;
    return c;
  }

  std::uint64_t salt() const {
    const auto [kind, n, memory] = GetParam();
    return 100 * n + memory;
  }

  void expect_differential(controller& ctrl) const {
    expect_shadow_differential(ctrl, config().block_count, 8000 + salt(),
                               400);
  }
};

INSTANTIATE_TEST_SUITE_P(
    Geometries, FlatBackendGeometry,
    ::testing::Combine(::testing::Values(backend_kind::partitioned),
                       ::testing::Values(24u, 64u, 100u),
                       ::testing::Values(8u, 16u, 32u)),
    [](const auto& info) {
      return std::string(backend_name(std::get<0>(info.param))) + "_n" +
             std::to_string(std::get<1>(info.param)) + "_m" +
             std::to_string(std::get<2>(info.param));
    });

// The controller's life cycle driven by hand: each period issues
// exactly n/2 loads, every load touches a slot not read earlier in the
// period, and payloads written into the hot set survive the shuffle.
TEST_P(FlatBackendGeometry, HandDrivenPeriodsRoundTripData) {
  const horam_config c = config();
  sim::block_device disk(sim::hdd_paper());
  const sim::cpu_model cpu(sim::cpu_aesni());
  util::pcg64 rng(9000 + salt());
  oram::access_trace trace;
  const std::unique_ptr<oram_backend> backend = make_backend(
      std::get<0>(GetParam()), c, disk, cpu, rng, &trace, nullptr);

  std::map<block_id, std::vector<std::uint8_t>> cache;
  std::map<block_id, std::uint8_t> shadow;
  util::pcg64 driver(10000 + salt());
  for (std::uint64_t period = 0; period < 6; ++period) {
    trace.clear();
    for (std::uint64_t cycle = 0; cycle < c.period_loads(); ++cycle) {
      const block_id target = util::uniform_below(driver, c.block_count);
      const oram_backend::load_result load =
          util::bernoulli(driver, 0.6) && backend->in_storage(target)
              ? backend->load_block(target)
              : backend->dummy_load();
      if (load.id == oram::dummy_block_id) {
        continue;
      }
      const std::uint8_t expected =
          shadow.contains(load.id) ? shadow[load.id] : std::uint8_t{0};
      ASSERT_EQ(load.payload.at(0), expected) << "block " << load.id;
      const auto tag = static_cast<std::uint8_t>(17 * period + cycle + 1);
      cache[load.id] = std::vector<std::uint8_t>(16, tag);
      shadow[load.id] = tag;
    }
    std::set<std::uint64_t> slots;
    for (const oram::trace_event& event : trace.events()) {
      if (event.kind == oram::event_kind::storage_read_slot) {
        EXPECT_TRUE(slots.insert(event.a).second)
            << "slot " << event.a << " read twice in period " << period;
      }
    }
    EXPECT_EQ(slots.size(), c.period_loads());

    std::vector<oram::evicted_block> evicted;
    for (auto& [id, payload] : cache) {
      evicted.push_back(oram::evicted_block{id, std::move(payload)});
    }
    cache.clear();
    std::vector<oram::evicted_block> overflow;
    backend->shuffle_period(std::move(evicted), period, overflow);
    for (oram::evicted_block& block : overflow) {
      cache[block.id] = std::move(block.payload);  // stays cached
    }
    ASSERT_NO_THROW(backend->check_consistency()) << "period " << period;
  }
  EXPECT_EQ(backend->stats().exhausted_dummy_loads, 0u);
}

// Fronted by the controller: reads see the last write, every cycle is
// exactly one storage slot read, and the dummy supply sized to the
// access period never runs dry.
TEST_P(FlatBackendGeometry, ControllerDifferentialCorrectness) {
  const horam_config c = config();
  sim::block_device disk(sim::hdd_paper());
  sim::block_device memory(sim::dram_ddr4());
  const sim::cpu_model cpu(sim::cpu_aesni());
  util::pcg64 rng(11000 + salt());
  oram::access_trace trace;
  controller ctrl(c,
                  make_backend(std::get<0>(GetParam()), c, disk, cpu, rng,
                               &trace, nullptr),
                  memory, cpu, rng, &trace);
  expect_differential(ctrl);

  const controller_stats& stats = ctrl.stats();
  EXPECT_GT(stats.periods, 0u);
  EXPECT_EQ(stats.hits + stats.misses, stats.requests);
  EXPECT_EQ(stats.cycles, stats.real_loads + stats.dummy_loads);
  std::uint64_t slot_reads = 0;
  for (const oram::trace_event& event : trace.events()) {
    slot_reads += event.kind == oram::event_kind::storage_read_slot ? 1 : 0;
  }
  EXPECT_EQ(slot_reads, stats.cycles);
  EXPECT_EQ(ctrl.backend().stats().exhausted_dummy_loads, 0u);
  EXPECT_NO_THROW(ctrl.backend().check_consistency());
}

// The deamortized path: shuffles stepped in one-unit slices between
// rounds must stay coherent with the foreground requests they overlap.
TEST_P(FlatBackendGeometry, IncrementalShuffleStaysCoherent) {
  horam_config c = config();
  c.shuffle = shuffle_policy::incremental;
  c.shuffle_slice_budget = 1;
  sim::block_device disk(sim::hdd_paper());
  sim::block_device memory(sim::dram_ddr4());
  const sim::cpu_model cpu(sim::cpu_aesni());
  util::pcg64 rng(12000 + salt());
  controller ctrl(c,
                  make_backend(std::get<0>(GetParam()), c, disk, cpu, rng,
                               nullptr, nullptr),
                  memory, cpu, rng);
  expect_differential(ctrl);

  EXPECT_GT(ctrl.stats().periods, 0u);
  EXPECT_GE(ctrl.stats().shuffle_slices, ctrl.stats().periods);
  EXPECT_NO_THROW(ctrl.backend().check_consistency());
}

// ------------------------------------ hierarchical backend geometry

// The hierarchical backend derives its levels from (N, n, g): level 1
// holds max(16, n) reals, each deeper level g times more, down to the
// first level that holds the dataset. Sweep block counts that need one,
// two or more levels against caches below and above the 16-block floor
// and two fan-outs, so merges into every level run within a few dozen
// periods.
class HierGeometry
    : public ::testing::TestWithParam<
          std::tuple<std::uint64_t, std::uint64_t, std::uint32_t>> {
 protected:
  horam_config config() const {
    const auto [n, memory, fanout] = GetParam();
    horam_config c;
    c.block_count = n;
    c.memory_blocks = memory;
    c.hier_fanout = fanout;
    c.payload_bytes = 16;
    c.seal = false;
    return c;
  }

  std::uint64_t salt() const {
    const auto [n, memory, fanout] = GetParam();
    return 1000 * n + 10 * memory + fanout;
  }

  void expect_differential(controller& ctrl) const {
    expect_shadow_differential(ctrl, config().block_count, 13000 + salt(),
                               600);
  }
};

INSTANTIATE_TEST_SUITE_P(
    Geometries, HierGeometry,
    ::testing::Combine(::testing::Values(24u, 64u, 100u),
                       ::testing::Values(8u, 16u, 32u),
                       ::testing::Values(2u, 4u)),
    [](const auto& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "_m" +
             std::to_string(std::get<1>(info.param)) + "_g" +
             std::to_string(std::get<2>(info.param));
    });

TEST_P(HierGeometry, LevelsGrowByTheFanOutToCoverTheDataset) {
  const horam_config c = config();
  sim::block_device disk(sim::hdd_paper());
  const sim::cpu_model cpu(sim::cpu_aesni());
  util::pcg64 rng(14000 + salt());
  const oram::hier_backend backend(c, disk, cpu, rng, nullptr, nullptr);

  const std::uint32_t levels = backend.level_count();
  ASSERT_GE(levels, 1u);
  EXPECT_EQ(backend.level_real_capacity(1),
            std::max<std::uint64_t>(16, c.memory_blocks));
  for (std::uint32_t level = 2; level <= levels; ++level) {
    EXPECT_EQ(backend.level_real_capacity(level),
              c.hier_fanout * backend.level_real_capacity(level - 1))
        << "level " << level;
  }
  EXPECT_GE(backend.level_real_capacity(levels), c.block_count);
  if (levels > 1) {
    EXPECT_LT(backend.level_real_capacity(levels - 1), c.block_count);
  }
  std::uint64_t base = 0;
  for (std::uint32_t level = 1; level <= levels; ++level) {
    EXPECT_EQ(backend.level_base(level), base) << "level " << level;
    EXPECT_GE(backend.level_slot_count(level),
              backend.level_real_capacity(level) + 2 * c.period_loads())
        << "level " << level << " dummy pool below two periods";
    base += backend.level_slot_count(level);
  }
  // Everything starts at the bottom level, the only one holding an
  // epoch.
  EXPECT_EQ(backend.active_levels(), 1u);
  EXPECT_EQ(backend.level_live(levels), c.block_count);
  EXPECT_NO_THROW(backend.check_consistency());
}

// The controller's life cycle driven by hand: every load probes each
// active level once, no slot repeats within a period, and payloads
// written into the hot set survive the merges.
TEST_P(HierGeometry, HandDrivenPeriodsRoundTripData) {
  const horam_config c = config();
  sim::block_device disk(sim::hdd_paper());
  const sim::cpu_model cpu(sim::cpu_aesni());
  util::pcg64 rng(15000 + salt());
  oram::access_trace trace;
  oram::hier_backend backend(c, disk, cpu, rng, &trace, nullptr);

  std::map<block_id, std::vector<std::uint8_t>> cache;
  std::map<block_id, std::uint8_t> shadow;
  std::uint32_t deepest_active = 0;
  util::pcg64 driver(16000 + salt());
  for (std::uint64_t period = 0; period < 24; ++period) {
    std::set<std::uint64_t> slots;
    for (std::uint64_t cycle = 0; cycle < c.period_loads(); ++cycle) {
      const std::uint64_t probes = backend.active_levels();
      deepest_active = std::max<std::uint32_t>(
          deepest_active, static_cast<std::uint32_t>(probes));
      trace.clear();
      const block_id target = util::uniform_below(driver, c.block_count);
      const oram_backend::load_result load =
          util::bernoulli(driver, 0.6) && backend.in_storage(target)
              ? backend.load_block(target)
              : backend.dummy_load();
      std::uint64_t reads = 0;
      for (const oram::trace_event& event : trace.events()) {
        if (event.kind == oram::event_kind::storage_read_slot) {
          ++reads;
          EXPECT_TRUE(slots.insert(event.a).second)
              << "slot " << event.a << " read twice in period " << period;
        }
      }
      EXPECT_EQ(reads, probes) << "period " << period << " cycle " << cycle;
      if (load.id == oram::dummy_block_id) {
        continue;
      }
      const std::uint8_t expected =
          shadow.contains(load.id) ? shadow[load.id] : std::uint8_t{0};
      ASSERT_EQ(load.payload.at(0), expected) << "block " << load.id;
      const auto tag = static_cast<std::uint8_t>(17 * period + cycle + 1);
      cache[load.id] = std::vector<std::uint8_t>(16, tag);
      shadow[load.id] = tag;
    }

    std::vector<oram::evicted_block> evicted;
    for (auto& [id, payload] : cache) {
      evicted.push_back(oram::evicted_block{id, std::move(payload)});
    }
    cache.clear();
    std::vector<oram::evicted_block> overflow;
    backend.shuffle_period(std::move(evicted), period, overflow);
    for (oram::evicted_block& block : overflow) {
      cache[block.id] = std::move(block.payload);  // stays cached
    }
    ASSERT_NO_THROW(backend.check_consistency()) << "period " << period;
  }
  // 24 periods reach a merge into every level above the bottom one.
  EXPECT_EQ(deepest_active, backend.level_count());
  EXPECT_EQ(backend.stats().exhausted_dummy_loads, 0u);
}

// Fronted by the controller: reads see the last write and the dummy
// pools sized to each level's epoch never run dry.
TEST_P(HierGeometry, ControllerDifferentialCorrectness) {
  const horam_config c = config();
  sim::block_device disk(sim::hdd_paper());
  sim::block_device memory(sim::dram_ddr4());
  const sim::cpu_model cpu(sim::cpu_aesni());
  util::pcg64 rng(17000 + salt());
  controller ctrl(c,
                  make_backend(backend_kind::hier, c, disk, cpu, rng,
                               nullptr, nullptr),
                  memory, cpu, rng);
  expect_differential(ctrl);

  const controller_stats& stats = ctrl.stats();
  EXPECT_GT(stats.periods, 0u);
  EXPECT_EQ(stats.hits + stats.misses, stats.requests);
  EXPECT_EQ(stats.cycles, stats.real_loads + stats.dummy_loads);
  EXPECT_EQ(ctrl.backend().stats().exhausted_dummy_loads, 0u);
  EXPECT_NO_THROW(ctrl.backend().check_consistency());
}

// The deamortized path: merges stepped in one-unit slices between
// rounds must stay coherent with the foreground requests they overlap.
TEST_P(HierGeometry, IncrementalShuffleStaysCoherent) {
  horam_config c = config();
  c.shuffle = shuffle_policy::incremental;
  c.shuffle_slice_budget = 1;
  sim::block_device disk(sim::hdd_paper());
  sim::block_device memory(sim::dram_ddr4());
  const sim::cpu_model cpu(sim::cpu_aesni());
  util::pcg64 rng(18000 + salt());
  controller ctrl(c,
                  make_backend(backend_kind::hier, c, disk, cpu, rng,
                               nullptr, nullptr),
                  memory, cpu, rng);
  expect_differential(ctrl);

  EXPECT_GT(ctrl.stats().periods, 0u);
  EXPECT_GE(ctrl.stats().shuffle_slices, ctrl.stats().periods);
  EXPECT_NO_THROW(ctrl.backend().check_consistency());
}

// ------------------------------------------------ device properties

}  // namespace

namespace sim {

/// Prints a profile by its name: gtest's default printer would dump the
/// struct's bytes, a heap pointer included, into the test IDs.
void PrintTo(const device_profile& profile, std::ostream* os) {
  *os << profile.name;
}

}  // namespace sim

namespace {

class DeviceProfiles
    : public ::testing::TestWithParam<sim::device_profile> {};

INSTANTIATE_TEST_SUITE_P(All, DeviceProfiles,
                         ::testing::Values(sim::hdd_paper(),
                                           sim::hdd_7200_raw(),
                                           sim::ssd_sata(), sim::nvme(),
                                           sim::net_remote(),
                                           sim::dram_ddr4()),
                         [](const auto& info) {
                           std::string name = info.param.name;
                           for (char& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

TEST_P(DeviceProfiles, SequentialNeverSlowerThanRandom) {
  sim::block_device random_device(GetParam());
  sim::block_device seq_device(GetParam());
  sim::sim_time random_total = 0;
  sim::sim_time seq_total = 0;
  for (int i = 0; i < 64; ++i) {
    random_total += random_device.read(
        static_cast<std::uint64_t>(i) * 1000003 * 4096, 4096);
    seq_total +=
        seq_device.read(static_cast<std::uint64_t>(i) * 4096, 4096);
  }
  EXPECT_LE(seq_total, random_total);
}

TEST_P(DeviceProfiles, CostScalesWithSize) {
  sim::block_device a(GetParam());
  sim::block_device b(GetParam());
  EXPECT_LT(a.read(0, 4096), b.read(0, 1 << 20));
}

// --------------------------------------- H-ORAM bucket-size variation

class HoramZSweep : public ::testing::TestWithParam<std::uint32_t> {};

INSTANTIATE_TEST_SUITE_P(BucketSizes, HoramZSweep,
                         ::testing::Values(2u, 4u, 8u));

TEST_P(HoramZSweep, EndToEndCorrectness) {
  const std::uint32_t z = GetParam();
  sim::block_device disk(sim::hdd_paper());
  sim::block_device memory(sim::dram_ddr4());
  const sim::cpu_model cpu(sim::cpu_aesni());
  util::pcg64 rng(6000 + z);

  horam_config config;
  config.block_count = 256;
  config.memory_blocks = 64;
  config.bucket_size = z;
  config.payload_bytes = 16;
  config.seal = false;
  controller ctrl(config, disk, memory, cpu, rng);

  std::map<block_id, std::uint8_t> shadow;
  util::pcg64 driver(7000 + z);
  for (int step = 0; step < 800; ++step) {
    const block_id id = util::uniform_below(driver, 256);
    if (util::bernoulli(driver, 0.4)) {
      const auto tag = static_cast<std::uint8_t>(step);
      ctrl.write(id, std::vector<std::uint8_t>(16, tag));
      shadow[id] = tag;
    } else if (shadow.contains(id)) {
      ASSERT_EQ(ctrl.read(id)[0], shadow[id]) << "Z=" << z;
    }
  }
  EXPECT_GT(ctrl.stats().periods, 0u);
}

}  // namespace
}  // namespace horam

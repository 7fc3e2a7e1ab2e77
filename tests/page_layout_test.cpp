// Tests of the page-packed bucket layout (storage/page_layout) and its
// integration into the Path ORAM storage lane: pure addressing math
// (group geometry, slot-permutation bijectivity, non-power-of-two
// bucket sizes, truncated last groups), the valid_bit_tree, the
// storage_layout name registry and builder diagnostics, flat/page
// behavioural equivalence, the default == layout("flat") bit-for-bit
// grid across backends x shards x shuffle policies, the device-op
// reduction the layout exists for, valid-bit read skipping on fresh
// trees, and the obliviousness audits: sweep positions and valid-bit
// occupancy are workload-independent.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "analysis/obliviousness.h"
#include "horam.h"
#include "oram/common/tree_backend.h"
#include "oram/path/path_oram.h"
#include "sim/profiles.h"
#include "test_support.h"
#include "util/rng.h"

namespace horam {
namespace {

using oram::block_id;
using oram::op_kind;

constexpr std::uint64_t kBlocks = 256;
constexpr std::uint64_t kMemoryBlocks = 64;
constexpr std::size_t kPayload = 16;

// ------------------------------------------------------ addressing math

storage::page_layout_config geometry(std::uint32_t total_levels,
                                     std::uint32_t first_level,
                                     std::uint32_t bucket_size,
                                     std::uint64_t block_bytes,
                                     std::uint64_t page_bytes) {
  storage::page_layout_config config;
  config.total_levels = total_levels;
  config.first_level = first_level;
  config.bucket_size = bucket_size;
  config.logical_block_bytes = block_bytes;
  config.page_bytes = page_bytes;
  return config;
}

TEST(PageLayoutMath, GroupGeometry) {
  // 16 KB pages of 4 KB buckets: 4 buckets/page, so h = floor(log2 5)
  // = 2. Seven levels split into groups of heights 2, 2, 2, 1.
  const storage::page_layout layout(geometry(7, 0, 4, 1024, 16384));
  EXPECT_EQ(layout.group_levels(), 2u);
  ASSERT_EQ(layout.group_count(), 4u);
  const std::uint32_t heights[] = {2, 2, 2, 1};
  const std::uint32_t tops[] = {0, 2, 4, 6};
  const std::uint64_t segments[] = {1, 4, 16, 64};
  const std::uint64_t buckets[] = {3, 3, 3, 1};
  for (std::uint32_t g = 0; g < 4; ++g) {
    EXPECT_EQ(layout.group_height(g), heights[g]) << "group " << g;
    EXPECT_EQ(layout.group_top_level(g), tops[g]) << "group " << g;
    EXPECT_EQ(layout.segment_count(g), segments[g]) << "group " << g;
    EXPECT_EQ(layout.segment_buckets(g), buckets[g]) << "group " << g;
    EXPECT_EQ(layout.segment_records(g), buckets[g] * 4) << "group " << g;
  }
  // Segments partition the buckets: the footprint matches flat exactly.
  EXPECT_EQ(layout.total_slots(), 127u * 4u);
}

TEST(PageLayoutMath, NonPowerOfTwoBucketSize) {
  // Z = 3 with 1000-byte blocks: 16384 / 3000 = 5 buckets per page,
  // h = floor(log2 6) = 2; 6 levels = 3 full groups, 63 buckets total.
  const storage::page_layout layout(geometry(6, 0, 3, 1000, 16384));
  EXPECT_EQ(layout.group_levels(), 2u);
  ASSERT_EQ(layout.group_count(), 3u);
  EXPECT_EQ(layout.total_slots(), 63u * 3u);
}

TEST(PageLayoutMath, TinyPageDegeneratesToOneBucketSegments) {
  // A page below one bucket still floors h at 1: segments hold a
  // single bucket each (the flat op pattern, different slot order).
  const storage::page_layout layout(geometry(5, 0, 4, 1024, 512));
  EXPECT_EQ(layout.group_levels(), 1u);
  ASSERT_EQ(layout.group_count(), 5u);
  for (std::uint32_t g = 0; g < 5; ++g) {
    EXPECT_EQ(layout.segment_buckets(g), 1u) << "group " << g;
    EXPECT_EQ(layout.segment_count(g), std::uint64_t{1} << g);
  }
  EXPECT_EQ(layout.total_slots(), 31u * 4u);
}

TEST(PageLayoutMath, TruncatedLastGroupIsAPartialPage) {
  // 5 levels with h = 2: the last group covers one level only.
  const storage::page_layout layout(geometry(5, 0, 4, 1024, 16384));
  ASSERT_EQ(layout.group_count(), 3u);
  EXPECT_EQ(layout.group_height(2), 1u);
  EXPECT_EQ(layout.segment_buckets(2), 1u);
  EXPECT_EQ(layout.segment_count(2), 16u);
}

TEST(PageLayoutMath, MemorySplitShiftsTheFirstGroup) {
  // Levels 0-2 in memory: groups start at level 3, covering the 120
  // storage-resident buckets of a 7-level tree.
  const storage::page_layout layout(geometry(7, 3, 4, 1024, 16384));
  ASSERT_EQ(layout.group_count(), 2u);
  EXPECT_EQ(layout.group_top_level(0), 3u);
  EXPECT_EQ(layout.group_top_level(1), 5u);
  EXPECT_EQ(layout.segment_count(0), 8u);
  EXPECT_EQ(layout.segment_count(1), 32u);
  EXPECT_EQ(layout.total_slots(), 120u * 4u);
}

TEST(PageLayoutMath, SlotPermutationIsABijection) {
  // Every storage-resident bucket maps to a distinct Z-aligned slot
  // range; together they tile [0, total_slots) exactly — the page
  // layout is a pure permutation of the flat footprint.
  const storage::page_layout layout(geometry(7, 2, 4, 1024, 16384));
  const std::uint32_t z = 4;
  std::set<std::uint64_t> firsts;
  std::uint64_t buckets = 0;
  for (std::uint32_t level = 2; level < 7; ++level) {
    for (std::uint64_t pos = 0; pos < (std::uint64_t{1} << level); ++pos) {
      const std::uint64_t first = layout.bucket_first_slot(level, pos);
      EXPECT_LT(first, layout.total_slots());
      EXPECT_EQ(first % z, 0u) << "level " << level << " pos " << pos;
      firsts.insert(first);
      ++buckets;

      // Cross-check against the segment decomposition.
      const storage::segment_ref seg = layout.segment_of(level, pos);
      EXPECT_EQ(layout.segment_first_slot(seg) +
                    layout.bucket_index_in_segment(level, pos) * z,
                first);
      EXPECT_LT(layout.bucket_index_in_segment(level, pos),
                layout.segment_buckets(seg.group));
    }
  }
  EXPECT_EQ(firsts.size(), buckets);
  EXPECT_EQ(buckets * z, layout.total_slots());
}

TEST(PageLayoutMath, PathSegmentsCoverEveryPathBucket) {
  const storage::page_layout layout(geometry(7, 1, 4, 1024, 16384));
  const std::uint32_t leaf_level = 6;
  for (std::uint64_t leaf = 0; leaf < 64; ++leaf) {
    for (std::uint32_t level = 1; level <= leaf_level; ++level) {
      const std::uint64_t pos = leaf >> (leaf_level - level);
      const storage::segment_ref seg = layout.segment_of(level, pos);
      const storage::segment_ref on_path =
          layout.path_segment(seg.group, leaf);
      EXPECT_EQ(on_path.group, seg.group)
          << "leaf " << leaf << " level " << level;
      EXPECT_EQ(on_path.index, seg.index)
          << "leaf " << leaf << " level " << level;
    }
  }
}

TEST(ValidBitTree, SetTestClearAndCount) {
  storage::valid_bit_tree bits(130);  // spans three 64-bit words
  EXPECT_EQ(bits.size(), 130u);
  EXPECT_EQ(bits.valid_count(), 0u);
  EXPECT_FALSE(bits.test(0));
  bits.set(0);
  bits.set(129);
  EXPECT_TRUE(bits.test(0));
  EXPECT_TRUE(bits.test(129));
  EXPECT_FALSE(bits.test(64));
  EXPECT_EQ(bits.valid_count(), 2u);
  bits.set(129);  // double-set counts once
  EXPECT_EQ(bits.valid_count(), 2u);
  EXPECT_GT(bits.memory_bytes(), 0u);
  bits.clear();
  EXPECT_EQ(bits.valid_count(), 0u);
  EXPECT_FALSE(bits.test(0));
}

// ------------------------------------------- name registry and builder

TEST(StorageLayoutNames, RoundTrip) {
  const std::span<const std::string_view> names = storage_layout_names();
  ASSERT_EQ(names.size(), std::size(all_storage_layouts));
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(storage_layout_name(all_storage_layouts[i]), names[i]);
    EXPECT_EQ(storage_layout_by_name(names[i]), all_storage_layouts[i]);
  }
  EXPECT_THROW((void)storage_layout_by_name("bogus"), contract_error);
}

client_builder layout_builder(backend_kind kind, std::uint32_t shards,
                              std::uint64_t seed_salt) {
  return client_builder()
      .blocks(kBlocks)
      .memory_blocks(kMemoryBlocks)
      .payload_bytes(kPayload)
      .backend(kind)
      .shards(shards)
      .seed(test::seed(seed_salt));
}

TEST(StorageLayoutNames, BuilderParsesNamesAndNamesTheSetter) {
  client oram = layout_builder(backend_kind::path, 1, 301)
                    .layout("page")
                    .build();
  EXPECT_EQ(oram.config().layout, storage::storage_layout::page);

  try {
    (void)layout_builder(backend_kind::path, 1, 301).layout("bogus");
    FAIL() << "unknown layout name must throw";
  } catch (const contract_error& error) {
    EXPECT_NE(std::string(error.what()).find("layout()"),
              std::string::npos)
        << "diagnostic must name the setter: " << error.what();
  }
  EXPECT_THROW(
      (void)layout_builder(backend_kind::path, 1, 301).page_bytes(0),
      contract_error);
}

// --------------------------------------------------- behaviour parity

std::vector<request> mixed_stream(std::uint64_t count, double write_frac,
                                  std::uint64_t seed) {
  util::pcg64 rng(seed);
  std::vector<request> stream;
  stream.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    request req;
    req.op = util::bernoulli(rng, write_frac) ? op_kind::write
                                              : op_kind::read;
    req.id = util::uniform_below(rng, kBlocks);
    if (req.op == op_kind::write) {
      req.write_data.assign(kPayload, static_cast<std::uint8_t>(i));
    }
    stream.push_back(std::move(req));
  }
  return stream;
}

TEST(PageLayoutBehavior, PageMatchesFlatResults) {
  // Same machine seed, same stream: the page layout changes transfer
  // granularity only, never what a read returns.
  client flat = layout_builder(backend_kind::path, 1, 303).build();
  client page = layout_builder(backend_kind::path, 1, 303)
                    .layout(storage::storage_layout::page)
                    .build();
  const std::vector<request> stream =
      mixed_stream(400, 0.35, test::seed(304));
  std::vector<request_result> flat_results;
  std::vector<request_result> page_results;
  flat.run(stream, &flat_results);
  page.run(stream, &page_results);

  ASSERT_EQ(flat_results.size(), page_results.size());
  for (std::size_t i = 0; i < flat_results.size(); ++i) {
    EXPECT_EQ(flat_results[i].read_data, page_results[i].read_data)
        << "request " << i;
  }
  ASSERT_NO_THROW(flat.backend().check_consistency());
  ASSERT_NO_THROW(page.backend().check_consistency());
}

struct layout_grid_point {
  backend_kind backend;
  std::uint32_t shards;
  shuffle_policy shuffle;
};

std::string layout_grid_name(const layout_grid_point& p) {
  return std::string(backend_name(p.backend)) + "_x" +
         std::to_string(p.shards) + "_" +
         std::string(shuffle_policy_name(p.shuffle));
}

/// Prints a grid point by its name: gtest's default printer would dump
/// the struct's bytes, padding included, into the test IDs.
void PrintTo(const layout_grid_point& p, std::ostream* os) {
  *os << layout_grid_name(p);
}

class DefaultLayoutIsFlat
    : public ::testing::TestWithParam<layout_grid_point> {};

INSTANTIATE_TEST_SUITE_P(
    BackendsByShardsByShuffle, DefaultLayoutIsFlat,
    ::testing::ValuesIn([] {
      std::vector<layout_grid_point> grid;
      for (const backend_kind kind : all_backend_kinds) {
        for (const std::uint32_t shards : {1u, 4u}) {
          for (const shuffle_policy policy :
               {shuffle_policy::foreground, shuffle_policy::incremental}) {
            grid.push_back(layout_grid_point{kind, shards, policy});
          }
        }
      }
      return grid;
    }()),
    [](const ::testing::TestParamInfo<layout_grid_point>& info) {
      return layout_grid_name(info.param);
    });

// The default-constructed machine must be the flat machine bit for bit:
// identical results, clocks and per-shard bus traces. Guards the config
// default against drift — flat is the seed machine every prior PR's
// numbers were taken on.
TEST_P(DefaultLayoutIsFlat, TracesMatchBitForBit) {
  const auto [kind, shards, policy] = GetParam();
  client implicit = layout_builder(kind, shards, 305)
                        .shuffle(policy)
                        .trace(true)
                        .build();
  client explicit_flat = layout_builder(kind, shards, 305)
                             .shuffle(policy)
                             .layout("flat")
                             .trace(true)
                             .build();

  const std::vector<request> stream =
      mixed_stream(300, 0.3, test::seed(306));
  std::vector<request_result> implicit_results;
  std::vector<request_result> flat_results;
  implicit.run(stream, &implicit_results);
  explicit_flat.run(stream, &flat_results);

  ASSERT_EQ(implicit_results.size(), flat_results.size());
  for (std::size_t i = 0; i < implicit_results.size(); ++i) {
    EXPECT_EQ(implicit_results[i].completion_time,
              flat_results[i].completion_time)
        << "request " << i;
    EXPECT_EQ(implicit_results[i].read_data, flat_results[i].read_data);
  }
  EXPECT_EQ(implicit.now(), explicit_flat.now());

  for (std::uint32_t s = 0; s < shards; ++s) {
    const oram::access_trace* a = implicit.eng().shard_trace(s);
    const oram::access_trace* b = explicit_flat.eng().shard_trace(s);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    ASSERT_EQ(a->size(), b->size()) << "shard " << s;
    for (std::size_t i = 0; i < a->size(); ++i) {
      ASSERT_EQ(a->events()[i].kind, b->events()[i].kind)
          << "shard " << s << " event " << i;
      ASSERT_EQ(a->events()[i].a, b->events()[i].a);
      ASSERT_EQ(a->events()[i].b, b->events()[i].b);
    }
  }
}

// The page layout is a tree-bucket concept: a backend without a bucket
// tree on the storage lane (partitioned, hier) must ignore layout(page)
// entirely — identical results, clocks and bus traces vs flat. Guards
// against the knob silently perturbing a scheme it doesn't apply to.
class PageLayoutInert : public ::testing::TestWithParam<backend_kind> {};

INSTANTIATE_TEST_SUITE_P(
    NonTreeBackends, PageLayoutInert,
    ::testing::Values(backend_kind::partitioned, backend_kind::hier),
    [](const ::testing::TestParamInfo<backend_kind>& info) {
      return std::string(backend_name(info.param));
    });

TEST_P(PageLayoutInert, PageTraceMatchesFlatBitForBit) {
  const backend_kind kind = GetParam();
  client flat = layout_builder(kind, 1, 317)
                    .layout("flat")
                    .trace(true)
                    .build();
  client page = layout_builder(kind, 1, 317)
                    .layout("page")
                    .trace(true)
                    .build();

  const std::vector<request> stream =
      mixed_stream(300, 0.3, test::seed(318));
  std::vector<request_result> flat_results;
  std::vector<request_result> page_results;
  flat.run(stream, &flat_results);
  page.run(stream, &page_results);

  ASSERT_EQ(flat_results.size(), page_results.size());
  for (std::size_t i = 0; i < flat_results.size(); ++i) {
    EXPECT_EQ(flat_results[i].completion_time,
              page_results[i].completion_time)
        << "request " << i;
    EXPECT_EQ(flat_results[i].read_data, page_results[i].read_data);
  }
  EXPECT_EQ(flat.now(), page.now());

  const oram::access_trace* a = flat.eng().shard_trace(0);
  const oram::access_trace* b = page.eng().shard_trace(0);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(a->size(), b->size());
  for (std::size_t i = 0; i < a->size(); ++i) {
    ASSERT_EQ(a->events()[i].kind, b->events()[i].kind) << "event " << i;
    ASSERT_EQ(a->events()[i].a, b->events()[i].a);
    ASSERT_EQ(a->events()[i].b, b->events()[i].b);
  }
}

// ------------------------------------------------ device-op reduction

std::uint64_t device_ops(client& oram) {
  std::uint64_t ops = 0;
  for (std::uint32_t s = 0; s < oram.eng().shard_count(); ++s) {
    const sim::io_stats& stats = oram.eng().shard_storage(s).stats();
    ops += stats.read_ops + stats.write_ops;
  }
  return ops;
}

TEST(PageLayoutBehavior, PageStrictlyReducesDeviceOpsOnHdd) {
  // The acceptance criterion of the layout: on the paper's seek-bound
  // HDD profile the page machine issues strictly fewer storage-device
  // operations than the flat machine for the same stream.
  const std::vector<request> stream =
      mixed_stream(400, 0.3, test::seed(308));
  std::uint64_t ops_by_layout[2] = {0, 0};
  for (const storage::storage_layout layout : all_storage_layouts) {
    client oram = layout_builder(backend_kind::path, 1, 307)
                      .logical_block_bytes(1024)
                      .storage_profile(sim::hdd_paper())
                      .layout(layout)
                      .build();
    oram.run(stream, nullptr);
    ops_by_layout[static_cast<std::size_t>(layout)] = device_ops(oram);

    const auto* backend =
        dynamic_cast<const oram::path_backend*>(&oram.backend());
    ASSERT_NE(backend, nullptr);
    EXPECT_EQ(backend->tree().layout(), layout);
    if (layout == storage::storage_layout::page) {
      ASSERT_NE(backend->tree().page_geometry(), nullptr);
      EXPECT_GT(backend->tree().page_geometry()->group_levels(), 1u)
          << "16 KB pages must pack more than one level per segment";
      EXPECT_GT(backend->tree().valid_bucket_count(), 0u);
    } else {
      EXPECT_EQ(backend->tree().valid_bucket_count(), 0u);
    }
  }
  const std::uint64_t flat_ops = ops_by_layout[static_cast<std::size_t>(
      storage::storage_layout::flat)];
  const std::uint64_t page_ops = ops_by_layout[static_cast<std::size_t>(
      storage::storage_layout::page)];
  EXPECT_GT(flat_ops, 0u);
  EXPECT_LT(page_ops, flat_ops)
      << "page layout must strictly reduce device operations";
}

// ------------------------------------------- valid-bit read skipping

oram::path_oram_config split_config(std::uint64_t leaves,
                                    std::uint32_t memory_levels,
                                    storage::storage_layout layout) {
  oram::path_oram_config config;
  config.leaf_count = leaves;
  config.bucket_size = 4;
  config.payload_bytes = kPayload;
  config.id_universe = 1024;
  config.memory_levels = memory_levels;
  config.seal = true;
  config.keys = test::tree_keys();
  config.layout = layout;
  return config;
}

TEST(PageLayoutBehavior, FreshTreeSkipsEveryDeviceRead) {
  // A never-written tree is all dummies, which the valid bits prove
  // without touching the device: the first access costs zero storage
  // reads and exactly one segment write per touched group.
  sim::block_device memory(sim::dram_ddr4());
  sim::block_device disk(sim::hdd_paper());
  sim::cpu_model cpu(sim::cpu_aesni());
  util::pcg64 rng(test::seed(309));
  oram::path_oram oram(
      split_config(64, 3, storage::storage_layout::page), memory, &disk,
      cpu, rng, nullptr);
  const storage::page_layout* geometry = oram.page_geometry();
  ASSERT_NE(geometry, nullptr);
  EXPECT_EQ(disk.stats().write_ops, 0u)
      << "page-mode reset must not touch the device";
  disk.reset_stats();

  const std::vector<std::uint8_t> data(kPayload, 0x42);
  oram.access(op_kind::write, 7, data, {});
  EXPECT_EQ(disk.stats().read_ops, 0u)
      << "all segments invalid: every read must be skipped";
  EXPECT_EQ(disk.stats().write_ops, geometry->group_count())
      << "write-back pays one op per touched group";

  std::uint64_t expected_valid = 0;
  for (std::uint32_t g = 0; g < geometry->group_count(); ++g) {
    expected_valid += geometry->segment_buckets(g);
  }
  EXPECT_EQ(oram.valid_bucket_count(), expected_valid);

  // Later accesses read at most the valid segments back.
  oram.access(op_kind::read, 7, {}, std::span<std::uint8_t>{});
  EXPECT_LE(disk.stats().read_ops, geometry->group_count());
  ASSERT_NO_THROW(oram.check_consistency());
}

// -------------------------------------------------- obliviousness

/// Drives `count` accesses with ids drawn by `next_id` through a
/// page-layout split tree and returns its trace plus final occupancy.
struct driven_tree {
  oram::access_trace trace;
  std::uint64_t valid_buckets = 0;
};

template <typename NextId>
driven_tree drive_page_tree(std::uint64_t machine_salt,
                            std::uint64_t count, NextId&& next_id) {
  driven_tree out;
  sim::block_device memory(sim::dram_ddr4());
  sim::block_device disk(sim::hdd_paper());
  sim::cpu_model cpu(sim::cpu_aesni());
  util::pcg64 rng(test::seed(machine_salt));
  oram::path_oram oram(
      split_config(64, 2, storage::storage_layout::page), memory, &disk,
      cpu, rng, &out.trace);
  const std::vector<std::uint8_t> data(kPayload, 0x5a);
  for (std::uint64_t i = 0; i < count; ++i) {
    oram.access(op_kind::write, next_id(i), data, {});
  }
  out.valid_buckets = oram.valid_bucket_count();
  return out;
}

// Two very different id streams — uniform over 200 blocks vs hammering
// 8 hot blocks — must induce (a) sweep-position streams drawn from one
// distribution and (b) statistically identical valid-bit occupancy:
// both are functions of uniform leaf draws only, never of which ids the
// workload touches.
TEST(PageLayoutObliviousness, SweepsAndOccupancyAreWorkloadIndependent) {
  constexpr std::uint64_t kAccesses = 1500;
  util::pcg64 uniform_ids(test::seed(311));
  util::pcg64 hot_ids(test::seed(312));
  const driven_tree uniform = drive_page_tree(
      313, kAccesses,
      [&](std::uint64_t) { return util::uniform_below(uniform_ids, 200); });
  const driven_tree hot = drive_page_tree(
      314, kAccesses,
      [&](std::uint64_t) { return util::uniform_below(hot_ids, 8); });

  for (const oram::event_kind kind :
       {oram::event_kind::storage_read_sweep,
        oram::event_kind::storage_write_sweep}) {
    const std::vector<std::uint64_t> a =
        analysis::storage_sweep_positions(uniform.trace, kind);
    const std::vector<std::uint64_t> b =
        analysis::storage_sweep_positions(hot.trace, kind);
    ASSERT_GT(a.size(), 500u);
    ASSERT_GT(b.size(), 500u);
    const std::uint64_t universe =
        std::max(*std::max_element(a.begin(), a.end()),
                 *std::max_element(b.begin(), b.end())) +
        1;
    const analysis::equality_report report =
        analysis::audit_distribution_equality(a, b, universe);
    EXPECT_TRUE(report.passed())
        << "sweep kind " << static_cast<int>(kind) << ": ks "
        << report.ks << " (<= " << report.ks_threshold << "), chi2 "
        << report.chi_square << " (<= " << report.chi_threshold << ")";
  }

  // Occupancy: after this many accesses both trees have marked nearly
  // the same bucket count valid (exact equality is not required — the
  // two machines draw independent leaves — but the distributions are
  // identical, so the counts land within a few percent).
  EXPECT_GT(uniform.valid_buckets, 0u);
  const double ratio = static_cast<double>(uniform.valid_buckets) /
                       static_cast<double>(hot.valid_buckets);
  EXPECT_GT(ratio, 0.9);
  EXPECT_LT(ratio, 1.1);
}

// Page mode must never fall back to per-bucket storage events: the
// device-visible stream is sweeps only (memory levels keep their own
// bucket events).
TEST(PageLayoutObliviousness, PageModeEmitsSweepsNotSlotEvents) {
  util::pcg64 ids(test::seed(315));
  const driven_tree run = drive_page_tree(316, 200, [&](std::uint64_t) {
    return util::uniform_below(ids, 100);
  });
  EXPECT_TRUE(analysis::storage_read_positions(run.trace).empty());
  EXPECT_FALSE(
      analysis::storage_sweep_positions(
          run.trace, oram::event_kind::storage_write_sweep)
          .empty());
}

}  // namespace
}  // namespace horam

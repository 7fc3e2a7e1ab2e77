// Tests for the Path ORAM implementation: functional correctness
// against a shadow map, stash behaviour, obliviousness of the bus
// pattern, eviction and reset, bulk initialisation, tamper detection on
// real tree buckets, and the memory/storage level split of the
// tree-top-cache baseline.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <unordered_map>

#include "analysis/pattern_audit.h"
#include "backend_test_access.h"
#include "horam.h"
#include "oram/common/tree_backend.h"
#include "oram/path/path_oram.h"
#include "sim/profiles.h"
#include "test_support.h"
#include "util/rng.h"

namespace horam::oram {

namespace {

struct fixture {
  sim::block_device memory{sim::dram_ddr4()};
  sim::block_device disk{sim::hdd_paper()};
  sim::cpu_model cpu{sim::cpu_aesni()};
  util::pcg64 rng{99};
  access_trace trace;

  path_oram_config config(std::uint64_t leaves,
                          std::uint32_t memory_levels =
                              std::numeric_limits<std::uint32_t>::max()) {
    path_oram_config c;
    c.leaf_count = leaves;
    c.bucket_size = 4;
    c.payload_bytes = 16;
    c.id_universe = 1024;
    c.memory_levels = memory_levels;
    c.seal = true;
    c.keys = test::tree_keys();
    return c;
  }
};

std::vector<std::uint8_t> payload_of(std::uint8_t tag) {
  return std::vector<std::uint8_t>(16, tag);
}

TEST(PathOram, Geometry) {
  fixture fx;
  path_oram oram(fx.config(64), fx.memory, nullptr, fx.cpu, fx.rng,
                 nullptr);
  EXPECT_EQ(oram.level_count(), 7u);           // log2(64) + 1
  EXPECT_EQ(oram.bucket_count(), 127u);        // 2*64 - 1
  EXPECT_EQ(oram.capacity_blocks(), 508u);     // Z = 4
  EXPECT_EQ(oram.resident_blocks(), 0u);
}

TEST(PathOram, RejectsNonPowerOfTwoLeaves) {
  fixture fx;
  EXPECT_THROW(path_oram(fx.config(48), fx.memory, nullptr, fx.cpu,
                         fx.rng, nullptr),
               contract_error);
}

TEST(PathOram, WriteThenRead) {
  fixture fx;
  path_oram oram(fx.config(16), fx.memory, nullptr, fx.cpu, fx.rng,
                 nullptr);
  const auto data = payload_of(0x42);
  oram.access(op_kind::write, 7, data, {});
  std::vector<std::uint8_t> out(16);
  oram.access(op_kind::read, 7, {}, out);
  EXPECT_EQ(out, data);
}

TEST(PathOram, UnwrittenBlocksReadAsZeros) {
  fixture fx;
  path_oram oram(fx.config(16), fx.memory, nullptr, fx.cpu, fx.rng,
                 nullptr);
  std::vector<std::uint8_t> out(16, 0xff);
  oram.access(op_kind::read, 3, {}, out);
  EXPECT_EQ(out, std::vector<std::uint8_t>(16, 0));
  EXPECT_TRUE(oram.contains(3));  // materialised by the touch
}

TEST(PathOram, OversizedWriteLeavesTheTreeUntouched) {
  fixture fx;
  path_oram oram(fx.config(16), fx.memory, nullptr, fx.cpu, fx.rng,
                 nullptr);
  const std::vector<std::uint8_t> oversized(17, 0x5a);
  EXPECT_THROW(oram.access(op_kind::write, 3, oversized, {}),
               contract_error);
  EXPECT_FALSE(oram.contains(3));
  EXPECT_EQ(oram.resident_blocks(), 0u);
  EXPECT_EQ(oram.stats().real_accesses, 0u);
  EXPECT_NO_THROW(oram.check_consistency());
  const auto data = payload_of(0x42);
  oram.access(op_kind::write, 3, data, {});
  std::vector<std::uint8_t> out(16);
  oram.access(op_kind::read, 3, {}, out);
  EXPECT_EQ(out, data);
}

// A refused extract leaves the tree and the stash as they were: the
// check runs on the opened union before any block changes hands. (The
// union read itself is traced: Path ORAM keeps no trusted per-bucket
// record to consult first.)
TEST(PathOram, RefusedExtractLeavesTheTreeAsItWas) {
  fixture fx;
  path_oram oram(fx.config(16), fx.memory, nullptr, fx.cpu, fx.rng, nullptr,
                 tree_role::backend);
  for (block_id id = 0; id < 24; ++id) {
    oram.install(id, payload_of(static_cast<std::uint8_t>(id + 1)), id % 16);
  }
  for (int i = 0; i < 16; ++i) {
    oram.dummy_access();
  }
  oram.install(30, payload_of(0x30), 3);  // shelters in the stash
  const auto images = [&] {
    std::vector<std::vector<block_id>> out;
    for (std::uint64_t bucket = 0; bucket < oram.bucket_count(); ++bucket) {
      out.push_back(path_oram_test_access::ids(oram, bucket));
    }
    return out;
  };
  const auto before = images();
  const std::size_t stashed = oram.stash_ref().size();
  std::vector<std::uint8_t> out(16);
  EXPECT_THROW(oram.extract(900, 0, out), contract_error);
  EXPECT_THROW(oram.extract(30, 4, out), contract_error);
  EXPECT_THROW(oram.extract(5, 6, out), contract_error);
  EXPECT_EQ(images(), before);
  EXPECT_EQ(oram.stash_ref().size(), stashed);
  EXPECT_EQ(oram.resident_blocks(), 25u);
  EXPECT_NO_THROW(oram.check_consistency());
  oram.extract(5, 5, out);
  EXPECT_EQ(out, payload_of(6));
  oram.extract(30, 3, out);
  EXPECT_EQ(out, payload_of(0x30));
  EXPECT_NO_THROW(oram.check_consistency());
}

// A backend tree's real access names the block's leaf and its fresh
// one. A wrong leaf, or a block the tree does not hold, is refused as a
// wrong extract is: before any block changes hands, and without
// materialising a zero block.
TEST(PathOram, CallerMappedAccessRefusesAWrongLeaf) {
  fixture fx;
  path_oram oram(fx.config(16), fx.memory, nullptr, fx.cpu, fx.rng, nullptr,
                 tree_role::backend);
  for (block_id id = 0; id < 24; ++id) {
    oram.install(id, payload_of(static_cast<std::uint8_t>(id + 1)), id % 16);
  }
  for (int i = 0; i < 16; ++i) {
    oram.dummy_access();
  }
  oram.install(30, payload_of(0x30), 3);  // shelters in the stash
  const auto images = [&] {
    std::vector<std::vector<block_id>> out;
    for (std::uint64_t bucket = 0; bucket < oram.bucket_count(); ++bucket) {
      out.push_back(path_oram_test_access::ids(oram, bucket));
    }
    return out;
  };
  const auto access = [&](block_id id, leaf_id leaf, leaf_id next_leaf,
                          std::span<std::uint8_t> out) {
    path_oram::request req;
    req.id = id;
    req.leaf = leaf;
    req.next_leaf = next_leaf;
    req.read_out = out;
    return oram.access_batch({&req, 1});
  };
  const auto before = images();
  const std::size_t stashed = oram.stash_ref().size();
  std::vector<std::uint8_t> out(16);
  EXPECT_THROW(access(31, 0, 1, out), contract_error);  // never installed
  EXPECT_THROW(access(30, 4, 1, out), contract_error);
  EXPECT_THROW(access(5, 6, 1, out), contract_error);
  EXPECT_THROW(access(5, 5, 16, out), contract_error);  // leaf outside
  EXPECT_EQ(images(), before);
  EXPECT_EQ(oram.stash_ref().size(), stashed);
  EXPECT_EQ(oram.resident_blocks(), 25u);
  EXPECT_NO_THROW(oram.check_consistency());
  access(5, 5, 9, out);
  EXPECT_EQ(out, payload_of(6));
  access(30, 3, 2, out);
  EXPECT_EQ(out, payload_of(0x30));
  EXPECT_EQ(oram.resident_blocks(), 25u);
  EXPECT_NO_THROW(oram.check_consistency());
  // Each block now lives under the fresh leaf its access named.
  EXPECT_THROW(access(5, 5, 1, out), contract_error);
  oram.extract(5, 9, out);
  EXPECT_EQ(out, payload_of(6));
  oram.extract(30, 2, out);
  EXPECT_EQ(out, payload_of(0x30));
  EXPECT_NO_THROW(oram.check_consistency());
}

TEST(PathOram, ShadowMapDifferentialTest) {
  // Random reads/writes against a std::map shadow; every read must
  // return the latest write.
  fixture fx;
  path_oram oram(fx.config(64), fx.memory, nullptr, fx.cpu, fx.rng,
                 nullptr);
  std::map<block_id, std::vector<std::uint8_t>> shadow;
  util::pcg64 driver(7);
  for (int step = 0; step < 3000; ++step) {
    const block_id id = util::uniform_below(driver, 200);
    if (util::bernoulli(driver, 0.4)) {
      auto data = payload_of(static_cast<std::uint8_t>(step));
      data[1] = static_cast<std::uint8_t>(id);
      oram.access(op_kind::write, id, data, {});
      shadow[id] = data;
    } else {
      std::vector<std::uint8_t> out(16);
      oram.access(op_kind::read, id, {}, out);
      const auto it = shadow.find(id);
      const std::vector<std::uint8_t> expected =
          it != shadow.end() ? it->second : std::vector<std::uint8_t>(16, 0);
      ASSERT_EQ(out, expected) << "step " << step << " id " << id;
    }
  }
}

TEST(PathOram, StashStaysBounded) {
  // Standard Path ORAM property: with Z = 4 the stash stays small.
  fixture fx;
  path_oram oram(fx.config(128), fx.memory, nullptr, fx.cpu, fx.rng,
                 nullptr);
  util::pcg64 driver(8);
  for (int step = 0; step < 5000; ++step) {
    oram.access(op_kind::write, util::uniform_below(driver, 256),
                payload_of(1), {});
  }
  EXPECT_LT(oram.stash_ref().peak_size(), 64u);
}

TEST(PathOram, BatchServesRequestsInListOrder) {
  // One batch behaves like its requests one after another: a later
  // request for the same block sees the earlier one's write, a write
  // with a read_out returns the payload it replaces, and dummies at any
  // position serve nothing.
  fixture fx;
  path_oram oram(fx.config(64), fx.memory, nullptr, fx.cpu, fx.rng,
                 &fx.trace);
  oram.access(op_kind::write, 7, payload_of(1), {});
  const std::vector<std::uint8_t> two = payload_of(2);
  const std::vector<std::uint8_t> three = payload_of(3);
  std::vector<std::uint8_t> before(16);
  std::vector<std::uint8_t> after(16);
  std::vector<std::uint8_t> fresh(16, 0xff);
  std::vector<path_oram::request> batch(5);
  batch[0].id = 7;
  batch[0].op = op_kind::write;
  batch[0].write_data = two;
  batch[0].read_out = before;
  batch[2].id = 7;
  batch[2].read_out = after;
  batch[3].id = 9;
  batch[3].op = op_kind::write;
  batch[3].write_data = three;
  batch[4].id = 11;
  batch[4].read_out = fresh;
  fx.trace.clear();
  oram.access_batch(batch);
  EXPECT_EQ(before, payload_of(1));
  EXPECT_EQ(after, payload_of(2));
  EXPECT_EQ(fresh, std::vector<std::uint8_t>(16, 0));
  EXPECT_EQ(oram.stats().dummy_accesses, 1u);
  EXPECT_EQ(oram.stats().real_accesses, 5u);
  EXPECT_EQ(oram.resident_blocks(), 3u);
  std::size_t paths = 0;
  for (const trace_event& event : fx.trace.events()) {
    paths += event.kind == event_kind::memory_path_access ? 1 : 0;
  }
  EXPECT_EQ(paths, 5u);
  oram.check_consistency();

  std::vector<std::uint8_t> out(16);
  oram.access(op_kind::read, 9, {}, out);
  EXPECT_EQ(out, payload_of(3));
  oram.access(op_kind::read, 7, {}, out);
  EXPECT_EQ(out, payload_of(2));
}

TEST(PathOram, BatchWiderThanTheTreeTouchesEachBucketOnce) {
  // Twelve requests on a 4-leaf tree repeat leaves, so their paths
  // overlap everywhere: the union lists each bucket once however often
  // the batch names it.
  fixture fx;
  path_oram oram(fx.config(4), fx.memory, nullptr, fx.cpu, fx.rng,
                 &fx.trace);
  for (block_id id = 1; id <= 4; ++id) {
    oram.access(op_kind::write, id, payload_of(static_cast<std::uint8_t>(id)),
                {});
  }
  const std::vector<std::uint8_t> five = payload_of(5);
  const std::vector<std::uint8_t> six = payload_of(6);
  std::vector<std::vector<std::uint8_t>> out(12,
                                             std::vector<std::uint8_t>(16));
  std::vector<path_oram::request> batch(12);  // unset entries are dummies
  batch[0].id = 1;
  batch[0].read_out = out[0];
  batch[1].id = 2;
  batch[1].op = op_kind::write;
  batch[1].write_data = five;
  batch[3].id = 2;
  batch[3].read_out = out[3];
  batch[4].id = 1;
  batch[4].op = op_kind::write;
  batch[4].write_data = six;
  batch[5].id = 9;
  batch[5].read_out = out[5];
  batch[7].id = 1;
  batch[7].read_out = out[7];
  batch[8].id = 3;
  batch[8].read_out = out[8];
  batch[9].id = 2;
  batch[9].read_out = out[9];
  batch[11].id = 9;
  batch[11].op = op_kind::write;
  batch[11].write_data = five;
  fx.trace.clear();
  oram.access_batch(batch);

  std::vector<std::uint64_t> leaves;
  std::vector<std::uint64_t> reads;
  std::vector<std::uint64_t> writes;
  for (const trace_event& event : fx.trace.events()) {
    if (event.kind == event_kind::memory_path_access) {
      leaves.push_back(event.a);
    } else if (event.kind == event_kind::memory_bucket_read) {
      reads.push_back(event.a);
    } else if (event.kind == event_kind::memory_bucket_write) {
      writes.push_back(event.a);
    }
  }
  EXPECT_EQ(leaves.size(), 12u);
  // The twelve leaves cover all four, so the union is the whole tree.
  ASSERT_EQ(std::set<std::uint64_t>(leaves.begin(), leaves.end()).size(), 4u);
  EXPECT_EQ(reads, (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(writes, (std::vector<std::uint64_t>{3, 4, 5, 6, 1, 2, 0}));

  EXPECT_EQ(out[0], payload_of(1));
  EXPECT_EQ(out[3], payload_of(5));
  EXPECT_EQ(out[5], std::vector<std::uint8_t>(16, 0));
  EXPECT_EQ(out[7], payload_of(6));
  EXPECT_EQ(out[8], payload_of(3));
  EXPECT_EQ(out[9], payload_of(5));
  EXPECT_EQ(oram.stats().dummy_accesses, 3u);
  EXPECT_EQ(oram.resident_blocks(), 5u);
  oram.check_consistency();

  std::vector<std::uint8_t> after(16);
  oram.access(op_kind::read, 9, {}, after);
  EXPECT_EQ(after, payload_of(5));
  oram.access(op_kind::read, 4, {}, after);
  EXPECT_EQ(after, payload_of(4));
}

TEST(PathOram, BatchedCycleStashStaysBounded) {
  // A cycle of c accesses written back once over their path union keeps
  // the stash as small as c accesses written back one by one. 256
  // leaves at Z = 4 with 1024 resident blocks (half of the 2044 slots)
  // and half of the accesses real; the steady-state stash (after each
  // cycle's write-back) is tracked over 20 seeds, after a warm-up.
  constexpr int kSeeds = 20;
  constexpr int kWarmup = 4000;
  constexpr int kCycles = 20000;
  constexpr std::uint64_t kResident = 1024;
  struct run_result {
    std::size_t worst = 0;
    std::vector<std::uint8_t> sizes;
  };
  const auto run = [&](std::uint32_t c, int seed_index, bool batched) {
    sim::block_device memory{sim::dram_ddr4()};
    const sim::cpu_model cpu{sim::cpu_aesni()};
    util::pcg64 rng(test::seed(700 + static_cast<std::uint64_t>(seed_index)));
    util::pcg64 driver(
        test::seed(800 + static_cast<std::uint64_t>(seed_index)));
    path_oram_config config;
    config.leaf_count = 256;
    config.bucket_size = 4;
    config.payload_bytes = 8;
    config.id_universe = kResident;
    config.seal = false;
    path_oram oram(config, memory, nullptr, cpu, rng, nullptr);
    oram.initialize_full(kResident, [](block_id, std::span<std::uint8_t>) {});
    run_result result;
    result.sizes.reserve(kCycles);
    std::vector<path_oram::request> cycle(c);
    for (int step = 0; step < kWarmup + kCycles; ++step) {
      for (path_oram::request& req : cycle) {
        req.id = util::bernoulli(driver, 0.5)
                     ? util::uniform_below(driver, kResident)
                     : dummy_block_id;
      }
      if (batched) {
        oram.access_batch(cycle);
      } else {
        for (const path_oram::request& req : cycle) {
          if (req.id == dummy_block_id) {
            oram.dummy_access();
          } else {
            oram.access(op_kind::read, req.id, {}, {});
          }
        }
      }
      if (step >= kWarmup) {
        const std::size_t size = oram.stash_ref().size();
        result.worst = std::max(result.worst, size);
        result.sizes.push_back(static_cast<std::uint8_t>(
            std::min<std::size_t>(size, 255)));
      }
    }
    return result;
  };
  for (const std::uint32_t c : {1u, 2u, 4u, 8u}) {
    std::size_t worst_batched = 0;
    std::size_t worst_serial = 0;
    for (int seed_index = 0; seed_index < kSeeds; ++seed_index) {
      const run_result batched = run(c, seed_index, /*batched=*/true);
      const run_result serial = run(c, seed_index, /*batched=*/false);
      if (c == 1) {
        ASSERT_EQ(batched.sizes, serial.sizes) << "seed " << seed_index;
      }
      worst_batched = std::max(worst_batched, batched.worst);
      worst_serial = std::max(worst_serial, serial.worst);
    }
    EXPECT_LE(worst_batched, worst_serial)
        << "c = " << c << ": worst steady-state stash " << worst_batched
        << " batched against " << worst_serial << " one by one";
  }
}

TEST(PathOram, RepeatedAccessNeverRepeatsLeaf) {
  // Remap-before-read: consecutive accesses to the same block follow
  // independently drawn paths.
  fixture fx;
  path_oram oram(fx.config(256), fx.memory, nullptr, fx.cpu, fx.rng,
                 &fx.trace);
  oram.access(op_kind::write, 1, payload_of(1), {});
  fx.trace.clear();
  std::vector<leaf_id> leaves;
  for (int i = 0; i < 200; ++i) {
    oram.access(op_kind::read, 1, {}, {});
  }
  for (const trace_event& event : fx.trace.events()) {
    if (event.kind == event_kind::memory_path_access) {
      leaves.push_back(event.a);
    }
  }
  ASSERT_EQ(leaves.size(), 200u);
  // With 256 leaves, 200 draws hitting a fixed leaf every time has
  // probability ~(1/256)^199; count distinct values instead.
  std::set<leaf_id> distinct(leaves.begin(), leaves.end());
  EXPECT_GT(distinct.size(), 100u);
}

TEST(PathOram, DummyAccessIndistinguishableShape) {
  // Dummy and real accesses emit the same event shape: one path access
  // plus level_count bucket reads and writes.
  fixture fx;
  path_oram oram(fx.config(16), fx.memory, nullptr, fx.cpu, fx.rng,
                 &fx.trace);
  oram.access(op_kind::write, 5, payload_of(5), {});
  const auto shape_of = [&](auto&& action) {
    fx.trace.clear();
    action();
    std::map<event_kind, int> shape;
    for (const trace_event& event : fx.trace.events()) {
      ++shape[event.kind];
    }
    return shape;
  };
  const auto real = shape_of([&] {
    oram.access(op_kind::read, 5, {}, {});
  });
  const auto dummy = shape_of([&] { oram.dummy_access(); });
  EXPECT_EQ(real, dummy);
}

TEST(PathOram, LeafDistributionUniform) {
  fixture fx;
  path_oram oram(fx.config(32), fx.memory, nullptr, fx.cpu, fx.rng,
                 &fx.trace);
  for (int i = 0; i < 4000; ++i) {
    oram.dummy_access();
  }
  std::vector<std::uint64_t> counts(32, 0);
  for (const trace_event& event : fx.trace.events()) {
    if (event.kind == event_kind::memory_path_access) {
      ++counts[event.a];
    }
  }
  const double chi2 = analysis::chi_square_uniform(counts);
  EXPECT_LT(chi2, analysis::chi_square_threshold(31));
}

TEST(PathOram, InstallThenAccess) {
  fixture fx;
  path_oram oram(fx.config(16), fx.memory, nullptr, fx.cpu, fx.rng,
                 nullptr);
  oram.install(9, payload_of(0x77));
  EXPECT_TRUE(oram.contains(9));
  EXPECT_EQ(oram.resident_blocks(), 1u);
  std::vector<std::uint8_t> out(16);
  oram.access(op_kind::read, 9, {}, out);
  EXPECT_EQ(out, payload_of(0x77));
  EXPECT_THROW(oram.install(9, payload_of(1)), contract_error);
}

TEST(PathOram, EvictAllReturnsEveryResidentBlock) {
  fixture fx;
  path_oram oram(fx.config(64), fx.memory, nullptr, fx.cpu, fx.rng,
                 nullptr);
  std::unordered_map<block_id, std::vector<std::uint8_t>> expected;
  util::pcg64 driver(9);
  for (int i = 0; i < 100; ++i) {
    const block_id id = util::uniform_below(driver, 500);
    auto data = payload_of(static_cast<std::uint8_t>(i));
    oram.access(op_kind::write, id, data, {});
    expected[id] = data;
  }
  // Park some blocks in the stash via install too.
  oram.install(900, payload_of(0xaa));
  expected[900] = payload_of(0xaa);

  std::vector<evicted_block> evicted;
  oram.evict_all(evicted);
  EXPECT_EQ(evicted.size(), expected.size());
  for (const evicted_block& block : evicted) {
    ASSERT_TRUE(expected.contains(block.id)) << "id " << block.id;
    EXPECT_EQ(block.payload, expected.at(block.id));
  }
  EXPECT_EQ(oram.resident_blocks(), 0u);
  EXPECT_EQ(oram.stash_ref().size(), 0u);
}

TEST(PathOram, EvictionOrderIsShuffled) {
  // Evicted blocks come out in random order, not insertion order.
  fixture fx;
  path_oram oram(fx.config(64), fx.memory, nullptr, fx.cpu, fx.rng,
                 nullptr);
  for (block_id id = 0; id < 64; ++id) {
    oram.install(id, payload_of(static_cast<std::uint8_t>(id)));
  }
  std::vector<evicted_block> evicted;
  oram.evict_all(evicted);
  ASSERT_EQ(evicted.size(), 64u);
  bool sorted = true;
  for (std::size_t i = 1; i < evicted.size(); ++i) {
    sorted = sorted && evicted[i - 1].id < evicted[i].id;
  }
  EXPECT_FALSE(sorted);  // probability 1/64! of a false failure
}

TEST(PathOram, ResetClearsState) {
  fixture fx;
  path_oram oram(fx.config(16), fx.memory, nullptr, fx.cpu, fx.rng,
                 nullptr);
  oram.access(op_kind::write, 2, payload_of(2), {});
  oram.reset();
  EXPECT_EQ(oram.resident_blocks(), 0u);
  EXPECT_FALSE(oram.contains(2));
  std::vector<std::uint8_t> out(16, 1);
  oram.access(op_kind::read, 2, {}, out);
  EXPECT_EQ(out, std::vector<std::uint8_t>(16, 0));  // data gone
}

TEST(PathOram, InitializeFullPlacesEveryBlock) {
  fixture fx;
  path_oram oram(fx.config(64), fx.memory, nullptr, fx.cpu, fx.rng,
                 nullptr);
  oram.initialize_full(200, [](block_id id, std::span<std::uint8_t> out) {
    out[0] = static_cast<std::uint8_t>(id);
    out[1] = static_cast<std::uint8_t>(id >> 8);
  });
  EXPECT_EQ(oram.resident_blocks(), 200u);
  util::pcg64 driver(10);
  for (int i = 0; i < 100; ++i) {
    const block_id id = util::uniform_below(driver, 200);
    std::vector<std::uint8_t> out(16);
    oram.access(op_kind::read, id, {}, out);
    EXPECT_EQ(out[0], static_cast<std::uint8_t>(id));
    EXPECT_EQ(out[1], static_cast<std::uint8_t>(id >> 8));
  }
}

// ------------------------------------------------- tampered buckets

/// Where a test flips a byte of a sealed bucket.
enum class tamper_site { nonce, id_header, dummy_payload, mac };

std::string tamper_site_name(
    const ::testing::TestParamInfo<tamper_site>& info) {
  switch (info.param) {
    case tamper_site::nonce:
      return "Nonce";
    case tamper_site::id_header:
      return "IdHeader";
    case tamper_site::dummy_payload:
      return "DummyPayload";
    case tamper_site::mac:
      return "Mac";
  }
  return "Unknown";
}

/// Flips one byte at `site` of the tree's root bucket, which lies on
/// every path, so the next path access must open it.
void tamper_root(const path_oram& tree, tamper_site site) {
  const block_codec& codec = path_oram_test_access::codec(tree);
  std::size_t offset = 0;
  switch (site) {
    case tamper_site::nonce:
      offset = 5;
      break;
    case tamper_site::id_header:
      offset = codec.id_offset(codec.slots() - 1) + 3;
      break;
    case tamper_site::dummy_payload: {
      const std::vector<block_id> ids = path_oram_test_access::ids(tree, 0);
      const auto dummy = std::find(ids.begin(), ids.end(), dummy_block_id);
      ASSERT_NE(dummy, ids.end()) << "root bucket has no dummy slot";
      offset = codec.payload_offset(
                   static_cast<std::uint32_t>(dummy - ids.begin())) +
               codec.payload_bytes() / 2;
      break;
    }
    case tamper_site::mac:
      offset = codec.mac_offset() + 2;
      break;
  }
  path_oram_test_access::corrupt(tree, /*bucket=*/0, offset, 0x10);
}

class PathOramTamper : public ::testing::TestWithParam<tamper_site> {};
INSTANTIATE_TEST_SUITE_P(
    Sites, PathOramTamper,
    ::testing::Values(tamper_site::nonce, tamper_site::id_header,
                      tamper_site::dummy_payload, tamper_site::mac),
    tamper_site_name);

TEST_P(PathOramTamper, MemoryLaneBucketFailsTheNextAccess) {
  fixture fx;
  path_oram oram(fx.config(16), fx.memory, nullptr, fx.cpu, fx.rng,
                 nullptr);
  for (block_id id = 0; id < 3; ++id) {
    oram.access(op_kind::write, id, payload_of(static_cast<std::uint8_t>(id)),
                {});
  }
  ASSERT_NO_THROW(oram.check_consistency());
  ASSERT_EQ(oram.memory_level_count(), oram.level_count());

  tamper_root(oram, GetParam());
  EXPECT_THROW(oram.dummy_access(), crypto::crypto_error);
}

/// A path-backend client whose whole tree lives on storage.
client storage_tree_client(storage::storage_layout layout) {
  return client_builder()
      .blocks(256)
      .memory_blocks(32)
      .payload_bytes(16)
      .backend(backend_kind::path)
      .layout(layout)
      .seal(true)
      .seed(test::seed(41))
      .build();
}

void expect_storage_bucket_tamper_detected(storage::storage_layout layout,
                                           tamper_site site) {
  client oram = storage_tree_client(layout);
  for (block_id id = 0; id < 8; ++id) {
    EXPECT_EQ(oram.read(id).size(), 16u);
  }
  const auto* backend =
      dynamic_cast<const path_backend*>(&oram.backend());
  ASSERT_NE(backend, nullptr);
  const path_oram& tree = backend->tree();
  ASSERT_EQ(tree.layout(), layout);
  ASSERT_EQ(tree.memory_level_count(), 0u) << "root must be on storage";

  tamper_root(tree, site);
  // Fresh ids are not cached, so reading them extracts from the tree.
  EXPECT_THROW(
      {
        for (block_id id = 100; id < 164; ++id) {
          (void)oram.read(id);
        }
      },
      crypto::crypto_error);
}

TEST_P(PathOramTamper, FlatStorageBucketFailsTheNextAccess) {
  expect_storage_bucket_tamper_detected(storage::storage_layout::flat,
                                        GetParam());
}

TEST_P(PathOramTamper, PageStorageBucketFailsTheNextAccess) {
  expect_storage_bucket_tamper_detected(storage::storage_layout::page,
                                        GetParam());
}

// ------------------------------------------------- tree-top-cache split

// The cache tree (every level in memory) opens a whole path window in
// one batch. A tampered bucket at the leaf end of the requested block's
// path must fail path_oram::access with the typed crypto error before
// anything is decrypted: the caller's buffer and the stash stay as they
// were.
TEST(FaultInjection, TamperedCacheTreeBucketFailsTheAccessTyped) {
  fixture fx;
  path_oram oram(fx.config(64), fx.memory, nullptr, fx.cpu, fx.rng,
                 nullptr);
  for (block_id id = 0; id < 40; ++id) {
    oram.access(op_kind::write, id, payload_of(static_cast<std::uint8_t>(id)),
                {});
  }
  ASSERT_NO_THROW(oram.check_consistency());
  ASSERT_EQ(oram.memory_level_count(), oram.level_count());

  const block_id target = 7;
  const std::uint32_t deepest = oram.level_count() - 1;
  const std::uint64_t leaf_bucket =
      ((std::uint64_t{1} << deepest) - 1) +
      path_oram_test_access::leaf_of(oram, target);
  const block_codec& codec = path_oram_test_access::codec(oram);
  path_oram_test_access::corrupt(oram, leaf_bucket, codec.id_offset(0) + 1,
                                 0x08);
  const std::size_t stash_before = oram.stash_ref().size();
  std::vector<std::uint8_t> out(16, 0xcc);
  EXPECT_THROW(oram.access(op_kind::read, target, {}, out),
               crypto::crypto_error);
  EXPECT_EQ(out, std::vector<std::uint8_t>(16, 0xcc));
  EXPECT_EQ(oram.stash_ref().size(), stash_before);
}

TEST(PathOramSplit, LanesChargeTheRightDevices) {
  fixture fx;
  // 7 levels, top 3 in memory, bottom 4 on disk.
  path_oram oram(fx.config(64, /*memory_levels=*/3), fx.memory, &fx.disk,
                 fx.cpu, fx.rng, nullptr);
  fx.memory.reset_stats();
  fx.disk.reset_stats();
  const cost_split cost = oram.access(op_kind::write, 1, payload_of(1), {});
  EXPECT_GT(cost.memory, 0);
  EXPECT_GT(cost.io, 0);
  EXPECT_GT(cost.cpu, 0);
  // 3 memory buckets + 4 disk buckets, read and written once each.
  EXPECT_EQ(fx.memory.stats().read_ops, 3u);
  EXPECT_EQ(fx.memory.stats().write_ops, 3u);
  EXPECT_EQ(fx.disk.stats().read_ops, 4u);
  EXPECT_EQ(fx.disk.stats().write_ops, 4u);
}

TEST(PathOramSplit, IoDominatesWithHdd) {
  fixture fx;
  path_oram oram(fx.config(64, 3), fx.memory, &fx.disk, fx.cpu, fx.rng,
                 nullptr);
  const cost_split cost = oram.access(op_kind::write, 1, payload_of(1), {});
  EXPECT_GT(cost.io, 10 * cost.memory);
}

TEST(PathOramSplit, NeedsDiskWhenDeeperThanMemory) {
  fixture fx;
  EXPECT_THROW(path_oram(fx.config(64, 3), fx.memory, nullptr, fx.cpu,
                         fx.rng, nullptr),
               contract_error);
}

TEST(PathOramSplit, CorrectnessWithSplit) {
  fixture fx;
  path_oram oram(fx.config(32, 2), fx.memory, &fx.disk, fx.cpu, fx.rng,
                 nullptr);
  std::map<block_id, std::uint8_t> shadow;
  util::pcg64 driver(11);
  for (int step = 0; step < 1000; ++step) {
    const block_id id = util::uniform_below(driver, 100);
    if (util::bernoulli(driver, 0.5)) {
      const auto tag = static_cast<std::uint8_t>(step);
      oram.access(op_kind::write, id, payload_of(tag), {});
      shadow[id] = tag;
    } else if (shadow.contains(id)) {
      std::vector<std::uint8_t> out(16);
      oram.access(op_kind::read, id, {}, out);
      ASSERT_EQ(out[0], shadow[id]) << "step " << step;
    }
  }
}

}  // namespace
}  // namespace horam::oram

// Tests for the H-ORAM storage layer: loads, dummy loads with
// prefetching, unaccessed-slot accounting, the group-and-partition
// shuffle, and the partial-shuffle append/masking machinery.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <unordered_map>

#include "backend_test_access.h"
#include "core/storage_layer.h"
#include "sim/profiles.h"
#include "util/rng.h"

namespace horam {
namespace {

using oram::block_id;
using oram::dummy_block_id;
using oram::evicted_block;

struct fixture {
  sim::block_device disk{sim::hdd_paper()};
  sim::cpu_model cpu{sim::cpu_aesni()};
  util::pcg64 rng{31};
  oram::access_trace trace;

  horam_config config(std::uint64_t n = 256, std::uint64_t memory = 32,
                      std::uint32_t shuffle_every = 1) {
    horam_config c;
    c.block_count = n;
    c.memory_blocks = memory;
    c.payload_bytes = 16;
    c.seal = true;
    c.shuffle_every_periods = shuffle_every;
    return c;
  }

  storage_layer make(const horam_config& c,
                     bool with_filler = true) {
    static const std::function<void(block_id, std::span<std::uint8_t>)>
        filler = [](block_id id, std::span<std::uint8_t> out) {
          out[0] = static_cast<std::uint8_t>(id);
          out[1] = static_cast<std::uint8_t>(id >> 8);
        };
    return storage_layer(c, disk, cpu, rng, &trace,
                         with_filler ? &filler : nullptr);
  }
};

TEST(StorageLayer, GeometryCoversDataset) {
  fixture fx;
  const horam_config c = fx.config(256, 32);
  storage_layer layer = fx.make(c);
  const auto& g = layer.geometry();
  EXPECT_EQ(g.partition_count, 16u);  // sqrt(256)
  EXPECT_GE(g.partition_count * g.main_capacity, 256u);
  EXPECT_EQ(layer.unaccessed_slot_count(),
            g.partition_count * g.main_capacity);
}

TEST(StorageLayer, LoadBlockReturnsFilledPayload) {
  fixture fx;
  storage_layer layer = fx.make(fx.config());
  EXPECT_TRUE(layer.in_storage(42));
  const auto result = layer.load_block(42);
  EXPECT_EQ(result.id, 42u);
  EXPECT_EQ(result.payload[0], 42);
  EXPECT_GT(result.cost.io, 0);
  EXPECT_FALSE(layer.in_storage(42));  // now cached
}

TEST(StorageLayer, LoadBlockTwiceIsAContractViolation) {
  fixture fx;
  storage_layer layer = fx.make(fx.config());
  layer.load_block(7);
  EXPECT_THROW(layer.load_block(7), contract_error);
}

TEST(StorageLayer, LoadsConsumeUnaccessedSlots) {
  fixture fx;
  storage_layer layer = fx.make(fx.config());
  const std::uint64_t before = layer.unaccessed_slot_count();
  layer.load_block(1);
  layer.dummy_load();
  EXPECT_EQ(layer.unaccessed_slot_count(), before - 2);
}

TEST(StorageLayer, DummyLoadPrefetchesLiveBlocks) {
  fixture fx;
  // Slack 1.0-ish: most slots are live, so dummy loads usually find
  // real blocks and cache them.
  horam_config c = fx.config(256, 32);
  c.partition_slack = 1.0;
  storage_layer layer = fx.make(c);
  std::uint64_t prefetched = 0;
  for (int i = 0; i < 64; ++i) {
    const auto result = layer.dummy_load();
    if (result.id != dummy_block_id) {
      ++prefetched;
      EXPECT_FALSE(layer.in_storage(result.id));
      EXPECT_EQ(result.payload[0],
                static_cast<std::uint8_t>(result.id));
    }
  }
  EXPECT_EQ(prefetched, layer.stats().prefetched_blocks);
  EXPECT_GT(prefetched, 32u);  // most slots are live
}

TEST(StorageLayer, SlotReadsNeverRepeatWithinPeriod) {
  fixture fx;
  storage_layer layer = fx.make(fx.config(256, 64));
  std::set<std::uint64_t> slots;
  util::pcg64 driver(32);
  for (int i = 0; i < 100; ++i) {
    fx.trace.clear();
    if (util::bernoulli(driver, 0.5)) {
      const block_id id = util::uniform_below(driver, 256);
      if (layer.in_storage(id)) {
        layer.load_block(id);
      } else {
        layer.dummy_load();
      }
    } else {
      layer.dummy_load();
    }
    for (const auto& event : fx.trace.events()) {
      if (event.kind == oram::event_kind::storage_read_slot) {
        EXPECT_TRUE(slots.insert(event.a).second)
            << "slot " << event.a << " read twice";
      }
    }
  }
}

TEST(StorageLayer, ShuffleRestoresSlotPools) {
  fixture fx;
  storage_layer layer = fx.make(fx.config(256, 64));
  std::vector<evicted_block> evicted;
  for (int i = 0; i < 32; ++i) {
    const auto result = layer.dummy_load();
    if (result.id != dummy_block_id) {
      evicted.push_back(evicted_block{result.id, result.payload});
    }
  }
  const std::uint64_t total =
      layer.geometry().partition_count * layer.geometry().main_capacity;
  EXPECT_LT(layer.unaccessed_slot_count(), total);
  std::vector<evicted_block> overflow;
  layer.shuffle_period(std::move(evicted), 0, overflow);
  EXPECT_TRUE(overflow.empty());
  EXPECT_EQ(layer.unaccessed_slot_count(), total);
}

TEST(StorageLayer, ShuffleKeepsEveryBlockReachable) {
  // Load half the dataset, shuffle it back, then verify every block is
  // loadable with its payload intact.
  fixture fx;
  storage_layer layer = fx.make(fx.config(64, 16));
  std::unordered_map<block_id, std::vector<std::uint8_t>> cached;
  for (block_id id = 0; id < 32; ++id) {
    cached[id] = layer.load_block(id).payload;
  }
  std::vector<evicted_block> evicted;
  for (auto& [id, payload] : cached) {
    evicted.push_back(evicted_block{id, payload});
  }
  std::vector<evicted_block> overflow;
  const shuffle_cost cost =
      layer.shuffle_period(std::move(evicted), 0, overflow);
  EXPECT_TRUE(overflow.empty());
  EXPECT_GT(cost.io_read, 0);
  EXPECT_GT(cost.io_write, 0);

  for (block_id id = 0; id < 64; ++id) {
    ASSERT_TRUE(layer.in_storage(id)) << "id " << id;
    const auto result = layer.load_block(id);
    EXPECT_EQ(result.payload[0], static_cast<std::uint8_t>(id));
  }
}

TEST(StorageLayer, ShuffleIsSequentialOnDisk) {
  fixture fx;
  storage_layer layer = fx.make(fx.config(256, 64));
  fx.disk.reset_stats();
  std::vector<evicted_block> overflow;
  layer.shuffle_period({}, 0, overflow);
  const auto& stats = fx.disk.stats();
  // One streaming read + one streaming write per partition.
  EXPECT_EQ(stats.read_ops, layer.geometry().partition_count);
  EXPECT_EQ(stats.write_ops, layer.geometry().partition_count);
  EXPECT_EQ(layer.stats().partitions_shuffled,
            layer.geometry().partition_count);
}

TEST(StorageLayer, FullShuffleRelocatesBlocks) {
  // After a full shuffle, evicted blocks land in fresh uniformly random
  // partitions: with 32 blocks over 16 partitions, the probability all
  // return to one partition is negligible.
  fixture fx;
  storage_layer layer = fx.make(fx.config(256, 64));
  std::vector<evicted_block> evicted;
  for (block_id id = 100; id < 132; ++id) {
    evicted.push_back(evicted_block{id, layer.load_block(id).payload});
  }
  std::vector<evicted_block> overflow;
  layer.shuffle_period(std::move(evicted), 0, overflow);
  fx.trace.clear();
  std::set<std::uint64_t> partitions;
  for (block_id id = 100; id < 132; ++id) {
    layer.load_block(id);
  }
  for (const auto& event : fx.trace.events()) {
    if (event.kind == oram::event_kind::storage_read_slot) {
      partitions.insert(event.a /
                        layer.geometry().slots_per_partition());
    }
  }
  EXPECT_GT(partitions.size(), 4u);
}

// -------------------------------------------------- partial shuffling

TEST(StorageLayerPartial, OnlyDuePartitionsAreShuffled) {
  fixture fx;
  storage_layer layer = fx.make(fx.config(256, 64, /*shuffle_every=*/4));
  std::vector<evicted_block> overflow;
  layer.shuffle_period({}, 0, overflow);
  EXPECT_EQ(layer.stats().partitions_shuffled,
            layer.geometry().partition_count / 4);
}

TEST(StorageLayerPartial, EvictedBlocksAppendAndStayReachable) {
  fixture fx;
  storage_layer layer = fx.make(fx.config(256, 64, /*shuffle_every=*/4));
  std::vector<evicted_block> evicted;
  for (block_id id = 0; id < 24; ++id) {
    evicted.push_back(evicted_block{id, layer.load_block(id).payload});
  }
  std::vector<evicted_block> overflow;
  layer.shuffle_period(std::move(evicted), 0, overflow);
  EXPECT_GT(layer.stats().append_segments, 0u);
  for (block_id id = 0; id < 24; ++id) {
    if (overflow.end() != std::find_if(overflow.begin(), overflow.end(),
                                       [&](const evicted_block& b) {
                                         return b.id == id;
                                       })) {
      continue;  // kept in the shelter
    }
    ASSERT_TRUE(layer.in_storage(id));
    const auto result = layer.load_block(id);
    EXPECT_EQ(result.payload[0], static_cast<std::uint8_t>(id));
  }
}

TEST(StorageLayerPartial, MaskingReadsMatchPendingSegments) {
  fixture fx;
  // Masking reads draw on dead (dummy) slots; give the tiny test
  // partitions enough slack to supply them for a full period.
  horam_config cfg = fx.config(256, 64, /*shuffle_every=*/4);
  cfg.partition_slack = 1.5;
  storage_layer layer = fx.make(cfg);
  // Period 0: evict a few blocks so non-due partitions carry segments.
  std::vector<evicted_block> evicted;
  for (block_id id = 0; id < 24; ++id) {
    evicted.push_back(evicted_block{id, layer.load_block(id).payload});
  }
  std::vector<evicted_block> overflow;
  layer.shuffle_period(std::move(evicted), 0, overflow);

  // Loads from partitions with one pending segment must do 2 reads.
  // Stay within one period's load budget (n/2 = 32): masking draws on
  // the partitions' dead slots, which the next shuffle replenishes.
  const std::uint64_t masks_before = layer.stats().masking_reads;
  std::uint64_t loads_with_pending = 0;
  for (block_id id = 24; id < 24 + 32; ++id) {
    if (!layer.in_storage(id)) {
      continue;
    }
    fx.trace.clear();
    layer.load_block(id);
    std::uint64_t reads = 0;
    std::set<std::uint64_t> partitions;
    for (const auto& event : fx.trace.events()) {
      if (event.kind == oram::event_kind::storage_read_slot) {
        ++reads;
        partitions.insert(event.a /
                          layer.geometry().slots_per_partition());
      }
    }
    EXPECT_EQ(partitions.size(), 1u);  // masks stay in the partition
    const std::uint64_t pending =
        layer.pending_segments(*partitions.begin());
    EXPECT_EQ(reads, 1 + pending);
    loads_with_pending += pending > 0 ? 1 : 0;
  }
  EXPECT_GT(loads_with_pending, 0u);
  EXPECT_GT(layer.stats().masking_reads, masks_before);
}

TEST(StorageLayerPartial, MaskingReadsDrawUniformlyAmongDeadSlots) {
  // Each masking read is a uniform draw among its partition's dead
  // unaccessed slots. With ~89 % of a partition's slots live, a bounded
  // rejection sampler that falls back to the first dead slot in pool
  // order (an order the bus can rebuild) would pick that slot far more
  // often than 1 / (dead slots). Over many masks, the first-in-order
  // pick must match the uniform expectation within 4 sigma.
  double expected_first = 0.0;
  double variance = 0.0;
  std::uint64_t first = 0;
  std::uint64_t masks = 0;
  for (std::uint64_t trial = 0; trial < 120; ++trial) {
    fixture fx;
    fx.rng = util::pcg64(7000 + trial);
    horam_config cfg = fx.config(1024, 128, /*shuffle_every=*/2);
    cfg.partition_slack = 1.1;
    storage_layer layer = fx.make(cfg, /*with_filler=*/false);
    const std::uint64_t per_partition =
        layer.geometry().slots_per_partition();
    std::vector<evicted_block> evicted;
    for (block_id id = 0; id < 64; ++id) {
      evicted.push_back(evicted_block{id, layer.load_block(id).payload});
    }
    std::vector<evicted_block> overflow;
    layer.shuffle_period(std::move(evicted), 0, overflow);

    for (block_id id = 64; id < 128; ++id) {
      if (!layer.in_storage(id)) {
        continue;
      }
      const std::uint64_t p =
          storage_layer_test_access::slot_of(layer, id) / per_partition;
      if (layer.pending_segments(p) == 0) {
        continue;
      }
      const std::vector<std::uint32_t> dead =
          storage_layer_test_access::dead_pooled(layer, p);
      if (dead.empty()) {
        continue;  // the mask is skipped; nothing to draw from
      }
      fx.trace.clear();
      layer.load_block(id);
      const oram::trace_event& mask = fx.trace.events().front();
      ASSERT_EQ(mask.kind, oram::event_kind::storage_read_slot);
      const auto code = static_cast<std::uint32_t>(mask.a - p * per_partition);
      const auto it = std::find(dead.begin(), dead.end(), code);
      ASSERT_NE(it, dead.end()) << "a mask read a live or accessed slot";
      const double q = 1.0 / static_cast<double>(dead.size());
      expected_first += q;
      variance += q * (1.0 - q);
      first += it == dead.begin() ? 1 : 0;
      ++masks;
    }
  }
  ASSERT_GT(masks, 1000u);
  EXPECT_LT(std::abs(static_cast<double>(first) - expected_first),
            4.0 * std::sqrt(variance))
      << first << " first-in-order picks in " << masks << " masks, "
      << expected_first << " expected";
}

TEST(StorageLayerPartial, RoundRobinCoversAllPartitionsEventually) {
  fixture fx;
  storage_layer layer = fx.make(fx.config(256, 64, /*shuffle_every=*/4));
  std::vector<evicted_block> overflow;
  for (std::uint64_t period = 0; period < 4; ++period) {
    layer.shuffle_period({}, period, overflow);
  }
  EXPECT_EQ(layer.stats().partitions_shuffled,
            layer.geometry().partition_count);
}

TEST(StorageLayerPartial, DifferentialWorkloadAcrossPeriods) {
  // Mixed loads + partial shuffles across many periods; every block
  // must keep its identity-tagged payload.
  fixture fx;
  storage_layer layer = fx.make(fx.config(64, 16, /*shuffle_every=*/2));
  util::pcg64 driver(33);
  std::unordered_map<block_id, std::vector<std::uint8_t>> in_memory;
  for (std::uint64_t period = 0; period < 6; ++period) {
    for (int load = 0; load < 8; ++load) {
      const block_id id = util::uniform_below(driver, 64);
      if (layer.in_storage(id)) {
        in_memory[id] = layer.load_block(id).payload;
      } else {
        const auto result = layer.dummy_load();
        if (result.id != dummy_block_id) {
          in_memory[result.id] = result.payload;
        }
      }
    }
    std::vector<evicted_block> evicted;
    for (auto& [id, payload] : in_memory) {
      evicted.push_back(evicted_block{id, std::move(payload)});
    }
    in_memory.clear();
    std::vector<evicted_block> overflow;
    layer.shuffle_period(std::move(evicted), period, overflow);
    for (auto& block : overflow) {
      in_memory.emplace(block.id, std::move(block.payload));
    }
  }
  // Verify every block: either in storage with the right payload, or
  // carried in the overflow shelter.
  for (block_id id = 0; id < 64; ++id) {
    if (in_memory.contains(id)) {
      EXPECT_EQ(in_memory[id][0], static_cast<std::uint8_t>(id));
    } else {
      ASSERT_TRUE(layer.in_storage(id)) << "id " << id;
      EXPECT_EQ(layer.load_block(id).payload[0],
                static_cast<std::uint8_t>(id));
    }
  }
}

// A due partition opens all its survivors (in batches) before anything
// moves. A tampered record of its last survivor must fail the shuffle
// step with the typed crypto error and leave every block's location and
// every slot's contents as they were.
TEST(FaultInjection, TamperedDuePartitionLeavesTheLayoutUntouched) {
  fixture fx;
  storage_layer layer = fx.make(fx.config());
  const std::uint64_t per_partition = layer.geometry().slots_per_partition();
  std::map<block_id, std::uint64_t> slots;
  block_id last = dummy_block_id;
  for (block_id id = 0; id < 256; ++id) {
    slots[id] = storage_layer_test_access::slot_of(layer, id);
    if (slots[id] / per_partition == 0 &&
        (last == dummy_block_id || slots[id] > slots[last])) {
      last = id;
    }
  }
  ASSERT_NE(last, dummy_block_id);
  std::unique_ptr<shuffle_job> job = layer.begin_shuffle({}, 0);
  storage_layer_test_access::corrupt(layer, slots[last], 12, 0x10);

  EXPECT_THROW((void)job->step(/*device_budget=*/1), crypto::crypto_error);
  for (const auto& [id, slot] : slots) {
    ASSERT_TRUE(layer.in_storage(id)) << id;
    EXPECT_EQ(storage_layer_test_access::slot_of(layer, id), slot) << id;
  }
  EXPECT_NO_THROW(layer.check_consistency());
}

// A store that copies block 1's sealed record over block 2's slot: the
// copy opens, and the slot is live, so the dummy load that draws it
// must reject an id the permutation list places elsewhere rather than
// skip the prefetch, and block 2 stays on storage.
TEST(FaultInjection, MovedRecordFailsTheDummyLoadThatReadsIt) {
  fixture fx;
  storage_layer layer = fx.make(fx.config());
  storage_layer_test_access::copy_slot(
      layer, storage_layer_test_access::slot_of(layer, 1),
      storage_layer_test_access::slot_of(layer, 2));
  bool failed = false;
  while (!failed && layer.unaccessed_slot_count() > 0) {
    try {
      const storage_layer::load_result result = layer.dummy_load();
      EXPECT_NE(result.id, 2u);
    } catch (const contract_error&) {
      failed = true;
    }
  }
  EXPECT_TRUE(failed);
  EXPECT_TRUE(layer.in_storage(2));
}

}  // namespace
}  // namespace horam

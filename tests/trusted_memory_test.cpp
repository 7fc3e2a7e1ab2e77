// Trusted-memory pricing: every control_memory_bytes() figure is the
// byte size of the containers it names, at the width they are stored
// in. Ring keeps one record per bucket (32-bit real ids, 8-bit slot
// offsets, a read bitmask and an epoch) and nothing per slot; a
// backend tree keeps no position map (each record carries its leaf,
// and the recursive map is the backend's one map), and the
// controller's cache tree, whose real slots cover under half its
// universe, a resident-only table of 32-bit ids and 16-bit leaves
// priced at its capacity; a tree backend keeps one residency bit per
// block; the partitioned layer packs its
// permutation list, live bits and pools at the bits their values need
// and keeps 64-bit Fenwick weights; a sharded engine keeps one packed
// local id per block.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "core/storage_layer.h"
#include "horam.h"
#include "oram/common/tree_backend.h"
#include "oram/ring/ring_oram.h"
#include "test_support.h"

namespace horam {
namespace {

using oram::block_id;

constexpr std::uint64_t kBlocks = 2048;
constexpr std::size_t kPayload = 16;

/// Bytes of a packed array of `entries` fields of `bits` bits: whole
/// 64-bit words.
std::uint64_t packed_bytes(std::uint64_t entries, std::uint64_t bits) {
  return (entries * bits + 63) / 64 * 8;
}

/// The controller's cache tree keys its map by resident blocks: a
/// power-of-two table of 4-byte ids and 2-byte leaves, grown past its
/// 16 initial slots to keep at least twice the residents' slots.
void expect_resident_only_map(const controller& ctrl) {
  const std::uint64_t bytes = ctrl.memory_tree().position_map_bytes();
  ASSERT_EQ(bytes % 6, 0u) << bytes;
  const std::uint64_t capacity = bytes / 6;
  EXPECT_TRUE(std::has_single_bit(capacity)) << capacity;
  EXPECT_GT(capacity, 16u);
  EXPECT_GE(capacity, 2 * ctrl.memory_tree().resident_blocks());
  EXPECT_LT(bytes, kBlocks * 2);  // below the dense map it replaces
}

/// Stash bytes as the controller prices them.
std::uint64_t controller_stash_bytes(const controller& ctrl) {
  return ctrl.memory_tree().stash_ref().size() * (kPayload + 16);
}

client build(backend_kind kind, std::uint32_t shards) {
  client c = client_builder()
                 .blocks(kBlocks)
                 .memory_blocks(256)
                 .payload_bytes(kPayload)
                 .backend(kind)
                 .shards(shards)
                 .seed(7)
                 .build();
  // Some traffic, so stashes and caches hold something.
  util::pcg64 rng(11);
  std::vector<std::uint8_t> data(kPayload, 0x5a);
  for (int i = 0; i < 600; ++i) {
    const block_id id = util::uniform_below(rng, kBlocks);
    if (i % 3 == 0) {
      c.write(id, data);
    } else {
      (void)c.read(id);
    }
  }
  return c;
}

TEST(TrustedMemory, PricedBytesMatchContainers) {
  // Ring: one record per bucket. At Z = 16, S = 25 that is 16 ids of
  // 4 B, 16 offsets of 1 B, a real count of 1 B, one mask word and an
  // epoch: 97 B. At Z = 32, S = 49 the mask takes two words.
  for (const auto& [z, s, per_bucket] :
       {std::tuple<std::uint32_t, std::uint32_t, std::uint64_t>{16, 25, 97},
        {32, 49, 32 * 4 + 32 + 1 + 2 * 8 + 8}}) {
    sim::block_device device{sim::hdd_paper()};
    sim::cpu_model cpu{sim::cpu_aesni()};
    util::pcg64 rng{3};
    oram::ring_oram_config config;
    config.leaf_count = 16;
    config.real_slots = z;
    config.spare_slots = s;
    config.payload_bytes = kPayload;
    config.id_universe = 256;
    oram::ring_oram tree(config, device, cpu, rng, nullptr);
    EXPECT_EQ(tree.metadata_bytes(), tree.bucket_count() * per_bucket)
        << "Z = " << z << ", S = " << s;
  }

  // A ring backend prices its map residue, stash, residency bits and
  // the tree's bucket records; its tree keeps no position map.
  {
    const client c = build(backend_kind::ring, 1);
    const auto& ring =
        dynamic_cast<const oram::ring_backend&>(c.backend());
    const oram::ring_oram& tree = ring.tree();
    EXPECT_EQ(tree.position_map_bytes(), 0u);
    EXPECT_EQ(ring.control_memory_bytes(),
              ring.map().trusted_bytes() +
                  tree.stash_ref().size() *
                      (kPayload + sizeof(oram::stash_entry)) +
                  packed_bytes(kBlocks, 1) + tree.metadata_bytes());

    const controller& ctrl = c.eng().shard(0);
    expect_resident_only_map(ctrl);
    EXPECT_EQ(ctrl.control_memory_bytes(),
              ctrl.memory_tree().position_map_bytes() +
                  ring.control_memory_bytes() +
                  controller_stash_bytes(ctrl));
    EXPECT_EQ(c.control_memory_bytes(), ctrl.control_memory_bytes());
  }

  // Path prices the same containers minus ring's bucket records.
  {
    const client c = build(backend_kind::path, 1);
    const auto& path =
        dynamic_cast<const oram::path_backend&>(c.backend());
    EXPECT_EQ(path.tree().position_map_bytes(), 0u);
    EXPECT_EQ(path.control_memory_bytes(),
              path.map().trusted_bytes() +
                  path.tree().stash_ref().size() *
                      (kPayload + sizeof(oram::stash_entry)) +
                  packed_bytes(kBlocks, 1));
  }

  // Partitioned: per block a location of residence (2 bits), partition
  // and slot code; per slot a live bit, a pool entry and a pool
  // position at ⌈log₂(slots per partition + 1)⌉ bits; per partition a
  // 64-bit Fenwick weight (plus the tree's unused root word).
  {
    const client c = build(backend_kind::partitioned, 1);
    const auto& layer = dynamic_cast<const storage_layer&>(c.backend());
    const storage::partition_geometry& g = layer.geometry();
    const std::uint64_t location_bits =
        2 + std::bit_width(g.partition_count - 1) +
        std::bit_width(g.slots_per_partition() - 1);
    const std::uint64_t pool_bits = std::bit_width(g.slots_per_partition());
    EXPECT_EQ(layer.control_memory_bytes(),
              packed_bytes(kBlocks, location_bits) +
                  packed_bytes(g.total_slots(), 1) +
                  2 * packed_bytes(g.total_slots(), pool_bits) +
                  (g.partition_count + 1) * 8);
    const controller& ctrl = c.eng().shard(0);
    expect_resident_only_map(ctrl);
    EXPECT_EQ(ctrl.control_memory_bytes(),
              ctrl.memory_tree().position_map_bytes() +
                  layer.control_memory_bytes() +
                  controller_stash_bytes(ctrl));
  }

  // A sharded engine adds one local id per block, packed at the bits
  // of its largest shard; it keeps no shard index or global-id lists.
  {
    const client c = build(backend_kind::ring, 4);
    const engine& eng = c.eng();
    std::uint64_t shards = 0;
    std::uint64_t listed = 0;
    std::uint64_t widest = 0;
    for (std::uint32_t s = 0; s < eng.shard_count(); ++s) {
      shards += eng.shard(s).control_memory_bytes();
      const std::uint64_t size = eng.shard_blocks(s).size();
      listed += size;
      widest = std::max(widest, size);
    }
    EXPECT_EQ(listed, kBlocks);
    EXPECT_EQ(eng.control_memory_bytes(),
              shards + packed_bytes(kBlocks, std::bit_width(widest - 1)));
  }
}

TEST(TrustedMemory, RingRejectsMoreThan256SlotsPerBucket) {
  // Slot offsets are 8-bit: the builder names both setters, and the
  // tree itself refuses such a bucket.
  const auto builder = [](std::uint32_t z, std::uint32_t s) {
    return client_builder()
        .blocks(kBlocks)
        .memory_blocks(256)
        .payload_bytes(kPayload)
        .backend(backend_kind::ring)
        .ring_bucket_size(z)
        .ring_spare_slots(s);
  };
  try {
    (void)builder(200, 57).build();
    ADD_FAILURE() << "Z + S = 257 accepted";
  } catch (const contract_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("ring_bucket_size()"), std::string::npos) << what;
    EXPECT_NE(what.find("ring_spare_slots()"), std::string::npos) << what;
  }
  EXPECT_NO_THROW((void)builder(200, 56).build());

  sim::block_device device{sim::hdd_paper()};
  sim::cpu_model cpu{sim::cpu_aesni()};
  util::pcg64 rng{3};
  oram::ring_oram_config config;
  config.leaf_count = 4;
  config.real_slots = 2;
  config.spare_slots = 255;
  config.payload_bytes = kPayload;
  config.id_universe = 16;
  EXPECT_THROW(oram::ring_oram(config, device, cpu, rng, nullptr),
               contract_error);
  config.spare_slots = 254;
  EXPECT_NO_THROW(oram::ring_oram(config, device, cpu, rng, nullptr));
}

}  // namespace
}  // namespace horam

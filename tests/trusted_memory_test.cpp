// Trusted-memory pricing: every control_memory_bytes() figure is the
// byte size of the containers it names, at the width they are stored
// in. Ring keeps one record per bucket (32-bit real ids, 8-bit slot
// offsets, a read bitmask and an epoch) and nothing per slot; tree
// position maps store 16-bit leaves below 65,535 leaves; the
// partitioned layer keeps an 8-byte location per block and 4-byte slot
// contents, pool entries and pool positions; a sharded engine keeps a
// 32-bit shard index and a 32-bit local id per block.
#include <gtest/gtest.h>

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

  // A ring backend prices its map residue, stash, residency bitmap and
  // the tree's bucket records.
  {
    const client c = build(backend_kind::ring, 1);
    const auto& ring =
        dynamic_cast<const oram::ring_backend&>(c.backend());
    const oram::ring_oram& tree = ring.tree();
    EXPECT_EQ(ring.control_memory_bytes(),
              ring.map().trusted_bytes() +
                  tree.stash_ref().size() *
                      (kPayload + sizeof(oram::stash_entry)) +
                  kBlocks + tree.metadata_bytes());

    // The controller prices its cache tree's position map at the
    // tree's leaf width: 2 B per block below 65,535 leaves.
    const controller& ctrl = c.eng().shard(0);
    EXPECT_EQ(ctrl.memory_tree().position_map_bytes(), kBlocks * 2);
    EXPECT_EQ(ctrl.control_memory_bytes(),
              ctrl.memory_tree().position_map_bytes() +
                  ring.control_memory_bytes() +
                  controller_stash_bytes(ctrl));
    EXPECT_EQ(c.control_memory_bytes(), ctrl.control_memory_bytes());
  }

  // Partitioned: an 8-byte location per block; per slot, 4-byte
  // contents, a 4-byte pool entry and a 4-byte pool position.
  {
    const client c = build(backend_kind::partitioned, 1);
    const auto& layer = dynamic_cast<const storage_layer&>(c.backend());
    EXPECT_EQ(layer.control_memory_bytes(),
              kBlocks * 8 + layer.geometry().total_slots() * 12);
  }

  // A sharded engine adds, per block, its shard's global-id list entry
  // (8 B), a 32-bit shard index and a 32-bit local id.
  {
    const client c = build(backend_kind::ring, 4);
    const engine& eng = c.eng();
    std::uint64_t shards = 0;
    std::uint64_t listed = 0;
    for (std::uint32_t s = 0; s < eng.shard_count(); ++s) {
      shards += eng.shard(s).control_memory_bytes();
      listed += eng.shard_blocks(s).size();
    }
    EXPECT_EQ(listed, kBlocks);
    EXPECT_EQ(eng.control_memory_bytes(),
              shards + listed * sizeof(block_id) + kBlocks * (4 + 4));
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

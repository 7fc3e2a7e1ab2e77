// Tests of the sealing-key schedule (crypto/key_schedule.h). Every
// sealer starts its nonce counter at 0, so two stores that shared a key
// would reuse ChaCha20 keystream. The audit builds every backend at one
// and at four shards, collects the keys each built store holds (read
// back from the store, not re-derived) and asserts that no two are
// equal, within a shard or across shards. Sealed stores built directly
// refuse the all-zero default keys.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "backend_test_access.h"
#include "horam.h"
#include "oram/common/tree_backend.h"
#include "sim/profiles.h"
#include "test_support.h"
#include "util/rng.h"

namespace horam {
namespace {

using key_bytes = std::vector<std::uint8_t>;

/// Every key of every store, each named by where it was found.
class key_audit {
 public:
  void add(const std::string& name, const crypto::seal_keys& keys) {
    add(name + " encryption",
        key_bytes(keys.encryption_key.begin(), keys.encryption_key.end()));
    add(name + " MAC", key_bytes(keys.mac_key.begin(), keys.mac_key.end()));
  }
  void add(const std::string& name, std::uint64_t key) {
    key_bytes bytes(sizeof(key));
    std::memcpy(bytes.data(), &key, sizeof(key));
    add(name, bytes);
  }
  /// The map levels of a tree backend, of which there must be two or
  /// more.
  void add_map(const std::string& shard,
               const oram::recursive_position_map& map) {
    const std::vector<const oram::path_oram*> levels =
        oram::recursive_position_map_test_access::levels(map);
    EXPECT_GE(levels.size(), 2u) << shard;
    for (std::size_t k = 0; k < levels.size(); ++k) {
      add(shard + " map level " + std::to_string(k),
          oram::path_oram_test_access::codec(*levels[k]).keys());
    }
  }
  [[nodiscard]] std::size_t size() const { return seen_.size(); }

 private:
  void add(const std::string& name, const key_bytes& bytes) {
    const auto [it, fresh] = seen_.emplace(bytes, name);
    EXPECT_TRUE(fresh) << name << " repeats " << it->second;
  }

  std::map<key_bytes, std::string> seen_;
};

client build(backend_kind kind, std::uint32_t shards) {
  return client_builder()
      .blocks(1024)
      .memory_blocks(128)
      .payload_bytes(16)
      .backend(kind)
      .shards(shards)
      .seal(true)
      .seed(test::seed(40))
      // Small map blocks and residue, so the map recursion has at least
      // two levels on every shard.
      .config_tweak([](horam_config& c) {
        c.map_entries_per_block = 8;
        c.map_direct_threshold = 4;
      })
      .build();
}

/// Collects the keys of every store of `oram`, shard by shard.
void collect(const client& oram, key_audit& audit) {
  const engine& eng = oram.eng();
  for (std::uint32_t s = 0; s < eng.shard_count(); ++s) {
    const std::string shard =
        std::string(oram.backend().name()) + " shard " + std::to_string(s);
    const controller& ctrl = eng.shard(s);
    audit.add(shard + " cache tree",
              oram::path_oram_test_access::codec(ctrl.memory_tree()).keys());
    const oram_backend& backend = ctrl.backend();
    if (const auto* layer = dynamic_cast<const storage_layer*>(&backend)) {
      audit.add(shard + " partitions",
                storage_layer_test_access::keys(*layer));
    } else if (const auto* hier =
                   dynamic_cast<const oram::hier_backend*>(&backend)) {
      audit.add(shard + " hier levels",
                oram::hier_backend_test_access::keys(*hier));
    } else if (const auto* path =
                   dynamic_cast<const oram::path_backend*>(&backend)) {
      audit.add(shard + " tree",
                oram::path_oram_test_access::codec(path->tree()).keys());
      audit.add_map(shard, path->map());
    } else {
      const auto& ring = dynamic_cast<const oram::ring_backend&>(backend);
      audit.add(shard + " tree",
                oram::ring_oram_test_access::keys(ring.tree()));
      audit.add(shard + " ring pads",
                oram::ring_oram_test_access::pad_key(ring.tree()));
      audit.add_map(shard, ring.map());
    }
  }
}

TEST(KeySchedule, EveryStoreOfEveryShardSealsUnderItsOwnKeys) {
  for (const std::uint32_t shards : {1u, 4u}) {
    for (const backend_kind kind :
         {backend_kind::partitioned, backend_kind::hier, backend_kind::path,
          backend_kind::ring}) {
      SCOPED_TRACE(testing::Message() << "shards " << shards);
      key_audit audit;
      collect(build(kind, shards), audit);
      // Per shard at least the cache tree's and one store's two keys.
      EXPECT_GE(audit.size(), 4u * shards);
    }
  }
}

TEST(KeySchedule, SingleShardKeepsTheRootSeed) {
  // shards(1) keeps the caller's root verbatim, so its sealed bytes
  // stay those of a manually wired single controller.
  const client single = build(backend_kind::path, 1);
  EXPECT_EQ(single.eng().shard(0).config().key_seed,
            single.eng().config().key_seed);
}

/// Runs `make` and expects the contract_error that names the schedule.
template <class Make>
void expect_refused(const char* what, Make make) {
  try {
    make();
    ADD_FAILURE() << what << " accepted all-zero keys";
  } catch (const contract_error& error) {
    EXPECT_NE(std::string(error.what()).find("crypto::key_schedule"),
              std::string::npos)
        << what << ": " << error.what();
  }
}

// The default keys are all zero, and every sealer's nonces start at 0:
// two sealed stores built on the defaults would share one keystream.
// Sealed trees refuse them; unsealed trees have no keystream to share.
TEST(KeySchedule, SealedTreesRefuseAllZeroKeys) {
  sim::block_device device{sim::dram_ddr4()};
  const sim::cpu_model cpu{sim::cpu_aesni()};
  util::pcg64 rng{test::seed(41)};

  oram::path_oram_config path;
  path.leaf_count = 8;
  path.payload_bytes = 16;
  path.id_universe = 16;
  expect_refused("path_oram", [&] {
    oram::path_oram tree(path, device, nullptr, cpu, rng, nullptr);
  });
  path.seal = false;
  EXPECT_NO_THROW(oram::path_oram(path, device, nullptr, cpu, rng, nullptr));

  oram::ring_oram_config ring;
  ring.leaf_count = 8;
  ring.payload_bytes = 16;
  ring.id_universe = 16;
  expect_refused("ring_oram",
                 [&] { oram::ring_oram tree(ring, device, cpu, rng, nullptr); });
  // Sealing keys from the schedule do not excuse an all-zero pad key.
  ring.keys.seal = test::tree_keys();
  expect_refused("ring_oram pads",
                 [&] { oram::ring_oram tree(ring, device, cpu, rng, nullptr); });
  ring.keys = test::ring_keys();
  EXPECT_NO_THROW(oram::ring_oram(ring, device, cpu, rng, nullptr));
  ring.keys = {};
  ring.seal = false;
  EXPECT_NO_THROW(oram::ring_oram(ring, device, cpu, rng, nullptr));
}

}  // namespace
}  // namespace horam

// Golden pins for the sealed bytes of the storage backends
// (partitioned, hier, path and ring). Each case builds a sealed backend
// with fixed seeds, runs a fixed sequence of loads, dummy loads and
// shuffle periods (monolithic and budgeted), and pins a 64-bit digest
// of every byte of the backend's record stores after the build and
// after each period. The sequences cover a partitioned append segment
// and a due-partition shuffle, a hier merge cascade, Path ORAM extracts
// and stash drains under the flat and page layouts (tree store and
// recursive-map stores), and ring evictions and early reshuffles. Sealed bytes depend on every nonce
// and on the order in which records are sealed, so any change to how a
// backend composes, batches or seals its records must leave every value
// here unchanged.
//
// The seeds are fixed constants rather than test::seed(): the pinned
// values are a property of this exact run.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "backend_test_access.h"
#include "horam.h"
#include "oram/common/tree_backend.h"

namespace horam {
namespace {

using oram::block_id;

constexpr std::uint64_t kBlocks = 256;

horam_config base_config() {
  horam_config c;
  c.block_count = kBlocks;
  c.memory_blocks = 32;
  c.bucket_size = 2;
  c.payload_bytes = 16;
  c.seal = true;
  c.key_seed = 0x5eed5107;
  return c;
}

/// Digest of every store the backend owns.
std::uint64_t digest(const oram_backend& backend) {
  if (const auto* layer = dynamic_cast<const storage_layer*>(&backend)) {
    return store_digest(storage_layer_test_access::store(*layer));
  }
  if (const auto* hier = dynamic_cast<const oram::hier_backend*>(&backend)) {
    return store_digest(oram::hier_backend_test_access::store(*hier));
  }
  if (const auto* path = dynamic_cast<const oram::path_backend*>(&backend)) {
    // The tree's store, then every recursion level's map ORAM.
    std::vector<const oram::path_oram*> trees{&path->tree()};
    for (const oram::path_oram* level :
         oram::recursive_position_map_test_access::levels(path->map())) {
      trees.push_back(level);
    }
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const oram::path_oram* tree : trees) {
      for (const storage::block_store* store :
           oram::path_oram_test_access::stores(*tree)) {
        hash = store_digest(*store, hash);
      }
    }
    return hash;
  }
  const auto& ring = dynamic_cast<const oram::ring_backend&>(backend);
  return store_digest(oram::ring_oram_test_access::store(ring.tree()));
}

/// Builds `kind` with fixed seeds, runs `periods` shuffle periods of
/// loads and dummy loads (every third period stepped in small
/// device-time slices; owed work runs before each shuffle, as in the
/// controller), and returns the store digest after the build
/// and after each period. `inspect` sees the backend at the end; a
/// non-null `trace` records the backend's bus events.
std::vector<std::uint64_t> run(
    backend_kind kind, const horam_config& config, std::uint64_t periods,
    const std::function<void(const oram_backend&)>& inspect,
    oram::access_trace* trace = nullptr) {
  sim::block_device device{sim::hdd_paper()};
  sim::block_device map_device{sim::dram_ddr4()};
  sim::cpu_model cpu{sim::cpu_aesni()};
  util::pcg64 rng{0x5107e};
  const std::function<void(block_id, std::span<std::uint8_t>)> filler =
      [](block_id id, std::span<std::uint8_t> out) {
        for (std::size_t i = 0; i < out.size(); ++i) {
          out[i] = static_cast<std::uint8_t>(id * 7 + i);
        }
      };
  const std::unique_ptr<oram_backend> backend = make_backend(
      kind, config, device, cpu, rng, trace, &filler, &map_device);

  std::vector<std::uint64_t> digests{digest(*backend)};
  util::pcg64 workload{0xd16e57};
  for (std::uint64_t period = 0; period < periods; ++period) {
    std::vector<oram::evicted_block> evicted;
    deferred_work* owed = nullptr;
    for (std::uint64_t cycle = 0; cycle < config.period_loads(); ++cycle) {
      const block_id target = util::uniform_below(workload, kBlocks);
      const bool real = cycle % 3 != 2 && backend->in_storage(target);
      oram_backend::load_result load =
          real ? backend->load_block(target) : backend->dummy_load();
      if (load.deferred != nullptr) {
        owed = load.deferred;
      }
      if (load.id != oram::dummy_block_id) {
        load.payload[0] ^= static_cast<std::uint8_t>(period + 1);
        evicted.push_back(
            oram::evicted_block{load.id, std::move(load.payload)});
      }
    }
    // Work the loads left owed runs before the shuffle, as the
    // controller's end_period() runs it.
    if (owed != nullptr) {
      (void)owed->run(owed->owed());
    }
    std::vector<oram::evicted_block> overflow;
    if (period % 3 != 2) {
      backend->shuffle_period(std::move(evicted), period, overflow);
    } else {
      std::unique_ptr<shuffle_job> job =
          backend->begin_shuffle(std::move(evicted), period);
      while (!job->done()) {
        (void)job->step(50'000);
      }
      job->finish(overflow);
    }
    // Sheltered blocks go back with the next period's hot set.
    EXPECT_TRUE(overflow.empty() || kind == backend_kind::partitioned);
    EXPECT_NO_THROW(backend->check_consistency());
    digests.push_back(digest(*backend));
  }
  inspect(*backend);
  return digests;
}

TEST(StoreDigestGolden, partitioned) {
  horam_config config = base_config();
  // Half the partitions are due each period; the rest take appends.
  config.shuffle_every_periods = 2;
  const std::vector<std::uint64_t> digests =
      run(backend_kind::partitioned, config, 4, [](const oram_backend& b) {
        EXPECT_GT(b.stats().append_segments, 0u);
        EXPECT_GT(b.stats().partitions_shuffled, 0u);
      });
  // Digests 2–4 follow the masking reads' uniform draw among a
  // partition's dead unaccessed slots.
  const std::vector<std::uint64_t> expected{
      0x78f9719ac19578f7ULL, 0x09aebe791a303a40ULL, 0xbb1aecd044fd0734ULL,
      0xf2ed05a28ec36e2cULL, 0xa640f75cdc096cd1ULL};
  EXPECT_EQ(digests, expected);
}

TEST(StoreDigestGolden, hier) {
  // Level 1 takes two hot sets (radix b_1 = 3), so period 2 (ordinal 3)
  // cascades into level 2.
  const std::vector<std::uint64_t> digests =
      run(backend_kind::hier, base_config(), 5, [](const oram_backend& b) {
        const auto& hier = dynamic_cast<const oram::hier_backend&>(b);
        EXPECT_GT(hier.level_live(2), 0u);
      });
  const std::vector<std::uint64_t> expected{
      0xcd61c2d334512f95ULL, 0x0a0db15c7a60368aULL, 0x7b485064fde1f98bULL,
      0xdc0038a1554b142aULL, 0x4faf77267fffa0fdULL, 0x829e1ecd50370b2bULL};
  EXPECT_EQ(digests, expected);
}

/// A path config whose recursive map keeps two ORAM levels (256 ids,
/// 8 per map block: 32 blocks, then 4).
horam_config path_config() {
  horam_config config = base_config();
  config.map_entries_per_block = 8;
  config.map_direct_threshold = 16;
  return config;
}

void expect_path_drains(const oram_backend& b) {
  const auto& path = dynamic_cast<const oram::path_backend&>(b);
  EXPECT_EQ(path.map().level_count(), 2u);
  EXPECT_GT(path.tree().stats().installs, 0u);
  EXPECT_GT(path.last_drain_steps(), 0u);
}

TEST(StoreDigestGolden, path_flat) {
  const std::vector<std::uint64_t> digests =
      run(backend_kind::path, path_config(), 3, expect_path_drains);
  const std::vector<std::uint64_t> expected{
      0xa12efc6cee2d787fULL, 0x49fc6dbd59e74e35ULL, 0x27e22f0bd6e3fdb5ULL,
      0x6b67fea06c58f532ULL};
  EXPECT_EQ(digests, expected);
}

TEST(StoreDigestGolden, path_page) {
  horam_config config = path_config();
  config.layout = storage::storage_layout::page;
  config.page_bytes = 1024;
  const std::vector<std::uint64_t> digests =
      run(backend_kind::path, config, 3, [](const oram_backend& b) {
        expect_path_drains(b);
        const auto& path = dynamic_cast<const oram::path_backend&>(b);
        EXPECT_GT(path.tree().page_geometry()->group_count(), 1u);
      });
  const std::vector<std::uint64_t> expected{
      0xf41b928be9f58e8aULL, 0x353d2a2d8cb314e8ULL, 0xf541e7eba565f8b3ULL,
      0xddd819c02f12ac9cULL};
  EXPECT_EQ(digests, expected);
}

TEST(StoreDigestGolden, ring) {
  horam_config config = base_config();
  config.ring_bucket_size = 2;
  config.ring_spare_slots = 3;
  config.ring_eviction_rate = 3;
  const std::vector<std::uint64_t> digests =
      run(backend_kind::ring, config, 3, [](const oram_backend& b) {
        const auto& ring = dynamic_cast<const oram::ring_backend&>(b);
        EXPECT_GT(ring.tree().stats().evictions, 0u);
        EXPECT_GT(ring.tree().stats().early_reshuffles, 0u);
      });
  const std::vector<std::uint64_t> expected{
      0x361d2881a8c57ddfULL, 0x65542fc037d14bc8ULL, 0x8910e2b1ea586db9ULL,
      0x320b4fc33733e07cULL};
  EXPECT_EQ(digests, expected);
}

/// FNV-1a over every event of `trace`: which slots were read, which
/// buckets swept, in order.
std::uint64_t trace_digest(const oram::access_trace& trace) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const oram::trace_event& event : trace.events()) {
    for (const std::uint64_t word :
         {static_cast<std::uint64_t>(event.kind), event.a, event.b}) {
      hash = (hash ^ word) * 0x100000001b3ULL;
    }
  }
  return hash;
}

// Z + S = 81 slots per bucket: a bucket's read bitmask spans two
// 64-bit words, and its real-slot offsets range past 64. The bus trace
// pins every slot choice as well: its length and its digest.
TEST(StoreDigestGolden, ring_wide) {
  horam_config config = base_config();
  config.ring_bucket_size = 32;
  config.ring_spare_slots = 49;
  config.ring_eviction_rate = 64;
  // 64 loads per period: the root reaches S reads between drains.
  config.memory_blocks = 128;
  oram::access_trace trace;
  const std::vector<std::uint64_t> digests = run(
      backend_kind::ring, config, 4,
      [](const oram_backend& b) {
        const auto& ring = dynamic_cast<const oram::ring_backend&>(b);
        EXPECT_GT(ring.tree().stats().evictions, 0u);
        EXPECT_GT(ring.tree().stats().early_reshuffles, 0u);
      },
      &trace);
  const std::vector<std::uint64_t> expected{
      0x5fab7400e390ed17ULL, 0x6b31bb3dd8a2c35cULL, 0xd121cf2dfa214008ULL,
      0xe335ddaefb3116d4ULL, 0x7d040326fc0d4cb4ULL};
  EXPECT_EQ(digests, expected);
  EXPECT_EQ(trace.size(), 2472u);
  EXPECT_EQ(trace_digest(trace), 0x423ac4345be25abbULL);
}

}  // namespace
}  // namespace horam

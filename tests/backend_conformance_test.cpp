// Conformance suite for the pluggable oram_backend interface: every
// implementation (partitioned storage layer, sqrt ORAM, partition ORAM,
// Path ORAM with a recursive position map, Ring ORAM, hierarchical
// ORAM with a succinct index) must satisfy the same
// contract — residency tracking, load/dummy-load semantics,
// shuffle-period merge, payload round-trips, deep consistency audits —
// both driven directly and fronted by the full controller through the
// public client facade.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <string_view>

#include "horam.h"
#include "test_support.h"

namespace horam {
namespace {

using oram::block_id;
using oram::op_kind;

constexpr std::uint64_t kBlocks = 256;
constexpr std::uint64_t kMemoryBlocks = 32;
constexpr std::size_t kPayload = 16;

struct rig {
  sim::block_device device{sim::hdd_paper()};
  sim::block_device map_device{sim::dram_ddr4()};
  sim::cpu_model cpu{sim::cpu_aesni()};
  util::pcg64 rng{test::seed(97)};

  horam_config config() const {
    horam_config c;
    c.block_count = kBlocks;
    c.memory_blocks = kMemoryBlocks;
    c.payload_bytes = kPayload;
    c.seal = true;
    return c;
  }

  std::unique_ptr<oram_backend> make(backend_kind kind) {
    return make_backend(kind, config(), device, cpu, rng,
                        /*trace=*/nullptr, /*filler=*/nullptr,
                        &map_device);
  }
};

std::vector<std::uint8_t> tagged(block_id id, std::uint64_t epoch) {
  std::vector<std::uint8_t> data(kPayload, 0);
  data[0] = static_cast<std::uint8_t>(id);
  data[1] = static_cast<std::uint8_t>(id >> 8);
  data[2] = static_cast<std::uint8_t>(epoch);
  return data;
}

class BackendConformance
    : public ::testing::TestWithParam<backend_kind> {};

INSTANTIATE_TEST_SUITE_P(
    AllBackends, BackendConformance,
    ::testing::ValuesIn(all_backend_kinds),
    [](const ::testing::TestParamInfo<backend_kind>& info) {
      return std::string(backend_name(info.param));
    });

TEST_P(BackendConformance, InitialStateIsConsistent) {
  rig fx;
  const std::unique_ptr<oram_backend> backend = fx.make(GetParam());
  EXPECT_FALSE(backend->name().empty());
  EXPECT_GT(backend->physical_bytes(), 0u);
  EXPECT_GT(backend->control_memory_bytes(), 0u);
  for (block_id id = 0; id < kBlocks; ++id) {
    EXPECT_TRUE(backend->in_storage(id)) << "block " << id;
  }
  EXPECT_NO_THROW(backend->check_consistency());
}

TEST_P(BackendConformance, LoadMarksCachedAndReturnsPayload) {
  rig fx;
  const std::unique_ptr<oram_backend> backend = fx.make(GetParam());
  const oram_backend::load_result load = backend->load_block(42);
  EXPECT_EQ(load.id, 42u);
  EXPECT_EQ(load.payload, std::vector<std::uint8_t>(kPayload, 0));
  EXPECT_GT(load.cost.io, 0);
  EXPECT_FALSE(backend->in_storage(42));
  EXPECT_EQ(backend->stats().real_loads, 1u);
  EXPECT_NO_THROW(backend->check_consistency());
}

TEST_P(BackendConformance, DummyLoadsAreCountedAndPrefetchesStayCached) {
  rig fx;
  const std::unique_ptr<oram_backend> backend = fx.make(GetParam());
  std::uint64_t prefetched = 0;
  const std::uint64_t period_loads = fx.config().period_loads();
  for (std::uint64_t i = 0; i < period_loads; ++i) {
    const oram_backend::load_result load = backend->dummy_load();
    EXPECT_GT(load.cost.io, 0);
    if (load.id != oram::dummy_block_id) {
      // A prefetch: the block must now count as cached.
      EXPECT_FALSE(backend->in_storage(load.id));
      EXPECT_EQ(load.payload.size(), kPayload);
      ++prefetched;
    }
  }
  EXPECT_EQ(backend->stats().dummy_loads, period_loads);
  EXPECT_EQ(backend->stats().prefetched_blocks, prefetched);
  EXPECT_NO_THROW(backend->check_consistency());
}

// The controller's life cycle, hand-driven: per period issue exactly
// period_loads loads (a mix of real misses and dummies), mutate the hot
// set, hand every cached block to shuffle_period(), audit, repeat —
// then verify all data survived the shuffles byte for byte.
TEST_P(BackendConformance, ShufflePeriodsRoundTripData) {
  rig fx;
  const std::unique_ptr<oram_backend> backend = fx.make(GetParam());
  const std::uint64_t period_loads = fx.config().period_loads();

  std::map<block_id, std::vector<std::uint8_t>> cache;   // the "tree"
  std::map<block_id, std::vector<std::uint8_t>> shadow;  // the oracle
  util::pcg64 driver(test::seed(11));

  for (std::uint64_t period = 0; period < 6; ++period) {
    for (std::uint64_t cycle = 0; cycle < period_loads; ++cycle) {
      const bool want_real = util::bernoulli(driver, 0.6);
      const block_id target = util::uniform_below(driver, kBlocks);
      oram_backend::load_result load;
      if (want_real && backend->in_storage(target)) {
        load = backend->load_block(target);
        ASSERT_EQ(load.id, target);
      } else {
        load = backend->dummy_load();
      }
      if (load.id != oram::dummy_block_id) {
        ASSERT_FALSE(backend->in_storage(load.id));
        // Loads must deliver the last payload the shuffle wrote back.
        const auto expected = shadow.contains(load.id)
                                  ? shadow[load.id]
                                  : std::vector<std::uint8_t>(kPayload, 0);
        ASSERT_EQ(load.payload, expected)
            << backend_name(GetParam()) << " period " << period
            << " block " << load.id;
        cache[load.id] = load.payload;
      }
    }

    // Mutate a slice of the hot set (the application's writes).
    for (auto& [id, payload] : cache) {
      if (util::bernoulli(driver, 0.5)) {
        payload = tagged(id, period);
        shadow[id] = payload;
      }
    }

    // Evict everything cached into the shuffle.
    std::vector<oram::evicted_block> evicted;
    evicted.reserve(cache.size());
    for (auto& [id, payload] : cache) {
      evicted.push_back(oram::evicted_block{id, payload});
    }
    cache.clear();
    std::vector<oram::evicted_block> overflow;
    const shuffle_cost cost =
        backend->shuffle_period(std::move(evicted), period, overflow);
    EXPECT_GE(cost.total(), 0);
    // Overflowed blocks stay "cached" with the controller's shelter.
    for (oram::evicted_block& block : overflow) {
      EXPECT_FALSE(backend->in_storage(block.id));
      cache.emplace(block.id, std::move(block.payload));
    }
    ASSERT_NO_THROW(backend->check_consistency())
        << backend_name(GetParam()) << " period " << period;
  }

  // Every block not sheltered must be back on storage with its data.
  std::uint64_t verified = 0;
  for (const auto& [id, payload] : shadow) {
    if (cache.contains(id)) {
      EXPECT_EQ(cache[id], payload);
      continue;
    }
    ASSERT_TRUE(backend->in_storage(id));
    const oram_backend::load_result load = backend->load_block(id);
    EXPECT_EQ(load.payload, payload) << "block " << id;
    ++verified;
  }
  EXPECT_GT(verified, 10u);
  EXPECT_GT(backend->stats().partitions_shuffled, 0u);
}

// The same contract exercised through the whole stack: controller +
// cache tree fronting each backend, built solely via the public facade.
TEST_P(BackendConformance, ClientDifferentialCorrectness) {
  client oram = client_builder()
                    .blocks(kBlocks)
                    .memory_blocks(kMemoryBlocks)
                    .payload_bytes(kPayload)
                    .backend(GetParam())
                    .seed(test::seed(23))
                    .build();
  EXPECT_EQ(oram.backend().name(), backend_name(GetParam()));

  std::map<block_id, std::vector<std::uint8_t>> shadow;
  util::pcg64 driver(test::seed(29));
  for (int step = 0; step < 800; ++step) {
    const block_id id = util::uniform_below(driver, kBlocks);
    if (util::bernoulli(driver, 0.4)) {
      const auto data = tagged(id, static_cast<std::uint64_t>(step));
      oram.write(id, data);
      shadow[id] = data;
    } else {
      const auto expected = shadow.contains(id)
                                ? shadow[id]
                                : std::vector<std::uint8_t>(kPayload, 0);
      ASSERT_EQ(oram.read(id), expected)
          << backend_name(GetParam()) << " step " << step << " id " << id;
    }
  }
  EXPECT_GT(oram.stats().periods, 3u);
  EXPECT_NO_THROW(oram.backend().check_consistency());
}

// The incremental session API streams batches through each backend.
TEST_P(BackendConformance, SubmitDrainSessionServicesEverything) {
  client oram = client_builder()
                    .blocks(kBlocks)
                    .memory_blocks(kMemoryBlocks)
                    .payload_bytes(kPayload)
                    .backend(GetParam())
                    .seed(test::seed(31))
                    .build();
  util::pcg64 driver(test::seed(37));
  std::uint64_t submitted = 0;
  for (int wave = 0; wave < 5; ++wave) {
    const std::uint64_t count = 20 + 10 * static_cast<std::uint64_t>(wave);
    for (std::uint64_t i = 0; i < count; ++i) {
      request req;
      req.op = op_kind::read;
      req.id = util::uniform_below(driver, kBlocks);
      oram.submit(std::move(req));
    }
    submitted += count;
    EXPECT_EQ(oram.pending(), count);
    std::vector<request_result> results;
    oram.drain(&results);
    EXPECT_EQ(oram.pending(), 0u);
    ASSERT_EQ(results.size(), count);
    for (const request_result& result : results) {
      EXPECT_GT(result.completion_time, 0);
      EXPECT_EQ(result.read_data.size(), kPayload);
    }
  }
  EXPECT_EQ(oram.stats().requests, submitted);
}

// Rejecting misuse uniformly: loading a cached block trips a contract.
TEST_P(BackendConformance, LoadingCachedBlockTripsContract) {
  rig fx;
  const std::unique_ptr<oram_backend> backend = fx.make(GetParam());
  (void)backend->load_block(7);
  EXPECT_THROW((void)backend->load_block(7), contract_error);
}

// An empty eviction (nothing was cached) is a legal shuffle period:
// nothing may change residency, and the deep audit must stay clean.
TEST_P(BackendConformance, EmptyShufflePeriodKeepsEverythingResident) {
  rig fx;
  const std::unique_ptr<oram_backend> backend = fx.make(GetParam());
  for (std::uint64_t period = 0; period < 3; ++period) {
    std::vector<oram::evicted_block> overflow;
    (void)backend->shuffle_period({}, period, overflow);
    EXPECT_TRUE(overflow.empty());
    for (block_id id = 0; id < kBlocks; ++id) {
      ASSERT_TRUE(backend->in_storage(id)) << "block " << id;
    }
    ASSERT_NO_THROW(backend->check_consistency());
  }
  EXPECT_EQ(backend->stats().real_loads, 0u);
}

// Residency must match an explicitly tracked cached set exactly, for
// every block, across interleaved loads, dummies and evict-shuffles.
TEST_P(BackendConformance, ResidencyTrackingIsExactAcrossPeriods) {
  rig fx;
  const std::unique_ptr<oram_backend> backend = fx.make(GetParam());
  const std::uint64_t period_loads = fx.config().period_loads();
  util::pcg64 driver(test::seed(41));

  std::map<block_id, std::vector<std::uint8_t>> cached;
  for (std::uint64_t period = 0; period < 4; ++period) {
    for (std::uint64_t cycle = 0; cycle < period_loads; ++cycle) {
      const block_id target = util::uniform_below(driver, kBlocks);
      oram_backend::load_result load;
      if (backend->in_storage(target)) {
        load = backend->load_block(target);
      } else {
        load = backend->dummy_load();
      }
      if (load.id != oram::dummy_block_id) {
        cached[load.id] = load.payload;
      }
    }
    for (block_id id = 0; id < kBlocks; ++id) {
      ASSERT_EQ(backend->in_storage(id), !cached.contains(id))
          << backend_name(GetParam()) << " period " << period << " block "
          << id;
    }
    std::vector<oram::evicted_block> evicted;
    for (auto& [id, payload] : cached) {
      evicted.push_back(oram::evicted_block{id, std::move(payload)});
    }
    cached.clear();
    std::vector<oram::evicted_block> overflow;
    (void)backend->shuffle_period(std::move(evicted), period, overflow);
    for (oram::evicted_block& block : overflow) {
      cached.emplace(block.id, std::move(block.payload));
    }
    ASSERT_NO_THROW(backend->check_consistency());
  }
}

// Facade plumbing: every kind's printed name parses back to the kind,
// and the builder accepts it end to end.
TEST_P(BackendConformance, NameRoundTripsThroughParserAndBuilder) {
  EXPECT_EQ(backend_by_name(backend_name(GetParam())), GetParam());
  client oram = client_builder()
                    .blocks(64)
                    .memory_blocks(16)
                    .payload_bytes(8)
                    .backend(backend_by_name(backend_name(GetParam())))
                    .seed(test::seed(43))
                    .build();
  EXPECT_EQ(oram.kind(), GetParam());
  EXPECT_EQ(oram.read(5), std::vector<std::uint8_t>(8, 0));
}

// ------------------------------------------------- tree-backend detail

// Per-scheme seeds (rig ORAM stream, recursion driver, drain driver)
// and the bucket's real-slot count Z for the tree-backend detail tests.
template <class Backend>
struct tree_case;

template <>
struct tree_case<oram::path_backend> {
  static constexpr std::string_view name = "path";
  static constexpr std::uint64_t rig_salt = 97;
  static constexpr std::uint64_t recursion_salt = 47;
  static constexpr std::uint64_t drain_salt = 53;
  static std::uint32_t z(const horam_config& config) {
    return config.bucket_size;
  }
};

template <>
struct tree_case<oram::ring_backend> {
  static constexpr std::string_view name = "ring";
  static constexpr std::uint64_t rig_salt = 311;
  static constexpr std::uint64_t recursion_salt = 313;
  static constexpr std::uint64_t drain_salt = 317;
  static std::uint32_t z(const horam_config& config) {
    return config.ring_bucket_size;
  }
};

template <class Backend>
class TreeBackendDetail : public ::testing::Test {
 protected:
  using scheme = tree_case<Backend>;

  TreeBackendDetail() {
    fx.rng = util::pcg64(test::seed(scheme::rig_salt));
  }

  rig fx;
};

struct tree_case_name {
  template <class Backend>
  static std::string GetName(int /*index*/) {
    return std::string(tree_case<Backend>::name);
  }
};

using TreeBackends = ::testing::Types<oram::path_backend, oram::ring_backend>;
TYPED_TEST_SUITE(TreeBackendDetail, TreeBackends, tree_case_name);

// Deep recursion forced via the config knobs: the recursive map chain
// gains real ORAM levels, shrinks trusted memory below the flat map's
// 8 bytes/block, and still agrees with the tree at every audit.
TYPED_TEST(TreeBackendDetail, ForcedRecursionAgreesWithTreeUnderStress) {
  rig& fx = this->fx;
  horam_config config = fx.config();
  config.map_entries_per_block = 8;
  config.map_direct_threshold = 4;
  TypeParam backend(config, fx.device, fx.cpu, fx.rng, /*trace=*/nullptr,
                    /*filler=*/nullptr, &fx.map_device);
  EXPECT_GE(backend.map().level_count(), 2u);
  EXPECT_LT(backend.map().trusted_bytes(), 8 * kBlocks);

  util::pcg64 driver(test::seed(TestFixture::scheme::recursion_salt));
  std::map<block_id, std::vector<std::uint8_t>> cached;
  for (std::uint64_t period = 0; period < 3; ++period) {
    for (std::uint64_t cycle = 0; cycle < fx.config().period_loads();
         ++cycle) {
      const block_id target = util::uniform_below(driver, kBlocks);
      if (backend.in_storage(target)) {
        const auto load = backend.load_block(target);
        cached[load.id] = load.payload;
      } else {
        (void)backend.dummy_load();
      }
    }
    std::vector<oram::evicted_block> evicted;
    for (auto& [id, payload] : cached) {
      evicted.push_back(oram::evicted_block{id, std::move(payload)});
    }
    cached.clear();
    std::vector<oram::evicted_block> overflow;
    (void)backend.shuffle_period(std::move(evicted), period, overflow);
    EXPECT_TRUE(overflow.empty());
    ASSERT_NO_THROW(backend.check_consistency()) << "period " << period;
  }
}

// The shuffle-period stash drain works: after a full evict-and-shuffle
// round the stash is back to a small constant, so the tree (not
// trusted memory) holds the dataset.
TYPED_TEST(TreeBackendDetail, ShuffleDrainReturnsStashToConstantSize) {
  rig& fx = this->fx;
  TypeParam backend(fx.config(), fx.device, fx.cpu, fx.rng,
                    /*trace=*/nullptr, /*filler=*/nullptr, &fx.map_device);
  util::pcg64 driver(test::seed(TestFixture::scheme::drain_salt));

  std::vector<oram::evicted_block> evicted;
  for (std::uint64_t i = 0; i < fx.config().period_loads(); ++i) {
    const block_id target = util::uniform_below(driver, kBlocks);
    if (backend.in_storage(target)) {
      const auto load = backend.load_block(target);
      evicted.push_back(oram::evicted_block{load.id, load.payload});
    } else {
      (void)backend.dummy_load();
    }
  }
  std::vector<oram::evicted_block> overflow;
  (void)backend.shuffle_period(std::move(evicted), 0, overflow);
  EXPECT_TRUE(overflow.empty());
  EXPECT_GT(backend.last_drain_steps(), 0u);
  EXPECT_LE(backend.tree().stash_ref().size(),
            2u * TestFixture::scheme::z(fx.config()));
  ASSERT_NO_THROW(backend.check_consistency());
}

// ------------------------------------------------- path-backend detail

// A legal non-power-of-two bucket size must not trip the tree's
// power-of-two leaf-count contract (the leaf count is derived by
// doubling, independently of Z).
TEST(PathBackendDetail, AcceptsNonPowerOfTwoBucketSize) {
  client oram = client_builder()
                    .blocks(200)
                    .memory_blocks(30)
                    .payload_bytes(8)
                    .bucket_size(5)
                    .backend(backend_kind::path)
                    .seed(test::seed(67))
                    .build();
  const std::vector<std::uint8_t> data(8, 0x5A);
  oram.write(3, data);
  EXPECT_EQ(oram.read(3), data);
  EXPECT_NO_THROW(oram.backend().check_consistency());
}

// Sanity of the client-facing recursion knobs: a facade-built client
// with forced recursion still round-trips data.
TEST(PathBackendDetail, FacadeClientWithForcedRecursionRoundTrips) {
  client oram = client_builder()
                    .blocks(kBlocks)
                    .memory_blocks(kMemoryBlocks)
                    .payload_bytes(kPayload)
                    .backend(backend_kind::path)
                    .seed(test::seed(59))
                    .config_tweak([](horam_config& config) {
                      config.map_entries_per_block = 8;
                      config.map_direct_threshold = 8;
                    })
                    .build();
  util::pcg64 driver(test::seed(61));
  std::map<block_id, std::vector<std::uint8_t>> shadow;
  for (int step = 0; step < 200; ++step) {
    const block_id id = util::uniform_below(driver, kBlocks);
    if (util::bernoulli(driver, 0.5)) {
      const auto data = tagged(id, static_cast<std::uint64_t>(step));
      oram.write(id, data);
      shadow[id] = data;
    } else {
      const auto expected = shadow.contains(id)
                                ? shadow[id]
                                : std::vector<std::uint8_t>(kPayload, 0);
      ASSERT_EQ(oram.read(id), expected) << "step " << step;
    }
  }
  EXPECT_NO_THROW(oram.backend().check_consistency());
}

}  // namespace
}  // namespace horam

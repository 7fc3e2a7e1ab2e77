// Conformance suite for the pluggable oram_backend interface: every
// implementation (partitioned storage layer, Path ORAM with a
// recursive position map, Ring ORAM, hierarchical ORAM with a succinct
// index) must satisfy the same contract — residency tracking, load/dummy-load semantics,
// shuffle-period merge, payload round-trips, deep consistency audits,
// unmeasured construction, seeded layouts, logical-block transfer
// sizes and rejection of ids it never handed out — both driven
// directly and fronted by the full controller through the public
// client facade.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <tuple>

#include "backend_test_access.h"
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

// ------------------------------------------- construction and misuse

/// Filler that stamps each block's id into its first two bytes.
const std::function<void(block_id, std::span<std::uint8_t>)>& id_filler() {
  static const std::function<void(block_id, std::span<std::uint8_t>)>
      filler = [](block_id id, std::span<std::uint8_t> out) {
        out[0] = static_cast<std::uint8_t>(id);
        out[1] = static_cast<std::uint8_t>(id >> 8);
      };
  return filler;
}

bool filled(const std::vector<std::uint8_t>& payload, block_id id) {
  return payload.size() == kPayload &&
         payload[0] == static_cast<std::uint8_t>(id) &&
         payload[1] == static_cast<std::uint8_t>(id >> 8);
}

/// Every event of `trace`, as (kind, a, b) triples.
std::vector<std::tuple<oram::event_kind, std::uint64_t, std::uint64_t>>
trace_events(const oram::access_trace& trace) {
  std::vector<std::tuple<oram::event_kind, std::uint64_t, std::uint64_t>>
      events;
  for (const oram::trace_event& event : trace.events()) {
    events.emplace_back(event.kind, event.a, event.b);
  }
  return events;
}

// The filler seeds every block's initial payload, whatever the scheme
// does with it on the way to storage.
TEST_P(BackendConformance, FillerSeedsInitialPayloads) {
  rig fx;
  const std::unique_ptr<oram_backend> backend =
      make_backend(GetParam(), fx.config(), fx.device, fx.cpu, fx.rng,
                   /*trace=*/nullptr, &id_filler(), &fx.map_device);
  for (const block_id id : {block_id{0}, block_id{1}, block_id{200},
                            block_id{kBlocks - 1}}) {
    const oram_backend::load_result load = backend->load_block(id);
    EXPECT_EQ(load.id, id);
    EXPECT_TRUE(filled(load.payload, id)) << "block " << id;
  }
  EXPECT_NO_THROW(backend->check_consistency());
}

// Building the initial layout is setup, not service: the devices start
// with clean counters and the backend with no loads.
TEST_P(BackendConformance, ConstructionIsNotMeasured) {
  rig fx;
  const std::unique_ptr<oram_backend> backend =
      make_backend(GetParam(), fx.config(), fx.device, fx.cpu, fx.rng,
                   /*trace=*/nullptr, &id_filler(), &fx.map_device);
  EXPECT_EQ(fx.device.stats().total_ops(), 0u);
  EXPECT_EQ(fx.map_device.stats().total_ops(), 0u);
  EXPECT_EQ(backend->stats().real_loads, 0u);
  EXPECT_EQ(backend->stats().dummy_loads, 0u);
}

// Payloads the cache changed come back changed after a shuffle; blocks
// the period never touched keep their initial payloads.
TEST_P(BackendConformance, ShuffleWritesBackEvictedPayloads) {
  rig fx;
  const std::unique_ptr<oram_backend> backend =
      make_backend(GetParam(), fx.config(), fx.device, fx.cpu, fx.rng,
                   /*trace=*/nullptr, &id_filler(), &fx.map_device);
  std::vector<oram::evicted_block> evicted;
  for (block_id id = 10; id < 26; ++id) {
    oram_backend::load_result load = backend->load_block(id);
    load.payload[2] = 0xA5;  // the cache mutated the block
    evicted.push_back(oram::evicted_block{id, load.payload});
  }
  std::vector<oram::evicted_block> overflow;
  (void)backend->shuffle_period(std::move(evicted), 0, overflow);
  EXPECT_TRUE(overflow.empty());
  ASSERT_NO_THROW(backend->check_consistency());
  for (block_id id = 10; id < 26; ++id) {
    ASSERT_TRUE(backend->in_storage(id)) << "block " << id;
    const oram_backend::load_result load = backend->load_block(id);
    EXPECT_TRUE(filled(load.payload, id)) << "block " << id;
    EXPECT_EQ(load.payload[2], 0xA5) << "block " << id;
  }
  const oram_backend::load_result untouched = backend->load_block(31);
  EXPECT_TRUE(filled(untouched.payload, 31));
  EXPECT_EQ(untouched.payload[2], 0);
}

// A shuffle period must receive only blocks the backend handed out, and
// only ids inside the universe.
TEST_P(BackendConformance, ShuffleRejectsBlocksItNeverHandedOut) {
  rig fx;
  const std::unique_ptr<oram_backend> backend = fx.make(GetParam());
  std::vector<oram::evicted_block> overflow;
  EXPECT_THROW(
      (void)backend->shuffle_period(
          {oram::evicted_block{7, std::vector<std::uint8_t>(kPayload)}}, 0,
          overflow),
      contract_error);
  EXPECT_THROW(
      (void)backend->shuffle_period(
          {oram::evicted_block{kBlocks, std::vector<std::uint8_t>(kPayload)}},
          0, overflow),
      contract_error);
}

// A logical block wider than the sealed record models a deployment's
// block: every slot the layout occupies, and every transfer a load
// makes, is a whole number of logical blocks.
TEST_P(BackendConformance, LogicalBlockBytesSetTheFootprintAndTransferSize) {
  constexpr std::uint64_t kLogical = 4096;
  rig fx;
  horam_config config = fx.config();
  config.logical_block_bytes = kLogical;
  const std::unique_ptr<oram_backend> backend =
      make_backend(GetParam(), config, fx.device, fx.cpu, fx.rng,
                   /*trace=*/nullptr, &id_filler(), &fx.map_device);
  EXPECT_EQ(backend->physical_bytes() % kLogical, 0u);
  EXPECT_GE(backend->physical_bytes(), kBlocks * kLogical);
  for (const block_id id : {block_id{77}, block_id{78}}) {
    fx.device.reset_stats();
    const oram_backend::load_result load = backend->load_block(id);
    EXPECT_TRUE(filled(load.payload, id)) << "block " << id;
    EXPECT_GT(fx.device.stats().bytes_read, 0u);
    EXPECT_EQ(fx.device.stats().bytes_read % kLogical, 0u) << "block " << id;
  }
  fx.device.reset_stats();
  (void)backend->dummy_load();
  EXPECT_GT(fx.device.stats().bytes_read, 0u);
  EXPECT_EQ(fx.device.stats().bytes_read % kLogical, 0u);
}

TEST_P(BackendConformance, OutOfRangeIdsAreContractViolations) {
  rig fx;
  const std::unique_ptr<oram_backend> backend = fx.make(GetParam());
  EXPECT_THROW((void)backend->in_storage(kBlocks), contract_error);
  EXPECT_THROW((void)backend->load_block(kBlocks), contract_error);
}

// The layout is a function of the seed alone: the same seed replays the
// same storage trace, another seed gives another one.
TEST_P(BackendConformance, LayoutIsDeterministicPerSeed) {
  const auto trace_of = [&](std::uint64_t seed) {
    rig fx;
    fx.rng = util::pcg64(seed);
    oram::access_trace trace;
    const std::unique_ptr<oram_backend> backend =
        make_backend(GetParam(), fx.config(), fx.device, fx.cpu, fx.rng,
                     &trace, /*filler=*/nullptr, &fx.map_device);
    trace.clear();
    for (block_id id = 0; id < 16; ++id) {
      (void)backend->load_block(id);
    }
    return trace_events(trace);
  };
  const auto first = trace_of(test::seed(43));
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, trace_of(test::seed(43)));
  EXPECT_NE(first, trace_of(test::seed(44)));
}

// The dummy supply is sized to the access period and a shuffle refills
// it: period after period of all-dummy loads never runs dry.
TEST_P(BackendConformance, ShuffleRestoresTheDummyBudget) {
  rig fx;
  const std::unique_ptr<oram_backend> backend = fx.make(GetParam());
  const std::uint64_t period_loads = fx.config().period_loads();
  for (std::uint64_t period = 0; period < 3; ++period) {
    std::vector<oram::evicted_block> prefetched;
    for (std::uint64_t i = 0; i < period_loads; ++i) {
      oram_backend::load_result load = backend->dummy_load();
      if (load.id != oram::dummy_block_id) {
        prefetched.push_back(
            oram::evicted_block{load.id, std::move(load.payload)});
      }
    }
    std::vector<oram::evicted_block> overflow;
    (void)backend->shuffle_period(std::move(prefetched), period, overflow);
    EXPECT_TRUE(overflow.empty());
    ASSERT_NO_THROW(backend->check_consistency()) << "period " << period;
  }
  EXPECT_EQ(backend->stats().dummy_loads, 3 * period_loads);
  EXPECT_EQ(backend->stats().exhausted_dummy_loads, 0u);
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
  /// Flips the low bit of the leaf half of the first real record's id
  /// word in a bucket at the tree's deepest level (`deepest`) or above
  /// it. The tree is unsealed, so the id header is plaintext.
  static void alter_record_leaf(const oram::path_oram& tree, bool deepest) {
    using access = oram::path_oram_test_access;
    const std::uint64_t leaf_level_first =
        (std::uint64_t{1} << (tree.level_count() - 1)) - 1;
    for (std::uint64_t bucket = deepest ? leaf_level_first : 0;
         bucket < (deepest ? tree.bucket_count() : leaf_level_first);
         ++bucket) {
      const std::vector<block_id> words = access::ids(tree, bucket);
      for (std::uint32_t k = 0; k < words.size(); ++k) {
        if (words[k] != oram::dummy_block_id) {
          access::corrupt(tree, bucket, access::codec(tree).id_offset(k) + 4,
                          1);
          return;
        }
      }
    }
    FAIL() << "no real record at the chosen levels";
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
  /// Flips the low bit of the leaf half of the first real slot record's
  /// id word in a bucket at the tree's deepest level (`deepest`) or
  /// above it. The tree is unsealed, so the record is plaintext.
  static void alter_record_leaf(const oram::ring_oram& tree, bool deepest) {
    using access = oram::ring_oram_test_access;
    const std::uint64_t leaf_level_first =
        (std::uint64_t{1} << (tree.level_count() - 1)) - 1;
    const auto slots = access::slot_metadata(tree);
    for (std::uint64_t slot = 0; slot < slots.size(); ++slot) {
      const std::uint64_t bucket = slot / tree.slots_per_bucket();
      if (slots[slot].first != oram::dummy_block_id &&
          (bucket >= leaf_level_first) == deepest) {
        access::corrupt(tree, slot, 4, 1);
        return;
      }
    }
    FAIL() << "no real record at the chosen levels";
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

// Every tree record carries its block's leaf in the high half of its id
// word. An altered leaf moves a record off its path when it sits at the
// deepest level, which the tree's own audit catches; higher up the path
// still passes its bucket, and the backend's audit catches the leaf
// disagreeing with the recursive map.
TYPED_TEST(TreeBackendDetail, AlteredRecordLeafFailsTheAudit) {
  rig& fx = this->fx;
  horam_config config = fx.config();
  config.seal = false;
  for (const bool deepest : {false, true}) {
    SCOPED_TRACE(deepest ? "deepest level" : "above the deepest level");
    TypeParam backend(config, fx.device, fx.cpu, fx.rng, /*trace=*/nullptr,
                      /*filler=*/nullptr, &fx.map_device);
    ASSERT_NO_THROW(backend.check_consistency());
    TestFixture::scheme::alter_record_leaf(backend.tree(), deepest);
    if (deepest) {
      EXPECT_THROW(backend.tree().check_consistency(), contract_error);
    } else {
      EXPECT_NO_THROW(backend.tree().check_consistency());
    }
    EXPECT_THROW(backend.check_consistency(), contract_error);
  }
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

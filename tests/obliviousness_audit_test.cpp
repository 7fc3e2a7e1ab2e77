// Statistical obliviousness audit: the access traces of all four
// backends are checked for (a) uniformity of the bus-visible positions
// they touch and (b) workload-independence of the position
// distribution under the async service scheduler. Negative controls
// prove the tests have the power to catch a leaky trace.
//
// What "position" means per scheme:
//   * partitioned — the storage slot of every read (uniform without
//     replacement within a period by construction);
//   * path — the leaf of every path access (buckets are hit with the
//     fixed, non-uniform marginal any tree walk induces, so the
//     uniformity claim lives at the leaf level; the bucket stream is
//     still checked for workload-independence);
//   * ring — the leaf of every online path read (uniformity), plus the
//     in-bucket slot index of every chosen slot, which exposes the
//     per-bucket permutation: its distribution must not depend on the
//     workload (real hits and dummy covers must blend), nor, for the Z
//     slots an eviction reads of a bucket, on how many reals it holds;
//   * hier — the level-local offset of every batched probe: real hits
//     and dummy ranks alike are outputs of the epoch's secret
//     permutation at never-repeated inputs, so each level's probe
//     stream must look like draws without replacement from its slot
//     range, on every level and regardless of the workload.
//
// All randomness derives from the logged HORAM_TEST_SEED
// (tests/test_support.h): a CI failure reproduces locally by exporting
// the logged value.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis/obliviousness.h"
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

// ----------------------------------------------------- primitives

TEST(ObliviousnessPrimitives, FoldHistogramCoversEdgesExactly) {
  const std::vector<std::uint64_t> samples = {0, 1, 9, 5, 9, 0};
  const std::vector<std::uint64_t> counts =
      analysis::fold_histogram(samples, /*universe=*/10, /*cells=*/5);
  // cell = sample * 5 / 10: {0,1,0} -> 0, {5} -> 2, {9,9} -> 4.
  EXPECT_EQ(counts, (std::vector<std::uint64_t>{3, 0, 1, 0, 2}));
  EXPECT_THROW(analysis::fold_histogram(samples, 9, 5), contract_error);
}

TEST(ObliviousnessPrimitives, KsAcceptsUniformSamples) {
  util::pcg64 rng(test::seed(201));
  std::vector<std::uint64_t> samples(4000);
  for (auto& sample : samples) {
    sample = util::uniform_below(rng, 1000);
  }
  const double d = analysis::ks_uniform_statistic(samples, 1000);
  EXPECT_LE(d, analysis::ks_one_sample_threshold(samples.size()));
}

TEST(ObliviousnessPrimitives, KsUniformHandlesTies) {
  // On a small universe every value repeats many times. The statistic
  // must compare the empirical CDF once per distinct value, not at
  // every tied sample, or a uniform stream reads about 1/U.
  util::pcg64 rng(test::seed(204));
  std::vector<std::uint64_t> samples(22000);
  for (auto& sample : samples) {
    sample = util::uniform_below(rng, 32);
  }
  const double d = analysis::ks_uniform_statistic(samples, 32);
  EXPECT_LE(d, analysis::ks_one_sample_threshold(samples.size()));
}

TEST(ObliviousnessPrimitives, KsRejectsSkewedSamples) {
  util::pcg64 rng(test::seed(202));
  std::vector<std::uint64_t> samples(4000);
  for (auto& sample : samples) {
    // Quadratic skew towards low values.
    const std::uint64_t a = util::uniform_below(rng, 1000);
    const std::uint64_t b = util::uniform_below(rng, 1000);
    sample = std::min(a, b);
  }
  const double d = analysis::ks_uniform_statistic(samples, 1000);
  EXPECT_GT(d, analysis::ks_one_sample_threshold(samples.size()));
}

TEST(ObliviousnessPrimitives, TwoSampleKsSeparatesShiftedStreams) {
  util::pcg64 rng(test::seed(203));
  std::vector<std::uint64_t> a(3000);
  std::vector<std::uint64_t> b(2000);
  for (auto& sample : a) {
    sample = util::uniform_below(rng, 1000);
  }
  for (auto& sample : b) {
    sample = util::uniform_below(rng, 1000);
  }
  EXPECT_LE(analysis::ks_two_sample_statistic(a, b),
            analysis::ks_two_sample_threshold(a.size(), b.size()));
  for (auto& sample : b) {
    sample = sample / 2;  // compress into the lower half
  }
  EXPECT_GT(analysis::ks_two_sample_statistic(a, b),
            analysis::ks_two_sample_threshold(a.size(), b.size()));
}

TEST(ObliviousnessPrimitives, HomogeneityZeroForIdenticalHistograms) {
  const std::vector<std::uint64_t> counts = {5, 9, 7, 3};
  EXPECT_DOUBLE_EQ(analysis::chi_square_homogeneity(counts, counts), 0.0);
}

// ----------------------------------------------- negative controls

// The raw *request address* stream of a hotspot workload is exactly
// the thing an ORAM must hide; the audit must reject it loudly.
TEST(ObliviousnessNegativeControl, HotspotAddressesFailUniformity) {
  util::pcg64 gen(test::seed(211));
  workload::stream_config config;
  config.request_count = 3000;
  config.block_count = kBlocks;
  config.payload_bytes = kPayload;
  const std::vector<request> stream =
      workload::hotspot(gen, config, 0.8, 0.1);
  std::vector<std::uint64_t> addresses;
  addresses.reserve(stream.size());
  for (const request& req : stream) {
    addresses.push_back(req.id);
  }
  const analysis::uniformity_report report =
      analysis::audit_uniformity(addresses, kBlocks);
  EXPECT_FALSE(report.passed());
  EXPECT_FALSE(report.chi_ok);
}

TEST(ObliviousnessNegativeControl, DifferentWorkloadAddressesFailEquality) {
  util::pcg64 gen(test::seed(212));
  workload::stream_config config;
  config.request_count = 3000;
  config.block_count = kBlocks;
  config.payload_bytes = kPayload;
  const std::vector<request> hot = workload::hotspot(gen, config, 0.9, 0.05);
  const std::vector<request> flat = workload::uniform(gen, config);
  std::vector<std::uint64_t> a;
  std::vector<std::uint64_t> b;
  for (const request& req : hot) {
    a.push_back(req.id);
  }
  for (const request& req : flat) {
    b.push_back(req.id);
  }
  const analysis::equality_report report =
      analysis::audit_distribution_equality(a, b, kBlocks);
  EXPECT_FALSE(report.passed());
}

// ------------------------------------------- per-backend uniformity

/// Hand-drives a backend through `periods` full access periods (the
/// controller's cadence: period_loads loads, then a whole-hot-set
/// evict-shuffle) with the trace recording the adversary's view.
void drive_backend(oram_backend& backend, const horam_config& config,
                   util::random_source& driver, std::uint64_t periods) {
  std::map<block_id, std::vector<std::uint8_t>> cached;
  for (std::uint64_t period = 0; period < periods; ++period) {
    for (std::uint64_t cycle = 0; cycle < config.period_loads(); ++cycle) {
      const bool want_real = util::bernoulli(driver, 0.6);
      const block_id target = util::uniform_below(driver, kBlocks);
      oram_backend::load_result load;
      if (want_real && backend.in_storage(target)) {
        load = backend.load_block(target);
      } else {
        load = backend.dummy_load();
      }
      if (load.id != oram::dummy_block_id) {
        cached[load.id] = std::move(load.payload);
      }
    }
    std::vector<oram::evicted_block> evicted;
    for (auto& [id, payload] : cached) {
      evicted.push_back(oram::evicted_block{id, std::move(payload)});
    }
    cached.clear();
    std::vector<oram::evicted_block> overflow;
    (void)backend.shuffle_period(std::move(evicted), period, overflow);
    for (oram::evicted_block& block : overflow) {
      cached.emplace(block.id, std::move(block.payload));
    }
  }
}

/// The scheme-appropriate (positions, universe) pair for a uniformity
/// audit, extracted from the trace of a directly driven backend.
struct position_stream {
  std::vector<std::uint64_t> positions;
  std::uint64_t universe = 0;
};

void uniform_positions_of(const oram_backend& backend,
                          const oram::access_trace& trace,
                          position_stream& stream) {
  if (const auto* path =
          dynamic_cast<const oram::path_backend*>(&backend)) {
    // Filter to the backend tree's leaf universe: with map recursion
    // active the trace also carries the (smaller) map ORAM trees.
    stream.universe = path->tree().config().leaf_count;
    stream.positions = analysis::path_access_leaves(trace, stream.universe);
    return;
  }
  if (const auto* partitioned =
          dynamic_cast<const storage_layer*>(&backend)) {
    // Reads only ever touch the main regions (full-shuffle mode), which
    // sit strided inside the partition-major layout: normalise to a
    // gapless [0, partitions * main_capacity) universe.
    const storage::partition_geometry& geometry = partitioned->geometry();
    for (const std::uint64_t slot :
         analysis::storage_read_positions(trace)) {
      const std::uint64_t partition =
          slot / geometry.slots_per_partition();
      const std::uint64_t code = slot % geometry.slots_per_partition();
      ASSERT_LT(code, geometry.main_capacity)
          << "full-shuffle read touched an append slot";
      stream.positions.push_back(partition * geometry.main_capacity +
                                 code);
    }
    stream.universe =
        geometry.partition_count * geometry.main_capacity;
    return;
  }
  if (const auto* ring = dynamic_cast<const oram::ring_backend*>(&backend)) {
    // Like path: the uniformity claim lives at the leaf level (slot
    // reads within a bucket follow the secret permutation, audited
    // separately for workload-independence below).
    stream.universe = ring->tree().config().leaf_count;
    stream.positions = analysis::path_access_leaves(trace, stream.universe);
    return;
  }
  if (const auto* hier = dynamic_cast<const oram::hier_backend*>(&backend)) {
    // Every storage_read_slot is one per-level probe. Levels have
    // different slot counts, so the streams cannot share one axis;
    // audit the bottom level (largest, probed by every access while
    // active) as level-local offsets. The per-level variant below
    // covers the rest.
    const std::uint32_t bottom = hier->level_count();
    const std::uint64_t base = hier->level_base(bottom);
    const std::uint64_t slots = hier->level_slot_count(bottom);
    for (const std::uint64_t slot :
         analysis::storage_read_positions(trace)) {
      if (slot >= base && slot < base + slots) {
        stream.positions.push_back(slot - base);
      }
    }
    stream.universe = slots;
    return;
  }
  FAIL() << "no uniformity stream for backend " << backend.name();
}

class BackendUniformity : public ::testing::TestWithParam<backend_kind> {};

INSTANTIATE_TEST_SUITE_P(
    AllBackends, BackendUniformity, ::testing::ValuesIn(all_backend_kinds),
    [](const ::testing::TestParamInfo<backend_kind>& info) {
      return std::string(backend_name(info.param));
    });

TEST_P(BackendUniformity, BusPositionsAreUniform) {
  sim::block_device device{sim::hdd_paper()};
  sim::block_device map_device{sim::dram_ddr4()};
  const sim::cpu_model cpu{sim::cpu_aesni()};
  util::pcg64 rng(test::seed(221));
  oram::access_trace trace;

  horam_config config;
  config.block_count = kBlocks;
  config.memory_blocks = kMemoryBlocks;
  config.payload_bytes = kPayload;
  const std::unique_ptr<oram_backend> backend =
      make_backend(GetParam(), config, device, cpu, rng, &trace,
                   /*filler=*/nullptr, &map_device);

  util::pcg64 driver(test::seed(223));
  drive_backend(*backend, config, driver, /*periods=*/60);

  position_stream stream;
  uniform_positions_of(*backend, trace, stream);
  ASSERT_GT(stream.positions.size(), 500u);
  const analysis::uniformity_report report =
      analysis::audit_uniformity(stream.positions, stream.universe);
  EXPECT_TRUE(report.passed())
      << backend_name(GetParam()) << ": chi2 " << report.chi_square
      << " (<= " << report.chi_threshold << "), ks " << report.ks
      << " (<= " << report.ks_threshold << ") over " << report.samples
      << " samples";
}

// With map recursion forced on, the trace interleaves three leaf
// universes (backend tree + two map levels). The filtered stream must
// still audit uniform; the naive unfiltered mixture must fail — which
// is why path_access_leaves takes the universe filter.
TEST(BackendUniformity, PathLeavesStayUniformUnderMapRecursion) {
  sim::block_device device{sim::hdd_paper()};
  sim::block_device map_device{sim::dram_ddr4()};
  const sim::cpu_model cpu{sim::cpu_aesni()};
  util::pcg64 rng(test::seed(227));
  oram::access_trace trace;

  horam_config config;
  config.block_count = kBlocks;
  config.memory_blocks = kMemoryBlocks;
  config.payload_bytes = kPayload;
  config.map_entries_per_block = 8;
  config.map_direct_threshold = 8;
  oram::path_backend backend(config, device, cpu, rng, &trace,
                             /*filler=*/nullptr, &map_device);
  ASSERT_GE(backend.map().level_count(), 2u);

  util::pcg64 driver(test::seed(229));
  drive_backend(backend, config, driver, /*periods=*/60);

  const std::uint64_t universe = backend.tree().config().leaf_count;
  const std::vector<std::uint64_t> filtered =
      analysis::path_access_leaves(trace, universe);
  ASSERT_GT(filtered.size(), 500u);
  EXPECT_TRUE(analysis::audit_uniformity(filtered, universe).passed());

  const std::vector<std::uint64_t> mixture =
      analysis::path_access_leaves(trace);
  EXPECT_GT(mixture.size(), filtered.size());
  EXPECT_FALSE(analysis::audit_uniformity(mixture, universe).passed());
}

// --------------------- workload independence (async service stack)

/// Builds a traced service over `kind` and drives `stream` through two
/// tenant sessions with genuine async interleaving (bursts of
/// admissions between scheduler pumps).
oram::access_trace run_service_workload(backend_kind kind,
                                        const std::vector<request>& stream,
                                        std::uint64_t machine_salt) {
  service svc = client_builder()
                    .blocks(kBlocks)
                    .memory_blocks(kMemoryBlocks)
                    .payload_bytes(kPayload)
                    .backend(kind)
                    .seed(test::seed(machine_salt))
                    .trace(true)
                    .build_service();
  session alice = svc.open_session();
  session bob = svc.open_session();
  std::size_t submitted = 0;
  for (const request& req : stream) {
    session& target = (submitted % 2 == 0) ? alice : bob;
    if (req.op == op_kind::write) {
      (void)target.async_write(req.id, req.write_data);
    } else {
      (void)target.async_read(req.id);
    }
    if (++submitted % 64 == 0) {
      (void)svc.step();
    }
  }
  svc.run_until_idle();
  return *svc.underlying().trace();
}

class BackendWorkloadIndependence
    : public ::testing::TestWithParam<backend_kind> {};

INSTANTIATE_TEST_SUITE_P(
    AllBackends, BackendWorkloadIndependence,
    ::testing::ValuesIn(all_backend_kinds),
    [](const ::testing::TestParamInfo<backend_kind>& info) {
      return std::string(backend_name(info.param));
    });

// Two very different request streams — a concentrated hotspot and a
// uniform sweep — must induce storage position streams drawn from one
// distribution. Sample *counts* legitimately differ (the cacheable
// interface trades hit-rate-dependent trace length for speed, §4.1);
// the distribution of touched positions must not.
TEST_P(BackendWorkloadIndependence, StoragePositionsMatchAcrossWorkloads) {
  workload::stream_config config;
  config.request_count = 1500;
  config.block_count = kBlocks;
  config.write_fraction = 0.3;
  config.payload_bytes = kPayload;

  util::pcg64 gen_a(test::seed(231));
  util::pcg64 gen_b(test::seed(233));
  const std::vector<request> hot =
      workload::hotspot(gen_a, config, /*hot_probability=*/0.9,
                        /*hot_region_fraction=*/0.05);
  const std::vector<request> flat = workload::uniform(gen_b, config);

  const oram::access_trace trace_a =
      run_service_workload(GetParam(), hot, 235);
  const oram::access_trace trace_b =
      run_service_workload(GetParam(), flat, 237);

  const std::vector<std::uint64_t> positions_a =
      analysis::storage_read_positions(trace_a);
  const std::vector<std::uint64_t> positions_b =
      analysis::storage_read_positions(trace_b);
  ASSERT_GT(positions_a.size(), 200u);
  ASSERT_GT(positions_b.size(), 200u);

  const std::uint64_t universe =
      std::max(*std::max_element(positions_a.begin(), positions_a.end()),
               *std::max_element(positions_b.begin(), positions_b.end())) +
      1;
  const analysis::equality_report report =
      analysis::audit_distribution_equality(positions_a, positions_b,
                                            universe);
  EXPECT_TRUE(report.passed())
      << backend_name(GetParam()) << ": ks " << report.ks << " (<= "
      << report.ks_threshold << "), chi2 " << report.chi_square
      << " (<= " << report.chi_threshold << ") over " << report.samples_a
      << " vs " << report.samples_b << " samples";
}

// Ring-specific: the in-bucket slot index of every online slot read is
// the adversary's view of the per-bucket permutation. A real hit reads
// the target's permuted slot, a cover reads a random unread dummy —
// if the two had different index distributions, a hotspot workload
// (many real hits on few blocks) would be distinguishable from a
// uniform sweep. Audit the index streams of both workloads for
// equality.
TEST(RingObliviousness, PermutedSlotIndicesAreWorkloadIndependent) {
  workload::stream_config config;
  config.request_count = 1500;
  config.block_count = kBlocks;
  config.write_fraction = 0.3;
  config.payload_bytes = kPayload;

  util::pcg64 gen_a(test::seed(241));
  util::pcg64 gen_b(test::seed(243));
  const std::vector<request> hot =
      workload::hotspot(gen_a, config, /*hot_probability=*/0.9,
                        /*hot_region_fraction=*/0.05);
  const std::vector<request> flat = workload::uniform(gen_b, config);

  const oram::access_trace trace_a =
      run_service_workload(backend_kind::ring, hot, 245);
  const oram::access_trace trace_b =
      run_service_workload(backend_kind::ring, flat, 247);

  // At this universe the recursive map resolves directly from trusted
  // memory, so every storage_read_slot event is a ring tree read (an
  // online read's one slot per bucket, or an eviction's or reshuffle's
  // Z); fold the global slot down to its in-bucket index.
  const horam_config defaults;
  const std::uint64_t slots_per_bucket =
      defaults.ring_bucket_size + defaults.ring_spare_slots;
  std::vector<std::uint64_t> indices_a;
  std::vector<std::uint64_t> indices_b;
  for (const std::uint64_t slot : analysis::storage_read_positions(trace_a)) {
    indices_a.push_back(slot % slots_per_bucket);
  }
  for (const std::uint64_t slot : analysis::storage_read_positions(trace_b)) {
    indices_b.push_back(slot % slots_per_bucket);
  }
  ASSERT_GT(indices_a.size(), 500u);
  ASSERT_GT(indices_b.size(), 500u);

  const analysis::equality_report report =
      analysis::audit_distribution_equality(indices_a, indices_b,
                                            slots_per_bucket);
  EXPECT_TRUE(report.passed())
      << "ring slot indices: ks " << report.ks << " (<= "
      << report.ks_threshold << "), chi2 " << report.chi_square << " (<= "
      << report.chi_threshold << ") over " << report.samples_a << " vs "
      << report.samples_b << " samples";
}

// Ring-specific: an eviction or an early reshuffle reads Z slots of a
// bucket, its remaining reals plus unread dummies. Which offsets it
// names must not depend on how many reals the bucket holds, or the bus
// would show occupancy, and with it the hit rate that drains the tree.
// Each bucket read of runs at three hit rates is replayed against the
// trusted records from before its operation; the offsets read in
// sparse and in full buckets must share one distribution, uniform over
// the bucket. Reading the reals plus the lowest-index unread dummies,
// applied to the same bucket states, must fail that audit.
TEST(RingObliviousness, BucketReadOffsetsIgnoreOccupancy) {
  using test_access = oram::ring_oram_test_access;
  horam_config config;
  config.block_count = 1024;
  config.memory_blocks = 64;
  config.payload_bytes = kPayload;
  config.seal = false;  // which slots are read does not depend on sealing
  config.ring_bucket_size = 8;
  config.ring_spare_slots = 12;
  config.ring_eviction_rate = 8;

  // Bucket reads whose reals are known, from runs where 10 %, 50 % and
  // 90 % of loads are real (the rest are dummy loads: cache hits).
  std::vector<test_access::bucket_read> reads;
  std::uint32_t z = 0;
  std::uint32_t spb = 0;
  for (const double real_fraction : {0.1, 0.5, 0.9}) {
    sim::block_device device{sim::hdd_paper()};
    sim::block_device map_device{sim::dram_ddr4()};
    const sim::cpu_model cpu{sim::cpu_aesni()};
    util::pcg64 rng(test::seed(261));
    oram::access_trace trace;
    oram::ring_backend backend(config, device, cpu, rng, &trace, nullptr,
                               &map_device);
    const oram::ring_oram& tree = backend.tree();
    z = tree.config().real_slots;
    spb = tree.slots_per_bucket();
    // Every backend call, replayed against the records from before it.
    const auto traced = [&](const auto& call) {
      auto slots = test_access::slot_metadata(tree);
      trace.clear();
      call();
      for (auto& read :
           test_access::bucket_reads(tree, std::move(slots), trace.events())) {
        if (read.reals_known) {
          reads.push_back(std::move(read));
        }
      }
    };

    util::pcg64 gen(test::seed(263));
    std::map<block_id, std::vector<std::uint8_t>> cached;
    for (std::uint64_t period = 0; period < 40; ++period) {
      for (std::uint64_t i = 0; i < config.period_loads(); ++i) {
        const block_id target =
            util::uniform_below(gen, config.block_count);
        oram_backend::load_result load;
        traced([&] {
          load = util::bernoulli(gen, real_fraction) &&
                         backend.in_storage(target)
                     ? backend.load_block(target)
                     : backend.dummy_load();
        });
        if (load.id != oram::dummy_block_id) {
          cached[load.id] = std::move(load.payload);
        }
      }
      std::vector<oram::evicted_block> evicted;
      for (auto& [id, payload] : cached) {
        evicted.push_back(oram::evicted_block{id, std::move(payload)});
      }
      cached.clear();
      std::vector<oram::evicted_block> overflow;
      traced([&] {
        (void)backend.shuffle_period(std::move(evicted), period, overflow);
      });
      for (oram::evicted_block& block : overflow) {
        cached.emplace(block.id, std::move(block.payload));
      }
    }
  }

  // The offsets a chooser reads, split by the bucket's real count.
  struct split {
    std::vector<std::uint64_t> sparse;
    std::vector<std::uint64_t> full;
    std::vector<std::uint64_t> all;
  };
  const std::size_t sparse_reals = 1;
  const std::size_t full_reals = 4;
  const auto split_by_occupancy = [&](const auto& chooser) {
    split out;
    for (const auto& read : reads) {
      const std::vector<std::uint32_t> offsets = chooser(read);
      const std::size_t reals = read.real_offsets.size();
      for (const std::uint32_t k : offsets) {
        out.all.push_back(k);
        if (reals <= sparse_reals) {
          out.sparse.push_back(k);
        } else if (reals >= full_reals) {
          out.full.push_back(k);
        }
      }
    }
    return out;
  };
  const split actual =
      split_by_occupancy([](const auto& read) { return read.offsets; });
  const split lowest = split_by_occupancy([&](const auto& read) {
    std::vector<std::uint32_t> offsets = read.real_offsets;
    for (std::uint32_t k = 0; offsets.size() < z; ++k) {
      const auto taken = [&](const std::vector<std::uint32_t>& set) {
        return std::find(set.begin(), set.end(), k) != set.end();
      };
      if (!taken(read.real_offsets) && !taken(read.consumed_offsets)) {
        offsets.push_back(k);
      }
    }
    return offsets;
  });

  ASSERT_GT(actual.sparse.size(), 2000u);
  ASSERT_GT(actual.full.size(), 2000u);
  const analysis::equality_report equal =
      analysis::audit_distribution_equality(actual.sparse, actual.full, spb,
                                            spb);
  EXPECT_TRUE(equal.passed())
      << "ring bucket reads by occupancy: ks " << equal.ks << " (<= "
      << equal.ks_threshold << "), chi2 " << equal.chi_square << " (<= "
      << equal.chi_threshold << ") over " << equal.samples_a << " vs "
      << equal.samples_b << " samples";
  const analysis::uniformity_report uniform =
      analysis::audit_uniformity(actual.all, spb, spb);
  EXPECT_TRUE(uniform.passed())
      << "ring bucket read offsets: chi2 " << uniform.chi_square << " (<= "
      << uniform.chi_threshold << "), ks " << uniform.ks << " (<= "
      << uniform.ks_threshold << ")";

  EXPECT_FALSE(analysis::audit_distribution_equality(lowest.sparse,
                                                     lowest.full, spb, spb)
                   .passed());
  EXPECT_FALSE(analysis::audit_uniformity(lowest.all, spb, spb).passed());
}

// Hier-specific: the probe stream of EVERY level — not just the
// bottom one the generic audit covers — must look uniform over that
// level's slot range. Real hits (index-named slots) and dummy covers
// (next unused permuted rank) have to blend: a distinguishable level
// stream would leak which level a request's target resides on.
TEST(HierObliviousness, PerLevelProbePositionsAreUniform) {
  sim::block_device device{sim::hdd_paper()};
  const sim::cpu_model cpu{sim::cpu_aesni()};
  util::pcg64 rng(test::seed(251));
  oram::access_trace trace;

  horam_config config;
  config.block_count = kBlocks;
  config.memory_blocks = kMemoryBlocks;
  config.payload_bytes = kPayload;
  oram::hier_backend backend(config, device, cpu, rng, &trace,
                             /*filler=*/nullptr);

  util::pcg64 driver(test::seed(253));
  drive_backend(backend, config, driver, /*periods=*/120);

  const std::vector<std::uint64_t> positions =
      analysis::storage_read_positions(trace);
  std::uint64_t audited_levels = 0;
  for (std::uint32_t level = 1; level <= backend.level_count(); ++level) {
    const std::uint64_t base = backend.level_base(level);
    const std::uint64_t slots = backend.level_slot_count(level);
    std::vector<std::uint64_t> offsets;
    for (const std::uint64_t slot : positions) {
      if (slot >= base && slot < base + slots) {
        offsets.push_back(slot - base);
      }
    }
    if (offsets.size() < 500) {
      continue;  // a rarely active level has no statistical power
    }
    ++audited_levels;
    const analysis::uniformity_report report =
        analysis::audit_uniformity(offsets, slots);
    EXPECT_TRUE(report.passed())
        << "hier level " << level << ": chi2 " << report.chi_square
        << " (<= " << report.chi_threshold << "), ks " << report.ks
        << " (<= " << report.ks_threshold << ") over " << report.samples
        << " samples";
  }
  EXPECT_GE(audited_levels, 2u)
      << "the drive never lit up enough levels to audit";
}

// Hier-specific two-workload audit, the per-level analogue of the
// ring slot-index check: fold every probe to (level, offset) on a
// common axis and require the hotspot and uniform streams to be
// indistinguishable — the real/dummy blend must hold level by level,
// not just in the bottom-level aggregate.
TEST(HierObliviousness, LevelProbeStreamsAreWorkloadIndependent) {
  workload::stream_config config;
  config.request_count = 1500;
  config.block_count = kBlocks;
  config.write_fraction = 0.3;
  config.payload_bytes = kPayload;

  util::pcg64 gen_a(test::seed(261));
  util::pcg64 gen_b(test::seed(263));
  const std::vector<request> hot =
      workload::hotspot(gen_a, config, /*hot_probability=*/0.9,
                        /*hot_region_fraction=*/0.05);
  const std::vector<request> flat = workload::uniform(gen_b, config);

  const oram::access_trace trace_a =
      run_service_workload(backend_kind::hier, hot, 265);
  const oram::access_trace trace_b =
      run_service_workload(backend_kind::hier, flat, 267);

  // The global slot already encodes (level, offset) — levels are laid
  // out contiguously — so the raw position streams audit directly.
  const std::vector<std::uint64_t> positions_a =
      analysis::storage_read_positions(trace_a);
  const std::vector<std::uint64_t> positions_b =
      analysis::storage_read_positions(trace_b);
  ASSERT_GT(positions_a.size(), 500u);
  ASSERT_GT(positions_b.size(), 500u);

  const std::uint64_t universe =
      std::max(*std::max_element(positions_a.begin(), positions_a.end()),
               *std::max_element(positions_b.begin(), positions_b.end())) +
      1;
  const analysis::equality_report report =
      analysis::audit_distribution_equality(positions_a, positions_b,
                                            universe);
  EXPECT_TRUE(report.passed())
      << "hier level probes: ks " << report.ks << " (<= "
      << report.ks_threshold << "), chi2 " << report.chi_square << " (<= "
      << report.chi_threshold << ") over " << report.samples_a << " vs "
      << report.samples_b << " samples";
}

// ------------------------------------------------- hier merge reads

constexpr std::uint64_t kMergeBlocks = 4096;
constexpr std::uint64_t kMergeMemory = 256;  // three levels at fan-out 4

/// A traced run of a single-shard hier client, with the level geometry
/// needed to read its trace.
struct hier_run {
  std::vector<std::uint64_t> bases;  // [level - 1]: first global slot
  std::vector<std::uint64_t> slots;  // [level - 1]: slot count
  oram::access_trace trace;
};

/// Runs `stream` through a traced hier client on `profile` with 1 KiB
/// logical blocks, so that a bounded budget shrinks the merge unit.
hier_run run_hier(const std::vector<request>& stream, shuffle_policy policy,
                  sim::sim_time budget, const sim::device_profile& profile,
                  std::uint32_t fanout) {
  client c = client_builder()
                 .blocks(kMergeBlocks)
                 .memory_blocks(kMergeMemory)
                 .payload_bytes(kPayload)
                 .logical_block_bytes(1024)
                 .backend(backend_kind::hier)
                 .hier_fanout(fanout)
                 .storage_profile(profile)
                 .shuffle(policy)
                 .shuffle_slice_budget(budget)
                 .seed(test::seed(271))
                 .trace(true)
                 .build();
  c.run(stream);
  const auto& hier = dynamic_cast<const oram::hier_backend&>(c.backend());
  hier_run run;
  for (std::uint32_t level = 1; level <= hier.level_count(); ++level) {
    run.bases.push_back(hier.level_base(level));
    run.slots.push_back(hier.level_slot_count(level));
  }
  run.trace = *c.trace();
  return run;
}

/// One source level of one merge, as the trace shows it.
struct level_drain {
  std::size_t level = 0;              // 0-based
  std::vector<std::uint64_t> read;    // slots the merge's sweeps covered
  std::vector<std::uint64_t> probed;  // probed before the first of them
};

/// One merge (shuffle_begin up to the next one), as the trace shows it.
struct merge_view {
  std::vector<level_drain> drains;
  std::uint64_t read_slots = 0;
  std::uint64_t slices = 0;
  std::size_t target = 0;  // 1-based level its first write sweep lands in
};

/// Splits the trace into merges, dropping the last (it may still be in
/// flight). A level's epoch probes are the storage_read_slot events on
/// its slots since the drain of its previous epoch ended. A merge's
/// drain of a level opens at its first read sweep there, which freezes
/// those probes (later ones are ignored), and closes once it has read
/// every other slot of the level, or when the merge reads elsewhere.
/// The merge's target is the level its write sweeps land in.
std::vector<merge_view> merges_of(const hier_run& run) {
  const auto level_of = [&run](std::uint64_t slot) {
    for (std::size_t l = 0; l < run.bases.size(); ++l) {
      if (slot >= run.bases[l] && slot < run.bases[l] + run.slots[l]) {
        return l;
      }
    }
    ADD_FAILURE() << "slot " << slot << " lies outside every level";
    return std::size_t{0};
  };
  std::vector<std::set<std::uint64_t>> epoch(run.bases.size());
  std::vector<merge_view> merges;
  bool drain_open = false;
  const auto close_drain = [&] {
    if (drain_open) {
      epoch[merges.back().drains.back().level].clear();
      drain_open = false;
    }
  };
  for (const oram::trace_event& event : run.trace.events()) {
    switch (event.kind) {
      case oram::event_kind::shuffle_begin:
        close_drain();
        merges.emplace_back();
        break;
      case oram::event_kind::shuffle_slice:
        if (!merges.empty()) {
          ++merges.back().slices;
        }
        break;
      case oram::event_kind::storage_read_slot: {
        const std::size_t l = level_of(event.a);
        if (!drain_open || merges.back().drains.back().level != l) {
          epoch[l].insert(event.a);
        }
        break;
      }
      case oram::event_kind::storage_read_sweep: {
        const std::size_t l = level_of(event.a);
        if (merges.empty()) {
          ADD_FAILURE() << "read sweep outside any merge";
          break;
        }
        merge_view& merge = merges.back();
        if (!drain_open || merge.drains.back().level != l) {
          close_drain();
          merge.drains.push_back(
              {l, {}, {epoch[l].begin(), epoch[l].end()}});
          drain_open = true;
        }
        level_drain& drain = merge.drains.back();
        for (std::uint64_t s = event.a; s < event.a + event.b; ++s) {
          drain.read.push_back(s);
        }
        merge.read_slots += event.b;
        if (drain.read.size() + drain.probed.size() >= run.slots[l]) {
          close_drain();
        }
        break;
      }
      case oram::event_kind::storage_write_sweep:
        if (!merges.empty() && merges.back().target == 0) {
          merges.back().target = level_of(event.a) + 1;
        }
        break;
      default:
        break;
    }
  }
  if (!merges.empty()) {
    merges.pop_back();
  }
  return merges;
}

std::vector<request> uniform_stream(std::uint64_t salt) {
  workload::stream_config config;
  config.request_count = 6000;
  config.block_count = kMergeBlocks;
  config.write_fraction = 0.3;
  config.payload_bytes = kPayload;
  util::pcg64 gen(test::seed(salt));
  return workload::uniform(gen, config);
}

// A merge reads exactly the complement of each source level's probed
// set: every slot no probe consumed between the epoch's start and the
// merge's first read of the level — live reals, filler and unconsumed
// dummies — and none of the probed ones. The adversary already saw the
// probed slots, so the read set is a function of the public trace.
// Checked from the trace alone, over a cascade into level 3, with
// foreground merges and with budget-sized incremental slices.
TEST(HierObliviousness, MergeReadsAreTheUnprobedSlots) {
  struct setup {
    const char* name;
    shuffle_policy policy;
    sim::sim_time budget;
    sim::device_profile profile;
  };
  const setup setups[] = {
      {"foreground", shuffle_policy::foreground, 0, sim::hdd_paper()},
      {"incremental 2 ms", shuffle_policy::incremental,
       2 * util::milliseconds, sim::net_remote()}};
  for (const setup& s : setups) {
    SCOPED_TRACE(s.name);
    const hier_run run = run_hier(uniform_stream(273), s.policy, s.budget,
                                  s.profile, /*fanout=*/4);
    ASSERT_EQ(run.bases.size(), 3u);
    const std::vector<merge_view> merges = merges_of(run);
    ASSERT_GE(merges.size(), 16u);
    bool saw_level_3 = false;
    std::uint64_t slices = 0;
    for (std::size_t m = 0; m < merges.size(); ++m) {
      slices += merges[m].slices;
      for (const level_drain& drain : merges[m].drains) {
        saw_level_3 |= drain.level == 2;
        std::vector<std::uint64_t> unprobed;
        for (std::uint64_t slot = run.bases[drain.level];
             slot < run.bases[drain.level] + run.slots[drain.level];
             ++slot) {
          if (!std::binary_search(drain.probed.begin(), drain.probed.end(),
                                  slot)) {
            unprobed.push_back(slot);
          }
        }
        std::vector<std::uint64_t> read = drain.read;
        std::sort(read.begin(), read.end());
        EXPECT_EQ(read, unprobed)
            << "merge " << m << ", level " << drain.level + 1 << ": read "
            << read.size() << " slots, " << drain.probed.size()
            << " of " << run.slots[drain.level] << " probed";
      }
    }
    EXPECT_TRUE(saw_level_3) << "no merge reached the bottom level";
    if (s.policy == shuffle_policy::incremental) {
      EXPECT_GT(slices, 2 * merges.size()) << "merges were not sliced";
    }
  }
}

// Every load probes each active level exactly once, so how many slots a
// merge reads depends only on the schedule, and so do its budget-sized
// slices; the merge target is a function of the period index alone.
// Hotspot and uniform streams through the same configuration and seed
// must show identical per-merge target levels, read volumes and slice
// counts, at the default fan-out.
TEST(HierObliviousness, MergeReadVolumeIsWorkloadIndependent) {
  workload::stream_config config;
  config.request_count = 6000;
  config.block_count = kMergeBlocks;
  config.write_fraction = 0.3;
  config.payload_bytes = kPayload;
  util::pcg64 gen(test::seed(275));
  const std::vector<request> hot =
      workload::hotspot(gen, config, /*hot_probability=*/0.9,
                        /*hot_region_fraction=*/0.05);

  const auto volumes = [](const std::vector<request>& stream) {
    const std::vector<merge_view> merges =
        merges_of(run_hier(stream, shuffle_policy::incremental,
                           2 * util::milliseconds, sim::net_remote(),
                           /*fanout=*/4));
    std::vector<std::tuple<std::size_t, std::uint64_t, std::uint64_t>> out;
    for (const merge_view& merge : merges) {
      out.emplace_back(merge.target, merge.read_slots, merge.slices);
    }
    return out;
  };
  std::vector<std::tuple<std::size_t, std::uint64_t, std::uint64_t>> a =
      volumes(hot);
  std::vector<std::tuple<std::size_t, std::uint64_t, std::uint64_t>> b =
      volumes(uniform_stream(277));
  const std::size_t common = std::min(a.size(), b.size());
  ASSERT_GE(common, 16u) << "the runs never completed a merge cascade";
  a.resize(common);
  b.resize(common);
  EXPECT_EQ(a, b);
}

// ------------------------------------------ batched cache-tree cycles

/// One access cycle of the cache tree as the memory bus shows it.
struct tree_cycle {
  std::uint32_t c = 0;
  std::vector<std::uint64_t> leaves;
  std::vector<std::uint64_t> reads;
  std::vector<std::uint64_t> writes;
};

/// Runs `stream` through a sealed controller with the trace on and
/// splits the cache tree's memory events by cycle (a period boundary
/// or a shuffle slice ends the cycle before it).
std::vector<tree_cycle> cache_tree_cycles(const std::vector<request>& stream,
                                          std::uint64_t salt,
                                          std::uint64_t& leaf_count,
                                          std::uint32_t& level_count) {
  sim::block_device disk{sim::hdd_paper()};
  sim::block_device memory{sim::dram_ddr4()};
  const sim::cpu_model cpu{sim::cpu_aesni()};
  util::pcg64 rng(test::seed(salt));
  oram::access_trace trace;
  horam_config config;
  config.block_count = 4096;
  config.memory_blocks = 2048;  // a 256-leaf cache tree
  config.payload_bytes = kPayload;
  config.seal = true;
  controller ctrl(config, disk, memory, cpu, rng, &trace);
  leaf_count = ctrl.memory_tree().config().leaf_count;
  level_count = ctrl.memory_tree().level_count();
  ctrl.run(stream);

  std::vector<tree_cycle> cycles;
  bool in_cycle = false;
  for (const oram::trace_event& event : trace.events()) {
    switch (event.kind) {
      case oram::event_kind::cycle_begin:
        cycles.emplace_back().c = static_cast<std::uint32_t>(event.b);
        in_cycle = true;
        break;
      case oram::event_kind::period_begin:
      case oram::event_kind::shuffle_begin:
      case oram::event_kind::shuffle_slice:
        in_cycle = false;
        break;
      case oram::event_kind::memory_path_access:
        if (in_cycle && event.b == leaf_count) {
          cycles.back().leaves.push_back(event.a);
        }
        break;
      case oram::event_kind::memory_bucket_read:
        if (in_cycle) {
          cycles.back().reads.push_back(event.a);
        }
        break;
      case oram::event_kind::memory_bucket_write:
        if (in_cycle) {
          cycles.back().writes.push_back(event.a);
        }
        break;
      default:
        break;
    }
  }
  return cycles;
}

TEST(ControllerObliviousness, BatchedCycleShapeDependsOnlyOnLeaves) {
  // Each cycle's c cache-tree accesses are read and written back as one
  // path union. What the memory bus shows of a cycle must be a function
  // of its c public leaves alone: the union's buckets read root level
  // first and written deepest level first, ascending within a level.
  // The leaves are uniform, and per stage the union sizes of a hotspot
  // and a uniform stream come from one distribution.
  const auto make_stream = [](double hot_probability, std::uint64_t salt) {
    util::pcg64 driver(test::seed(salt));
    std::vector<request> stream;
    for (int i = 0; i < 6000; ++i) {
      request req;
      req.op = util::bernoulli(driver, 0.5) ? op_kind::write : op_kind::read;
      req.id = util::bernoulli(driver, hot_probability)
                   ? util::uniform_below(driver, 48)
                   : util::uniform_below(driver, 4096);
      if (req.op == op_kind::write) {
        req.write_data.assign(kPayload, static_cast<std::uint8_t>(i));
      }
      stream.push_back(std::move(req));
    }
    return stream;
  };

  std::uint64_t leaf_count = 0;
  std::uint32_t levels = 0;
  std::map<std::uint32_t, std::vector<std::uint64_t>> union_sizes[2];
  for (int arm = 0; arm < 2; ++arm) {
    const std::vector<request> stream =
        make_stream(arm == 0 ? 0.9 : 0.0, 281 + arm);
    const std::vector<tree_cycle> cycles =
        cache_tree_cycles(stream, 291 + arm, leaf_count, levels);
    ASSERT_GT(cycles.size(), 1000u);

    std::uint64_t mismatched = 0;
    std::vector<std::uint64_t> leaves;
    for (const tree_cycle& cycle : cycles) {
      std::vector<std::uint64_t> reads;
      std::vector<std::vector<std::uint64_t>> by_level(levels);
      for (std::uint32_t level = 0; level < levels; ++level) {
        for (const std::uint64_t leaf : cycle.leaves) {
          by_level[level].push_back(((std::uint64_t{1} << level) - 1) +
                                    (leaf >> (levels - 1 - level)));
        }
        std::sort(by_level[level].begin(), by_level[level].end());
        by_level[level].erase(
            std::unique(by_level[level].begin(), by_level[level].end()),
            by_level[level].end());
        reads.insert(reads.end(), by_level[level].begin(),
                     by_level[level].end());
      }
      std::vector<std::uint64_t> writes;
      for (std::uint32_t down = 0; down < levels; ++down) {
        const std::vector<std::uint64_t>& level = by_level[levels - 1 - down];
        writes.insert(writes.end(), level.begin(), level.end());
      }
      if (cycle.leaves.size() != cycle.c || cycle.reads != reads ||
          cycle.writes != writes) {
        ++mismatched;
      }
      leaves.insert(leaves.end(), cycle.leaves.begin(), cycle.leaves.end());
      union_sizes[arm][cycle.c].push_back(reads.size());
    }
    EXPECT_EQ(mismatched, 0u) << "arm " << arm << ": of " << cycles.size()
                              << " cycles";

    const analysis::uniformity_report uniform =
        analysis::audit_uniformity(leaves, leaf_count);
    EXPECT_TRUE(uniform.passed())
        << "arm " << arm << ": chi2 " << uniform.chi_square << " (<= "
        << uniform.chi_threshold << "), ks " << uniform.ks << " (<= "
        << uniform.ks_threshold << ") over " << uniform.samples
        << " leaves";
  }

  ASSERT_EQ(union_sizes[0].size(), union_sizes[1].size());
  for (const auto& [c, hot] : union_sizes[0]) {
    const std::vector<std::uint64_t>& flat = union_sizes[1][c];
    ASSERT_GT(hot.size(), 100u) << "stage c = " << c;
    ASSERT_GT(flat.size(), 100u) << "stage c = " << c;
    const analysis::equality_report report =
        analysis::audit_distribution_equality(hot, flat,
                                              std::uint64_t{c} * levels + 1);
    EXPECT_TRUE(report.passed())
        << "stage c = " << c << ": ks " << report.ks << " (<= "
        << report.ks_threshold << "), chi2 " << report.chi_square
        << " (<= " << report.chi_threshold << ") over " << report.samples_a
        << " vs " << report.samples_b << " cycles";
  }
}

/// What the storage bus shows of one Ring ORAM eviction union: kind,
/// first slot of the bucket, slots — a bucket's run of slot reads or
/// one sweep.
using ring_sweep = std::array<std::uint64_t, 3>;

/// The sweeps of one union of `count` reverse-lexicographic paths from
/// eviction `counter` of `tree`, recomputed from the public schedule:
/// Z ascending slot reads in every union bucket, root level first, then
/// a range write of each, deepest level first, ascending within a
/// level.
void ring_union_sweeps(const oram::ring_oram& tree, std::uint64_t counter,
                       std::uint64_t count, std::vector<ring_sweep>& out) {
  const std::uint32_t levels = tree.level_count();
  const std::uint64_t leaves = tree.config().leaf_count;
  const std::uint64_t spb = tree.slots_per_bucket();
  const std::uint64_t z = tree.config().real_slots;
  std::vector<std::vector<std::uint64_t>> by_level(levels);
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t g = (counter + i) % leaves;
    std::uint64_t leaf = 0;  // g bit-reversed over log2(leaves) bits
    for (std::uint32_t bit = 0; bit + 1 < levels; ++bit) {
      leaf = (leaf << 1) | ((g >> bit) & 1);
    }
    for (std::uint32_t level = 0; level < levels; ++level) {
      by_level[level].push_back(((std::uint64_t{1} << level) - 1) +
                                (leaf >> (levels - 1 - level)));
    }
  }
  for (std::vector<std::uint64_t>& level : by_level) {
    std::sort(level.begin(), level.end());
    level.erase(std::unique(level.begin(), level.end()), level.end());
  }
  for (const std::vector<std::uint64_t>& level : by_level) {
    for (const std::uint64_t bucket : level) {
      out.push_back(
          {static_cast<std::uint64_t>(oram::event_kind::storage_read_slot),
           bucket * spb, z});
    }
  }
  for (std::uint32_t down = 0; down < levels; ++down) {
    for (const std::uint64_t bucket : by_level[levels - 1 - down]) {
      out.push_back(
          {static_cast<std::uint64_t>(oram::event_kind::storage_write_sweep),
           bucket * spb, spb});
    }
  }
}

TEST(ObliviousnessAudit, RingDrainShapeDependsOnlyOnSchedule) {
  // A ring shuffle drain evicts public reverse-lexicographic paths: its
  // budget as one union, then any tail one path at a time. What the
  // storage bus shows of a drain must be those unions recomputed from
  // the eviction counter and each unit's count alone (Z ascending slot
  // reads in every union bucket, root level first, then a range write
  // of each, deepest level first, ascending within a level), so two
  // runs that evict different blocks show identical drains. Which Z
  // slots a bucket read names is random; its bucket and count are not.
  horam_config config;
  config.block_count = 1000;
  config.memory_blocks = 128;
  config.payload_bytes = kPayload;
  config.seal = true;
  std::vector<std::vector<ring_sweep>> drains[2];
  for (int arm = 0; arm < 2; ++arm) {
    sim::block_device device{sim::hdd_paper()};
    sim::block_device map_device{sim::dram_ddr4()};
    sim::cpu_model cpu{sim::cpu_aesni()};
    util::pcg64 rng{test::seed(331)};
    oram::access_trace trace;
    oram::ring_backend backend(config, device, cpu, rng, &trace, nullptr,
                               &map_device);
    const std::uint64_t spb = backend.tree().slots_per_bucket();

    // Arm 0 loads ids from the lower half, arm 1 from the upper half:
    // the same number of loads each period, disjoint evicted sets.
    util::pcg64 driver{test::seed(333)};
    const std::uint64_t half = config.block_count / 2;
    for (std::uint64_t period = 0; period < 4; ++period) {
      std::vector<block_id> ids(half);
      for (std::uint64_t i = 0; i < half; ++i) {
        ids[i] = arm * half + i;
      }
      std::vector<oram::evicted_block> evicted;
      for (std::uint64_t i = 0; i < config.period_loads(); ++i) {
        std::swap(ids[i], ids[i + util::uniform_below(driver, half - i)]);
        oram_backend::load_result load = backend.load_block(ids[i]);
        evicted.push_back(
            oram::evicted_block{load.id, std::move(load.payload)});
      }
      const std::uint64_t counter = backend.tree().stats().evictions;
      const std::size_t first = trace.size();
      std::vector<oram::evicted_block> overflow;
      (void)backend.shuffle_period(std::move(evicted), period, overflow);
      EXPECT_TRUE(overflow.empty());

      std::vector<ring_sweep> seen;
      std::uint64_t last_read = 0;
      for (std::size_t i = first; i < trace.size(); ++i) {
        const oram::trace_event& event = trace.events()[i];
        const auto kind = static_cast<std::uint64_t>(event.kind);
        if (event.kind == oram::event_kind::storage_read_slot) {
          const std::uint64_t base = event.a / spb * spb;
          if (!seen.empty() && seen.back()[0] == kind &&
              seen.back()[1] == base) {
            EXPECT_LT(last_read, event.a) << "bucket reads ascend";
            ++seen.back()[2];
          } else {
            seen.push_back({kind, base, 1});
          }
          last_read = event.a;
        } else if (event.kind == oram::event_kind::storage_read_sweep ||
                   event.kind == oram::event_kind::storage_write_sweep) {
          seen.push_back({kind, event.a, event.b});
        }
      }
      const std::uint64_t budget =
          (config.period_loads() + config.ring_eviction_rate - 1) /
          config.ring_eviction_rate;
      const std::uint64_t steps = backend.last_drain_steps();
      ASSERT_GE(steps, budget);
      EXPECT_EQ(backend.tree().stats().evictions, counter + steps);
      std::vector<ring_sweep> expected;
      ring_union_sweeps(backend.tree(), counter, budget, expected);
      for (std::uint64_t step = budget; step < steps; ++step) {
        ring_union_sweeps(backend.tree(), counter + step, 1, expected);
      }
      EXPECT_EQ(seen, expected) << "arm " << arm << ", period " << period;
      drains[arm].push_back(std::move(seen));
    }
    EXPECT_NO_THROW(backend.check_consistency());
  }
  EXPECT_EQ(drains[0], drains[1]);
}

/// What the ring settle audit tracks of one shard's bus.
struct ring_lane_audit {
  std::size_t cursor = 0;
  std::uint64_t loads = 0;         // online reads
  std::uint64_t period_loads = 0;  // online reads since the last period
  std::uint64_t runs = 0;          // scheduled evictions run
  std::uint64_t counter = 0;       // reverse-lex evictions, drains too
  std::uint64_t settles = 0;       // round-end unions
  std::uint64_t periods = 0;
};

/// Checks what every shard of a ring engine put on its bus since the
/// last call (one round) against the settle rule, recomputed from the
/// bus alone, and returns the first violation ("" = none):
///   * a shard's period ends at its period_loads()-th load, inside the
///     lane, or in the round-end pass after the round's last load; an
///     eviction union directly before a period_begin runs everything
///     owed, ⌊loads / A⌋ − (evictions run), and nothing is owed at any
///     period_begin;
///   * after the round's last load, every shard whose period does not
///     end in the pass runs one union of exactly E paths, the next E
///     reverse-lexicographic ones, where E is the smallest count owed
///     at the lanes' ends over all shards; no union when E is 0, and no
///     union before the round's last load except before a period_begin.
std::string audit_ring_round(const engine& eng,
                             std::vector<ring_lane_audit>& lanes) {
  struct item {
    enum kind_t { load, evict, period } kind = load;
    std::vector<ring_sweep> sweeps;  // evict only
  };
  const std::uint32_t shards = eng.shard_count();
  const std::uint64_t period_budget = eng.shard(0).config().period_loads();
  std::vector<std::vector<item>> items(shards);
  std::vector<std::uint64_t> owed_at_lane_end(shards);
  for (std::uint32_t s = 0; s < shards; ++s) {
    const auto& backend =
        dynamic_cast<const oram::ring_backend&>(eng.shard(s).backend());
    const oram::ring_oram& tree = backend.tree();
    const std::uint64_t a = tree.config().eviction_rate;
    const std::uint64_t spb = tree.slots_per_bucket();
    const std::uint64_t z = tree.config().real_slots;
    const std::vector<oram::trace_event>& events =
        eng.shard_trace(s)->events();
    const std::size_t end = events.size();
    const auto is = [&](std::size_t i, oram::event_kind kind) {
      return i < end && events[i].kind == kind;
    };
    // A run of Z slot reads of one bucket, then its write: an early
    // reshuffle.
    const auto reshuffle_at = [&](std::size_t i) {
      for (std::uint64_t k = 0; k < z; ++k) {
        if (!is(i + k, oram::event_kind::storage_read_slot) ||
            events[i + k].a / spb != events[i].a / spb) {
          return false;
        }
      }
      return is(i + z, oram::event_kind::storage_write_sweep) &&
             events[i + z].a == events[i].a / spb * spb;
    };

    // Parse the round into loads, unions and period ends, and count
    // what the lane leaves owed: a period that ends at its budget ends
    // inside the lane, after running everything owed.
    std::uint64_t loads = lanes[s].loads;
    std::uint64_t period_loads = lanes[s].period_loads;
    std::uint64_t runs = lanes[s].runs;
    std::size_t i = lanes[s].cursor;
    while (i < end) {
      const oram::trace_event& event = events[i];
      if (event.kind == oram::event_kind::period_begin) {
        items[s].push_back({item::period, {}});
        if (period_loads == period_budget) {
          runs = loads / a;
        }
        period_loads = 0;
        // The shuffle (cache-tree evict, installs, the drain) runs up
        // to the next cycle.
        while (i < end && !is(i, oram::event_kind::cycle_begin)) {
          ++i;
        }
        continue;
      }
      if (event.kind == oram::event_kind::memory_path_access &&
          is(i + 1, oram::event_kind::storage_read_slot)) {
        // An online read: one slot per level, then any early
        // reshuffles of its path.
        items[s].push_back({item::load, {}});
        ++loads;
        ++period_loads;
        i += 1 + tree.level_count();
        while (reshuffle_at(i)) {
          i += z + 1;
        }
        continue;
      }
      if (event.kind != oram::event_kind::storage_read_slot) {
        ++i;
        continue;
      }
      // An eviction union outside any load and any shuffle.
      item& evict = items[s].emplace_back(item{item::evict, {}});
      for (; is(i, oram::event_kind::storage_read_slot); ++i) {
        const std::uint64_t base = events[i].a / spb * spb;
        if (!evict.sweeps.empty() && evict.sweeps.back()[1] == base) {
          ++evict.sweeps.back()[2];
        } else {
          evict.sweeps.push_back(
              {static_cast<std::uint64_t>(events[i].kind), base, 1});
        }
      }
      for (; is(i, oram::event_kind::storage_write_sweep); ++i) {
        evict.sweeps.push_back({static_cast<std::uint64_t>(events[i].kind),
                                events[i].a, events[i].b});
      }
    }
    lanes[s].cursor = end;
    owed_at_lane_end[s] = loads / a - runs;
  }
  const std::uint64_t settle =
      *std::min_element(owed_at_lane_end.begin(), owed_at_lane_end.end());

  for (std::uint32_t s = 0; s < shards; ++s) {
    const std::string where = "shard " + std::to_string(s) + ": ";
    const auto& backend =
        dynamic_cast<const oram::ring_backend&>(eng.shard(s).backend());
    const oram::ring_oram& tree = backend.tree();
    const std::uint64_t a = tree.config().eviction_rate;
    ring_lane_audit& lane = lanes[s];
    const std::vector<item>& round = items[s];
    std::size_t last_load = 0;
    for (std::size_t k = 0; k < round.size(); ++k) {
      last_load = round[k].kind == item::load ? k + 1 : last_load;
    }
    bool pass_end = false;
    std::uint64_t settles = 0;
    for (std::size_t k = 0; k < round.size(); ++k) {
      if (round[k].kind == item::load) {
        ++lane.loads;
        ++lane.period_loads;
        continue;
      }
      if (round[k].kind == item::period) {
        if (lane.loads / a != lane.runs) {
          return where + "evictions owed at a period_begin";
        }
        if (lane.period_loads != period_budget) {
          if (k < last_load) {
            return where + "a period ended early before the round's end";
          }
          pass_end = true;
        }
        lane.period_loads = 0;
        ++lane.periods;
        lane.counter += backend.last_drain_steps();
        continue;
      }
      const std::uint64_t owed = lane.loads / a - lane.runs;
      std::uint64_t count = owed;
      if (k + 1 >= round.size() || round[k + 1].kind != item::period) {
        if (k < last_load) {
          return where + "a union before the round's last load";
        }
        if (++settles > 1) {
          return where + "a second union after the round's last load";
        }
        count = settle;
      }
      if (count == 0 || count > owed) {
        return where + "a union of " + std::to_string(count) + " with " +
               std::to_string(owed) + " owed";
      }
      std::vector<ring_sweep> expected;
      ring_union_sweeps(tree, lane.counter, count, expected);
      if (round[k].sweeps != expected) {
        return where + "the union is not the next " + std::to_string(count) +
               " reverse-lexicographic paths";
      }
      lane.runs += count;
      lane.counter += count;
    }
    if (settle > 0 && !pass_end && settles == 0) {
      return where + "no union of the " + std::to_string(settle) +
             " evictions every shard owes";
    }
    lane.settles += settles;
    if (tree.evictions_owed() != lane.loads / a - lane.runs) {
      return where + "the tree owes other evictions than its load count";
    }
    if (tree.stats().evictions != lane.counter) {
      return where + "the tree ran evictions the bus does not show";
    }
  }
  return "";
}

TEST(ObliviousnessAudit, RingEvictionsFollowTheLoadCount) {
  // Online ring reads never evict: every A-th read owes an eviction.
  // After a padded multi-shard round, every shard runs the same number
  // E of its owed evictions as one union, E the smallest count any
  // shard owes, and carries the rest; a period end runs all of it just
  // before its shuffle. One shard runs all it owes after the lane's
  // last completion, which is the same rule with E its own count. So
  // what each shard evicts, and how many, must follow from every
  // shard's load count, whatever the data (audit_ring_round). Checked
  // on a padded 4-shard engine and on a coalesced 1-shard engine (whose
  // periods end mid-lane), each fed a hotspot stream and a uniform one:
  // their hit rates differ, so their rounds make different numbers of
  // loads. A mutation arm lets every 4-shard lane settle its own count
  // at the round's end, as each shard did before the shared count; the
  // audit must reject it.
  constexpr std::uint64_t kAuditBlocks = 4096;
  enum class arm { sharded, coalesced, own_count };
  for (const arm mode : {arm::sharded, arm::coalesced, arm::own_count}) {
    for (const bool hotspot : {true, false}) {
      SCOPED_TRACE(std::string(mode == arm::sharded     ? "4 shards"
                               : mode == arm::coalesced ? "coalesced"
                                                        : "own counts") +
                   (hotspot ? ", hotspot" : ", uniform"));
      client_builder builder = client_builder()
                                   .blocks(kAuditBlocks)
                                   .memory_blocks(1024)
                                   .payload_bytes(kPayload)
                                   .backend(backend_kind::ring)
                                   .trace(true)
                                   .seed(test::seed(351));
      if (mode == arm::coalesced) {
        builder.coalescing(true);
      } else {
        builder.shards(4);
      }
      client oram = builder.build();
      engine& eng = oram.eng();
      const std::uint32_t shards = eng.shard_count();
      std::vector<ring_lane_audit> lanes(shards);
      for (std::uint32_t s = 0; s < shards; ++s) {
        lanes[s].cursor = eng.shard_trace(s)->size();
      }

      util::pcg64 gen{test::seed(hotspot ? 352 : 353)};
      std::string violation;
      for (int round = 0; round < 120 && violation.empty(); ++round) {
        while (eng.pending() < eng.round_budget()) {
          request req;
          req.id = hotspot ? util::uniform_below(gen, kAuditBlocks / 16)
                           : util::uniform_below(gen, kAuditBlocks);
          (void)eng.submit(std::move(req));
        }
        ASSERT_TRUE(eng.step_round());
        if (mode == arm::own_count) {
          for (std::uint32_t s = 0; s < shards; ++s) {
            eng.shard(s).settle(controller::kAllOwed);
          }
        }
        violation = audit_ring_round(eng, lanes);
        if (!violation.empty()) {
          violation = "round " + std::to_string(round) + ", " + violation;
        }
        if (mode == arm::coalesced) {
          // The round's run() left nothing owed.
          const auto& backend =
              dynamic_cast<const oram::ring_backend&>(eng.shard(0).backend());
          EXPECT_EQ(backend.tree().evictions_owed(), 0u);
        }
      }
      if (mode == arm::own_count) {
        EXPECT_NE(violation, "") << "the audit accepts per-shard settling";
        continue;
      }
      EXPECT_EQ(violation, "");
      for (std::uint32_t s = 0; s < shards; ++s) {
        EXPECT_GT(lanes[s].settles, 20u) << "shard " << s;
        EXPECT_GT(lanes[s].periods, 0u) << "shard " << s;
      }
    }
  }
}

/// One access_batch() of a recursive-map level as the bus shows it:
/// the level, then how many paths the batch draws.
using map_batch = std::array<std::uint64_t, 2>;

/// The map-lane shape of every period end of `eng`'s shard `s`: for
/// each window that runs map work outside the loads — from a
/// period_begin or a shuffle_slice to the next cycle_begin — its
/// batches in order. Checks that each batch reads and writes exactly
/// the union of its traced paths, which is all the bus shows of the
/// buckets (which leaves, and so how many union buckets, are random
/// draws the statistical audits cover).
/// Also sets expected[s] to the batches the map's geometry implies.
std::vector<std::vector<map_batch>> map_pass_shapes(
    const engine& eng, std::uint32_t s,
    std::vector<std::vector<map_batch>>& expected) {
  const auto* tree_backend =
      dynamic_cast<const oram::path_backend*>(&eng.shard(s).backend());
  const auto* ring_backend =
      dynamic_cast<const oram::ring_backend*>(&eng.shard(s).backend());
  const oram::recursive_position_map& map =
      tree_backend != nullptr ? tree_backend->map() : ring_backend->map();
  const std::uint64_t tree_leaves =
      tree_backend != nullptr ? tree_backend->tree().config().leaf_count
                              : ring_backend->tree().config().leaf_count;
  // Map levels are told apart from each other and from the other trees
  // on the shard by their leaf counts.
  std::map<std::uint64_t, std::uint64_t> level_of_leaves;
  std::vector<std::uint32_t> level_depths;
  expected.resize(std::max<std::size_t>(expected.size(), s + 1));
  expected[s].clear();
  const auto levels = oram::recursive_position_map_test_access::levels(map);
  for (const oram::path_oram* level : levels) {
    level_of_leaves.emplace(level->config().leaf_count, level_depths.size());
    level_depths.push_back(level->level_count());
  }
  // The pass reads the deepest level first: each level's blocks are
  // read under the leaves the next-deeper level holds.
  for (std::size_t index = levels.size(); index-- > 0;) {
    const std::uint64_t blocks = levels[index]->config().id_universe;
    const std::uint64_t batch = oram::recursive_position_map::kPassBatch;
    for (std::uint64_t first = 0; first < blocks; first += batch) {
      expected[s].push_back({index, std::min(batch, blocks - first)});
    }
  }
  EXPECT_GE(level_depths.size(), 2u);
  EXPECT_EQ(level_of_leaves.size(), level_depths.size());
  EXPECT_FALSE(level_of_leaves.contains(tree_leaves));
  EXPECT_FALSE(level_of_leaves.contains(
      eng.shard(s).memory_tree().config().leaf_count));

  const std::vector<oram::trace_event>& events =
      eng.shard_trace(s)->events();
  std::vector<std::vector<map_batch>> windows;
  bool open = false;
  for (std::size_t i = 0; i < events.size();) {
    const oram::trace_event& event = events[i];
    if (event.kind == oram::event_kind::cycle_begin) {
      open = false;
    } else if (event.kind == oram::event_kind::period_begin ||
               event.kind == oram::event_kind::shuffle_slice) {
      if (!open) {
        windows.emplace_back();
      }
      open = true;
    }
    const auto level = level_of_leaves.find(event.b);
    if (!open || event.kind != oram::event_kind::memory_path_access ||
        level == level_of_leaves.end()) {
      ++i;
      continue;
    }
    // One batch: its paths, then its union read and written back.
    const std::uint32_t depth = level_depths[level->second];
    std::set<std::uint64_t> union_buckets;
    std::uint64_t paths = 0;
    for (; i < events.size() &&
           events[i].kind == oram::event_kind::memory_path_access;
         ++i, ++paths) {
      EXPECT_EQ(events[i].b, event.b) << "a batch spans two levels";
      for (std::uint32_t d = 0; d < depth; ++d) {
        union_buckets.insert(((std::uint64_t{1} << d) - 1) +
                             (events[i].a >> (depth - 1 - d)));
      }
    }
    std::set<std::uint64_t> reads;
    std::set<std::uint64_t> writes;
    std::uint64_t read_events = 0;
    std::uint64_t write_events = 0;
    for (; i < events.size() &&
           events[i].kind == oram::event_kind::memory_bucket_read;
         ++i, ++read_events) {
      reads.insert(events[i].a);
    }
    for (; i < events.size() &&
           events[i].kind == oram::event_kind::memory_bucket_write;
         ++i, ++write_events) {
      writes.insert(events[i].a);
    }
    EXPECT_EQ(reads, union_buckets);
    EXPECT_EQ(writes, union_buckets);
    EXPECT_EQ(read_events, union_buckets.size());
    EXPECT_EQ(write_events, union_buckets.size());
    windows.back().push_back({level->second, paths});
  }
  std::erase_if(windows, [](const std::vector<map_batch>& window) {
    return window.empty();
  });
  return windows;
}

TEST(ObliviousnessAudit, MapPassShapeIgnoresHitRate) {
  // A tree backend's period end records the leaves of its whole
  // re-installed hot set with one map pass: every map block of every
  // level is read, updated and written back once, deepest level first, in
  // batches of kPassBatch blocks. So the map lane of a period end must
  // show the same batches (level, paths per batch; one round trip each)
  // every period, whatever the number n of blocks the period evicted.
  // Two streams with different hit rates, so a different n per period,
  // on the same config and seed, must give identical shapes, and both
  // must match the batches the map's geometry implies. Covers path and
  // ring, one and four shards, foreground and incremental shuffles,
  // with a forced two-level map.
  constexpr std::uint64_t kMapBlocks = 2048;
  for (const backend_kind kind : {backend_kind::path, backend_kind::ring}) {
    for (const std::uint32_t shards : {1u, 4u}) {
      for (const bool incremental : {false, true}) {
        SCOPED_TRACE(std::string(kind == backend_kind::path ? "path" : "ring") +
                     ", " + std::to_string(shards) + " shard(s)" +
                     (incremental ? ", incremental" : ", foreground"));
        std::vector<std::vector<std::vector<map_batch>>> shapes[2];
        std::vector<std::vector<map_batch>> expected;
        double real_share[2] = {0.0, 0.0};  // of the loads
        for (int stream = 0; stream < 2; ++stream) {
          client_builder builder =
              client_builder()
                  .blocks(kMapBlocks)
                  .memory_blocks(256)
                  .payload_bytes(kPayload)
                  .backend(kind)
                  .shards(shards)
                  .trace(true)
                  .seed(test::seed(371))
                  .config_tweak([](horam_config& c) {
                    c.map_entries_per_block = 8;
                    c.map_direct_threshold = 4;
                  });
          if (incremental) {
            builder.shuffle(shuffle_policy::incremental)
                .shuffle_slice_budget(20 * util::microseconds);
          }
          client oram = builder.build();
          engine& eng = oram.eng();
          // Stream 0 draws from a 32-block hot set, stream 1 from every
          // block: stream 0's periods evict far fewer blocks.
          util::pcg64 gen{test::seed(372)};
          const std::uint64_t range = stream == 0 ? 32 : kMapBlocks;
          const auto periods_done = [&eng] {
            for (std::uint32_t s = 0; s < eng.shard_count(); ++s) {
              if (eng.shard(s).stats().periods < 4) {
                return false;
              }
            }
            return true;
          };
          for (int round = 0; round < 2000 && !periods_done(); ++round) {
            while (eng.pending() < eng.round_budget()) {
              request req;
              req.id = util::uniform_below(gen, range);
              (void)eng.submit(std::move(req));
            }
            ASSERT_TRUE(eng.step_round());
          }
          const controller_stats& stats = eng.stats();
          real_share[stream] = static_cast<double>(stats.real_loads) /
                               static_cast<double>(stats.real_loads +
                                                   stats.dummy_loads);
          for (std::uint32_t s = 0; s < shards; ++s) {
            shapes[stream].push_back(map_pass_shapes(eng, s, expected));
          }
        }
        EXPECT_LT(real_share[0], 0.8 * real_share[1]);

        for (std::uint32_t s = 0; s < shards; ++s) {
          SCOPED_TRACE("shard " + std::to_string(s));
          const std::size_t periods =
              std::min(shapes[0][s].size(), shapes[1][s].size());
          ASSERT_GE(periods, 3u);
          for (std::size_t p = 0; p < periods; ++p) {
            EXPECT_EQ(shapes[0][s][p], shapes[1][s][p]) << "period end " << p;
            EXPECT_EQ(shapes[0][s][p], expected[s]) << "period end " << p;
          }
        }
      }
    }
  }
}

TEST(ObliviousnessAudit, ShardPeriodEndsFollowFromLoadCounts) {
  // A sharded engine ends every shard's period in the round the first
  // one ends, and ends them all after a round that leaves some shard
  // round_cap() loads or fewer. Where each shard's periods end must
  // follow from what the bus already shows: every shard's cycle count
  // per round (one visible load each), the round log and the public
  // round cap. So the period_begin positions are rebuilt from those
  // alone — a period ends at its period_loads()-th load, or at the end
  // of a round in which another shard's period ended or some shard's
  // loads left fell to round_cap() — and must match the traces for a
  // hotspot and a uniform stream (the look-ahead needs a period that
  // holds two whole rounds). 1,024 cache blocks over four shards make
  // each period several rounds long, so periods end early.
  constexpr std::uint64_t kShardedBlocks = 4096;
  for (const bool hotspot : {true, false}) {
    SCOPED_TRACE(hotspot ? "hotspot" : "uniform");
    client oram = client_builder()
                      .blocks(kShardedBlocks)
                      .memory_blocks(1024)
                      .payload_bytes(kPayload)
                      .backend(backend_kind::ring)
                      .shards(4)
                      .trace(true)
                      .seed(test::seed(341))
                      .build();
    engine& eng = oram.eng();
    const std::uint32_t shards = eng.shard_count();

    // Each shard's trace length after every round: the round
    // boundaries on the bus.
    std::vector<std::vector<std::size_t>> round_ends;
    util::pcg64 gen{test::seed(hotspot ? 342 : 343)};
    for (int round = 0; round < 100; ++round) {
      while (eng.pending() < eng.round_budget()) {
        request req;
        req.id = hotspot ? util::uniform_below(gen, kShardedBlocks / 16)
                         : util::uniform_below(gen, kShardedBlocks);
        (void)eng.submit(std::move(req));
      }
      ASSERT_TRUE(eng.step_round());
      std::vector<std::size_t>& ends = round_ends.emplace_back();
      for (std::uint32_t s = 0; s < shards; ++s) {
        ends.push_back(eng.shard_trace(s)->size());
      }
    }
    ASSERT_EQ(eng.router_stats().rounds, round_ends.size());
    ASSERT_GT(eng.router_stats().early_period_ends, 0u);

    // Period ends as cycle ordinals: predicted from the load counts,
    // and as the traces record them.
    std::vector<std::vector<std::uint64_t>> predicted(shards);
    std::vector<std::vector<std::uint64_t>> recorded(shards);
    std::vector<std::uint64_t> cycles(shards, 0);
    std::vector<std::uint64_t> loads(shards, 0);
    std::vector<std::size_t> cursor(shards, 0);
    for (const std::vector<std::size_t>& ends : round_ends) {
      std::vector<bool> ended(shards, false);
      for (std::uint32_t s = 0; s < shards; ++s) {
        const std::uint64_t budget = eng.shard(s).config().period_loads();
        const std::vector<oram::trace_event>& events =
            eng.shard_trace(s)->events();
        for (; cursor[s] < ends[s]; ++cursor[s]) {
          const oram::event_kind kind = events[cursor[s]].kind;
          if (kind == oram::event_kind::period_begin) {
            recorded[s].push_back(cycles[s]);
          } else if (kind == oram::event_kind::cycle_begin) {
            ++cycles[s];
            if (++loads[s] == budget) {
              predicted[s].push_back(cycles[s]);
              loads[s] = 0;
              ended[s] = true;
            }
          }
        }
      }
      // Looking ahead needs a period that holds two whole rounds.
      bool align = std::find(ended.begin(), ended.end(), true) != ended.end();
      for (std::uint32_t s = 0; s < shards; ++s) {
        const std::uint64_t budget = eng.shard(s).config().period_loads();
        align = align || (budget > 2 * (eng.round_cap() + 1ULL) &&
                          budget - loads[s] <= eng.round_cap());
      }
      if (!align) {
        continue;
      }
      for (std::uint32_t s = 0; s < shards; ++s) {
        if (!ended[s]) {
          predicted[s].push_back(cycles[s]);
          loads[s] = 0;
        }
      }
    }
    for (std::uint32_t s = 0; s < shards; ++s) {
      EXPECT_GT(recorded[s].size(), 2u) << "shard " << s;
      EXPECT_EQ(predicted[s], recorded[s]) << "shard " << s;
    }
  }
}

}  // namespace
}  // namespace horam

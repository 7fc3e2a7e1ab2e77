// Tests for bench/shuffle: permutation helpers, the four shuffle
// algorithms (correctness, obliviousness, uniformity) and their cost
// accounting, including the whole-array square-root reshuffle that the
// partitioned shuffle period undercuts on every device profile.
// Parameterised suites sweep sizes, including non-powers of two and
// degenerate cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <string>

#include "horam.h"
#include "oram/common/block_codec.h"
#include "shuffle/bitonic.h"
#include "shuffle/cache_shuffle.h"
#include "shuffle/fisher_yates.h"
#include "shuffle/melbourne.h"
#include "shuffle/shuffle.h"
#include "shuffle/waksman.h"
#include "sim/profiles.h"
#include "storage/block_store.h"
#include "util/math.h"
#include "util/rng.h"

namespace horam::shuffle {
namespace {

constexpr std::size_t kRecordBytes = 8;

/// Builds n records whose first byte(s) encode their index.
std::vector<std::uint8_t> indexed_records(std::uint64_t n) {
  std::vector<std::uint8_t> records(n * kRecordBytes, 0);
  for (std::uint64_t i = 0; i < n; ++i) {
    for (int b = 0; b < 8; ++b) {
      records[i * kRecordBytes + static_cast<std::uint64_t>(b)] =
          static_cast<std::uint8_t>(i >> (8 * b));
    }
  }
  return records;
}

std::uint64_t record_value(const std::vector<std::uint8_t>& records,
                           std::uint64_t position) {
  std::uint64_t v = 0;
  for (int b = 0; b < 8; ++b) {
    v |= static_cast<std::uint64_t>(
             records[position * kRecordBytes + static_cast<std::uint64_t>(b)])
         << (8 * b);
  }
  return v;
}

// ------------------------------------------------------------- helpers

TEST(Permutation, IsPermutationDetectsDefects) {
  EXPECT_TRUE(is_permutation({}));
  EXPECT_TRUE(is_permutation({0}));
  EXPECT_TRUE(is_permutation({2, 0, 1}));
  EXPECT_FALSE(is_permutation({0, 0}));
  EXPECT_FALSE(is_permutation({0, 2}));
  EXPECT_FALSE(is_permutation({3, 0, 1}));
}

TEST(Permutation, InvertRoundTrip) {
  util::pcg64 rng(1);
  const permutation pi = util::random_permutation(rng, 50);
  const permutation inv = invert(pi);
  for (std::uint64_t i = 0; i < 50; ++i) {
    EXPECT_EQ(inv[pi[i]], i);
  }
}

TEST(Permutation, ApplyMovesRecordsToDestinations) {
  auto records = indexed_records(5);
  apply_permutation(records, kRecordBytes, {4, 3, 2, 1, 0});
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(record_value(records, 4 - i), i);
  }
}

TEST(Permutation, ApplyRejectsMismatchedSizes) {
  auto records = indexed_records(4);
  EXPECT_THROW(apply_permutation(records, kRecordBytes, {0, 1, 2}),
               horam::contract_error);
}

// --------------------------------------------- parameterised size sweep

class ShuffleSizes : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Sizes, ShuffleSizes,
                         ::testing::Values(1, 2, 3, 4, 7, 8, 15, 16, 33,
                                           64, 100, 127, 128, 255, 500));

TEST_P(ShuffleSizes, FisherYatesIsPermutation) {
  const std::uint64_t n = GetParam();
  util::pcg64 rng(n);
  auto records = indexed_records(n);
  const permutation pi = fisher_yates(rng, records, kRecordBytes);
  ASSERT_TRUE(is_permutation(pi));
  for (std::uint64_t i = 0; i < n; ++i) {
    EXPECT_EQ(record_value(records, pi[i]), i);
  }
}

TEST_P(ShuffleSizes, BitonicShuffleIsPermutation) {
  const std::uint64_t n = GetParam();
  util::pcg64 rng(n + 1);
  auto records = indexed_records(n);
  const permutation pi = bitonic_shuffle(rng, records, kRecordBytes);
  ASSERT_TRUE(is_permutation(pi));
  for (std::uint64_t i = 0; i < n; ++i) {
    EXPECT_EQ(record_value(records, pi[i]), i);
  }
}

TEST_P(ShuffleSizes, WaksmanRealisesRequestedPermutation) {
  const std::uint64_t n = GetParam();
  util::pcg64 rng(n + 2);
  const permutation target = util::random_permutation(rng, n);
  const waksman_network network = build_waksman(target);
  auto records = indexed_records(n);
  apply_waksman(network, records, kRecordBytes);
  for (std::uint64_t i = 0; i < n; ++i) {
    EXPECT_EQ(record_value(records, target[i]), i);
  }
}

// ------------------------------------------------------------- bitonic

TEST(Bitonic, NetworkSortsAnyInput) {
  util::pcg64 rng(9);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::uint64_t> values(64);
    for (auto& v : values) {
      v = util::uniform_below(rng, 1000);
    }
    bitonic_network(
        values.size(),
        [&](std::size_t a, std::size_t b) { return values[a] < values[b]; },
        [&](std::size_t a, std::size_t b) {
          std::swap(values[a], values[b]);
        });
    EXPECT_TRUE(std::is_sorted(values.begin(), values.end()));
  }
}

TEST(Bitonic, NetworkRequiresPowerOfTwo) {
  EXPECT_THROW(bitonic_network(
                   3, [](std::size_t, std::size_t) { return false; },
                   [](std::size_t, std::size_t) {}),
               horam::contract_error);
}

TEST(Bitonic, TouchSequenceIsDataIndependent) {
  // The pair sequence must be identical for different data and
  // different randomness — this is the obliviousness property.
  const auto collect = [](std::uint64_t seed) {
    util::pcg64 rng(seed);
    auto records = indexed_records(33);
    std::vector<std::pair<std::size_t, std::size_t>> touches;
    bitonic_shuffle(rng, records, kRecordBytes, nullptr,
                    [&](std::size_t a, std::size_t b) {
                      touches.emplace_back(a, b);
                    });
    return touches;
  };
  EXPECT_EQ(collect(1), collect(999));
}

TEST(Bitonic, CompareExchangeCountMatchesFormula) {
  util::pcg64 rng(10);
  for (const std::uint64_t n : {2ULL, 16ULL, 33ULL, 64ULL}) {
    auto records = indexed_records(n);
    shuffle_stats stats;
    bitonic_shuffle(rng, records, kRecordBytes, &stats);
    EXPECT_EQ(stats.touch_ops, bitonic_compare_exchange_count(n))
        << "n = " << n;
  }
}

TEST(Bitonic, CountFormula) {
  EXPECT_EQ(bitonic_compare_exchange_count(1), 0u);
  EXPECT_EQ(bitonic_compare_exchange_count(2), 1u);
  // m = 4: 2 stages -> 3 passes * 2 pairs = 6.
  EXPECT_EQ(bitonic_compare_exchange_count(4), 6u);
  // padding: n = 3 behaves like m = 4.
  EXPECT_EQ(bitonic_compare_exchange_count(3), 6u);
  // m = 8: 3 stages -> 6 passes * 4 pairs = 24.
  EXPECT_EQ(bitonic_compare_exchange_count(8), 24u);
}

TEST(Bitonic, ShuffleUniformity) {
  // n = 4: all 24 permutations should appear ~equally often.
  util::pcg64 rng(11);
  std::map<permutation, int> counts;
  constexpr int trials = 12000;
  for (int t = 0; t < trials; ++t) {
    auto records = indexed_records(4);
    counts[bitonic_shuffle(rng, records, kRecordBytes)]++;
  }
  EXPECT_EQ(counts.size(), 24u);
  const double expected = trials / 24.0;
  double chi2 = 0.0;
  for (const auto& [pi, count] : counts) {
    chi2 += (count - expected) * (count - expected) / expected;
  }
  EXPECT_LT(chi2, 64.0);  // dof 23; far beyond 5 sigma
}

// ------------------------------------------------------------- waksman

TEST(Waksman, IdentityAndReversal) {
  for (const std::uint64_t n : {2ULL, 8ULL, 16ULL}) {
    permutation identity(n);
    std::iota(identity.begin(), identity.end(), 0ULL);
    auto records = indexed_records(n);
    apply_waksman(build_waksman(identity), records, kRecordBytes);
    for (std::uint64_t i = 0; i < n; ++i) {
      EXPECT_EQ(record_value(records, i), i);
    }
    permutation reversal(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      reversal[i] = n - 1 - i;
    }
    records = indexed_records(n);
    apply_waksman(build_waksman(reversal), records, kRecordBytes);
    for (std::uint64_t i = 0; i < n; ++i) {
      EXPECT_EQ(record_value(records, n - 1 - i), i);
    }
  }
}

TEST(Waksman, SwitchPositionsDependOnlyOnSize) {
  // Network *shape* is public; only the settings are secret.
  util::pcg64 rng(12);
  const auto shape = [&](const permutation& pi) {
    std::vector<std::pair<std::uint32_t, std::uint32_t>> positions;
    for (const waksman_switch& sw : build_waksman(pi).switches) {
      positions.emplace_back(sw.a, sw.b);
    }
    return positions;
  };
  const permutation a = util::random_permutation(rng, 32);
  const permutation b = util::random_permutation(rng, 32);
  EXPECT_EQ(shape(a), shape(b));
}

TEST(Waksman, SwitchCountIsNLogNish) {
  // Benes network on m = 2^k inputs has m*k - m/2... switches; ours
  // includes all of them: count = m*k - m + 1 for the recursive
  // construction with single-switch base case. Just sanity-bound it.
  const permutation pi = invert({5, 3, 7, 1, 0, 2, 6, 4});
  const waksman_network network = build_waksman(pi);
  EXPECT_EQ(network.padded_size, 8u);
  EXPECT_GE(network.switches.size(), 8u * 3u / 2u);
  EXPECT_LE(network.switches.size(), 8u * 3u);
}

TEST(Waksman, ManyRandomPermutations) {
  util::pcg64 rng(13);
  for (int trial = 0; trial < 50; ++trial) {
    const std::uint64_t n = 1 + util::uniform_below(rng, 60);
    const permutation target = util::random_permutation(rng, n);
    auto records = indexed_records(n);
    apply_waksman(build_waksman(target), records, kRecordBytes);
    for (std::uint64_t i = 0; i < n; ++i) {
      ASSERT_EQ(record_value(records, target[i]), i)
          << "n=" << n << " trial=" << trial;
    }
  }
}

TEST(Waksman, RejectsNonPermutation) {
  EXPECT_THROW(build_waksman({0, 0, 1}), horam::contract_error);
}

// --------------------------------------------------- external shuffles

struct external_fixture {
  sim::block_device device{sim::hdd_paper()};
  std::unique_ptr<storage::block_store> input;
  std::unique_ptr<storage::block_store> scratch;
  std::unique_ptr<storage::block_store> output;

  external_fixture(std::uint64_t n, std::uint64_t scratch_records) {
    input = std::make_unique<storage::block_store>(device, 0, n,
                                                   kRecordBytes, 1024);
    scratch = std::make_unique<storage::block_store>(
        device, n * 1024, scratch_records, kRecordBytes, 1024);
    output = std::make_unique<storage::block_store>(
        device, (n + scratch_records) * 1024, n, kRecordBytes, 1024);
    const auto records = indexed_records(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      input->write(i, std::span<const std::uint8_t>(
                          records.data() + i * kRecordBytes, kRecordBytes));
    }
    device.reset_stats();
  }
};

class ExternalShuffleSizes
    : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Sizes, ExternalShuffleSizes,
                         ::testing::Values(1, 2, 5, 16, 50, 64, 100, 256));

TEST_P(ExternalShuffleSizes, MelbourneMovesEveryRecord) {
  const std::uint64_t n = GetParam();
  const melbourne_config config{};
  external_fixture fx(n, melbourne_scratch_records(n, config));
  util::pcg64 rng(n + 3);
  const external_shuffle_result result =
      melbourne_shuffle(*fx.input, *fx.scratch, *fx.output, rng, config);
  ASSERT_TRUE(is_permutation(result.pi));
  EXPECT_GT(result.io_time, 0);
  for (std::uint64_t i = 0; i < n; ++i) {
    EXPECT_EQ(record_value(
                  std::vector<std::uint8_t>(fx.output->peek(result.pi[i]).begin(),
                                            fx.output->peek(result.pi[i]).end()),
                  0),
              i);
  }
}

TEST_P(ExternalShuffleSizes, CacheShuffleMovesEveryRecord) {
  const std::uint64_t n = GetParam();
  cache_shuffle_config config;
  config.client_memory_records = 16;  // force multiple buckets
  external_fixture fx(n, cache_shuffle_scratch_records(n, config));
  util::pcg64 rng(n + 4);
  const external_shuffle_result result =
      cache_shuffle(*fx.input, *fx.scratch, *fx.output, rng, config);
  ASSERT_TRUE(is_permutation(result.pi));
  for (std::uint64_t i = 0; i < n; ++i) {
    EXPECT_EQ(record_value(
                  std::vector<std::uint8_t>(fx.output->peek(result.pi[i]).begin(),
                                            fx.output->peek(result.pi[i]).end()),
                  0),
              i);
  }
}

TEST(Melbourne, IoVolumeMatchesQuotaModel) {
  // Phase 1 reads n and writes ~quota*n; phase 2 reads ~quota*n and
  // writes n — the several-passes cost H-ORAM's shuffle avoids.
  constexpr std::uint64_t n = 256;
  const melbourne_config config{.message_quota = 6, .max_retries = 64};
  external_fixture fx(n, melbourne_scratch_records(n, config));
  util::pcg64 rng(20);
  melbourne_shuffle(*fx.input, *fx.scratch, *fx.output, rng, config);
  const auto& stats = fx.device.stats();
  const std::uint64_t block = 1024;
  EXPECT_GE(stats.bytes_read, n * block * (1 + config.message_quota));
  EXPECT_GE(stats.bytes_written, n * block * (1 + config.message_quota));
}

TEST(Melbourne, TinyQuotaEventuallyThrows) {
  constexpr std::uint64_t n = 64;
  const melbourne_config config{.message_quota = 1, .max_retries = 3};
  external_fixture fx(n, melbourne_scratch_records(n, config));
  util::pcg64 rng(21);
  EXPECT_THROW(
      melbourne_shuffle(*fx.input, *fx.scratch, *fx.output, rng, config),
      std::runtime_error);
}

class MelbourneQuota : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Quotas, MelbourneQuota,
                         ::testing::Values(4, 6, 10, 16));

TEST_P(MelbourneQuota, ShuffleSucceedsAcrossQuotas) {
  const std::uint64_t quota = GetParam();
  constexpr std::uint64_t n = 128;
  sim::block_device device(sim::dram_ddr4());
  const melbourne_config config{.message_quota = quota,
                                .max_retries = 128};
  storage::block_store input(device, 0, n, 16, 16);
  storage::block_store scratch(
      device, n * 16, melbourne_scratch_records(n, config), 16, 16);
  storage::block_store output(
      device, (n + melbourne_scratch_records(n, config)) * 16, n, 16, 16);
  for (std::uint64_t i = 0; i < n; ++i) {
    std::vector<std::uint8_t> record(16,
                                     static_cast<std::uint8_t>(i));
    input.write(i, record);
  }
  util::pcg64 rng(5000 + quota);
  const auto result =
      melbourne_shuffle(input, scratch, output, rng, config);
  ASSERT_TRUE(is_permutation(result.pi));
  for (std::uint64_t i = 0; i < n; ++i) {
    EXPECT_EQ(output.peek(result.pi[i])[0],
              static_cast<std::uint8_t>(i));
  }
  // Smaller quotas retry more; all must eventually succeed.
  if (quota >= 10) {
    EXPECT_EQ(result.stats.retries, 0u);
  }
}

// The paper's case for its group-and-partition layer (§4.1.3): a
// square-root ORAM writes its hot set back and then re-permutes its
// whole array of N reals plus max(sqrt(N), n/2) dummies every period
// with the multi-pass Melbourne shuffle, while the partitioned layer
// streams each partition in and out once. For the same hot set, on
// every device profile, the partitioned period moves fewer bytes and
// costs less device time.
class ShuffleCostShapes
    : public ::testing::TestWithParam<sim::device_profile> {};

INSTANTIATE_TEST_SUITE_P(Profiles, ShuffleCostShapes,
                         ::testing::Values(sim::hdd_paper(),
                                           sim::hdd_7200_raw(),
                                           sim::ssd_sata(), sim::nvme(),
                                           sim::net_remote(),
                                           sim::dram_ddr4()),
                         [](const auto& info) {
                           std::string name = info.param.name;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

TEST_P(ShuffleCostShapes, PartitionedPeriodIsCheaperThanSqrtReshuffle) {
  horam_config config;
  config.block_count = 1024;
  config.memory_blocks = 128;
  config.payload_bytes = 32;
  config.seal = false;
  const std::size_t record =
      oram::block_codec(config.payload_bytes, config.seal, 0).record_bytes();
  const std::uint64_t logical =
      oram::logical_block_bytes(config.logical_block_bytes, record);

  // Partitioned: one access period's worth of misses, then its shuffle.
  sim::block_device partitioned_disk(GetParam());
  const sim::cpu_model cpu(sim::cpu_aesni());
  util::pcg64 rng(89);
  const std::unique_ptr<oram_backend> backend =
      make_backend(backend_kind::partitioned, config, partitioned_disk, cpu,
                   rng, nullptr, nullptr);
  std::vector<oram::evicted_block> evicted;
  for (oram::block_id id = 0; id < config.period_loads(); ++id) {
    evicted.push_back(
        oram::evicted_block{id * 13, backend->load_block(id * 13).payload});
  }
  partitioned_disk.reset_stats();
  std::vector<oram::evicted_block> overflow;
  const shuffle_cost cost =
      backend->shuffle_period(std::move(evicted), 0, overflow);
  EXPECT_TRUE(overflow.empty());
  const std::uint64_t partitioned_bytes =
      partitioned_disk.stats().total_bytes();
  const sim::sim_time partitioned_time = cost.io_read + cost.io_write;

  // Square root: arrays A and B of N + D slots and Melbourne scratch on
  // one device. The hot set is written back to the slots its loads
  // revealed, then A is shuffled into B.
  sim::block_device sqrt_disk(GetParam());
  const std::uint64_t slots =
      config.block_count +
      std::max(util::isqrt_ceil(config.block_count), config.period_loads());
  const melbourne_config reshuffle;
  const std::uint64_t scratch_slots =
      melbourne_scratch_records(slots, reshuffle);
  storage::block_store array_a(sqrt_disk, 0, slots, record, logical);
  storage::block_store array_b(sqrt_disk, slots * logical, slots, record,
                               logical);
  storage::block_store scratch(sqrt_disk, 2 * slots * logical, scratch_slots,
                               record, logical);
  const std::vector<std::uint8_t> hot_record(record, 0);
  sim::sim_time sqrt_time = 0;
  const permutation revealed = util::random_permutation(rng, slots);
  for (std::uint64_t i = 0; i < config.period_loads(); ++i) {
    sqrt_time += array_a.write(revealed[i], hot_record);
  }
  sqrt_time += melbourne_shuffle(array_a, scratch, array_b, rng, reshuffle)
                   .io_time;
  const std::uint64_t sqrt_bytes = sqrt_disk.stats().total_bytes();

  EXPECT_LT(partitioned_bytes, sqrt_bytes);
  EXPECT_LT(partitioned_time, sqrt_time);
}

TEST(CacheShuffle, UniformityOverSmallDomain) {
  // n = 4 with forced multi-bucket spraying: all 24 permutations appear.
  cache_shuffle_config config;
  config.client_memory_records = 2;
  std::map<permutation, int> counts;
  constexpr int trials = 6000;
  util::pcg64 rng(22);
  for (int t = 0; t < trials; ++t) {
    external_fixture fx(4, cache_shuffle_scratch_records(4, config));
    counts[cache_shuffle(*fx.input, *fx.scratch, *fx.output, rng, config)
               .pi]++;
  }
  EXPECT_EQ(counts.size(), 24u);
  const double expected = trials / 24.0;
  double chi2 = 0.0;
  for (const auto& [pi, count] : counts) {
    chi2 += (count - expected) * (count - expected) / expected;
  }
  EXPECT_LT(chi2, 64.0);
}

TEST(CacheShuffle, DegeneratesToInMemoryWithLargeClient) {
  cache_shuffle_config config;
  config.client_memory_records = 1 << 20;
  external_fixture fx(100, cache_shuffle_scratch_records(100, config));
  util::pcg64 rng(23);
  const auto result =
      cache_shuffle(*fx.input, *fx.scratch, *fx.output, rng, config);
  EXPECT_TRUE(is_permutation(result.pi));
  EXPECT_EQ(result.stats.retries, 0u);
}

}  // namespace
}  // namespace horam::shuffle

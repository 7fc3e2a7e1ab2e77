// Tests for the single-round-trip hierarchical backend (oram/hier/):
// the cycle-walking Feistel permutation, the packed succinct index,
// level geometry, the one-batched-probe online path (one device round
// trip per load, distinct slots within an epoch), dummy pools sized
// exactly to each level's longest epoch, data survival across merges
// driven both monolithically and through bounded incremental steps,
// merge units sized to the slice budget, and merges that fail on a
// tampered or moved record.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "backend_test_access.h"
#include "horam.h"
#include "oram/hier/feistel_prp.h"
#include "oram/hier/hier_backend.h"
#include "oram/hier/succinct_index.h"
#include "test_support.h"

namespace horam::oram {
namespace {

constexpr std::uint64_t kBlocks = 256;
constexpr std::uint64_t kMemoryBlocks = 32;
constexpr std::size_t kPayload = 16;

struct rig {
  sim::block_device device{sim::hdd_paper()};
  sim::cpu_model cpu{sim::cpu_aesni()};
  util::pcg64 rng{test::seed(501)};

  horam_config config() const {
    horam_config c;
    c.block_count = kBlocks;
    c.memory_blocks = kMemoryBlocks;
    c.payload_bytes = kPayload;
    c.seal = true;
    return c;
  }

  hier_backend make() {
    return hier_backend(config(), device, cpu, rng, /*trace=*/nullptr,
                        /*filler=*/nullptr);
  }
};

/// A key with all 16 bytes drawn from `rng`.
crypto::siphash_key random_key(util::pcg64& rng) {
  crypto::siphash_key key{};
  for (std::size_t i = 0; i < key.size(); i += 8) {
    const std::uint64_t word = rng.next_u64();
    for (std::size_t b = 0; b < 8; ++b) {
      key[i + b] = static_cast<std::uint8_t>(word >> (8 * b));
    }
  }
  return key;
}

std::vector<std::uint8_t> tagged(block_id id) {
  std::vector<std::uint8_t> data(kPayload, 0);
  data[0] = static_cast<std::uint8_t>(id);
  data[1] = static_cast<std::uint8_t>(id >> 8);
  return data;
}

// --------------------------------------------------------- feistel_prp

/// Test-side reference of feistel_prp's slot -> rank map: the six
/// Feistel rounds undone one slot at a time, cycle-walking until the
/// value is back inside the domain. Built from the domain and key alone,
/// so inverse_many() is checked against an independent scalar walk.
std::uint64_t reference_inverse(std::uint64_t domain,
                                const crypto::siphash_key& key,
                                std::uint64_t slot) {
  unsigned bits = domain == 1 ? 1 : util::ceil_log2(domain);
  bits += bits % 2;  // balanced halves
  const unsigned half_bits = bits / 2;
  const std::uint64_t mask = (std::uint64_t{1} << half_bits) - 1;
  std::uint64_t v = slot;
  do {
    std::uint64_t left = v >> half_bits;
    std::uint64_t right = v & mask;
    for (unsigned round = 6; round-- > 0;) {
      const std::uint64_t tag = crypto::siphash24_u64(
          key, (static_cast<std::uint64_t>(round) << 56) ^ left);
      const std::uint64_t prev = right ^ (tag & mask);
      right = left;
      left = prev;
    }
    v = (left << half_bits) | right;
  } while (v >= domain);
  return v;
}

TEST(FeistelPrp, BijectionOverAwkwardDomains) {
  util::pcg64 rng{test::seed(502)};
  // Odd, prime, power-of-two and tiny domains: forward must be a
  // bijection and inverse its exact inverse on every one (cycle-walking
  // handles the non-power-of-two sizes).
  for (const std::uint64_t domain : {1ull, 2ull, 3ull, 17ull, 64ull,
                                     100ull, 257ull, 1000ull}) {
    const crypto::siphash_key key = random_key(rng);
    feistel_prp prp(domain, key);
    std::set<std::uint64_t> seen;
    for (std::uint64_t rank = 0; rank < domain; ++rank) {
      const std::uint64_t slot = prp.forward(rank);
      ASSERT_LT(slot, domain) << "domain " << domain;
      EXPECT_TRUE(seen.insert(slot).second)
          << "collision at rank " << rank << ", domain " << domain;
      EXPECT_EQ(reference_inverse(domain, key, slot), rank)
          << "domain " << domain;
      std::uint64_t batched = ~0ull;
      prp.inverse_many(slot, {&batched, 1});
      EXPECT_EQ(batched, rank) << "domain " << domain;
    }
  }
}

TEST(FeistelPrp, KeyedPermutationsDiffer) {
  util::pcg64 rng{test::seed(503)};
  const crypto::siphash_key a = random_key(rng);
  const crypto::siphash_key b = random_key(rng);
  feistel_prp prp_a(256, a);
  feistel_prp prp_b(256, b);
  std::uint64_t agreements = 0;
  for (std::uint64_t rank = 0; rank < 256; ++rank) {
    agreements += prp_a.forward(rank) == prp_b.forward(rank) ? 1 : 0;
  }
  // Two random permutations of 256 agree ~1 time on average; 32 would
  // mean the key is ignored.
  EXPECT_LT(agreements, 32u);
}

// The batched inverse runs the rounds of many slots in lockstep and
// cycle-walks only the ones still outside the domain; every rank must
// equal the scalar reference's, for whole domains and for chunks that
// start and end mid-domain.
TEST(FeistelPrp, InverseManyMatchesInverse) {
  util::pcg64 rng{test::seed(505)};
  for (const std::uint64_t domain :
       {1ull, 2ull, 3ull, 17ull, 20736ull, 90000ull}) {
    const crypto::siphash_key key = random_key(rng);
    const feistel_prp prp(domain, key);
    std::vector<std::uint64_t> expected(domain);
    for (std::uint64_t slot = 0; slot < domain; ++slot) {
      expected[slot] = reference_inverse(domain, key, slot);
    }
    std::vector<std::uint64_t> all(domain, ~0ull);
    prp.inverse_many(0, all);
    ASSERT_EQ(all, expected) << "domain " << domain;

    const std::uint64_t chunk_starts[] = {domain / 3, domain - domain / 5,
                                          domain - 1, domain};
    for (const std::uint64_t first : chunk_starts) {
      const std::uint64_t count = std::min<std::uint64_t>(513, domain - first);
      std::vector<std::uint64_t> chunk(count, ~0ull);
      prp.inverse_many(first, chunk);
      EXPECT_TRUE(std::equal(chunk.begin(), chunk.end(),
                             expected.begin() +
                                 static_cast<std::ptrdiff_t>(first)))
          << "domain " << domain << ", first slot " << first;
    }
  }
}

// ------------------------------------------------------ succinct_index

TEST(SuccinctIndex, PlaceLookupClearRoundTrip) {
  succinct_index index(/*universe=*/100, /*level_bits=*/3,
                       /*slot_bits=*/10);
  EXPECT_EQ(index.entry_bits(), 13u);
  for (block_id id = 0; id < 100; ++id) {
    EXPECT_EQ(index.level_of(id), 0u) << id;
  }
  index.place(7, 3, 1000);
  EXPECT_EQ(index.level_of(7), 3u);
  EXPECT_EQ(index.slot_of(7), 1000u);
  // Neighbours of a packed entry stay untouched.
  EXPECT_EQ(index.level_of(6), 0u);
  EXPECT_EQ(index.level_of(8), 0u);
  index.clear(7);
  EXPECT_EQ(index.level_of(7), 0u);
}

TEST(SuccinctIndex, EntriesStraddlingWordBoundariesSurvive) {
  // 13-bit entries: entry 4 spans bits 52..64, crossing the first word
  // boundary; a dense fill + full read-back exercises every straddle.
  succinct_index index(/*universe=*/200, /*level_bits=*/3,
                       /*slot_bits=*/10);
  for (block_id id = 0; id < 200; ++id) {
    index.place(id, 1 + id % 7, id * 5 % 1024);
  }
  for (block_id id = 0; id < 200; ++id) {
    EXPECT_EQ(index.level_of(id), 1 + id % 7) << id;
    EXPECT_EQ(index.slot_of(id), id * 5 % 1024) << id;
  }
  EXPECT_LE(index.bytes(), 200u * 13u / 8u + 24u);
}

// ------------------------------------------------------------ geometry

TEST(HierBackend, GeometryGrowsGeometricallyToCoverTheDataset) {
  rig fx;
  hier_backend backend = fx.make();
  // r_1 = max(16, memory_blocks) = 32, fan-out 4: 32, 128, 512 >= 256.
  ASSERT_EQ(backend.level_count(), 3u);
  EXPECT_EQ(backend.level_real_capacity(1), 32u);
  EXPECT_EQ(backend.level_real_capacity(2), 128u);
  EXPECT_EQ(backend.level_real_capacity(3), 512u);
  // Only the bottom level holds an epoch at start; everything lives
  // there, and levels are laid out contiguously on one store.
  EXPECT_EQ(backend.active_levels(), 1u);
  EXPECT_EQ(backend.level_live(3), kBlocks);
  EXPECT_EQ(backend.level_base(1), 0u);
  EXPECT_EQ(backend.level_base(2), backend.level_slot_count(1));
  for (std::uint32_t level = 1; level <= 3; ++level) {
    EXPECT_GT(backend.level_slot_count(level),
              backend.level_real_capacity(level))
        << "level " << level << " has no dummy pool";
  }
  // Each dummy pool is its epoch bound, (s_i + 1) * n/2: level 1 takes
  // two hot sets of 16 blocks (b_1 = 3), level 2 two merges of three
  // (b_2 = 3), so 2, 4 and 10 periods of 16 loads.
  const std::uint64_t period_loads = fx.config().period_loads();
  const std::uint64_t epoch_periods[] = {1, 3, 9};
  for (std::uint32_t level = 1; level <= 3; ++level) {
    EXPECT_EQ(hier_backend_test_access::epoch_periods(backend, level),
              epoch_periods[level - 1])
        << "level " << level;
    EXPECT_EQ(backend.level_slot_count(level),
              backend.level_real_capacity(level) +
                  (epoch_periods[level - 1] + 1) * period_loads)
        << "level " << level;
  }
  EXPECT_NO_THROW(backend.check_consistency());
}

TEST(HierBackend, DummyPoolsAreTheEpochBound) {
  for (const std::uint32_t fanout : {2u, 4u, 8u}) {
    SCOPED_TRACE(::testing::Message() << "fan-out " << fanout);
    rig fx;
    horam_config config = fx.config();
    config.hier_fanout = fanout;
    hier_backend backend(config, fx.device, fx.cpu, fx.rng, nullptr,
                         nullptr);
    // Level i is drained every s_i periods and its epoch opens while
    // the merge that builds it is in flight: one period more of n/2
    // loads.
    for (std::uint32_t level = 1; level <= backend.level_count(); ++level) {
      const std::uint64_t bound =
          (hier_backend_test_access::epoch_periods(backend, level) + 1) *
          config.period_loads();
      EXPECT_EQ(hier_backend_test_access::pool(backend, level).capacity,
                bound)
          << "level " << level;
      EXPECT_EQ(backend.level_slot_count(level),
                backend.level_real_capacity(level) + bound)
          << "level " << level;
    }
    // The bottom level's first epoch serves exactly its bound of dummy
    // probes; one more fail-stops instead of repeating a slot.
    const std::uint64_t bottom_pool =
        hier_backend_test_access::pool(backend, backend.level_count())
            .capacity;
    for (std::uint64_t k = 0; k < bottom_pool; ++k) {
      (void)backend.dummy_load();
    }
    EXPECT_NO_THROW(backend.check_consistency());
    EXPECT_THROW((void)backend.dummy_load(), contract_error);
  }
}

TEST(HierBackend, ControlMemoryIsTheIndexNotTheDataset) {
  rig fx;
  hier_backend backend = fx.make();
  // The trusted footprint is entry_bits per block plus O(levels) —
  // far below one payload per block, but (the documented trade-off)
  // it does grow linearly with the block count.
  EXPECT_LT(backend.control_memory_bytes(), kBlocks * kPayload);
  EXPECT_GE(backend.control_memory_bytes(),
            kBlocks * backend.index_entry_bits() / 8);
  EXPECT_GT(backend.physical_bytes(), 0u);
}

// ---------------------------------------------------------- online path

TEST(HierBackend, LoadIsOneRoundTripAndOneProbePerActiveLevel) {
  rig fx;
  hier_backend backend = fx.make();
  fx.device.reset_stats();
  const oram_backend::load_result load = backend.load_block(42);
  EXPECT_EQ(load.id, 42u);
  EXPECT_EQ(load.payload, std::vector<std::uint8_t>(kPayload, 0));
  EXPECT_FALSE(backend.in_storage(42));
  // The whole access is one batched scatter read: a single round trip,
  // one slot read per active level.
  EXPECT_EQ(fx.device.stats().round_trips, 1u);
  EXPECT_EQ(fx.device.stats().read_ops, 1u);

  fx.device.reset_stats();
  (void)backend.dummy_load();
  EXPECT_EQ(fx.device.stats().round_trips, 1u);
  EXPECT_NO_THROW(backend.check_consistency());
}

TEST(HierBackend, ProbedSlotsNeverRepeatWithinAnEpoch) {
  rig fx;
  const horam_config config = fx.config();
  hier_backend backend(config, fx.device, fx.cpu, fx.rng, nullptr,
                       nullptr);
  access_trace trace;
  hier_backend traced(config, fx.device, fx.cpu, fx.rng, &trace,
                      nullptr);
  std::set<std::uint64_t> seen;
  for (int round = 0; round < 40; ++round) {
    const std::size_t before = trace.events().size();
    if (round % 2 == 0) {
      (void)traced.load_block(static_cast<block_id>(round));
    } else {
      (void)traced.dummy_load();
    }
    for (std::size_t i = before; i < trace.events().size(); ++i) {
      const auto& event = trace.events()[i];
      if (event.kind != event_kind::storage_read_slot) {
        continue;
      }
      EXPECT_TRUE(seen.insert(event.a).second)
          << "slot " << event.a << " probed twice in one epoch";
    }
  }
  EXPECT_NO_THROW(traced.check_consistency());
}

// -------------------------------------------------------------- merges

TEST(HierBackend, DataSurvivesMergesUnderAShadowOracle) {
  rig fx;
  hier_backend backend = fx.make();
  std::map<block_id, std::vector<std::uint8_t>> oracle;
  for (block_id id = 0; id < kBlocks; ++id) {
    oracle[id] = std::vector<std::uint8_t>(kPayload, 0);
  }

  util::pcg64 gen{test::seed(504)};
  for (std::uint64_t period = 0; period < 12; ++period) {
    // Pull a random working set, rewrite it, hand it back via the
    // shuffle period — the monolithic entry point.
    std::vector<evicted_block> evicted;
    for (int k = 0; k < 8; ++k) {
      const block_id id =
          static_cast<block_id>(util::uniform_below(gen, kBlocks));
      if (!backend.in_storage(id)) {
        continue;
      }
      const oram_backend::load_result load = backend.load_block(id);
      EXPECT_EQ(load.payload, oracle[id]) << "period " << period;
      evicted.push_back({id, tagged(id)});
      evicted.back().payload[2] =
          static_cast<std::uint8_t>(period + 1);
      oracle[id] = evicted.back().payload;
    }
    std::vector<evicted_block> overflow;
    backend.shuffle_period(std::move(evicted), period, overflow);
    EXPECT_TRUE(overflow.empty()) << "period " << period;
    EXPECT_NO_THROW(backend.check_consistency());
  }
  // Every block is still resident and readable with its latest value.
  for (block_id id = 0; id < kBlocks; id += 13) {
    ASSERT_TRUE(backend.in_storage(id)) << id;
    const oram_backend::load_result load = backend.load_block(id);
    EXPECT_EQ(load.payload, oracle[id]) << id;
    std::vector<evicted_block> back;
    back.push_back({id, load.payload});
    std::vector<evicted_block> overflow;
    backend.shuffle_period(std::move(back), 100 + id, overflow);
    EXPECT_TRUE(overflow.empty());
  }
}

TEST(HierBackend, SteppedMergeKeepsStagedBlocksReadable) {
  rig fx;
  hier_backend backend = fx.make();
  const oram_backend::load_result load = backend.load_block(5);
  std::vector<evicted_block> evicted;
  evicted.push_back({5, tagged(5)});

  // The last period of the bottom cycle merges into the bottom level,
  // whose slot count spans several transfer chunks — a bounded budget
  // genuinely needs multiple steps.
  const std::uint64_t bottom_merge =
      hier_backend_test_access::epoch_periods(backend,
                                              backend.level_count()) -
      1;
  ASSERT_EQ(hier_backend_test_access::merge_target(backend, bottom_merge),
            backend.level_count());
  std::unique_ptr<shuffle_job> job =
      backend.begin_shuffle(std::move(evicted), bottom_merge);
  ASSERT_NE(job, nullptr);
  // Until its chunk lands the merged block lives in the job's staging
  // area: still absent from storage, readable through staged().
  std::uint64_t steps = 0;
  bool saw_staged = false;
  while (!job->done()) {
    if (!backend.in_storage(5)) {
      const std::vector<std::uint8_t>* staged = job->staged(5);
      if (staged != nullptr) {
        EXPECT_EQ(*staged, tagged(5));
        saw_staged = true;
      }
    }
    (void)job->step(/*device_budget=*/1);
    ++steps;
    ASSERT_LT(steps, 100000u) << "merge never finished";
  }
  std::vector<evicted_block> overflow;
  job->finish(overflow);
  EXPECT_TRUE(overflow.empty());
  EXPECT_TRUE(saw_staged);
  EXPECT_GT(steps, 1u) << "bounded budgets should take several steps";
  EXPECT_TRUE(backend.in_storage(5));
  const oram_backend::load_result after = backend.load_block(5);
  EXPECT_EQ(after.payload, tagged(5));
  EXPECT_NO_THROW(backend.check_consistency());
}

TEST(HierBackend, MergesEventuallyReachAndRebuildDeeperLevels) {
  rig fx;
  hier_backend backend = fx.make();
  util::pcg64 gen{test::seed(505)};
  // Level 1 takes two hot sets of 16 blocks (b_1 = 3), so periods 0
  // and 1 merge into level 1, period 2 into level 2 and period 8 into
  // the bottom level (b_2 = 3).
  std::set<std::uint32_t> active_counts;
  for (std::uint64_t period = 0; period < 16; ++period) {
    std::vector<evicted_block> evicted;
    const block_id id =
        static_cast<block_id>(util::uniform_below(gen, kBlocks));
    if (backend.in_storage(id)) {
      (void)backend.load_block(id);
      evicted.push_back({id, tagged(id)});
    }
    std::vector<evicted_block> overflow;
    backend.shuffle_period(std::move(evicted), period, overflow);
    EXPECT_TRUE(overflow.empty());
    active_counts.insert(backend.active_levels());
  }
  // The hierarchy actually breathes: shallow merges leave several
  // levels active, deep ones collapse the stack toward one.
  EXPECT_GT(*active_counts.rbegin(), 1u);
  EXPECT_NO_THROW(backend.check_consistency());
}

/// The merge target is a mixed-radix counter over the level capacities,
/// and it never needs to escalate: with a full hot set every period (n/2
/// freshly loaded blocks, the most a period can evict), each merge lands
/// on the scheduled level, fits it, and every probe finds a fresh dummy,
/// over two bottom cycles, across fan-outs and cache ratios. A merge
/// drains every level above its target, so the target is the shallowest
/// active level after it.
TEST(HierBackend, MergeTargetsFollowTheCapacitySchedule) {
  constexpr std::uint64_t blocks = 4096;
  for (const std::uint32_t fanout : {2u, 4u, 8u}) {
    for (const std::uint64_t ratio : {8u, 16u, 64u}) {
      SCOPED_TRACE(::testing::Message()
                   << "fan-out " << fanout << ", cache 1/" << ratio);
      sim::block_device device{sim::hdd_paper()};
      const sim::cpu_model cpu{sim::cpu_aesni()};
      util::pcg64 rng{test::seed(510)};
      horam_config config;
      config.block_count = blocks;
      config.memory_blocks = blocks / ratio;
      config.payload_bytes = kPayload;
      config.seal = false;  // modelled crypto; the same schedule
      config.hier_fanout = fanout;
      hier_backend backend(config, device, cpu, rng, nullptr, nullptr);
      const std::uint32_t levels = backend.level_count();
      ASSERT_GE(levels, 2u);
      const std::uint64_t cycle =
          hier_backend_test_access::epoch_periods(backend, levels);

      util::pcg64 gen{test::seed(511)};
      std::set<std::uint32_t> targets;
      for (std::uint64_t period = 0; period < 2 * cycle; ++period) {
        std::vector<evicted_block> hot;
        while (hot.size() < config.period_loads()) {
          const block_id id = util::uniform_below(gen, blocks);
          if (backend.in_storage(id)) {
            oram_backend::load_result load = backend.load_block(id);
            hot.push_back({load.id, std::move(load.payload)});
          }
        }
        std::vector<evicted_block> overflow;
        ASSERT_NO_THROW(
            backend.shuffle_period(std::move(hot), period, overflow))
            << "period " << period;
        EXPECT_TRUE(overflow.empty());
        const std::uint32_t expected =
            hier_backend_test_access::merge_target(backend, period);
        std::uint32_t shallowest = 1;
        while (!hier_backend_test_access::pool(backend, shallowest).active) {
          ++shallowest;
        }
        ASSERT_EQ(shallowest, expected) << "period " << period;
        targets.insert(expected);
      }
      EXPECT_EQ(targets.size(), levels) << "some level was never a target";
      EXPECT_NO_THROW(backend.check_consistency());
    }
  }
}


// ------------------------------------------------ dummy-pool schedule

/// Forwards every call to a hier backend and, at each period boundary
/// (the controller opening a shuffle), checks that the period just
/// closed made exactly period_loads loads — at most that many when
/// `exact` is off: a sharded engine ends a foreground period early to
/// align it with its sibling shards' — and that every
/// active level's dummy pool still holds a whole period of probes. Each
/// active level
/// is probed once per load through the period that starts there —
/// because its epoch goes on or because the merge draining it is still
/// in flight — so this headroom is what keeps every probe off an
/// exhausted pool.
class pool_auditor final : public horam::oram_backend {
 public:
  pool_auditor(std::unique_ptr<hier_backend> inner,
               std::uint64_t period_loads, bool exact)
      : inner_(std::move(inner)), period_loads_(period_loads),
        exact_(exact) {}

  [[nodiscard]] const hier_backend& inner() const { return *inner_; }
  /// Period boundaries audited so far.
  [[nodiscard]] std::uint64_t boundaries() const { return boundaries_; }

  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_->name();
  }
  [[nodiscard]] bool in_storage(block_id id) const override {
    return inner_->in_storage(id);
  }
  load_result load_block(block_id id) override {
    ++loads_;
    return inner_->load_block(id);
  }
  load_result dummy_load() override {
    ++loads_;
    return inner_->dummy_load();
  }
  [[nodiscard]] std::unique_ptr<horam::shuffle_job> begin_shuffle(
      std::vector<evicted_block> evicted,
      std::uint64_t period_index) override {
    if (exact_) {
      EXPECT_EQ(loads_, period_loads_) << "period " << period_index;
    } else {
      EXPECT_LE(loads_, period_loads_) << "period " << period_index;
    }
    loads_ = 0;
    for (std::uint32_t level = 1; level <= inner_->level_count(); ++level) {
      const auto pool = hier_backend_test_access::pool(*inner_, level);
      if (pool.active) {
        EXPECT_LE(pool.used + period_loads_, pool.capacity)
            << "level " << level << " at period " << period_index;
      }
    }
    ++boundaries_;
    return inner_->begin_shuffle(std::move(evicted), period_index);
  }
  [[nodiscard]] const horam::backend_stats& stats() const noexcept override {
    return inner_->stats();
  }
  [[nodiscard]] std::uint64_t physical_bytes() const override {
    return inner_->physical_bytes();
  }
  [[nodiscard]] std::uint64_t control_memory_bytes() const override {
    return inner_->control_memory_bytes();
  }
  void check_consistency() const override { inner_->check_consistency(); }

 private:
  std::unique_ptr<hier_backend> inner_;
  std::uint64_t period_loads_;
  bool exact_;
  std::uint64_t loads_ = 0;
  std::uint64_t boundaries_ = 0;
};

/// The pool sizing the backend relies on instead of rebuilding a level
/// in place: over a whole merge cascade (the bottom level rebuilt at
/// least once), no active level ever enters a period with fewer than
/// period_loads dummies left, across dataset sizes, cache ratios, shard
/// counts, and foreground or one-chunk-per-slice incremental merges.
TEST(HierBackend, DummyPoolsOutlastEveryActivation) {
  const sim::cpu_model cpu{sim::cpu_aesni()};
  for (const std::uint64_t blocks : {1024u, 4096u, 16384u}) {
    for (const std::uint64_t ratio : {8u, 16u, 64u}) {
      for (const std::uint32_t shards : {1u, 4u}) {
        for (const bool incremental : {false, true}) {
          horam_config config;
          config.block_count = blocks;
          config.memory_blocks = blocks / ratio;
          config.payload_bytes = kPayload;
          config.seal = false;  // modelled crypto; same pool accounting
          config.shard_count = shards;
          if (incremental) {
            config.shuffle = shuffle_policy::incremental;
            config.shuffle_slice_budget = 1;  // one chunk per slice
          }
          if (config.memory_blocks / shards < 2 * config.bucket_size) {
            continue;  // the builder rejects under a bucket pair per shard
          }
          SCOPED_TRACE(::testing::Message()
                       << blocks << " blocks, cache 1/" << ratio << ", "
                       << shards << " shards, "
                       << (incremental ? "incremental" : "foreground"));

          // One shard, or deferred merges: every shard keeps its own
          // n/2-load cadence, so every period is exactly full.
          const bool exact = shards == 1 || incremental;
          std::vector<pool_auditor*> auditors;
          const horam::engine::shard_factory factory =
              [&auditors, exact](std::uint32_t, const horam_config& shard_config,
                          sim::block_device& storage, sim::block_device&,
                          const sim::cpu_model& shard_cpu,
                          util::random_source& rng, access_trace* trace,
                          std::span<const block_id>)
              -> std::unique_ptr<horam::oram_backend> {
            auto audited = std::make_unique<pool_auditor>(
                std::make_unique<hier_backend>(shard_config, storage,
                                               shard_cpu, rng, trace,
                                               nullptr),
                shard_config.period_loads(), exact);
            auditors.push_back(audited.get());
            return audited;
          };
          horam::engine::options opts;
          opts.storage_profile = sim::hdd_paper();
          opts.memory_profile = sim::dram_ddr4();
          opts.seed = test::seed(506);
          horam::engine eng(config, cpu, factory, opts);

          // A full cascade: period s_L - 1 merges into the bottom
          // level; audit the boundary after it too.
          const hier_backend& shard = auditors[0]->inner();
          const std::uint64_t cascade = hier_backend_test_access::epoch_periods(
              shard, shard.level_count());
          const auto min_boundaries = [&auditors] {
            std::uint64_t least = auditors[0]->boundaries();
            for (const pool_auditor* auditor : auditors) {
              least = std::min(least, auditor->boundaries());
            }
            return least;
          };
          util::pcg64 gen{test::seed(507)};
          while (min_boundaries() <= cascade && !HasFailure()) {
            std::vector<horam::request> batch(512);
            for (horam::request& req : batch) {
              req.id = util::uniform_below(gen, blocks);
            }
            eng.run(batch);
          }
          for (const pool_auditor* auditor : auditors) {
            EXPECT_NO_THROW(auditor->check_consistency());
          }
        }
      }
    }
  }
}

// ------------------------------------------------ budget-sized slices

/// Device bill of one shuffle_job::step().
struct step_bill {
  sim::sim_time device = 0;         // io_read + io_write
  std::uint64_t slots_written = 0;  // logical blocks written
};

/// Drives a 3-level hier backend on `profile` through a whole merge
/// cascade the way the controller does: period_loads() loads a period,
/// one step(step_budget) of the in-flight merge after each load, the
/// rest drained at the next boundary. Returns every step's bill.
std::vector<step_bill> stepped_cascade(const sim::device_profile& profile,
                                       shuffle_policy policy,
                                       sim::sim_time config_budget,
                                       sim::sim_time step_budget) {
  sim::block_device device{profile};
  const sim::cpu_model cpu{sim::cpu_aesni()};
  util::pcg64 rng{test::seed(508)};
  horam_config config;
  config.block_count = 4096;
  config.memory_blocks = 256;
  config.payload_bytes = kPayload;
  config.logical_block_bytes = 1024;
  config.seal = false;  // modelled crypto; the same transfers
  config.shuffle = policy;
  config.shuffle_slice_budget = config_budget;
  hier_backend backend(config, device, cpu, rng, nullptr, nullptr);
  EXPECT_EQ(backend.level_count(), 3u);

  std::vector<step_bill> bills;
  std::unique_ptr<shuffle_job> job;
  const auto step = [&] {
    const std::uint64_t written = device.stats().bytes_written;
    const shuffle_cost cost = job->step(step_budget);
    bills.push_back({cost.io_read + cost.io_write,
                     (device.stats().bytes_written - written) /
                         config.logical_block_bytes});
  };
  util::pcg64 gen{test::seed(509)};
  std::vector<evicted_block> cached;
  // Period s_3 - 1 merges into the bottom level; the boundary after it
  // drains that merge.
  const std::uint64_t cycle =
      hier_backend_test_access::epoch_periods(backend, 3);
  for (std::uint64_t period = 0; period <= cycle; ++period) {
    for (std::uint64_t load = 0; load < config.period_loads(); ++load) {
      const block_id id = util::uniform_below(gen, config.block_count);
      oram_backend::load_result result = backend.in_storage(id)
                                             ? backend.load_block(id)
                                             : backend.dummy_load();
      if (result.id != dummy_block_id) {
        cached.push_back({result.id, std::move(result.payload)});
      }
      if (job != nullptr && !job->done()) {
        step();
      }
    }
    if (job != nullptr) {
      while (!job->done()) {
        step();
      }
      std::vector<evicted_block> overflow;
      job->finish(overflow);
      EXPECT_TRUE(overflow.empty());
    }
    job = backend.begin_shuffle(std::move(cached), period);
    cached.clear();
  }
  EXPECT_NO_THROW(backend.check_consistency());
  return bills;
}

/// Under a bounded incremental budget a merge unit is the largest chunk
/// whose modelled device time (command + seek + transfer at the slower
/// bandwidth) fits it, so no step overruns the budget: 210 slots of
/// 1 KiB on net-remote, 104 on the HDD at 2 ms. An unbounded budget,
/// and any other policy, keeps whole 512-slot units.
TEST(HierBackend, SlicesFitTheBudget) {
  constexpr sim::sim_time kBudget = 2 * util::milliseconds;
  const std::pair<sim::device_profile, std::uint64_t> cases[] = {
      {sim::net_remote(), 210}, {sim::hdd_paper(), 104}};
  for (const auto& [profile, chunk] : cases) {
    SCOPED_TRACE(profile.name);
    const std::vector<step_bill> bills = stepped_cascade(
        profile, shuffle_policy::incremental, kBudget, kBudget);
    std::uint64_t widest = 0;
    for (const step_bill& bill : bills) {
      EXPECT_LE(bill.device, kBudget);
      widest = std::max(widest, bill.slots_written);
    }
    EXPECT_EQ(widest, chunk);
  }
  for (const shuffle_policy policy :
       {shuffle_policy::incremental, shuffle_policy::foreground}) {
    SCOPED_TRACE(shuffle_policy_name(policy));
    // A 1 ns step runs exactly one unit.
    const std::vector<step_bill> bills =
        stepped_cascade(sim::net_remote(), policy, 0, 1);
    std::uint64_t widest = 0;
    for (const step_bill& bill : bills) {
      widest = std::max(widest, bill.slots_written);
    }
    EXPECT_EQ(widest, 512u);
  }
}

// A merge opens each source chunk in one batch before it stages any
// block. A tampered record of the source level's last live block must
// fail the step with the typed crypto error while every other block of
// that level stays on storage: nothing staged, no index entry cleared.
TEST(FaultInjection, TamperedHierMergeChunkStagesNothing) {
  rig fx;
  hier_backend backend = fx.make();
  // Period 0 fills level 1 with a hot set.
  std::vector<evicted_block> hot;
  for (block_id id = 0; id < 12; ++id) {
    const oram_backend::load_result load = backend.load_block(id * 5);
    hot.push_back({load.id, load.payload});
  }
  std::vector<evicted_block> overflow;
  backend.shuffle_period(std::move(hot), 0, overflow);
  ASSERT_EQ(backend.level_live(1), 12u);

  // Period 1 merges level 1 (one chunk) back into level 1.
  std::vector<evicted_block> next;
  const oram_backend::load_result load = backend.load_block(3);
  next.push_back({load.id, load.payload});
  std::unique_ptr<shuffle_job> job = backend.begin_shuffle(std::move(next), 1);

  std::vector<block_id> level_one;
  block_id last = dummy_block_id;
  for (block_id id = 0; id < kBlocks; ++id) {
    if (hier_backend_test_access::level_of(backend, id) != 1) {
      continue;
    }
    level_one.push_back(id);
    if (last == dummy_block_id ||
        hier_backend_test_access::slot_of(backend, id) >
            hier_backend_test_access::slot_of(backend, last)) {
      last = id;
    }
  }
  ASSERT_EQ(level_one.size(), 12u);
  hier_backend_test_access::corrupt(
      backend, hier_backend_test_access::slot_of(backend, last), 30, 0x02);

  EXPECT_THROW((void)job->step(/*device_budget=*/1), crypto::crypto_error);
  for (const block_id id : level_one) {
    EXPECT_FALSE(job->holds(id)) << id;
    EXPECT_TRUE(backend.in_storage(id)) << id;
    EXPECT_EQ(hier_backend_test_access::level_of(backend, id), 1u) << id;
  }
  EXPECT_EQ(backend.level_live(1), 12u);
}

// With every slot's rank known, each slot a merge reads has an expected
// id. A store that copies one live level-1 record over another (a valid
// sealed record in the wrong place) fails the merge with a typed error
// at the chunk that reads the overwritten slot — not skipped as a
// stale copy until the level ends — and the block it hid stays put.
TEST(FaultInjection, MovedHierRecordFailsTheMergeAtItsChunk) {
  rig fx;
  horam_config config = fx.config();
  config.logical_block_bytes = 1024;
  config.shuffle = shuffle_policy::incremental;
  // Fits 8 slots of 1 KiB per unit on the HDD profile: level 1's 64
  // slots span several units.
  config.shuffle_slice_budget = 220 * util::microseconds;
  access_trace trace;
  hier_backend backend(config, fx.device, fx.cpu, fx.rng, &trace, nullptr);
  std::vector<evicted_block> hot;
  for (block_id id = 0; id < 12; ++id) {
    const oram_backend::load_result load = backend.load_block(id * 5);
    hot.push_back({load.id, load.payload});
  }
  std::vector<evicted_block> overflow;
  backend.shuffle_period(std::move(hot), 0, overflow);
  ASSERT_EQ(backend.level_live(1), 12u);

  std::vector<evicted_block> next;
  const oram_backend::load_result load = backend.load_block(3);
  next.push_back({load.id, load.payload});
  std::unique_ptr<shuffle_job> job = backend.begin_shuffle(std::move(next), 1);

  // Copy the level's last live record over its first.
  block_id first = dummy_block_id;
  block_id last = dummy_block_id;
  for (block_id id = 0; id < kBlocks; ++id) {
    if (hier_backend_test_access::level_of(backend, id) != 1) {
      continue;
    }
    const std::uint64_t slot = hier_backend_test_access::slot_of(backend, id);
    if (first == dummy_block_id ||
        slot < hier_backend_test_access::slot_of(backend, first)) {
      first = id;
    }
    if (last == dummy_block_id ||
        slot > hier_backend_test_access::slot_of(backend, last)) {
      last = id;
    }
  }
  const std::uint64_t victim = hier_backend_test_access::slot_of(backend, first);
  hier_backend_test_access::copy_slot(
      backend, hier_backend_test_access::slot_of(backend, last), victim);

  bool threw = false;
  for (int steps = 0; !threw && steps < 64; ++steps) {
    const std::size_t before = trace.size();
    try {
      (void)job->step(/*device_budget=*/1);
    } catch (const contract_error&) {
      threw = true;
      // The failing step is the one that read the overwritten slot.
      bool read_victim = false;
      for (std::size_t i = before; i < trace.size(); ++i) {
        const trace_event& event = trace.events()[i];
        read_victim |= event.kind == event_kind::storage_read_sweep &&
                       event.a <= victim && victim < event.a + event.b;
      }
      EXPECT_TRUE(read_victim);
    }
    ASSERT_FALSE(job->done());
  }
  ASSERT_TRUE(threw);
  EXPECT_FALSE(job->holds(first));
  EXPECT_EQ(hier_backend_test_access::level_of(backend, first), 1u);
}

}  // namespace
}  // namespace horam::oram

// Tests of the sharded ORAM engine (core/engine.h): PRF routing and id
// translation, shards(1) bit-for-bit equivalence with the historical
// single-controller machine, agreement of the run / submit+drain /
// step_round entry points, conformance/replay across shard counts
// {1, 2, 4, 8} and every backend, data-independent padded round shapes,
// per-shard bus-distribution workload independence, per-shard seal keys,
// cross-shard stats aggregation (controller_stats::operator+= /
// aggregate()), the reset_stats() lane-counter regression, and
// backend_names().
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "analysis/obliviousness.h"
#include "crypto/seal.h"
#include "horam.h"
#include "test_support.h"
#include "util/rng.h"

namespace horam {
namespace {

using oram::block_id;

constexpr std::uint64_t kBlocks = 256;
constexpr std::uint64_t kMemoryBlocks = 64;
constexpr std::size_t kPayload = 16;

client_builder engine_builder(std::uint32_t shards,
                              std::uint64_t seed_salt = 31) {
  return client_builder()
      .blocks(kBlocks)
      .memory_blocks(kMemoryBlocks)
      .payload_bytes(kPayload)
      .shards(shards)
      .seed(test::seed(seed_salt));
}

std::vector<std::uint8_t> tagged(std::uint8_t tag) {
  return std::vector<std::uint8_t>(kPayload, tag);
}

// ------------------------------------------------------------- routing

TEST(EngineRouting, PrfPartitionsTheBlockSpace) {
  client oram = engine_builder(4).build();
  const engine& eng = oram.eng();
  ASSERT_EQ(eng.shard_count(), 4u);

  // Every id routes to exactly one shard, translations are consistent,
  // and the shard_blocks lists partition the global id space.
  std::set<block_id> seen;
  for (std::uint32_t s = 0; s < eng.shard_count(); ++s) {
    const std::vector<block_id> blocks = eng.shard_blocks(s);
    EXPECT_GT(blocks.size(), 0u) << "shard " << s << " owns no blocks";
    EXPECT_EQ(eng.shard(s).config().block_count, blocks.size());
    for (std::size_t local = 0; local < blocks.size(); ++local) {
      const block_id global = blocks[local];
      EXPECT_EQ(eng.shard_of(global), s);
      EXPECT_EQ(eng.shard_local_id(global), local);
      EXPECT_TRUE(seen.insert(global).second)
          << "block " << global << " owned by two shards";
    }
  }
  EXPECT_EQ(seen.size(), kBlocks);

  // The keyed PRF balances the stripe: no shard is pathologically fat.
  for (std::uint32_t s = 0; s < eng.shard_count(); ++s) {
    EXPECT_LT(eng.shard_blocks(s).size(), kBlocks / 2);
  }

  // Routing is a pure function of the config, not of machine state.
  client other = engine_builder(4).build();
  for (block_id id = 0; id < kBlocks; ++id) {
    EXPECT_EQ(other.eng().shard_of(id), eng.shard_of(id));
  }

  // The router reports its id-translation tables as control memory.
  client single = engine_builder(1).build();
  EXPECT_GT(oram.control_memory_bytes(), single.control_memory_bytes());
  EXPECT_THROW((void)eng.shard_of(kBlocks), contract_error);
}

TEST(EngineRouting, SingleShardIsIdentity) {
  client oram = engine_builder(1).build();
  const engine& eng = oram.eng();
  ASSERT_EQ(eng.shard_count(), 1u);
  for (block_id id = 0; id < kBlocks; id += 17) {
    EXPECT_EQ(eng.shard_of(id), 0u);
    EXPECT_EQ(eng.shard_local_id(id), id);
  }
  EXPECT_TRUE(eng.shard_blocks(0).empty());  // identity mapping
}

TEST(EngineRouting, RouteKeyChangesTheStripe) {
  client a = engine_builder(4).build();
  client b = engine_builder(4)
                 .config_tweak([](horam_config& c) {
                   c.route_key_seed ^= 0x5eedULL;
                 })
                 .build();
  std::uint64_t moved = 0;
  for (block_id id = 0; id < kBlocks; ++id) {
    moved += a.eng().shard_of(id) != b.eng().shard_of(id) ? 1 : 0;
  }
  EXPECT_GT(moved, kBlocks / 2);  // ~3/4 expected under a fresh key
}

// ------------------------------------------------------------- sealing

TEST(EngineSealing, ShardsSealUnderDistinctKeys) {
  // Every shard's sealers start their nonce counters at 0. Under one
  // shared key, equal plaintexts sealed at nonce 0 on two shards would
  // produce equal ciphertexts: ChaCha20 keystream reuse.
  client oram = engine_builder(2).seal(true).build();
  const engine& eng = oram.eng();
  const std::vector<std::uint8_t> plaintext(64, 0x3c);
  std::vector<std::vector<std::uint8_t>> sealed;
  for (std::uint32_t s = 0; s < eng.shard_count(); ++s) {
    crypto::block_sealer sealer(
        crypto::derive_seal_keys(eng.shard(s).config().key_seed));
    std::vector<std::uint8_t> record(plaintext.size() + crypto::seal_overhead);
    std::copy(plaintext.begin(), plaintext.end(),
              record.begin() + crypto::seal_nonce_bytes);
    sealer.seal_in_place(record);
    sealed.push_back(record);
  }
  ASSERT_EQ(sealed.size(), 2u);
  EXPECT_TRUE(std::equal(sealed[0].begin(),
                         sealed[0].begin() + crypto::seal_nonce_bytes,
                         sealed[1].begin()))
      << "both records carry nonce 0";
  EXPECT_NE(sealed[0], sealed[1]);

  // shards(1) keeps the caller's key seed verbatim, so its records stay
  // byte-identical to the single-controller machine's.
  client single = engine_builder(1).seal(true).build();
  EXPECT_EQ(single.eng().shard(0).config().key_seed,
            single.eng().config().key_seed);
}

// -------------------------------------- shards(1) exact pass-through

/// The engine with one shard must reproduce the historical
/// single-controller machine bit for bit: same completion times, same
/// counters, same bus trace, under an identical manually wired machine.
TEST(EngineCompat, SingleShardMatchesBareControllerBitForBit) {
  const std::uint64_t seed = test::seed(33);

  // Manually assembled machine, exactly as the pre-engine facade did.
  sim::block_device storage{sim::hdd_paper()};
  sim::block_device memory{sim::dram_ddr4()};
  const sim::cpu_model cpu{sim::cpu_aesni()};
  util::pcg64 rng(seed);
  oram::access_trace trace;
  horam_config config;
  config.block_count = kBlocks;
  config.memory_blocks = kMemoryBlocks;
  config.payload_bytes = kPayload;
  std::unique_ptr<oram_backend> backend =
      make_backend(backend_kind::partitioned, config, storage, cpu, rng,
                   &trace, nullptr, &memory);
  controller bare(config, std::move(backend), memory, cpu, rng, &trace);
  bare.attach_device_stats(&storage.stats());

  client sharded = engine_builder(1, 33).trace(true).build();

  util::pcg64 workload(test::seed(34));
  std::vector<request> stream;
  for (int i = 0; i < 400; ++i) {
    request req;
    req.op = util::bernoulli(workload, 0.3) ? oram::op_kind::write
                                            : oram::op_kind::read;
    req.id = util::uniform_below(workload, kBlocks);
    if (req.op == oram::op_kind::write) {
      req.write_data = tagged(static_cast<std::uint8_t>(i));
    }
    stream.push_back(std::move(req));
  }

  std::vector<request_result> bare_results;
  std::vector<request_result> sharded_results;
  bare.run(stream, &bare_results);
  sharded.run(stream, &sharded_results);

  ASSERT_EQ(bare_results.size(), sharded_results.size());
  for (std::size_t i = 0; i < bare_results.size(); ++i) {
    EXPECT_EQ(bare_results[i].completion_time,
              sharded_results[i].completion_time)
        << "request " << i;
    EXPECT_EQ(bare_results[i].hit, sharded_results[i].hit);
    EXPECT_EQ(bare_results[i].read_data, sharded_results[i].read_data);
  }
  EXPECT_EQ(bare.now(), sharded.now());

  test::expect_stats_equal(bare.stats(), sharded.stats());

  const oram::access_trace* sharded_trace = sharded.trace();
  ASSERT_NE(sharded_trace, nullptr);
  ASSERT_EQ(trace.size(), sharded_trace->size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace.events()[i].kind, sharded_trace->events()[i].kind)
        << "event " << i;
    EXPECT_EQ(trace.events()[i].a, sharded_trace->events()[i].a);
    EXPECT_EQ(trace.events()[i].b, sharded_trace->events()[i].b);
  }
}

void expect_results_equal(const std::vector<request_result>& a,
                          const std::vector<request_result>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].completion_time, b[i].completion_time) << "request " << i;
    EXPECT_EQ(a[i].hit, b[i].hit) << "request " << i;
    EXPECT_EQ(a[i].read_data, b[i].read_data) << "request " << i;
  }
}

/// Same router counters and per-shard bus traces.
void expect_engines_equal(const engine& a, const engine& b) {
  EXPECT_EQ(a.now(), b.now());
  test::expect_stats_equal(a.stats(), b.stats());
  const engine_stats& ra = a.router_stats();
  const engine_stats& rb = b.router_stats();
  EXPECT_EQ(ra.rounds, rb.rounds);
  EXPECT_EQ(ra.real_requests, rb.real_requests);
  EXPECT_EQ(ra.pad_requests, rb.pad_requests);
  EXPECT_EQ(ra.pad_hits, rb.pad_hits);
  EXPECT_EQ(ra.pad_misses, rb.pad_misses);
  EXPECT_EQ(ra.physical_accesses, rb.physical_accesses);
  EXPECT_EQ(ra.coalesced_requests, rb.coalesced_requests);
  ASSERT_EQ(a.shard_count(), b.shard_count());
  for (std::uint32_t s = 0; s < a.shard_count(); ++s) {
    const oram::access_trace* ta = a.shard_trace(s);
    const oram::access_trace* tb = b.shard_trace(s);
    ASSERT_NE(ta, nullptr);
    ASSERT_NE(tb, nullptr);
    ASSERT_EQ(ta->size(), tb->size()) << "shard " << s;
    for (std::size_t i = 0; i < ta->size(); ++i) {
      EXPECT_EQ(ta->events()[i].kind, tb->events()[i].kind)
          << "shard " << s << " event " << i;
      EXPECT_EQ(ta->events()[i].a, tb->events()[i].a);
      EXPECT_EQ(ta->events()[i].b, tb->events()[i].b);
    }
  }
}

/// run(), submit() + drain() and — for an unpadded engine — one
/// step_round() over the whole queue all execute a batch the same way:
/// same results, counters, round log and bus traces, with and without
/// coalescing, on one shard and on several.
TEST(EngineCompat, EntryPointsAgree) {
  util::pcg64 workload(test::seed(36));
  std::vector<request> stream;
  for (int i = 0; i < 300; ++i) {
    request req;
    req.op = util::bernoulli(workload, 0.4) ? oram::op_kind::write
                                            : oram::op_kind::read;
    // A hot set of 12 blocks: most requests share their block with
    // another one, so coalescing merges plenty.
    req.id = util::uniform_below(workload, 12);
    if (req.op == oram::op_kind::write) {
      req.write_data = tagged(static_cast<std::uint8_t>(i));
    }
    stream.push_back(std::move(req));
  }

  for (const std::uint32_t shards : {1u, 4u}) {
    for (const bool coalescing : {false, true}) {
      SCOPED_TRACE(::testing::Message() << shards << " shards, coalescing "
                                        << coalescing);
      const auto build = [&] {
        return engine_builder(shards, 37)
            .coalescing(coalescing)
            .trace(true)
            .build();
      };
      client batch = build();
      std::vector<request_result> batch_results;
      batch.run(stream, &batch_results);

      client queued = build();
      queued.submit(stream);
      std::vector<request_result> queued_results;
      queued.drain(&queued_results);
      EXPECT_EQ(queued.pending(), 0u);
      expect_results_equal(batch_results, queued_results);
      expect_engines_equal(batch.eng(), queued.eng());

      if (shards == 1 && !coalescing) {
        client stepped = build();
        std::vector<std::uint64_t> tokens;
        for (const request& req : stream) {
          tokens.push_back(stepped.eng().submit(req));
        }
        std::map<std::uint64_t, request_result> by_token;
        EXPECT_TRUE(stepped.eng().step_round(
            [&](std::uint64_t token, request_result&& result) {
              by_token.emplace(token, std::move(result));
            }));
        EXPECT_EQ(stepped.pending(), 0u);
        std::vector<request_result> stepped_results;
        for (const std::uint64_t token : tokens) {
          stepped_results.push_back(by_token.at(token));
        }
        expect_results_equal(batch_results, stepped_results);
        expect_engines_equal(batch.eng(), stepped.eng());
      }
    }
  }
}

// ------------------------------------------ decorator transparency

/// A backend that overrides only oram_backend's virtuals and forwards
/// each one, as a timing or logging decorator does. Whatever a backend
/// must hand the controller — deferred work included — has to reach it
/// through these calls, or a decorated machine would run differently.
class forwarding_backend final : public oram_backend {
 public:
  explicit forwarding_backend(std::unique_ptr<oram_backend> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_->name();
  }
  [[nodiscard]] bool in_storage(block_id id) const override {
    return inner_->in_storage(id);
  }
  load_result load_block(block_id id) override {
    return inner_->load_block(id);
  }
  load_result dummy_load() override { return inner_->dummy_load(); }
  [[nodiscard]] std::unique_ptr<shuffle_job> begin_shuffle(
      std::vector<oram::evicted_block> evicted,
      std::uint64_t period_index) override {
    return inner_->begin_shuffle(std::move(evicted), period_index);
  }
  shuffle_cost shuffle_period(
      std::vector<oram::evicted_block> evicted, std::uint64_t period_index,
      std::vector<oram::evicted_block>& overflow_out) override {
    return inner_->shuffle_period(std::move(evicted), period_index,
                                  overflow_out);
  }
  [[nodiscard]] const backend_stats& stats() const noexcept override {
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
  std::unique_ptr<oram_backend> inner_;
};

TEST(EngineDecorator, ForwardingBackendIsTransparent) {
  // For every backend on one and four shards, a machine whose shard
  // backends are wrapped in forwarding_backend must replay the plain
  // machine bit for bit: completion times, counters and every shard's
  // bus trace.
  horam_config config;
  config.block_count = 1024;
  config.memory_blocks = 128;
  config.payload_bytes = kPayload;
  util::pcg64 workload(test::seed(36));
  std::vector<request> stream;
  for (int i = 0; i < 1200; ++i) {
    request req;
    req.id = util::uniform_below(workload, config.block_count);
    if (util::bernoulli(workload, 0.3)) {
      req.op = oram::op_kind::write;
      req.write_data = tagged(static_cast<std::uint8_t>(i));
    }
    stream.push_back(std::move(req));
  }
  const sim::cpu_model cpu{sim::cpu_aesni()};
  for (const backend_kind kind : all_backend_kinds) {
    for (const std::uint32_t shards : {1u, 4u}) {
      SCOPED_TRACE(std::string(backend_name(kind)) + " x" +
                   std::to_string(shards));
      config.shard_count = shards;
      const auto build = [&](bool wrapped) {
        const engine::shard_factory factory =
            [kind, wrapped](std::uint32_t, const horam_config& shard_config,
                            sim::block_device& storage,
                            sim::block_device& memory,
                            const sim::cpu_model& shard_cpu,
                            util::random_source& rng,
                            oram::access_trace* trace,
                            std::span<const block_id>)
            -> std::unique_ptr<oram_backend> {
          std::unique_ptr<oram_backend> backend =
              make_backend(kind, shard_config, storage, shard_cpu, rng, trace,
                           nullptr, &memory);
          if (wrapped) {
            return std::make_unique<forwarding_backend>(std::move(backend));
          }
          return backend;
        };
        return std::make_unique<engine>(
            config, cpu, factory,
            engine::options{sim::hdd_paper(), sim::dram_ddr4(),
                            test::seed(37), true});
      };
      const std::unique_ptr<engine> plain = build(false);
      const std::unique_ptr<engine> wrapped = build(true);
      // In rounds, as a service pumps them.
      std::vector<std::vector<request_result>> results(2);
      for (int arm = 0; arm < 2; ++arm) {
        engine& eng = arm == 0 ? *plain : *wrapped;
        results[arm].resize(stream.size());
        std::map<std::uint64_t, std::size_t> index_of;  // token -> request
        for (std::size_t next = 0; next < stream.size() || eng.pending() > 0;) {
          while (next < stream.size() && eng.pending() < eng.round_budget()) {
            index_of[eng.submit(stream[next])] = next;
            ++next;
          }
          eng.step_round([&](std::uint64_t token, request_result&& r) {
            results[arm][index_of.at(token)] = std::move(r);
          });
        }
      }
      for (std::size_t i = 0; i < stream.size(); ++i) {
        ASSERT_EQ(results[0][i].completion_time, results[1][i].completion_time)
            << "request " << i;
        ASSERT_EQ(results[0][i].read_data, results[1][i].read_data);
      }
      test::expect_stats_equal(plain->stats(), wrapped->stats());
      EXPECT_GT(plain->stats().periods, 0u);
      for (std::uint32_t s = 0; s < shards; ++s) {
        const std::vector<oram::trace_event>& a =
            plain->shard_trace(s)->events();
        const std::vector<oram::trace_event>& b =
            wrapped->shard_trace(s)->events();
        ASSERT_EQ(a.size(), b.size()) << "shard " << s;
        for (std::size_t i = 0; i < a.size(); ++i) {
          ASSERT_EQ(a[i].kind, b[i].kind) << "shard " << s << " event " << i;
          ASSERT_EQ(a[i].a, b[i].a) << "shard " << s << " event " << i;
          ASSERT_EQ(a[i].b, b[i].b) << "shard " << s << " event " << i;
        }
      }
      if (kind == backend_kind::ring) {
        // The ring backend's evictions are the deferred work.
        EXPECT_GT(wrapped->stats().deferred_runs, 0u);
      }
    }
  }
}

// --------------------------- conformance across the shard/backend grid

struct grid_point {
  std::uint32_t shards;
  backend_kind backend;
};

class EngineConformance : public ::testing::TestWithParam<grid_point> {};

INSTANTIATE_TEST_SUITE_P(
    ShardsByBackend, EngineConformance,
    ::testing::ValuesIn([] {
      std::vector<grid_point> grid;
      for (const std::uint32_t shards : {1u, 2u, 4u, 8u}) {
        for (const backend_kind kind : all_backend_kinds) {
          grid.push_back(grid_point{shards, kind});
        }
      }
      return grid;
    }()),
    [](const ::testing::TestParamInfo<grid_point>& info) {
      return std::string(backend_name(info.param.backend)) + "_x" +
             std::to_string(info.param.shards);
    });

/// Differential replay against a std::map oracle: payload correctness
/// must survive routing, padding and per-shard shuffle periods.
TEST_P(EngineConformance, ShadowMapReplay) {
  client oram = engine_builder(GetParam().shards)
                    .backend(GetParam().backend)
                    .build();
  std::map<block_id, std::vector<std::uint8_t>> shadow;
  util::pcg64 driver(test::seed(35 + GetParam().shards));
  // Single-op rounds cost a full padded round per shard (that is the
  // point), so scale the step count down as the grid widens to keep
  // sanitizer runs affordable; shard periods are short (memory splits),
  // so even 75 steps cross several shuffle periods everywhere.
  const int steps = 600 / static_cast<int>(2 * GetParam().shards);
  for (int step = 0; step < steps; ++step) {
    const block_id id = util::uniform_below(driver, kBlocks);
    if (util::bernoulli(driver, 0.4)) {
      const auto data = tagged(static_cast<std::uint8_t>(step));
      oram.write(id, data);
      shadow[id] = data;
    } else {
      const auto expected = shadow.contains(id)
                                ? shadow[id]
                                : std::vector<std::uint8_t>(kPayload, 0);
      ASSERT_EQ(oram.read(id), expected)
          << "step " << step << " id " << id;
    }
  }
  for (std::uint32_t s = 0; s < oram.eng().shard_count(); ++s) {
    ASSERT_NO_THROW(oram.eng().shard(s).backend().check_consistency())
        << "shard " << s;
    EXPECT_GT(oram.eng().shard(s).stats().periods, 0u) << "shard " << s;
  }
}

/// The batch and incremental APIs agree with the oracle too (routing
/// survives the submit()/drain() path and results come back in
/// submission order).
TEST_P(EngineConformance, SubmitDrainKeepsSubmissionOrder) {
  client oram = engine_builder(GetParam().shards)
                    .backend(GetParam().backend)
                    .build();
  // Tag every block, then read them all back through one drain.
  for (block_id id = 0; id < 64; ++id) {
    oram.write(id, tagged(static_cast<std::uint8_t>(id)));
  }
  std::vector<request> reads(64);
  for (block_id id = 0; id < 64; ++id) {
    reads[id].op = oram::op_kind::read;
    reads[id].id = 63 - id;  // reversed, to catch order bugs
  }
  oram.submit(reads);
  EXPECT_EQ(oram.pending(), 64u);
  std::vector<request_result> results;
  oram.drain(&results);
  ASSERT_EQ(results.size(), 64u);
  for (block_id id = 0; id < 64; ++id) {
    EXPECT_EQ(results[id].read_data,
              tagged(static_cast<std::uint8_t>(63 - id)))
        << "result " << id;
  }
  EXPECT_EQ(oram.pending(), 0u);
}

// ------------------------------------------- padded round obliviousness

/// Drives one sharded client with a workload.
void drive_rounds(client& oram, bool hotspot, std::uint64_t seed) {
  util::pcg64 gen(seed);
  std::vector<request> stream(600);
  for (request& req : stream) {
    req.op = oram::op_kind::read;
    req.id = hotspot ? util::uniform_below(gen, kBlocks / 16)
                     : util::uniform_below(gen, kBlocks);
  }
  oram.run(stream);
}

TEST(EngineObliviousness, RoundShapesAreWorkloadIndependent) {
  // Two identically configured 4-shard machines, two very different
  // workloads (a 1/16th hotspot vs a uniform sweep) of the same length:
  // every round executes exactly round_cap() slots on every shard, so
  // the per-round bus shape carries no bucket-size information. (The
  // *number* of rounds is trace length, which — like the hit-rate-
  // dependent trace length of the cacheable interface itself — is the
  // one quantity allowed to vary.)
  client a = engine_builder(4, 36).build();
  client b = engine_builder(4, 36).build();
  drive_rounds(a, /*hotspot=*/true, test::seed(37));
  drive_rounds(b, /*hotspot=*/false, test::seed(38));
  const std::uint32_t cap = a.eng().round_cap();
  ASSERT_GT(cap, 0u);
  EXPECT_EQ(b.eng().round_cap(), cap);

  // Each shard controller's raw request count (real requests plus the
  // router's padding) is exactly rounds × cap.
  for (const client* oram : {&a, &b}) {
    const std::uint64_t rounds = oram->eng().router_stats().rounds;
    ASSERT_GT(rounds, 0u);
    ASSERT_EQ(oram->eng().shard_count(), 4u);
    for (std::uint32_t s = 0; s < 4; ++s) {
      EXPECT_EQ(oram->eng().shard(s).stats().requests, rounds * cap)
          << "shard " << s;
    }
  }
}

TEST(EngineObliviousness, RoundCapIsDerivedAndPublic) {
  // The cap derives from the scheduler geometry alone; the scheduler
  // hands the engine shard_count * cap requests per pump round.
  client derived = engine_builder(4).build();
  EXPECT_GT(derived.eng().round_cap(), 0u);
  EXPECT_EQ(derived.eng().round_budget(),
            4u * derived.eng().round_cap());
}

/// Per-shard storage position stream of one traced run.
std::vector<std::uint64_t> shard_positions(const client& oram,
                                           std::uint32_t shard) {
  const oram::access_trace* trace = oram.eng().shard_trace(shard);
  EXPECT_NE(trace, nullptr);
  return analysis::storage_read_positions(*trace);
}

TEST(EngineObliviousness, PerShardPositionStreamsAreWorkloadIndependent) {
  // Same two-workload experiment, now auditing each shard's observable
  // storage positions: the streams must be draws from one distribution
  // (two-sample KS + chi-square homogeneity) even though the workloads
  // have completely different shard skews.
  client a = engine_builder(4, 39).trace(true).build();
  client b = engine_builder(4, 39).trace(true).build();
  const auto drive = [](client& oram, bool hotspot, std::uint64_t seed) {
    util::pcg64 gen(seed);
    std::vector<request> stream(2400);
    for (request& req : stream) {
      req.op = oram::op_kind::read;
      req.id = hotspot ? util::uniform_below(gen, kBlocks / 16)
                       : util::uniform_below(gen, kBlocks);
    }
    oram.run(stream);
  };
  drive(a, /*hotspot=*/true, test::seed(40));
  drive(b, /*hotspot=*/false, test::seed(41));

  for (std::uint32_t s = 0; s < 4; ++s) {
    const std::vector<std::uint64_t> pos_a = shard_positions(a, s);
    const std::vector<std::uint64_t> pos_b = shard_positions(b, s);
    ASSERT_GT(pos_a.size(), 100u) << "shard " << s;
    ASSERT_GT(pos_b.size(), 100u) << "shard " << s;
    const storage::partition_geometry& geometry =
        a.eng().shard(s).storage().geometry();
    const std::uint64_t universe =
        geometry.partition_count * geometry.slots_per_partition();
    const analysis::equality_report report =
        analysis::audit_distribution_equality(pos_a, pos_b, universe);
    EXPECT_TRUE(report.passed())
        << "shard " << s << ": ks " << report.ks << " (<= "
        << report.ks_threshold << "), chi2 " << report.chi_square
        << " (<= " << report.chi_threshold << ")";
  }
}

// ------------------------------------------------- stats & aggregation

/// The field table covers every counter and operator+= sums each
/// row: row i holds i+1 in `a` and 10*(i+1) in `b`, so every row of
/// the sum must read 11*(i+1), and the histograms must merge.
TEST(EngineStats, ControllerStatsAccumulate) {
  controller_stats a;
  controller_stats b;
  int row = 0;
  controller_stats::for_each_field([&](const char*, auto member) {
    using value = std::remove_reference_t<decltype(a.*member)>;
    ++row;
    a.*member = static_cast<value>(row);
    b.*member = static_cast<value>(10 * row);
  });
  a.request_latency.record(100);
  b.request_latency.record(5000);
  b.request_latency.record(7);

  controller_stats sum = a;
  sum += b;
  row = 0;
  controller_stats::for_each_field([&](const char* key, auto member) {
    using value = std::remove_reference_t<decltype(sum.*member)>;
    ++row;
    EXPECT_EQ(sum.*member, static_cast<value>(11 * row)) << key;
  });
  sim::latency_histogram merged;
  for (const sim::sim_time value : {100, 5000, 7}) {
    merged.record(value);
  }
  EXPECT_TRUE(sum.request_latency == merged);

  const controller_stats parts[] = {a, b};
  test::expect_stats_equal(aggregate(parts), sum);
}

TEST(EngineStats, AggregateExcludesPaddingAndSumsShards) {
  client oram = engine_builder(4, 42).build();
  util::pcg64 gen(test::seed(43));
  std::vector<request> stream(200);
  for (request& req : stream) {
    req.op = oram::op_kind::read;
    req.id = util::uniform_below(gen, kBlocks);
  }
  oram.run(stream);

  const engine& eng = oram.eng();
  const engine_stats& router = eng.router_stats();
  EXPECT_EQ(router.real_requests, 200u);
  EXPECT_GT(router.pad_requests, 0u);  // skewed buckets force padding
  EXPECT_EQ(router.pad_hits + router.pad_misses, router.pad_requests);

  // Application-level request counters; raw resource counters.
  const controller_stats& total = oram.stats();
  EXPECT_EQ(total.requests, 200u);
  EXPECT_EQ(total.hits + total.misses, 200u);
  std::uint64_t cycles = 0;
  std::uint64_t raw_requests = 0;
  for (std::uint32_t s = 0; s < eng.shard_count(); ++s) {
    cycles += eng.shard(s).stats().cycles;
    raw_requests += eng.shard(s).stats().requests;
  }
  EXPECT_EQ(total.cycles, cycles);
  EXPECT_EQ(raw_requests, router.real_requests + router.pad_requests);

  // The wall clock is the parallel-lane window, not the lane-time sum.
  sim::sim_time lane_time = 0;
  for (std::uint32_t s = 0; s < eng.shard_count(); ++s) {
    lane_time += eng.shard(s).stats().total_time;
  }
  EXPECT_EQ(total.total_time, oram.now());
  EXPECT_LT(total.total_time, lane_time);
}

/// Satellite regression: reset_stats() must clear every lane counter —
/// every controller_stats field on every shard, the router counters,
/// the round log and both device lanes.
TEST(EngineStats, ResetStatsClearsEveryLaneCounter) {
  for (const bool coalescing : {false, true}) {
  for (const std::uint32_t shards : {1u, 4u}) {
    client oram = engine_builder(shards, 44).coalescing(coalescing).build();
    util::pcg64 gen(test::seed(45));
    std::vector<request> stream(150);
    for (request& req : stream) {
      req.op = oram::op_kind::read;
      // Duplicates ensure the coalescer counters go nonzero when on.
      req.id = util::uniform_below(gen, kBlocks / 8);
    }
    oram.run(stream);
    ASSERT_GT(oram.stats().requests, 0u);
    if (coalescing) {
      ASSERT_GT(oram.eng().router_stats().coalesced_requests, 0u);
    }

    oram.reset_stats();

    test::expect_stats_zero(oram.stats(),
                            "aggregate, " + std::to_string(shards));
    for (std::uint32_t s = 0; s < oram.eng().shard_count(); ++s) {
      const std::string which =
          "shard " + std::to_string(s) + "/" + std::to_string(shards);
      test::expect_stats_zero(oram.eng().shard(s).stats(), which);
      EXPECT_EQ(oram.eng().shard_storage(s).stats().total_ops(), 0u)
          << which;
      EXPECT_EQ(oram.eng().shard_memory(s).stats().total_ops(), 0u)
          << which;
      // round_trips is not part of total_ops(): check it explicitly on
      // both device lanes of every shard.
      EXPECT_EQ(oram.eng().shard_storage(s).stats().round_trips, 0u)
          << which;
      EXPECT_EQ(oram.eng().shard_memory(s).stats().round_trips, 0u)
          << which;
    }
    EXPECT_EQ(oram.eng().router_stats().rounds, 0u);
    EXPECT_EQ(oram.eng().router_stats().pad_requests, 0u);
    EXPECT_EQ(oram.eng().router_stats().physical_accesses, 0u);
    EXPECT_EQ(oram.eng().router_stats().coalesced_requests, 0u);

    // The next window measures fresh traffic from the reset epoch.
    oram.run(stream);
    EXPECT_EQ(oram.stats().requests, stream.size());
    EXPECT_GT(oram.stats().total_time, 0);
  }
  }
}

/// The online/shuffle round-trip split: a shard's
/// shuffle_device_round_trips is the shuffle machinery's share of that
/// lane's device round trips, so online (total minus shuffle) plus the
/// shuffle share must reconstruct the device counter — per lane and
/// through the aggregate's operator+=.
TEST(EngineStats, RoundTripSplitSumsToDeviceTotal) {
  for (const char* backend : {"path", "hier"}) {
    for (const std::uint32_t shards : {1u, 4u}) {
      client oram = engine_builder(shards, 47).backend(backend).build();
      util::pcg64 gen(test::seed(48));
      std::vector<request> stream(400);
      for (request& req : stream) {
        req.op = oram::op_kind::read;
        req.id = util::uniform_below(gen, kBlocks);
      }
      oram.run(stream);

      std::uint64_t device_total = 0;
      std::uint64_t shuffle_total = 0;
      for (std::uint32_t s = 0; s < oram.eng().shard_count(); ++s) {
        const std::string which = std::string(backend) + ", shard " +
                                  std::to_string(s) + "/" +
                                  std::to_string(shards);
        const std::uint64_t lane =
            oram.eng().shard_storage(s).stats().round_trips;
        const std::uint64_t shuffle =
            oram.eng().shard(s).stats().shuffle_device_round_trips;
        EXPECT_LE(shuffle, lane) << which;
        device_total += lane;
        shuffle_total += shuffle;
      }
      EXPECT_EQ(oram.stats().shuffle_device_round_trips, shuffle_total);
      // Enough random traffic that both halves of the split are live:
      // shuffles fired, and the access rounds touched the device.
      EXPECT_GT(shuffle_total, 0u) << backend;
      EXPECT_GT(device_total, shuffle_total) << backend;
    }
  }
}

// ------------------------------------------------ aligned period ends

TEST(Engine, ShardPeriodsEndInOneRound) {
  // 1,024 cache blocks split four ways give every shard a 128-load
  // period, several rounds long: left to their own budgets the shards'
  // periods would end in different rounds. The service pump's shape —
  // refill to round_budget(), step one round — with half the traffic on
  // a hot 1/16th keeps the shards' hit rates, and so their cycle
  // counts, apart.
  constexpr std::uint64_t kAlignedBlocks = 4096;
  for (const char* backend : {"ring", "partitioned"}) {
    SCOPED_TRACE(backend);
    client oram = client_builder()
                      .blocks(kAlignedBlocks)
                      .memory_blocks(1024)
                      .payload_bytes(kPayload)
                      .backend(backend)
                      .shards(4)
                      .shuffle(shuffle_policy::foreground)
                      .trace(true)
                      .seed(test::seed(49))
                      .build();
    engine& eng = oram.eng();
    util::pcg64 gen(test::seed(50));
    std::vector<std::uint64_t> periods(eng.shard_count(), 0);
    std::vector<std::size_t> traced(eng.shard_count(), 0);
    std::uint64_t rounds_with_ends = 0;
    for (int round = 0; round < 120; ++round) {
      while (eng.pending() < eng.round_budget()) {
        request req;
        req.op = oram::op_kind::read;
        req.id = util::bernoulli(gen, 0.5)
                     ? util::uniform_below(gen, kAlignedBlocks / 16)
                     : util::uniform_below(gen, kAlignedBlocks);
        (void)eng.submit(std::move(req));
      }
      ASSERT_TRUE(eng.step_round());
      std::uint32_t advanced = 0;
      for (std::uint32_t s = 0; s < eng.shard_count(); ++s) {
        const std::uint64_t now = eng.shard(s).stats().periods;
        advanced += now != periods[s] ? 1 : 0;
        periods[s] = now;
        // A period ends after the round's last cycle, so no completion
        // of the round waits for its shuffle.
        const std::vector<oram::trace_event>& events =
            eng.shard_trace(s)->events();
        bool shuffled = false;
        for (; traced[s] < events.size(); ++traced[s]) {
          const oram::event_kind kind = events[traced[s]].kind;
          shuffled = shuffled || kind == oram::event_kind::period_begin;
          EXPECT_FALSE(shuffled && kind == oram::event_kind::cycle_begin)
              << "round " << round << ", shard " << s
              << ": a cycle after the period's end";
        }
      }
      EXPECT_TRUE(advanced == 0 || advanced == eng.shard_count())
          << "round " << round << ": " << advanced << " of "
          << eng.shard_count() << " shards ended their period";
      rounds_with_ends += advanced > 0 ? 1 : 0;
    }
    EXPECT_GE(rounds_with_ends, 3u);
    EXPECT_EQ(eng.router_stats().shuffle_rounds, rounds_with_ends);
    EXPECT_GT(eng.router_stats().early_period_ends, 0u);

    // Aligning only ever shortens a period.
    for (std::uint32_t s = 0; s < eng.shard_count(); ++s) {
      const std::uint64_t budget = eng.shard(s).config().period_loads();
      const std::vector<std::uint64_t> loads =
          test::loads_per_period(*eng.shard_trace(s));
      ASSERT_EQ(loads.size(), periods[s] + 1) << "shard " << s;
      for (std::size_t p = 0; p < loads.size(); ++p) {
        EXPECT_LE(loads[p], budget) << "shard " << s << ", period " << p;
      }
    }
  }
}

// ----------------------------------------------- scaling & performance

TEST(EngineScaling, FourShardsBeatOneOnBackloggedBatches) {
  // Deterministic virtual-time speedup: four parallel device lanes must
  // finish a deep uniform batch well faster than one (this is the
  // engine's whole reason to exist; the bench sweeps it wider).
  std::vector<request> stream(600);
  util::pcg64 gen(test::seed(46));
  for (request& req : stream) {
    req.op = oram::op_kind::read;
    req.id = util::uniform_below(gen, kBlocks);
  }

  client one = engine_builder(1, 47).build();
  client four = engine_builder(4, 47).build();
  one.run(stream);
  four.run(stream);
  EXPECT_LT(four.stats().total_time, one.stats().total_time);
}

// ------------------------------------------------------- backend names

/// The names a parse diagnostic lists: the " | "-separated entries of
/// its trailing parenthesised list.
std::vector<std::string> listed_names(const std::string& message) {
  std::vector<std::string> names;
  const std::size_t open = message.rfind('(');
  const std::size_t close = message.rfind(')');
  if (open == std::string::npos || close == std::string::npos ||
      close < open) {
    return names;
  }
  const std::string list = message.substr(open + 1, close - open - 1);
  for (std::size_t begin = 0;;) {
    const std::size_t end = list.find(" | ", begin);
    names.push_back(list.substr(begin, end - begin));
    if (end == std::string::npos) {
      return names;
    }
    begin = end + 3;
  }
}

TEST(BackendNames, CanonicalListRoundTrips) {
  const std::span<const std::string_view> names = backend_names();
  ASSERT_EQ(names.size(), std::size(all_backend_kinds));
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(backend_by_name(names[i]), all_backend_kinds[i]);
    EXPECT_EQ(backend_name(all_backend_kinds[i]), names[i]);
  }
  // Aliases still parse; junk throws, and so do the retired
  // "partition" and "sqrt": neither is a backend any more, so their
  // names must not select another one.
  EXPECT_EQ(backend_by_name("horam"), backend_kind::partitioned);
  EXPECT_EQ(backend_by_name("path-oram"), backend_kind::path);
  EXPECT_THROW((void)backend_by_name("partition"), contract_error);
  EXPECT_THROW((void)backend_by_name("sqrt"), contract_error);
  try {
    (void)backend_by_name("florb");
    FAIL() << "expected contract_error";
  } catch (const contract_error& e) {
    // The diagnostic lists exactly the canonical names.
    EXPECT_EQ(listed_names(e.what()), std::vector<std::string>(
                                          names.begin(), names.end()))
        << e.what();
  }
}

// -------------------------------------------------- builder diagnostics

TEST(EngineBuilder, NamesBadShardSettings) {
  try {
    (void)engine_builder(0).build();
    FAIL() << "expected contract_error";
  } catch (const contract_error& e) {
    EXPECT_NE(std::string(e.what()).find("shards()"), std::string::npos)
        << e.what();
  }
  try {
    // 64 memory blocks / 16 shards = 4 < one bucket pair (8).
    (void)engine_builder(16).build();
    FAIL() << "expected contract_error";
  } catch (const contract_error& e) {
    EXPECT_NE(std::string(e.what()).find("shards()"), std::string::npos)
        << e.what();
  }
}

TEST(EngineBuilder, NamesUnknownBackend) {
  try {
    (void)engine_builder(1).backend("florb").build();
    FAIL() << "expected contract_error";
  } catch (const contract_error& e) {
    EXPECT_NE(std::string(e.what()).find("backend()"), std::string::npos)
        << e.what();
    // Every canonical name, and no retired one such as "partition".
    const std::span<const std::string_view> names = backend_names();
    EXPECT_EQ(listed_names(e.what()), std::vector<std::string>(
                                          names.begin(), names.end()))
        << e.what();
  }
  // The named setter accepts every canonical name.
  for (const std::string_view name : backend_names()) {
    EXPECT_NO_THROW((void)engine_builder(1).backend(name).build());
  }
}

}  // namespace
}  // namespace horam

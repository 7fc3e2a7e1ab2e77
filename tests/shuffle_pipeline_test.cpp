// Tests of the deamortized shuffle pipeline: the latency_histogram
// primitive, shuffle_policy_names() as the single source of policy
// names, the incremental-with-unbounded-budget == foreground
// bit-for-bit invariant across all four backends at shards {1, 4},
// bounded-budget correctness (staged blocks stay readable/writable
// while a job is in flight), controller_stats histogram merge /
// reset-on-every-lane regressions, the tenant-level latency
// distribution, the p99 tail-latency win, and the obliviousness audits
// of slice boundaries and slice contents under two distinct workloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "analysis/obliviousness.h"
#include "horam.h"
#include "oram/common/tree_backend.h"
#include "test_support.h"
#include "util/rng.h"

namespace horam {
namespace {

using oram::block_id;

constexpr std::uint64_t kBlocks = 256;
constexpr std::uint64_t kMemoryBlocks = 64;
constexpr std::size_t kPayload = 16;

client_builder pipeline_builder(backend_kind kind, std::uint32_t shards,
                                std::uint64_t seed_salt = 51) {
  return client_builder()
      .blocks(kBlocks)
      .memory_blocks(kMemoryBlocks)
      .payload_bytes(kPayload)
      .backend(kind)
      .shards(shards)
      .seed(test::seed(seed_salt));
}

std::vector<request> mixed_stream(std::uint64_t count, double write_frac,
                                  std::uint64_t seed) {
  util::pcg64 rng(seed);
  std::vector<request> stream;
  stream.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    request req;
    req.op = util::bernoulli(rng, write_frac) ? oram::op_kind::write
                                              : oram::op_kind::read;
    req.id = util::uniform_below(rng, kBlocks);
    if (req.op == oram::op_kind::write) {
      req.write_data.assign(kPayload, static_cast<std::uint8_t>(i));
    }
    stream.push_back(std::move(req));
  }
  return stream;
}

// ------------------------------------------------- latency histogram

TEST(LatencyHistogram, SmallValuesAreExact) {
  sim::latency_histogram h;
  for (sim::sim_time v = 0; v < 16; ++v) {
    h.record(v);
  }
  EXPECT_EQ(h.count(), 16u);
  EXPECT_EQ(h.max(), 15);
  EXPECT_EQ(h.quantile(0.5), 7);
  EXPECT_EQ(h.quantile(1.0), 15);
  EXPECT_EQ(h.p99(), 15);
}

TEST(LatencyHistogram, QuantilesBoundTheSamplesTightly) {
  util::pcg64 rng(test::seed(52));
  std::vector<sim::sim_time> values;
  sim::latency_histogram h;
  for (int i = 0; i < 5000; ++i) {
    const auto v = static_cast<sim::sim_time>(
        util::uniform_below(rng, 1'000'000'000) + 1);
    values.push_back(v);
    h.record(v);
  }
  std::sort(values.begin(), values.end());
  for (const double q : {0.5, 0.95, 0.99}) {
    const sim::sim_time exact = values[static_cast<std::size_t>(
        q * static_cast<double>(values.size() - 1))];
    const sim::sim_time reported = h.quantile(q);
    // Conservative upper bound within the bucket's 12.5% resolution
    // (plus sampling slack between the two quantile conventions).
    EXPECT_GE(reported, exact * 95 / 100) << "q=" << q;
    EXPECT_LE(reported, exact * 115 / 100 + 16) << "q=" << q;
  }
  EXPECT_EQ(h.max(), values.back());
  EXPECT_EQ(h.quantile(1.0), values.back());
}

TEST(LatencyHistogram, MergeAndResetBehave) {
  sim::latency_histogram a;
  sim::latency_histogram b;
  a.record(100);
  a.record(200);
  b.record(1'000'000);
  a += b;
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.max(), 1'000'000);
  EXPECT_LT(a.p50(), 1000);
  EXPECT_EQ(a.quantile(1.0), 1'000'000);
  a.reset();
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.max(), 0);
  EXPECT_EQ(a.p99(), 0);
}

// ----------------------------------------------- policy name registry

TEST(ShufflePolicyNames, RoundTripAndAliases) {
  const std::span<const std::string_view> names = shuffle_policy_names();
  ASSERT_EQ(names.size(), std::size(all_shuffle_policies));
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(shuffle_policy_name(all_shuffle_policies[i]), names[i]);
    EXPECT_EQ(shuffle_policy_by_name(names[i]), all_shuffle_policies[i]);
  }
  EXPECT_EQ(shuffle_policy_by_name("async_writeback"),
            shuffle_policy::async_writeback);
  EXPECT_THROW((void)shuffle_policy_by_name("bogus"), contract_error);
}

TEST(ShufflePolicyNames, BuilderParsesNamesAndNamesTheSetter) {
  client oram = pipeline_builder(backend_kind::partitioned, 1)
                    .shuffle("incremental")
                    .shuffle_slice_budget(0)
                    .build();
  EXPECT_EQ(oram.config().shuffle, shuffle_policy::incremental);

  try {
    (void)pipeline_builder(backend_kind::partitioned, 1).shuffle("bogus");
    FAIL() << "unknown policy name must throw";
  } catch (const contract_error& error) {
    EXPECT_NE(std::string(error.what()).find("shuffle()"),
              std::string::npos)
        << "diagnostic must name the setter: " << error.what();
  }
  EXPECT_THROW(
      (void)pipeline_builder(backend_kind::partitioned, 1)
          .shuffle_slice_budget(-1),
      contract_error);
}

// ------------- incremental(unbounded budget) == foreground, bit for bit

struct policy_grid_point {
  backend_kind backend;
  std::uint32_t shards;
};

class IncrementalUnbounded
    : public ::testing::TestWithParam<policy_grid_point> {};

INSTANTIATE_TEST_SUITE_P(
    BackendsByShards, IncrementalUnbounded,
    ::testing::ValuesIn([] {
      std::vector<policy_grid_point> grid;
      for (const backend_kind kind : all_backend_kinds) {
        for (const std::uint32_t shards : {1u, 4u}) {
          grid.push_back(policy_grid_point{kind, shards});
        }
      }
      return grid;
    }()),
    [](const ::testing::TestParamInfo<policy_grid_point>& info) {
      return std::string(backend_name(info.param.backend)) + "_x" +
             std::to_string(info.param.shards);
    });

TEST_P(IncrementalUnbounded, MatchesForegroundBitForBit) {
  const auto [kind, shards] = GetParam();
  client foreground = pipeline_builder(kind, shards, 53)
                          .shuffle(shuffle_policy::foreground)
                          .trace(true)
                          .build();
  client incremental = pipeline_builder(kind, shards, 53)
                           .shuffle("incremental")
                           .shuffle_slice_budget(0)  // unbounded
                           .trace(true)
                           .build();

  const std::vector<request> stream =
      mixed_stream(350, 0.3, test::seed(54));
  std::vector<request_result> fg_results;
  std::vector<request_result> inc_results;
  foreground.run(stream, &fg_results);
  incremental.run(stream, &inc_results);

  ASSERT_EQ(fg_results.size(), inc_results.size());
  for (std::size_t i = 0; i < fg_results.size(); ++i) {
    EXPECT_EQ(fg_results[i].completion_time,
              inc_results[i].completion_time)
        << "request " << i;
    EXPECT_EQ(fg_results[i].hit, inc_results[i].hit);
    EXPECT_EQ(fg_results[i].read_data, inc_results[i].read_data);
  }
  EXPECT_EQ(foreground.now(), incremental.now());
  EXPECT_EQ(foreground.stats().periods, incremental.stats().periods);
  EXPECT_EQ(incremental.stats().shuffle_slices, 0u)
      << "unbounded budget must never defer slices";

  for (std::uint32_t s = 0; s < shards; ++s) {
    const oram::access_trace* fg_trace = foreground.eng().shard_trace(s);
    const oram::access_trace* inc_trace = incremental.eng().shard_trace(s);
    ASSERT_NE(fg_trace, nullptr);
    ASSERT_NE(inc_trace, nullptr);
    ASSERT_EQ(fg_trace->size(), inc_trace->size()) << "shard " << s;
    for (std::size_t i = 0; i < fg_trace->size(); ++i) {
      EXPECT_EQ(fg_trace->events()[i].kind, inc_trace->events()[i].kind)
          << "shard " << s << " event " << i;
      EXPECT_EQ(fg_trace->events()[i].a, inc_trace->events()[i].a);
      EXPECT_EQ(fg_trace->events()[i].b, inc_trace->events()[i].b);
    }
  }
}

// --------------------------- bounded budgets: correctness under slices

class IncrementalBounded : public ::testing::TestWithParam<backend_kind> {
};

INSTANTIATE_TEST_SUITE_P(
    AllBackends, IncrementalBounded,
    ::testing::ValuesIn(std::begin(all_backend_kinds),
                        std::end(all_backend_kinds)),
    [](const ::testing::TestParamInfo<backend_kind>& info) {
      return std::string(backend_name(info.param));
    });

/// A tiny budget forces many slices per period (and period-boundary
/// stalls), maximising the time requests interleave with an in-flight
/// job; every read must still return the latest write.
TEST_P(IncrementalBounded, StagedBlocksStayCoherent) {
  const backend_kind kind = GetParam();
  client oram = pipeline_builder(kind, 1, 55)
                    .shuffle(shuffle_policy::incremental)
                    .shuffle_slice_budget(1)  // one unit per slice
                    .build();

  util::pcg64 rng(test::seed(56));
  std::map<block_id, std::vector<std::uint8_t>> reference;
  const std::vector<request> stream =
      mixed_stream(400, 0.5, test::seed(57));
  std::vector<request_result> results;
  oram.run(stream, &results);
  ASSERT_EQ(results.size(), stream.size());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const request& req = stream[i];
    if (req.op == oram::op_kind::write) {
      reference[req.id] = req.write_data;
    } else {
      const auto it = reference.find(req.id);
      const std::vector<std::uint8_t> expected =
          it != reference.end() ? it->second
                                : std::vector<std::uint8_t>(kPayload, 0);
      EXPECT_EQ(results[i].read_data, expected) << "request " << i;
    }
  }

  const controller_stats& stats = oram.stats();
  EXPECT_GT(stats.periods, 2u);
  // Every backend's job is natively stepped: a one-unit budget splits
  // every period into many slices.
  EXPECT_GT(stats.shuffle_slices, stats.periods);
  EXPECT_EQ(stats.request_latency.count(), stats.requests);
  oram.backend().check_consistency();
}

TEST(IncrementalBounded, ShardsShuffleWhileSiblingsServe) {
  client oram = pipeline_builder(backend_kind::partitioned, 4, 58)
                    .shuffle(shuffle_policy::incremental)
                    .shuffle_slice_budget(1)
                    .build();
  engine& eng = oram.eng();

  util::pcg64 rng(test::seed(59));
  bool overlapped = false;
  std::uint64_t completions = 0;
  std::uint64_t submitted = 0;
  const engine::completion on_complete =
      [&](std::uint64_t, request_result&&) { ++completions; };
  while (submitted < 2000 || eng.pending() > 0) {
    for (std::uint64_t k = 0; k < eng.round_budget() && submitted < 2000;
         ++k, ++submitted) {
      request req;
      req.op = oram::op_kind::read;
      req.id = util::uniform_below(rng, kBlocks);
      (void)eng.submit(std::move(req));
    }
    if (!eng.step_round(on_complete)) {
      break;
    }
    // The deamortization claim for the engine: some shard is mid-
    // shuffle while the machine as a whole keeps serving requests.
    std::uint32_t in_flight = 0;
    for (std::uint32_t s = 0; s < eng.shard_count(); ++s) {
      in_flight += eng.shard(s).shuffle_in_flight() ? 1 : 0;
    }
    if (in_flight > 0 && in_flight < eng.shard_count() &&
        eng.pending() > 0) {
      overlapped = true;
    }
  }
  EXPECT_EQ(completions, 2000u);
  EXPECT_TRUE(overlapped)
      << "no round ever had a shuffling shard next to serving shards";
  controller_stats total;
  for (std::uint32_t s = 0; s < eng.shard_count(); ++s) {
    total += eng.shard(s).stats();
  }
  EXPECT_GT(total.shuffle_slices, 0u);
}

/// The engine ends every shard's period in the round the first one
/// ends, except under deferred shuffles: a bounded incremental job
/// spreads its device time over slices rather than stalling one round,
/// and a forced end could find it still in flight and drain it in the
/// foreground. So every shard keeps its own n/2-load cadence — every
/// closed period is a full period_loads loads, no end is forced — and a
/// budget that finishes each job within its own period never stalls.
/// The tight hier budget keeps jobs in flight across a sibling's end,
/// so some rounds end only part of the shards.
TEST(IncrementalBounded, DeferredShardsKeepTheirOwnPeriods) {
  constexpr std::uint64_t kDeferredBlocks = 4096;
  struct scenario {
    backend_kind kind;
    sim::sim_time budget;
    bool stall_free;
  };
  for (const scenario& sc : {scenario{backend_kind::hier, 300'000, true},
                             scenario{backend_kind::partitioned, 100'000,
                                      true},
                             scenario{backend_kind::hier, 100'000, false}}) {
    SCOPED_TRACE(std::string(backend_name(sc.kind)) + ", budget " +
                 std::to_string(sc.budget));
    client oram = client_builder()
                      .blocks(kDeferredBlocks)
                      .memory_blocks(1024)
                      .payload_bytes(kPayload)
                      .backend(sc.kind)
                      .shards(4)
                      .shuffle(shuffle_policy::incremental)
                      .shuffle_slice_budget(sc.budget)
                      .trace(true)
                      .seed(test::seed(60))
                      .build();
    engine& eng = oram.eng();
    const std::uint32_t shards = eng.shard_count();
    util::pcg64 rng(test::seed(61));
    std::vector<std::uint64_t> periods(shards, 0);
    std::uint64_t ending_rounds = 0;
    std::uint64_t split_rounds = 0;
    for (int round = 0; round < 150; ++round) {
      while (eng.pending() < eng.round_budget()) {
        request req;
        req.id = util::bernoulli(rng, 0.5)
                     ? util::uniform_below(rng, kDeferredBlocks / 16)
                     : util::uniform_below(rng, kDeferredBlocks);
        (void)eng.submit(std::move(req));
      }
      ASSERT_TRUE(eng.step_round());
      std::uint32_t advanced = 0;
      for (std::uint32_t s = 0; s < shards; ++s) {
        const std::uint64_t now_periods = eng.shard(s).stats().periods;
        ASSERT_LE(now_periods, periods[s] + 1) << "shard " << s;
        advanced += now_periods != periods[s] ? 1 : 0;
        periods[s] = now_periods;
      }
      ending_rounds += advanced > 0 ? 1 : 0;
      split_rounds += advanced > 0 && advanced < shards ? 1 : 0;
    }
    EXPECT_EQ(eng.router_stats().early_period_ends, 0u);
    EXPECT_EQ(eng.router_stats().shuffle_rounds, ending_rounds);
    EXPECT_GT(split_rounds, 0u);
    for (std::uint32_t s = 0; s < shards; ++s) {
      const controller_stats& lane = eng.shard(s).stats();
      EXPECT_GT(lane.shuffle_slices, 0u) << "shard " << s;
      if (sc.stall_free) {
        EXPECT_EQ(lane.shuffle_stall_time, 0) << "shard " << s;
      }
      std::vector<std::uint64_t> loads =
          test::loads_per_period(*eng.shard_trace(s));
      ASSERT_EQ(loads.size(), periods[s] + 1) << "shard " << s;
      loads.pop_back();  // the open period
      for (std::size_t p = 0; p < loads.size(); ++p) {
        EXPECT_EQ(loads[p], eng.shard(s).config().period_loads())
            << "shard " << s << ", period " << p;
      }
    }
  }
}

/// Contract test of every backend's shuffle job, driven directly:
/// staged blocks are visible and write-through before they are placed,
/// the lifecycle expects() fire, and the write lands on storage.
TEST_P(IncrementalBounded, JobStagesAndWritesThrough) {
  const backend_kind kind = GetParam();
  sim::block_device device{sim::hdd_paper()};
  sim::cpu_model cpu{sim::cpu_aesni()};
  util::pcg64 rng{test::seed(72)};
  horam_config config;
  config.block_count = kBlocks;
  config.memory_blocks = kMemoryBlocks;
  config.payload_bytes = kPayload;
  std::unique_ptr<oram_backend> backend =
      make_backend(kind, config, device, cpu, rng, nullptr, nullptr);

  // Pull two blocks into the "cache" so they become the hot set.
  std::vector<oram::evicted_block> evicted;
  for (const block_id id : {block_id{3}, block_id{9}}) {
    oram_backend::load_result load = backend->load_block(id);
    evicted.push_back(oram::evicted_block{id, std::move(load.payload)});
  }

  std::unique_ptr<shuffle_job> job =
      backend->begin_shuffle(std::move(evicted), 0);
  EXPECT_FALSE(job->done());
  EXPECT_TRUE(job->holds(3));
  EXPECT_TRUE(job->holds(9));
  EXPECT_FALSE(job->holds(4));
  EXPECT_EQ(job->staged(4), nullptr);
  std::vector<std::uint8_t>* staged = job->staged(9);
  ASSERT_NE(staged, nullptr);
  staged->assign(kPayload, 0xEE);  // write-through into the job

  EXPECT_THROW(job->finish(evicted), contract_error);  // before done()
  shuffle_cost cost;
  while (!job->done()) {
    cost += job->step(1);
  }
  EXPECT_GT(cost.total(), 0);
  EXPECT_EQ(job->staged(9), nullptr);  // placed back on storage
  EXPECT_FALSE(job->holds(3));
  EXPECT_THROW((void)job->step(1), contract_error);  // after done()

  std::vector<oram::evicted_block> overflow;
  job->finish(overflow);
  EXPECT_TRUE(overflow.empty());
  EXPECT_THROW(job->finish(overflow), contract_error);  // twice

  // The staged write survived the shuffle.
  EXPECT_TRUE(backend->in_storage(9));
  const oram_backend::load_result back = backend->load_block(9);
  EXPECT_EQ(back.payload, std::vector<std::uint8_t>(kPayload, 0xEE));
  backend->check_consistency();
}

/// Regression: a hier period whose hot set is empty (every read hit the
/// previous job's staging) right after a cascade emptied level 1 makes
/// a job that is done on creation. The controller must finish it inline
/// rather than hand it to the slice pump, whose step() rejects it.
TEST(IncrementalBounded, JobDoneAtCreationFinishesInline) {
  client oram = client_builder()
                    .blocks(4096)
                    .memory_blocks(64)
                    .payload_bytes(32)
                    .backend(backend_kind::hier)
                    .shuffle(shuffle_policy::incremental)
                    .shuffle_slice_budget(1)
                    .seal(true)
                    .seed(7)
                    .build();
  const std::vector<std::uint8_t> data(32, 0xA5);
  oram.write(5, data);
  while (oram.stats().periods < 80) {
    ASSERT_EQ(oram.read(5), data) << "period " << oram.stats().periods;
  }
  oram.backend().check_consistency();
}

// ---------------------- stats plumbing: merge / aggregate / reset

TEST(ShuffleStatsRegression, OperatorPlusMergesHistogramsAndCounters) {
  controller_stats a;
  controller_stats b;
  a.request_latency.record(100);
  a.request_latency.record(200);
  a.shuffle_slices = 3;
  a.shuffle_stall_time = 10;
  b.request_latency.record(1'000'000);
  b.shuffle_slices = 4;
  b.shuffle_stall_time = 20;

  controller_stats sum = a;
  sum += b;
  EXPECT_EQ(sum.request_latency.count(), 3u);
  EXPECT_EQ(sum.request_latency.max(), 1'000'000);
  EXPECT_EQ(sum.request_latency.quantile(1.0), 1'000'000);
  EXPECT_LT(sum.request_latency.p50(), 1000);
  EXPECT_EQ(sum.shuffle_slices, 7u);
  EXPECT_EQ(sum.shuffle_stall_time, 30);

  const controller_stats parts[] = {a, b};
  const controller_stats agg = aggregate(parts);
  EXPECT_EQ(agg.request_latency.count(), 3u);
  EXPECT_EQ(agg.request_latency.max(), 1'000'000);
  EXPECT_EQ(agg.shuffle_slices, 7u);
  EXPECT_EQ(agg.shuffle_stall_time, 30);
}

TEST(ShuffleStatsRegression, ResetClearsLatencyHistogramsOnEveryLane) {
  client oram = pipeline_builder(backend_kind::partitioned, 4, 60)
                    .shuffle(shuffle_policy::incremental)
                    .shuffle_slice_budget(1)
                    .build();
  const std::vector<request> stream =
      mixed_stream(300, 0.2, test::seed(61));
  oram.run(stream, nullptr);

  EXPECT_GT(oram.stats().request_latency.count(), 0u);
  for (std::uint32_t s = 0; s < oram.eng().shard_count(); ++s) {
    EXPECT_GT(oram.eng().shard(s).stats().request_latency.count(), 0u)
        << "shard " << s;
  }

  oram.reset_stats();
  EXPECT_EQ(oram.stats().request_latency.count(), 0u);
  EXPECT_EQ(oram.stats().request_latency.max(), 0);
  for (std::uint32_t s = 0; s < oram.eng().shard_count(); ++s) {
    const controller_stats& lane = oram.eng().shard(s).stats();
    EXPECT_EQ(lane.request_latency.count(), 0u) << "shard " << s;
    EXPECT_EQ(lane.shuffle_slices, 0u) << "shard " << s;
    EXPECT_EQ(lane.shuffle_stall_time, 0) << "shard " << s;
  }

  // The window restarts cleanly: new traffic repopulates every lane.
  // The controller-level histogram is resource-level — it includes the
  // router's padding requests — so compare against the raw lane
  // counters, not the application-level requests field.
  oram.run(stream, nullptr);
  std::uint64_t raw_requests = 0;
  for (std::uint32_t s = 0; s < oram.eng().shard_count(); ++s) {
    raw_requests += oram.eng().shard(s).stats().requests;
  }
  EXPECT_EQ(oram.stats().request_latency.count(), raw_requests);
  EXPECT_GE(raw_requests, oram.stats().requests);
}

TEST(ShuffleStatsRegression, TenantStatsCarryTheLatencyDistribution) {
  service svc = pipeline_builder(backend_kind::partitioned, 1, 62)
                    .shuffle(shuffle_policy::incremental)
                    .shuffle_slice_budget(1)
                    .build_service();
  session alice = svc.open_session();
  session bob = svc.open_session();

  util::pcg64 rng(test::seed(63));
  std::vector<ticket> tickets;
  for (int i = 0; i < 120; ++i) {
    session& who = i % 2 == 0 ? alice : bob;
    tickets.push_back(
        who.async_read(util::uniform_below(rng, kBlocks)));
  }
  svc.run_until_idle();

  for (const std::uint32_t tenant : {0u, 1u}) {
    const tenant_stats ts = svc.tenant_stats(tenant);
    EXPECT_EQ(ts.latency.count(), ts.completed);
    EXPECT_EQ(ts.latency.max(), ts.max_latency);
    EXPECT_GE(ts.latency.p99(), ts.latency.p50());
    EXPECT_GE(ts.mean_latency(), ts.latency.p50() / 2);
  }
  for (ticket& t : tickets) {
    EXPECT_TRUE(t.ready());
    // Per-ticket latency is bounded by its tenant's recorded maximum
    // and by the completion timestamp (submission never precedes 0).
    const ticket_result& r = t.result();
    EXPECT_GT(r.sim_time, 0);
    EXPECT_GE(r.latency, 0);
    EXPECT_LE(r.latency, r.sim_time);
    EXPECT_LE(r.latency, svc.tenant_stats(t.tenant()).max_latency);
  }

  svc.reset_stats();
  EXPECT_EQ(svc.tenant_stats(0).latency.count(), 0u);
  EXPECT_EQ(svc.tenant_stats(1).latency.count(), 0u);
}

// ------------------------------------------------ the tail-latency win

TEST(ShuffleTailLatency, BoundedBudgetCutsP99VersusForeground) {
  const std::vector<request> stream =
      mixed_stream(900, 0.2, test::seed(64));

  client foreground = pipeline_builder(backend_kind::partitioned, 1, 65)
                          .shuffle(shuffle_policy::foreground)
                          .build();
  foreground.run(stream, nullptr);
  const controller_stats fg = foreground.stats();
  ASSERT_GT(fg.periods, 2u);

  // The no-stall budget: the measured mean burst spread over the
  // period's rounds (public quantities only).
  const sim::sim_time b0 = std::max<sim::sim_time>(
      1, fg.shuffle_time / static_cast<sim::sim_time>(fg.periods) /
             static_cast<sim::sim_time>(kMemoryBlocks / 2));

  client incremental = pipeline_builder(backend_kind::partitioned, 1, 65)
                           .shuffle(shuffle_policy::incremental)
                           .shuffle_slice_budget(b0)
                           .build();
  incremental.run(stream, nullptr);
  const controller_stats inc = incremental.stats();

  EXPECT_GT(inc.shuffle_slices, 0u);
  EXPECT_LT(inc.request_latency.p99(), fg.request_latency.p99())
      << "incremental p99 " << inc.request_latency.p99()
      << " vs foreground " << fg.request_latency.p99();
  EXPECT_LT(inc.request_latency.max(), fg.request_latency.max());
}

// --------------------- obliviousness: slice boundaries and contents

/// Per-period slice shapes extracted from a trace: for every period,
/// the sequence of (cycle-into-period, partitions-in-slice) pairs.
struct slice_shape {
  std::vector<std::uint64_t> boundary_cycles;   // slice start positions
  std::vector<std::uint64_t> partition_counts;  // partitions per slice
};

std::vector<slice_shape> extract_slice_shapes(
    const oram::access_trace& trace) {
  std::vector<slice_shape> periods;
  slice_shape current;
  bool period_open = false;
  std::uint64_t cycles_into_period = 0;
  bool in_slice = false;
  std::uint64_t slice_partitions = 0;
  const auto close_slice = [&] {
    if (in_slice) {
      current.partition_counts.push_back(slice_partitions);
      in_slice = false;
    }
  };
  for (const oram::trace_event& event : trace.events()) {
    switch (event.kind) {
      case oram::event_kind::period_begin:
        close_slice();
        if (period_open) {
          periods.push_back(std::move(current));
          current = slice_shape{};
        }
        period_open = true;
        cycles_into_period = 0;
        break;
      case oram::event_kind::cycle_begin:
        close_slice();
        ++cycles_into_period;
        break;
      case oram::event_kind::shuffle_slice:
        close_slice();
        in_slice = true;
        slice_partitions = 0;
        current.boundary_cycles.push_back(cycles_into_period);
        break;
      case oram::event_kind::shuffle_partition:
        if (in_slice) {
          ++slice_partitions;
        }
        break;
      default:
        break;
    }
  }
  // The trailing period is dropped: its job may still be in flight
  // when the request stream ends, truncating the slice sequence.
  return periods;
}

TEST(ShuffleSliceObliviousness, PartitionedSliceShapeIsWorkloadFree) {
  // Two deliberately different workloads: uniform vs a hot 5% region.
  const auto run_with = [&](double hot_probability,
                            std::uint64_t workload_salt) {
    client oram = pipeline_builder(backend_kind::partitioned, 1, 66)
                      .shuffle(shuffle_policy::incremental)
                      .shuffle_slice_budget(1)
                      .trace(true)
                      .build();
    util::pcg64 rng(test::seed(workload_salt));
    std::vector<request> stream;
    for (int i = 0; i < 700; ++i) {
      request req;
      req.op = oram::op_kind::read;
      req.id = util::bernoulli(rng, hot_probability)
                   ? util::uniform_below(rng, kBlocks / 20)
                   : util::uniform_below(rng, kBlocks);
      stream.push_back(std::move(req));
    }
    oram.run(stream, nullptr);
    return extract_slice_shapes(*oram.trace());
  };

  const std::vector<slice_shape> uniform = run_with(0.0, 67);
  const std::vector<slice_shape> hotspot = run_with(0.9, 68);
  ASSERT_GT(uniform.size(), 1u);
  ASSERT_GT(hotspot.size(), 1u);

  // Strong form: the partitioned slice schedule is a pure function of
  // the configuration — every period's boundary/size vectors are
  // identical within and across workloads.
  for (const auto* shapes : {&uniform, &hotspot}) {
    for (const slice_shape& period : *shapes) {
      EXPECT_EQ(period.boundary_cycles, (*shapes)[0].boundary_cycles);
      EXPECT_EQ(period.partition_counts, (*shapes)[0].partition_counts);
    }
  }
  EXPECT_EQ(uniform[0].boundary_cycles, hotspot[0].boundary_cycles);
  EXPECT_EQ(uniform[0].partition_counts, hotspot[0].partition_counts);

  // Statistical form (the audit machinery the satellite asks for):
  // pooled slice boundaries and sizes are distribution-identical.
  std::vector<std::uint64_t> bounds_a;
  std::vector<std::uint64_t> bounds_b;
  std::vector<std::uint64_t> sizes_a;
  std::vector<std::uint64_t> sizes_b;
  std::uint64_t universe = 1;
  for (const slice_shape& period : uniform) {
    bounds_a.insert(bounds_a.end(), period.boundary_cycles.begin(),
                    period.boundary_cycles.end());
    sizes_a.insert(sizes_a.end(), period.partition_counts.begin(),
                   period.partition_counts.end());
  }
  for (const slice_shape& period : hotspot) {
    bounds_b.insert(bounds_b.end(), period.boundary_cycles.begin(),
                    period.boundary_cycles.end());
    sizes_b.insert(sizes_b.end(), period.partition_counts.begin(),
                   period.partition_counts.end());
  }
  for (const auto* samples : {&bounds_a, &bounds_b, &sizes_a, &sizes_b}) {
    for (const std::uint64_t v : *samples) {
      universe = std::max(universe, v + 1);
    }
  }
  const analysis::equality_report boundaries =
      analysis::audit_distribution_equality(bounds_a, bounds_b, universe);
  EXPECT_TRUE(boundaries.passed())
      << "slice boundary timing leaked: ks=" << boundaries.ks
      << " chi=" << boundaries.chi_square;
  const analysis::equality_report sizes =
      analysis::audit_distribution_equality(sizes_a, sizes_b, universe);
  EXPECT_TRUE(sizes.passed())
      << "slice sizes leaked: ks=" << sizes.ks
      << " chi=" << sizes.chi_square;
}

TEST(ShuffleSliceObliviousness, PathSliceContentsAreWorkloadFree) {
  // Leaves touched by in-slice drain accesses must stay uniform and
  // distribution-identical across two distinct workloads.
  const auto run_with = [&](double hot_probability,
                            std::uint64_t workload_salt,
                            std::uint64_t& leaf_universe_out) {
    client oram = pipeline_builder(backend_kind::path, 1, 69)
                      .shuffle(shuffle_policy::incremental)
                      .shuffle_slice_budget(1)
                      .trace(true)
                      .build();
    const auto* backend =
        dynamic_cast<const oram::path_backend*>(&oram.backend());
    EXPECT_NE(backend, nullptr);
    leaf_universe_out = backend->tree().config().leaf_count;
    util::pcg64 rng(test::seed(workload_salt));
    std::vector<request> stream;
    for (int i = 0; i < 1400; ++i) {
      request req;
      req.op = oram::op_kind::read;
      req.id = util::bernoulli(rng, hot_probability)
                   ? util::uniform_below(rng, kBlocks / 20)
                   : util::uniform_below(rng, kBlocks);
      stream.push_back(std::move(req));
    }
    oram.run(stream, nullptr);

    // In-slice path accesses of the backend tree (the drain traffic).
    std::vector<std::uint64_t> leaves;
    bool in_slice = false;
    for (const oram::trace_event& event : oram.trace()->events()) {
      switch (event.kind) {
        case oram::event_kind::shuffle_slice:
          in_slice = true;
          break;
        case oram::event_kind::cycle_begin:
        case oram::event_kind::period_begin:
          in_slice = false;
          break;
        case oram::event_kind::memory_path_access:
          if (in_slice && event.b == leaf_universe_out) {
            leaves.push_back(event.a);
          }
          break;
        default:
          break;
      }
    }
    return leaves;
  };

  std::uint64_t universe_a = 0;
  std::uint64_t universe_b = 0;
  const std::vector<std::uint64_t> leaves_a = run_with(0.0, 70, universe_a);
  const std::vector<std::uint64_t> leaves_b = run_with(0.9, 71, universe_b);
  ASSERT_EQ(universe_a, universe_b);
  ASSERT_GT(leaves_a.size(), 100u);
  ASSERT_GT(leaves_b.size(), 60u);  // the hot workload shuffles less

  const analysis::uniformity_report uniform_a =
      analysis::audit_uniformity(leaves_a, universe_a);
  EXPECT_TRUE(uniform_a.passed())
      << "slice drain leaves not uniform: chi=" << uniform_a.chi_square
      << " ks=" << uniform_a.ks;
  const analysis::uniformity_report uniform_b =
      analysis::audit_uniformity(leaves_b, universe_b);
  EXPECT_TRUE(uniform_b.passed());
  const analysis::equality_report equality =
      analysis::audit_distribution_equality(leaves_a, leaves_b,
                                            universe_a);
  EXPECT_TRUE(equality.passed())
      << "slice contents leaked the workload: ks=" << equality.ks
      << " chi=" << equality.chi_square;
}

}  // namespace
}  // namespace horam

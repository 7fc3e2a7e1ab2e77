// Tests of the real-thread runtime (src/runtime/ + the engine's
// threaded execution path): mailbox and worker_pool unit semantics,
// SipHash per-shard seed derivation, and the load-bearing determinism
// guarantee — for a fixed seed the threaded runtime must be bit-for-bit
// identical to the single-threaded sim machine in results, clocks,
// stats, router counters and per-shard bus traces, across every
// backend, shard count and shuffle policy (only wall-clock may differ).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "horam.h"
#include "runtime/mailbox.h"
#include "runtime/worker_pool.h"
#include "test_support.h"
#include "util/rng.h"

namespace horam {
namespace {

using oram::block_id;
using runtime::mailbox;
using runtime::worker_pool;

constexpr std::uint64_t kBlocks = 256;
constexpr std::uint64_t kMemoryBlocks = 64;
constexpr std::size_t kPayload = 16;

client_builder base_builder(std::uint32_t shards,
                            std::uint64_t seed_salt = 61) {
  return client_builder()
      .blocks(kBlocks)
      .memory_blocks(kMemoryBlocks)
      .payload_bytes(kPayload)
      .shards(shards)
      .seed(test::seed(seed_salt));
}

/// Deterministic mixed read/write stream (reads dominate so hit rates
/// stay interesting; writes carry tagged payloads so data round-trips
/// are checked too).
std::vector<request> make_stream(std::size_t count, std::uint64_t salt) {
  util::pcg64 rng(test::seed(salt));
  std::vector<request> stream(count);
  for (std::size_t i = 0; i < count; ++i) {
    stream[i].id = util::uniform_below(rng, kBlocks);
    if (util::bernoulli(rng, 0.25)) {
      stream[i].op = oram::op_kind::write;
      stream[i].write_data.assign(
          kPayload, static_cast<std::uint8_t>(stream[i].id ^ i));
    } else {
      stream[i].op = oram::op_kind::read;
    }
  }
  return stream;
}

void expect_results_equal(const std::vector<request_result>& sim,
                          const std::vector<request_result>& thr) {
  ASSERT_EQ(sim.size(), thr.size());
  for (std::size_t i = 0; i < sim.size(); ++i) {
    EXPECT_EQ(sim[i].completion_time, thr[i].completion_time)
        << "request " << i;
    EXPECT_EQ(sim[i].hit, thr[i].hit) << "request " << i;
    EXPECT_EQ(sim[i].read_data, thr[i].read_data) << "request " << i;
  }
}

void expect_router_stats_equal(const engine_stats& a,
                               const engine_stats& b) {
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.real_requests, b.real_requests);
  EXPECT_EQ(a.pad_requests, b.pad_requests);
  EXPECT_EQ(a.pad_hits, b.pad_hits);
  EXPECT_EQ(a.pad_misses, b.pad_misses);
  EXPECT_EQ(a.shuffle_rounds, b.shuffle_rounds);
  EXPECT_EQ(a.early_period_ends, b.early_period_ends);
}

/// Bit-for-bit comparison of every shard's observable bus trace.
void expect_traces_equal(const engine& sim_eng, const engine& thr_eng) {
  ASSERT_EQ(sim_eng.shard_count(), thr_eng.shard_count());
  for (std::uint32_t s = 0; s < sim_eng.shard_count(); ++s) {
    const oram::access_trace* a = sim_eng.shard_trace(s);
    const oram::access_trace* b = thr_eng.shard_trace(s);
    ASSERT_EQ(a != nullptr, b != nullptr) << "shard " << s;
    if (a == nullptr) {
      continue;
    }
    ASSERT_EQ(a->size(), b->size()) << "shard " << s;
    for (std::size_t i = 0; i < a->size(); ++i) {
      ASSERT_EQ(a->events()[i].kind, b->events()[i].kind)
          << "shard " << s << " event " << i;
      ASSERT_EQ(a->events()[i].a, b->events()[i].a)
          << "shard " << s << " event " << i;
      ASSERT_EQ(a->events()[i].b, b->events()[i].b)
          << "shard " << s << " event " << i;
    }
  }
}

// ------------------------------------------------------- mailbox units

TEST(Mailbox, FifoOrder) {
  mailbox<int> box(8);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(box.push(i));
  }
  EXPECT_EQ(box.size(), 5u);
  int out = -1;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(box.pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_EQ(box.size(), 0u);
}

TEST(Mailbox, CapacityBlocksProducerUntilConsumed) {
  mailbox<int> box(2);
  std::atomic<int> delivered{0};
  std::thread producer([&] {
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(box.push(i));
      delivered.fetch_add(1);
    }
  });
  int out = -1;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(box.pop(out));
    EXPECT_EQ(out, i);
    // Bounded: the producer can never run more than capacity ahead of
    // the consumer (it has popped i+1 items, so at most i+1+2 pushed).
    EXPECT_LE(delivered.load(), i + 1 + 2);
  }
  producer.join();
  EXPECT_EQ(delivered.load(), 6);
}

TEST(Mailbox, CloseDrainsThenRefuses) {
  mailbox<int> box(8);
  EXPECT_TRUE(box.push(1));
  EXPECT_TRUE(box.push(2));
  box.close();
  EXPECT_TRUE(box.closed());
  EXPECT_FALSE(box.push(3));  // refused after close
  // Queued items survive the close and drain in order.
  int out = -1;
  ASSERT_TRUE(box.pop(out));
  EXPECT_EQ(out, 1);
  ASSERT_TRUE(box.pop(out));
  EXPECT_EQ(out, 2);
  EXPECT_FALSE(box.pop(out));  // closed AND drained
  box.close();                 // idempotent
}

TEST(Mailbox, CloseWakesBlockedConsumer) {
  mailbox<int> box(4);
  std::thread consumer([&] {
    int out = -1;
    EXPECT_FALSE(box.pop(out));  // parked until close, then drained
  });
  box.close();
  consumer.join();
}

TEST(Mailbox, TryVariantsNeverBlock) {
  mailbox<int> box(2);
  EXPECT_FALSE(box.try_pop().has_value());
  EXPECT_TRUE(box.try_push(10));
  EXPECT_TRUE(box.try_push(11));
  EXPECT_FALSE(box.try_push(12));  // full
  const std::optional<int> first = box.try_pop();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, 10);
  box.close();
  EXPECT_FALSE(box.try_push(13));  // closed
  EXPECT_EQ(box.capacity(), 2u);
}

TEST(Mailbox, MultiProducerDeliversEverythingExactlyOnce) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 250;
  mailbox<int> box(8);
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&box, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(box.push(p * kPerProducer + i));
      }
    });
  }
  std::set<int> seen;
  int out = -1;
  for (int i = 0; i < kProducers * kPerProducer; ++i) {
    ASSERT_TRUE(box.pop(out));
    EXPECT_TRUE(seen.insert(out).second) << "duplicate " << out;
  }
  for (std::thread& t : producers) {
    t.join();
  }
  EXPECT_EQ(seen.size(),
            static_cast<std::size_t>(kProducers * kPerProducer));
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), kProducers * kPerProducer - 1);
}

TEST(Mailbox, ZeroCapacityIsRejected) {
  EXPECT_THROW(mailbox<int>(0), contract_error);
}

// --------------------------------------------------- worker_pool units

TEST(WorkerPool, ExecutesPostedJobs) {
  std::atomic<int> counter{0};
  worker_pool pool(2);
  EXPECT_EQ(pool.size(), 2u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(pool.post(static_cast<std::size_t>(i) % pool.size(),
                          [&counter] { counter.fetch_add(1); }));
  }
  pool.stop();
  EXPECT_EQ(counter.load(), 10);
  EXPECT_EQ(pool.executed(), 10u);
}

TEST(WorkerPool, SameWorkerRunsJobsInPostingOrder) {
  // One worker, so the vector needs no lock: exactly one thread ever
  // touches it — the same confinement argument the engine makes for
  // per-shard state.
  std::vector<int> order;
  worker_pool pool(1);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(pool.post(0, [&order, i] { order.push_back(i); }));
  }
  pool.stop();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(WorkerPool, DestructorDrainsQueuedJobs) {
  std::atomic<int> counter{0};
  {
    worker_pool pool(1, /*queue_capacity=*/128);
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(pool.post(0, [&counter] { counter.fetch_add(1); }));
    }
    // No explicit stop: destruction must finish every queued job.
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(WorkerPool, StopIsIdempotentAndRefusesLatePosts) {
  worker_pool pool(2);
  pool.stop();
  pool.stop();
  EXPECT_FALSE(pool.post(0, [] {}));
  EXPECT_EQ(pool.executed(), 0u);
}

TEST(WorkerPool, ValidatesArguments) {
  EXPECT_THROW(worker_pool(0), contract_error);
  worker_pool pool(1);
  EXPECT_THROW(pool.post(1, [] {}), contract_error);
}

// ------------------------------------- per-shard seed derivation (PRF)

TEST(ShardSeeds, DistinctAcrossShardsAndDomains) {
  const std::uint64_t route = test::seed(62);
  const std::uint64_t seed = test::seed(63);
  std::set<std::uint64_t> seen;
  for (std::uint32_t shard = 0; shard < 8; ++shard) {
    for (std::uint32_t domain = 0; domain < 2; ++domain) {
      const std::uint64_t derived =
          engine::derive_shard_seed(route, seed, shard, domain);
      EXPECT_TRUE(seen.insert(derived).second)
          << "shard " << shard << " domain " << domain
          << " collided with an earlier stream";
      // Stable: the derivation is a pure function.
      EXPECT_EQ(derived,
                engine::derive_shard_seed(route, seed, shard, domain));
    }
  }
}

TEST(ShardSeeds, AdjacentBaseSeedsCannotAliasNeighbouringShards) {
  // The old sequential scheme (seed + c * shard) made shard s under
  // seed k identical to shard s-1 under seed k + c — two "independent"
  // machines sharing an RNG stream. The PRF derivation must not.
  constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;
  const std::uint64_t route = test::seed(64);
  const std::uint64_t seed = test::seed(65);
  for (std::uint32_t s = 1; s < 8; ++s) {
    EXPECT_NE(engine::derive_shard_seed(route, seed, s, 0),
              engine::derive_shard_seed(route, seed + kGolden, s - 1, 0))
        << "shard " << s;
    EXPECT_NE(engine::derive_shard_seed(route, seed, s, 0),
              engine::derive_shard_seed(route, seed + 1, s, 0))
        << "shard " << s;
  }
}

TEST(ShardSeeds, RouteKeySelectsTheStreamFamily) {
  const std::uint64_t seed = test::seed(66);
  int moved = 0;
  for (std::uint32_t s = 0; s < 8; ++s) {
    moved += engine::derive_shard_seed(1, seed, s, 0) !=
                     engine::derive_shard_seed(2, seed, s, 0)
                 ? 1
                 : 0;
  }
  EXPECT_EQ(moved, 8);  // a fresh PRF key re-keys every stream
}

// --------------------------------------------- builder / engine wiring

TEST(RuntimeApi, BuilderDiagnostics) {
  try {
    (void)base_builder(4).threads(0);
    FAIL() << "threads(0) must throw";
  } catch (const contract_error& error) {
    EXPECT_NE(std::string(error.what()).find("threads()"),
              std::string::npos)
        << "diagnostic should name the setter: " << error.what();
  }
  EXPECT_NO_THROW((void)base_builder(4).threads(4).build());
}

TEST(RuntimeApi, WorkerThreadsAccessorAndClamping) {
  // No threads() call: the sim machine, no pool.
  const client sim_machine = base_builder(4).build();
  EXPECT_EQ(sim_machine.config().worker_threads, 0u);
  EXPECT_EQ(sim_machine.eng().worker_threads(), 0u);
  // Single shard: pure pass-through, no pool even when threaded.
  EXPECT_EQ(base_builder(1).threads(4).build().eng().worker_threads(), 0u);
  // One worker per shard.
  EXPECT_EQ(base_builder(4).threads(4).build().eng().worker_threads(), 4u);
  // Counts above the shard count clamp to it.
  EXPECT_EQ(base_builder(4).threads(8).build().eng().worker_threads(), 4u);
  EXPECT_EQ(base_builder(4).threads(2).build().eng().worker_threads(), 2u);
  // The config records what was asked for.
  const client threaded = base_builder(4).threads(8).build();
  EXPECT_EQ(threaded.config().worker_threads, 8u);
}

// ------------------------------- determinism grid: threaded == sim

struct grid_point {
  backend_kind kind;
  std::uint32_t shards;
  shuffle_policy shuffle;
};

class ThreadedDeterminism : public ::testing::TestWithParam<grid_point> {};

INSTANTIATE_TEST_SUITE_P(
    Grid, ThreadedDeterminism,
    ::testing::ValuesIn([] {
      std::vector<grid_point> grid;
      for (const backend_kind kind : all_backend_kinds) {
        for (const std::uint32_t shards : {1u, 4u, 8u}) {
          for (const shuffle_policy shuffle :
               {shuffle_policy::foreground, shuffle_policy::incremental}) {
            grid.push_back(grid_point{kind, shards, shuffle});
          }
        }
      }
      return grid;
    }()),
    [](const ::testing::TestParamInfo<grid_point>& info) {
      std::string name(backend_name(info.param.kind));
      name += "_" + std::to_string(info.param.shards) + "shards_";
      name += info.param.shuffle == shuffle_policy::foreground
                  ? "foreground"
                  : "incremental";
      return name;
    });

/// `threads` = 0 builds the sim machine.
client grid_client(const grid_point& p, std::uint32_t threads) {
  client_builder builder = base_builder(p.shards, 67)
                               .backend(p.kind)
                               .shuffle(p.shuffle)
                               .trace(true);
  if (threads > 0) {
    builder.threads(threads);
  }
  if (p.shuffle == shuffle_policy::incremental) {
    builder.shuffle_slice_budget(1'000'000);  // bounded: real slicing
  }
  return builder.build();
}

/// The load-bearing property: with a fixed seed the threaded runtime is
/// bit-for-bit the sim machine — same per-request results, same virtual
/// clock, same aggregate and router stats, same per-shard bus traces.
TEST_P(ThreadedDeterminism, TraceAndStatsBitForBit) {
  client sim_oram = grid_client(GetParam(), 0);
  client thr_oram = grid_client(GetParam(), GetParam().shards);

  // Open-loop batch (run/drain path).
  const std::vector<request> batch = make_stream(96, 68);
  std::vector<request_result> sim_results;
  std::vector<request_result> thr_results;
  sim_oram.run(batch, &sim_results);
  thr_oram.run(batch, &thr_results);
  expect_results_equal(sim_results, thr_results);

  // Closed-loop incremental pump (submit/drain path).
  const std::vector<request> second = make_stream(64, 69);
  sim_oram.submit(second);
  thr_oram.submit(second);
  sim_oram.drain(&sim_results);
  thr_oram.drain(&thr_results);
  expect_results_equal(sim_results, thr_results);

  EXPECT_EQ(sim_oram.now(), thr_oram.now());
  test::expect_stats_equal(sim_oram.stats(), thr_oram.stats());
  expect_router_stats_equal(sim_oram.eng().router_stats(),
                            thr_oram.eng().router_stats());
  EXPECT_EQ(sim_oram.eng().router_stats().rounds,
            thr_oram.eng().router_stats().rounds);
  expect_traces_equal(sim_oram.eng(), thr_oram.eng());
}

/// Worker counts that do not divide the shard count exercise the
/// s % threads pinning (several shards per worker, uneven split).
TEST(ThreadedRuntime, NonDivisorWorkerCountStaysDeterministic) {
  client sim_oram = base_builder(8, 70).build();
  client thr_oram = base_builder(8, 70).threads(3).build();
  ASSERT_EQ(thr_oram.eng().worker_threads(), 3u);

  const std::vector<request> batch = make_stream(120, 71);
  std::vector<request_result> sim_results;
  std::vector<request_result> thr_results;
  sim_oram.run(batch, &sim_results);
  thr_oram.run(batch, &thr_results);
  expect_results_equal(sim_results, thr_results);
  EXPECT_EQ(sim_oram.now(), thr_oram.now());
  test::expect_stats_equal(sim_oram.stats(), thr_oram.stats());
}

/// Token-by-token parity of the incremental round API: the tenant
/// scheduler pumps exactly this surface, so identical completion
/// streams here mean the whole service layer carries over unchanged.
TEST(ThreadedRuntime, StepRoundCompletionStreamMatchesSim) {
  client sim_oram = base_builder(4, 72).build();
  client thr_oram = base_builder(4, 72).threads(4).build();
  EXPECT_EQ(sim_oram.eng().round_budget(), thr_oram.eng().round_budget());

  const std::vector<request> stream = make_stream(80, 73);
  for (const request& req : stream) {
    EXPECT_EQ(sim_oram.eng().submit(req), thr_oram.eng().submit(req));
  }

  using completion_record = std::tuple<std::uint64_t, sim::sim_time, bool>;
  std::vector<completion_record> sim_seen;
  std::vector<completion_record> thr_seen;
  const auto collect = [](std::vector<completion_record>& into) {
    return [&into](std::uint64_t token, request_result&& result) {
      into.emplace_back(token, result.completion_time, result.hit);
    };
  };
  while (sim_oram.eng().step_round(collect(sim_seen))) {
    ASSERT_TRUE(thr_oram.eng().step_round(collect(thr_seen)));
    EXPECT_EQ(sim_oram.pending(), thr_oram.pending());
    ASSERT_EQ(sim_seen, thr_seen);  // same tokens, same order
  }
  EXPECT_FALSE(thr_oram.eng().step_round(collect(thr_seen)));
  EXPECT_EQ(sim_seen.size(), stream.size());
  EXPECT_EQ(sim_oram.eng().router_stats().rounds,
            thr_oram.eng().router_stats().rounds);
}

/// Stats merge + reset under threads: resetting mid-run must zero the
/// same counters in both runtimes and both must resume identically.
TEST(ThreadedRuntime, ResetStatsUnderThreadsMatchesSim) {
  client sim_oram = base_builder(4, 74).build();
  client thr_oram = base_builder(4, 74).threads(4).build();

  sim_oram.run(make_stream(64, 75));
  thr_oram.run(make_stream(64, 75));
  sim_oram.reset_stats();
  thr_oram.reset_stats();
  EXPECT_EQ(sim_oram.stats().requests, 0u);
  EXPECT_EQ(thr_oram.stats().requests, 0u);
  EXPECT_EQ(thr_oram.eng().router_stats().rounds, 0u);

  const std::vector<request> after = make_stream(48, 76);
  std::vector<request_result> sim_results;
  std::vector<request_result> thr_results;
  sim_oram.run(after, &sim_results);
  thr_oram.run(after, &thr_results);
  expect_results_equal(sim_results, thr_results);
  test::expect_stats_equal(sim_oram.stats(), thr_oram.stats());
  expect_router_stats_equal(sim_oram.eng().router_stats(),
                            thr_oram.eng().router_stats());
}

/// The multi-tenant service pumps the engine through the same surface
/// in both runtimes: per-tenant stats must agree exactly.
TEST(ThreadedRuntime, ServiceLayerMatchesSim) {
  service sim_svc = base_builder(4, 77).build_service();
  service thr_svc = base_builder(4, 77).threads(4).build_service();
  EXPECT_EQ(thr_svc.underlying().eng().worker_threads(), 4u);

  const auto drive = [](service& svc) {
    session alice = svc.open_session();
    session bob = svc.open_session(2.0);
    std::vector<ticket> tickets;
    util::pcg64 rng(test::seed(78));
    for (int i = 0; i < 40; ++i) {
      const block_id id = util::uniform_below(rng, kBlocks);
      session& who = (i % 2 == 0) ? alice : bob;
      if (util::bernoulli(rng, 0.3)) {
        const std::vector<std::uint8_t> data(
            kPayload, static_cast<std::uint8_t>(i));
        tickets.push_back(who.async_write(id, data));
      } else {
        tickets.push_back(who.async_read(id));
      }
    }
    svc.run_until_idle();
    return tickets;
  };
  std::vector<ticket> sim_tickets = drive(sim_svc);
  std::vector<ticket> thr_tickets = drive(thr_svc);

  ASSERT_EQ(sim_tickets.size(), thr_tickets.size());
  for (std::size_t i = 0; i < sim_tickets.size(); ++i) {
    const ticket_result& a = sim_tickets[i].result();
    const ticket_result& b = thr_tickets[i].result();
    EXPECT_EQ(a.payload, b.payload) << "ticket " << i;
    EXPECT_EQ(a.latency, b.latency) << "ticket " << i;
    EXPECT_EQ(a.sim_time, b.sim_time) << "ticket " << i;
    EXPECT_EQ(a.hit, b.hit) << "ticket " << i;
  }
  EXPECT_EQ(sim_svc.now(), thr_svc.now());
  for (std::uint32_t tenant = 0; tenant < sim_svc.tenant_count();
       ++tenant) {
    const tenant_stats a = sim_svc.tenant_stats(tenant);
    const tenant_stats b = thr_svc.tenant_stats(tenant);
    EXPECT_EQ(a.submitted, b.submitted) << "tenant " << tenant;
    EXPECT_EQ(a.completed, b.completed) << "tenant " << tenant;
    EXPECT_EQ(a.total_latency, b.total_latency) << "tenant " << tenant;
    EXPECT_EQ(a.max_latency, b.max_latency) << "tenant " << tenant;
    EXPECT_EQ(a.latency.p99(), b.latency.p99()) << "tenant " << tenant;
  }
  test::expect_stats_equal(sim_svc.stats(), thr_svc.stats());
}

/// The aligned-end rule runs a second lane pass (each shard's forced
/// end on its own worker) in the rounds where a period ends. With 1,024
/// cache blocks over four shards a period spans several rounds, so
/// forced ends happen; for worker_threads 0/1/2/4 the completion
/// streams, clocks, stats and bus traces must still be identical.
TEST(ThreadedRuntime, AlignedPeriodEndsMatchAcrossThreadCounts) {
  constexpr std::uint64_t kAlignedBlocks = 4096;
  const auto build = [](std::uint32_t threads) {
    client_builder builder = client_builder()
                                 .blocks(kAlignedBlocks)
                                 .memory_blocks(1024)
                                 .payload_bytes(kPayload)
                                 .backend(backend_kind::ring)
                                 .shards(4)
                                 .trace(true)
                                 .seed(test::seed(79));
    if (threads > 0) {
      builder.threads(threads);
    }
    return builder.build();
  };
  using completion_record = std::tuple<std::uint64_t, sim::sim_time, bool>;
  const auto drive = [](client& oram) {
    std::vector<completion_record> seen;
    const engine::completion collect = [&seen](std::uint64_t token,
                                               request_result&& result) {
      seen.emplace_back(token, result.completion_time, result.hit);
    };
    engine& eng = oram.eng();
    util::pcg64 rng(test::seed(80));
    for (int round = 0; round < 60; ++round) {
      while (eng.pending() < eng.round_budget()) {
        request req;
        req.id = util::bernoulli(rng, 0.5)
                     ? util::uniform_below(rng, kAlignedBlocks / 16)
                     : util::uniform_below(rng, kAlignedBlocks);
        if (util::bernoulli(rng, 0.25)) {
          req.op = oram::op_kind::write;
          req.write_data.assign(kPayload, static_cast<std::uint8_t>(round));
        }
        (void)eng.submit(std::move(req));
      }
      EXPECT_TRUE(eng.step_round(collect));
    }
    return seen;
  };

  client sim_oram = build(0);
  const std::vector<completion_record> sim_seen = drive(sim_oram);
  ASSERT_GT(sim_oram.eng().router_stats().early_period_ends, 0u);
  for (const std::uint32_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    client thr_oram = build(threads);
    ASSERT_EQ(thr_oram.eng().worker_threads(), threads);
    EXPECT_EQ(drive(thr_oram), sim_seen);
    EXPECT_EQ(sim_oram.now(), thr_oram.now());
    test::expect_stats_equal(sim_oram.stats(), thr_oram.stats());
    expect_router_stats_equal(sim_oram.eng().router_stats(),
                              thr_oram.eng().router_stats());
    expect_traces_equal(sim_oram.eng(), thr_oram.eng());
  }
}

/// Same machine, different runtimes, interleaved lifetimes: engines are
/// independent, so a threaded client dying mid-scope must not disturb a
/// sibling (worker lifecycle: graceful drain on destruction).
TEST(ThreadedRuntime, EngineTeardownIsClean) {
  client outer = base_builder(4, 79).threads(2).build();
  std::vector<request_result> outer_results;
  {
    client inner = base_builder(4, 79).threads(4).build();
    inner.run(make_stream(32, 80));
    // inner's pool joins here with jobs drained.
  }
  outer.run(make_stream(32, 80), &outer_results);
  EXPECT_EQ(outer_results.size(), 32u);
}

}  // namespace
}  // namespace horam

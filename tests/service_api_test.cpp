// Tests of the asynchronous multi-tenant service facade: tickets and
// sessions, fairness policies (round-robin, weighted-share, custom),
// access-control grants and admission-queue limits at the facade,
// run_until_idle() semantics, per-tenant statistics, warm-up exclusion
// via reset_stats(), builder diagnostics, and obliviousness of the bus
// trace under asynchronously interleaved multi-tenant workloads.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "analysis/pattern_audit.h"
#include "horam.h"
#include "util/rng.h"

namespace horam {
namespace {

using oram::block_id;

constexpr std::size_t kPayload = 16;

client_builder small_builder() {
  return client_builder()
      .blocks(256)
      .memory_blocks(32)
      .payload_bytes(kPayload)
      .seed(99);
}

std::vector<std::uint8_t> tagged(std::uint8_t tag) {
  return std::vector<std::uint8_t>(kPayload, tag);
}

// ----------------------------------------------------------- tickets

TEST(ServiceApi, WriteReadRoundTripViaTickets) {
  service svc = small_builder().build_service();
  session user = svc.open_session();

  ticket w = user.async_write(5, tagged(0xab));
  ticket r = user.async_read(5);
  EXPECT_FALSE(w.ready());
  EXPECT_EQ(svc.pending(), 2u);

  svc.run_until_idle();
  ASSERT_TRUE(w.ready());
  ASSERT_TRUE(r.ready());
  EXPECT_TRUE(w.result().payload.empty());  // writes carry no payload
  EXPECT_EQ(r.result().payload, tagged(0xab));
  EXPECT_GT(r.result().latency, 0);
  EXPECT_LE(r.result().sim_time, svc.now());
  EXPECT_EQ(r.tenant(), user.tenant());
  EXPECT_NE(w.id(), r.id());
}

TEST(ServiceApi, TicketResultPumpsTheService) {
  service svc = small_builder().build_service();
  session user = svc.open_session();
  ticket w = user.async_write(9, tagged(0x42));
  ticket r = user.async_read(9);
  // No explicit step()/run_until_idle(): result() is a blocking get
  // that pumps the scheduler itself.
  EXPECT_EQ(r.result().payload, tagged(0x42));
  EXPECT_TRUE(w.ready());
  EXPECT_TRUE(svc.idle());
}

TEST(ServiceApi, TicketsReportLatencyAndCompletionTime) {
  service svc = small_builder().build_service();
  session user = svc.open_session();
  // All submitted at virtual time 0, so latency == completion sim_time.
  std::vector<ticket> tickets;
  for (block_id id = 0; id < 20; ++id) {
    tickets.push_back(user.async_read(id));
  }
  svc.run_until_idle();
  sim::sim_time previous = 0;
  for (ticket& t : tickets) {
    const ticket_result& r = t.result();
    EXPECT_EQ(r.latency, r.sim_time);
    EXPECT_GE(r.sim_time, previous);  // FIFO within one tenant
    EXPECT_LE(r.sim_time, svc.now());
    previous = r.sim_time;
  }
}

TEST(ServiceApi, EmptyTicketsAreInvalid) {
  ticket empty;
  EXPECT_FALSE(empty.valid());
  EXPECT_FALSE(empty.ready());
  EXPECT_THROW((void)empty.result(), contract_error);
  EXPECT_THROW((void)empty.id(), contract_error);
}

TEST(ServiceApi, ShadowMapThroughService) {
  service svc = small_builder().build_service();
  session user = svc.open_session();
  std::map<block_id, std::vector<std::uint8_t>> shadow;
  util::pcg64 driver(7);
  for (int step = 0; step < 400; ++step) {
    const block_id id = util::uniform_below(driver, 256);
    if (util::bernoulli(driver, 0.4)) {
      const auto data = tagged(static_cast<std::uint8_t>(step));
      (void)user.async_write(id, data).result();
      shadow[id] = data;
    } else {
      ticket t = user.async_read(id);
      const auto expected = shadow.contains(id)
                                ? shadow[id]
                                : std::vector<std::uint8_t>(kPayload, 0);
      ASSERT_EQ(t.result().payload, expected) << "step " << step;
    }
  }
  EXPECT_GT(svc.stats().periods, 3u);  // crossed shuffle periods
}

// ------------------------------------------------- scheduling / pump

TEST(ServiceApi, StepReturnsFalseWhenIdle) {
  service svc = small_builder().build_service();
  session user = svc.open_session();
  EXPECT_FALSE(svc.step());
  (void)user.async_read(3);
  EXPECT_TRUE(svc.step());
  EXPECT_FALSE(svc.step());
  EXPECT_TRUE(svc.idle());
}

TEST(ServiceApi, RunUntilIdleDrainsEveryTenant) {
  service svc = small_builder().build_service();
  std::vector<session> users;
  std::vector<ticket> tickets;
  util::pcg64 gen(11);
  for (int u = 0; u < 3; ++u) {
    users.push_back(svc.open_session());
  }
  for (session& user : users) {
    for (int i = 0; i < 50; ++i) {
      tickets.push_back(
          user.async_read(util::uniform_below(gen, 256)));
    }
  }
  svc.run_until_idle();
  EXPECT_EQ(svc.pending(), 0u);
  EXPECT_TRUE(svc.idle());
  for (ticket& t : tickets) {
    EXPECT_TRUE(t.ready());
  }
  for (const session& user : users) {
    EXPECT_EQ(user.stats().completed, 50u);
    EXPECT_EQ(user.pending(), 0u);
  }
}

TEST(ServiceApi, SessionsGetDistinctTenantsAndQueues) {
  service svc = small_builder().build_service();
  session alice = svc.open_session();
  session bob = svc.open_session();
  EXPECT_NE(alice.tenant(), bob.tenant());
  EXPECT_EQ(svc.tenant_count(), 2u);
  (void)alice.async_read(1);
  (void)alice.async_read(2);
  (void)bob.async_read(3);
  EXPECT_EQ(alice.pending(), 2u);
  EXPECT_EQ(bob.pending(), 1u);
  EXPECT_EQ(svc.pending(), 3u);
  svc.run_until_idle();
}

// ----------------------------------------------------------- fairness

TEST(ServiceApi, RoundRobinKeepsLatenciesBalanced) {
  service svc = small_builder()
                    .fairness(fairness_kind::round_robin)
                    .build_service();
  EXPECT_EQ(svc.policy_name(), "round-robin");
  std::vector<session> users;
  util::pcg64 gen(13);
  for (int u = 0; u < 4; ++u) {
    users.push_back(svc.open_session());
  }
  for (session& user : users) {
    for (int i = 0; i < 100; ++i) {
      (void)user.async_read(util::uniform_below(gen, 256));
    }
  }
  svc.run_until_idle();
  sim::sim_time lo = users[0].stats().mean_latency();
  sim::sim_time hi = lo;
  for (const session& user : users) {
    const tenant_stats ts = user.stats();
    EXPECT_EQ(ts.completed, 100u);
    lo = std::min(lo, ts.mean_latency());
    hi = std::max(hi, ts.mean_latency());
  }
  EXPECT_GT(lo, 0);
  EXPECT_LT(hi, 3 * lo);  // round-robin fairness
}

TEST(ServiceApi, WeightedShareMatchesWeightsWithinTolerance) {
  service svc = small_builder()
                    .fairness(fairness_kind::weighted_share)
                    .build_service();
  EXPECT_EQ(svc.policy_name(), "weighted-share");
  const std::vector<double> weights = {1.0, 2.0, 4.0};
  std::vector<session> users;
  util::pcg64 gen(17);
  for (const double w : weights) {
    users.push_back(svc.open_session(w));
  }
  // Deep backlogs so no queue empties while we measure.
  for (session& user : users) {
    for (int i = 0; i < 1000; ++i) {
      (void)user.async_read(util::uniform_below(gen, 256));
    }
  }
  for (int round = 0; round < 30; ++round) {
    ASSERT_TRUE(svc.step());
  }
  std::uint64_t total = 0;
  for (const session& user : users) {
    ASSERT_GT(user.stats().completed, 0u);  // no tenant starves
    ASSERT_GT(user.pending(), 0u);          // backlog never emptied
    total += user.stats().completed;
  }
  const double weight_sum = 7.0;
  for (std::size_t u = 0; u < users.size(); ++u) {
    const double observed =
        static_cast<double>(users[u].stats().completed) /
        static_cast<double>(total);
    const double expected = weights[u] / weight_sum;
    EXPECT_NEAR(observed, expected, 0.20 * expected)
        << "tenant " << u << " share off its weight";
  }
  svc.run_until_idle();
}

TEST(ServiceApi, WeightedShareNeverStarvesLightTenants) {
  service svc = small_builder()
                    .fairness(fairness_kind::weighted_share)
                    .build_service();
  session light = svc.open_session(1.0);
  session heavy = svc.open_session(16.0);
  util::pcg64 gen(19);
  for (int i = 0; i < 500; ++i) {
    (void)light.async_read(util::uniform_below(gen, 256));
    (void)heavy.async_read(util::uniform_below(gen, 256));
  }
  for (int round = 0; round < 10; ++round) {
    ASSERT_TRUE(svc.step());
  }
  EXPECT_GT(light.stats().completed, 0u);
  EXPECT_GT(heavy.stats().completed, light.stats().completed);
  svc.run_until_idle();
}

TEST(ServiceApi, WeightedShareLateJoinerDoesNotMonopolize) {
  service svc = small_builder()
                    .fairness(fairness_kind::weighted_share)
                    .build_service();
  session early = svc.open_session(1.0);
  util::pcg64 gen(29);
  // The early tenant banks a long service history alone...
  for (int i = 0; i < 300; ++i) {
    (void)early.async_read(util::uniform_below(gen, 256));
  }
  svc.run_until_idle();
  svc.reset_stats();

  // ...then an equal-weight tenant joins with a deep backlog. The WFQ
  // start-tag clamp means the joiner must share from the first round
  // instead of monopolizing until its lifetime count catches up.
  session late = svc.open_session(1.0);
  for (int i = 0; i < 500; ++i) {
    (void)early.async_read(util::uniform_below(gen, 256));
    (void)late.async_read(util::uniform_below(gen, 256));
  }
  for (int round = 0; round < 10; ++round) {
    ASSERT_TRUE(svc.step());
  }
  const std::uint64_t early_done = early.stats().completed;
  const std::uint64_t late_done = late.stats().completed;
  ASSERT_GT(early_done, 0u) << "early tenant starved by the late joiner";
  ASSERT_GT(late_done, 0u);
  const double early_share =
      static_cast<double>(early_done) /
      static_cast<double>(early_done + late_done);
  EXPECT_NEAR(early_share, 0.5, 0.15);
  svc.run_until_idle();
}

TEST(ServiceApi, WeightedShareVeteranNotStarvedAfterGlobalIdle) {
  service svc = small_builder()
                    .fairness(fairness_kind::weighted_share)
                    .build_service();
  session veteran = svc.open_session(1.0);
  util::pcg64 gen(47);
  // The veteran banks a long service history, then the system drains
  // to a fully idle state.
  for (int i = 0; i < 400; ++i) {
    (void)veteran.async_read(util::uniform_below(gen, 256));
  }
  svc.run_until_idle();
  svc.reset_stats();

  // A brand-new tenant enqueues FIRST after the idle moment (so no
  // other lane is backlogged at its admission), then the veteran
  // returns. The virtual clock persists across the idle period, so the
  // newcomer cannot ride its zero lifetime count to a monopoly.
  session newcomer = svc.open_session(1.0);
  for (int i = 0; i < 500; ++i) {
    (void)newcomer.async_read(util::uniform_below(gen, 256));
  }
  for (int i = 0; i < 500; ++i) {
    (void)veteran.async_read(util::uniform_below(gen, 256));
  }
  for (int round = 0; round < 10; ++round) {
    ASSERT_TRUE(svc.step());
  }
  const std::uint64_t veteran_done = veteran.stats().completed;
  const std::uint64_t newcomer_done = newcomer.stats().completed;
  ASSERT_GT(veteran_done, 0u) << "veteran starved after global idle";
  ASSERT_GT(newcomer_done, 0u);
  const double veteran_share =
      static_cast<double>(veteran_done) /
      static_cast<double>(veteran_done + newcomer_done);
  EXPECT_NEAR(veteran_share, 0.5, 0.15);
  svc.run_until_idle();
}

TEST(ServiceApi, FairnessPoliciesSelectableByName) {
  EXPECT_EQ(fairness_by_name("round-robin"), fairness_kind::round_robin);
  EXPECT_EQ(fairness_by_name("weighted-share"),
            fairness_kind::weighted_share);
  EXPECT_EQ(fairness_name(fairness_kind::round_robin), "round-robin");
  EXPECT_EQ(fairness_name(fairness_kind::weighted_share),
            "weighted-share");
  EXPECT_THROW((void)fairness_by_name("fifo"), contract_error);

  // The built policy reports the same name the builder was given.
  for (const std::string_view name : {"round-robin", "weighted-share"}) {
    service svc = small_builder().fairness(name).build_service();
    EXPECT_EQ(svc.policy_name(), name);
  }
}

TEST(ServiceApi, UnfinishedTicketOutlivingServiceThrows) {
  ticket orphan;
  {
    service svc = small_builder().build_service();
    session user = svc.open_session();
    ticket done = user.async_read(1);
    orphan = user.async_read(2);
    (void)svc.step();  // completes both in one round
    EXPECT_EQ(done.result().latency, done.result().sim_time);
    // Re-admit one and drop every service/session handle before it
    // runs: tickets hold the machine weakly, so it is torn down.
    orphan = user.async_read(3);
  }
  EXPECT_FALSE(orphan.ready());
  EXPECT_THROW((void)orphan.result(), contract_error);
}

TEST(ServiceApi, CustomFairnessPolicyIsPluggable) {
  // Longest-queue-first: a policy the library does not ship, injected
  // through the builder's factory hook.
  class longest_queue_policy final : public fairness_policy {
   public:
    [[nodiscard]] std::string_view name() const noexcept override {
      return "longest-queue";
    }
    [[nodiscard]] std::size_t pick(
        std::span<const tenant_lane> lanes) override {
      std::size_t best = 0;
      for (std::size_t i = 1; i < lanes.size(); ++i) {
        if (lanes[i].queued > lanes[best].queued) {
          best = i;
        }
      }
      return best;
    }
  };
  service svc = small_builder()
                    .fairness([] {
                      return std::unique_ptr<fairness_policy>(
                          new longest_queue_policy);
                    })
                    .build_service();
  EXPECT_EQ(svc.policy_name(), "longest-queue");
  session a = svc.open_session();
  session b = svc.open_session();
  for (int i = 0; i < 10; ++i) {
    (void)a.async_read(i);
  }
  (void)b.async_read(200);
  svc.run_until_idle();
  EXPECT_EQ(a.stats().completed, 10u);
  EXPECT_EQ(b.stats().completed, 1u);
}

// ------------------------------------------- grants & admission queue

TEST(ServiceApi, GrantsRejectAtAdmissionWithoutTrace) {
  service svc = small_builder().trace(true).build_service();
  session alice = svc.open_session();
  session bob = svc.open_session();
  svc.grant(alice.tenant(), user_grant{0, 128});
  svc.grant(bob.tenant(), user_grant{128, 256});

  (void)alice.async_read(5);
  (void)bob.async_read(200);
  svc.run_until_idle();

  const std::size_t events_before = svc.underlying().trace()->size();
  const std::uint64_t cycles_before = svc.stats().cycles;
  EXPECT_THROW((void)bob.async_read(5), access_denied);
  EXPECT_THROW((void)alice.async_write(128, tagged(1)), access_denied);
  // The denial happened at admission: nothing was queued, nothing ran,
  // nothing appeared on the bus.
  EXPECT_EQ(svc.pending(), 0u);
  EXPECT_EQ(svc.underlying().trace()->size(), events_before);
  EXPECT_EQ(svc.stats().cycles, cycles_before);

  // Within-grant traffic still flows.
  EXPECT_EQ(alice.async_read(127).result().payload,
            std::vector<std::uint8_t>(kPayload, 0));
}

TEST(ServiceApi, OversizedWritesRejectAtAdmission) {
  // A write one byte longer than a block payload is refused at the call
  // on every admission path and leaves nothing queued; the same client
  // and the same service keep returning correct bytes afterwards.
  const std::vector<std::uint8_t> oversized(kPayload + 1, 0x5a);
  request bad;
  bad.op = oram::op_kind::write;
  bad.id = 7;
  bad.write_data = oversized;
  request good = bad;
  good.write_data = tagged(0x11);

  client oram = small_builder().build();
  EXPECT_THROW(oram.write(7, oversized), contract_error);
  EXPECT_THROW(oram.submit(bad), contract_error);
  const std::vector<request> batch{good, bad};
  EXPECT_THROW(oram.submit(batch), contract_error);
  EXPECT_EQ(oram.pending(), 0u);
  EXPECT_THROW(oram.run(batch), contract_error);
  oram.write(7, tagged(0x11));
  EXPECT_EQ(oram.read(7), tagged(0x11));
  oram.submit(good);
  oram.drain();
  EXPECT_EQ(oram.read(7), tagged(0x11));

  service svc = small_builder().build_service();
  session alice = svc.open_session();
  session bob = svc.open_session();
  (void)bob.async_write(3, tagged(0x22));
  EXPECT_THROW((void)alice.async_write(7, oversized), contract_error);
  EXPECT_EQ(alice.pending(), 0u);
  EXPECT_EQ(svc.pending(), 1u);
  svc.run_until_idle();
  EXPECT_EQ(alice.async_read(3).result().payload, tagged(0x22));
  EXPECT_EQ(bob.async_read(7).result().payload,
            std::vector<std::uint8_t>(kPayload, 0));
}

TEST(ServiceApi, UngrantedTenantsAreUnrestricted) {
  service svc = small_builder().build_service();
  session restricted = svc.open_session();
  session open = svc.open_session();
  svc.grant(restricted.tenant(), user_grant{0, 10});
  EXPECT_THROW((void)restricted.async_read(250), access_denied);
  EXPECT_NO_THROW((void)open.async_read(250));
  svc.run_until_idle();
}

TEST(ServiceApi, QueueDepthLimitRejectsOverflow) {
  service svc = small_builder().max_queue_depth(4).build_service();
  session user = svc.open_session();
  for (block_id id = 0; id < 4; ++id) {
    (void)user.async_read(id);
  }
  try {
    (void)user.async_read(4);
    FAIL() << "expected queue_overflow";
  } catch (const queue_overflow& e) {
    EXPECT_EQ(e.tenant, user.tenant());
    EXPECT_EQ(e.depth, 4u);
  }
  EXPECT_EQ(user.pending(), 4u);
  // Draining frees capacity; admission works again.
  svc.run_until_idle();
  EXPECT_NO_THROW((void)user.async_read(4));
  svc.run_until_idle();

  // The limit is per tenant: a second tenant admits independently.
  session other = svc.open_session();
  for (block_id id = 0; id < 4; ++id) {
    (void)other.async_read(id);
  }
  EXPECT_THROW((void)other.async_read(9), queue_overflow);
  svc.run_until_idle();
}

TEST(ServiceApi, OutOfRangeIdsAreRejectedAtAdmission) {
  service svc = small_builder().build_service();
  session user = svc.open_session();
  EXPECT_THROW((void)user.async_read(256), contract_error);
  EXPECT_EQ(svc.pending(), 0u);
}

// -------------------------------------------------------------- stats

TEST(ServiceApi, TenantStatsSumToControllerAggregate) {
  service svc = small_builder().build_service();
  std::vector<session> users;
  util::pcg64 gen(23);
  const std::vector<int> counts = {40, 80, 120};
  for (const int count : counts) {
    session user = svc.open_session();
    for (int i = 0; i < count; ++i) {
      (void)user.async_read(util::uniform_below(gen, 256));
    }
    users.push_back(user);
  }
  svc.run_until_idle();

  std::uint64_t completed = 0;
  std::uint64_t submitted = 0;
  for (std::uint32_t t = 0; t < svc.tenant_count(); ++t) {
    const tenant_stats ts = svc.tenant_stats(t);
    completed += ts.completed;
    submitted += ts.submitted;
    EXPECT_LE(ts.mean_latency(), ts.max_latency);
    EXPECT_LE(ts.max_latency, svc.now());
    EXPECT_GT(ts.throughput, 0.0);
  }
  EXPECT_EQ(completed, svc.stats().requests);
  EXPECT_EQ(submitted, svc.stats().requests);
}

TEST(ServiceApi, ResetStatsExcludesWarmup) {
  service svc = small_builder().build_service();
  session user = svc.open_session();
  for (block_id id = 0; id < 60; ++id) {
    (void)user.async_read(id);
  }
  svc.run_until_idle();
  EXPECT_EQ(svc.stats().requests, 60u);
  const sim::sim_time warmup_end = svc.now();

  svc.reset_stats();
  EXPECT_EQ(svc.stats().requests, 0u);
  EXPECT_EQ(user.stats().completed, 0u);

  for (block_id id = 0; id < 25; ++id) {
    (void)user.async_read(id);
  }
  svc.run_until_idle();
  EXPECT_EQ(svc.stats().requests, 25u);
  EXPECT_EQ(user.stats().completed, 25u);
  // total_time restarted at the reset, not at machine boot.
  EXPECT_EQ(svc.stats().total_time, svc.now() - warmup_end);
}

// -------------------------------------------------- builder contracts

TEST(ServiceApi, BuilderNamesMissingBlocks) {
  try {
    (void)client_builder().payload_bytes(16).memory_blocks(32).build();
    FAIL() << "expected contract_error";
  } catch (const contract_error& e) {
    EXPECT_NE(std::string(e.what()).find("blocks() not set"),
              std::string::npos)
        << e.what();
  }
}

TEST(ServiceApi, BuilderNamesMissingPayloadBytes) {
  try {
    (void)client_builder().blocks(256).memory_blocks(32).build();
    FAIL() << "expected contract_error";
  } catch (const contract_error& e) {
    EXPECT_NE(std::string(e.what()).find("payload_bytes() not set"),
              std::string::npos)
        << e.what();
  }
}

TEST(ServiceApi, BuilderNamesMissingMemorySetting) {
  try {
    (void)client_builder().blocks(256).payload_bytes(16).build();
    FAIL() << "expected contract_error";
  } catch (const contract_error& e) {
    EXPECT_NE(
        std::string(e.what()).find("memory_blocks() or cache_ratio()"),
        std::string::npos)
        << e.what();
  }
}

TEST(ServiceApi, BuilderNamesUndersizedMemory) {
  try {
    (void)client_builder()
        .blocks(256)
        .payload_bytes(16)
        .memory_blocks(4)  // < one bucket pair (2 * Z = 8)
        .build();
    FAIL() << "expected contract_error";
  } catch (const contract_error& e) {
    EXPECT_NE(std::string(e.what()).find("bucket"), std::string::npos)
        << e.what();
  }
}

TEST(ServiceApi, BuilderNamesOversizedMemory) {
  try {
    (void)client_builder()
        .blocks(64)
        .payload_bytes(16)
        .memory_blocks(256)
        .build();
    FAIL() << "expected contract_error";
  } catch (const contract_error& e) {
    EXPECT_NE(std::string(e.what()).find("memory_blocks()"),
              std::string::npos)
        << e.what();
  }
}

/// A nonzero logical block must hold one record: the 8-byte id, the
/// payload and, when sealing, the 20-byte nonce and MAC. Every backend
/// rejects a smaller one at build() with a diagnostic naming the setter
/// instead of failing inside its store.
TEST(ServiceApi, BuilderNamesUndersizedLogicalBlock) {
  constexpr std::size_t kRecordPayload = 256;
  const auto build = [](backend_kind kind, std::uint64_t logical,
                        bool seal) {
    return client_builder()
        .blocks(1024)
        .memory_blocks(64)
        .payload_bytes(kRecordPayload)
        .logical_block_bytes(logical)
        .backend(kind)
        .seal(seal)
        .build();
  };
  for (const backend_kind kind : all_backend_kinds) {
    SCOPED_TRACE(backend_name(kind));
    for (const std::uint64_t logical :
         {std::uint64_t{200}, std::uint64_t{8 + kRecordPayload + 19}}) {
      try {
        (void)build(kind, logical, /*seal=*/true);
        ADD_FAILURE() << "logical block " << logical << " accepted";
      } catch (const contract_error& e) {
        EXPECT_NE(std::string(e.what()).find("logical_block_bytes()"),
                  std::string::npos)
            << e.what();
      }
    }
    EXPECT_NO_THROW((void)build(kind, 8 + kRecordPayload + 20, true));
    EXPECT_NO_THROW((void)build(kind, 8 + kRecordPayload, false));
    EXPECT_NO_THROW((void)build(kind, 0, true));
  }
}

// ----------------------------------------------------- obliviousness

/// Drives `svc` with one multi-tenant workload shape and returns the
/// observable bus trace. Requests are admitted in bursts interleaved
/// with scheduler pumping, so the trace reflects genuine asynchronous
/// cross-tenant operation rather than one pre-built batch.
const oram::access_trace& run_traced_workload(service& svc, bool split,
                                              std::uint64_t seed) {
  session a = svc.open_session();
  session b = svc.open_session();
  util::pcg64 gen(seed);
  const std::uint64_t n = svc.config().block_count;
  for (int burst = 0; burst < 8; ++burst) {
    for (int i = 0; i < 50; ++i) {
      if (split) {
        // Disjoint hot halves per tenant.
        (void)a.async_read(util::uniform_below(gen, n / 2));
        (void)b.async_read(n / 2 + util::uniform_below(gen, n / 2));
      } else {
        // Both tenants uniform over the full range, write-heavy.
        (void)a.async_write(util::uniform_below(gen, n),
                            std::vector<std::uint8_t>(kPayload, 0x77));
        (void)b.async_read(util::uniform_below(gen, n));
      }
    }
    (void)svc.step();
    (void)svc.step();
  }
  svc.run_until_idle();
  return *svc.underlying().trace();
}

analysis::audit_report audit_service_trace(service& svc,
                                           const oram::access_trace& t) {
  analysis::audit_config audit;
  const storage::partition_geometry& geometry =
      svc.underlying().ctrl().storage().geometry();
  audit.partition_count = geometry.partition_count;
  audit.slots_per_partition = geometry.slots_per_partition();
  audit.main_capacity = geometry.main_capacity;
  audit.leaf_count =
      svc.underlying().ctrl().memory_tree().config().leaf_count;
  audit.expect_single_read_per_cycle = true;
  return analysis::audit_trace(t, audit);
}

std::vector<std::uint64_t> group_size_sequence(
    const oram::access_trace& t) {
  std::vector<std::uint64_t> cs;
  for (const oram::trace_event& event : t.events()) {
    if (event.kind == oram::event_kind::cycle_begin) {
      cs.push_back(event.b);
    }
  }
  return cs;
}

// ------------------------------------------------- sharded service

client_builder sharded_builder(std::uint32_t shards) {
  return client_builder()
      .blocks(512)
      .memory_blocks(128)
      .payload_bytes(kPayload)
      .shards(shards)
      .seed(101);
}

TEST(ServiceApi, ShardedServiceRoundTripsTickets) {
  // The whole ticket/session contract must survive the engine fanning
  // requests across 4 shards: payload correctness against a shadow map,
  // monotone global completion times, latency = completion - admission.
  service svc = sharded_builder(4).build_service();
  session user = svc.open_session();
  std::map<block_id, std::vector<std::uint8_t>> shadow;
  util::pcg64 driver(31);
  for (int step = 0; step < 250; ++step) {
    const block_id id = util::uniform_below(driver, 512);
    if (util::bernoulli(driver, 0.4)) {
      const auto data = tagged(static_cast<std::uint8_t>(step));
      (void)user.async_write(id, data).result();
      shadow[id] = data;
    } else {
      ticket t = user.async_read(id);
      const auto expected = shadow.contains(id)
                                ? shadow[id]
                                : std::vector<std::uint8_t>(kPayload, 0);
      ASSERT_EQ(t.result().payload, expected) << "step " << step;
      EXPECT_LE(t.result().sim_time, svc.now());
      EXPECT_GT(t.result().latency, 0);
    }
  }
  EXPECT_TRUE(svc.idle());
  EXPECT_EQ(svc.stats().requests, 250u);
}

TEST(ServiceApi, ShardedServiceDrainsBackloggedTenants) {
  service svc = sharded_builder(4).build_service();
  std::vector<session> users;
  std::vector<ticket> tickets;
  util::pcg64 gen(37);
  for (int u = 0; u < 3; ++u) {
    users.push_back(svc.open_session());
  }
  for (session& user : users) {
    for (int i = 0; i < 80; ++i) {
      tickets.push_back(user.async_read(util::uniform_below(gen, 512)));
    }
  }
  EXPECT_EQ(svc.pending(), 240u);
  svc.run_until_idle();
  EXPECT_TRUE(svc.idle());
  EXPECT_EQ(svc.pending(), 0u);
  for (ticket& t : tickets) {
    EXPECT_TRUE(t.ready());
  }
  std::uint64_t completed = 0;
  for (const session& user : users) {
    EXPECT_EQ(user.stats().completed, 80u);
    completed += user.stats().completed;
  }
  EXPECT_EQ(completed, svc.stats().requests);
}

TEST(ServiceApi, ShardedBacklogOnOneHotShardStaysBounded) {
  // Every request hits one block, so all traffic PRF-routes to a single
  // shard that drains only round_cap() per round. The scheduler must
  // count the engine's backlog against its pop budget, or the in-engine
  // queue (which no admission limit guards) would grow without bound.
  service svc = sharded_builder(4).build_service();
  session user = svc.open_session();
  for (int i = 0; i < 3000; ++i) {
    (void)user.async_read(7);
  }
  const engine& eng = svc.underlying().eng();
  for (int round = 0; round < 25; ++round) {
    ASSERT_TRUE(svc.step());
    EXPECT_LE(eng.pending(), eng.round_budget()) << "round " << round;
  }
  svc.run_until_idle();
  EXPECT_EQ(user.stats().completed, 3000u);
}

// -------------------------------- fairness edge cases under the engine

TEST(ServiceApi, WeightZeroTenantIsRejected) {
  service svc = sharded_builder(4)
                    .fairness(fairness_kind::weighted_share)
                    .build_service();
  EXPECT_THROW((void)svc.open_session(0.0), contract_error);
  EXPECT_THROW((void)svc.open_session(-1.0), contract_error);
  // The rejected registrations left no tenant behind.
  EXPECT_EQ(svc.tenant_count(), 0u);
  session ok = svc.open_session(1.0);
  (void)ok.async_read(1);
  svc.run_until_idle();
  EXPECT_EQ(ok.stats().completed, 1u);
}

TEST(ServiceApi, WeightedShareJoinerMidRoundUnderShards) {
  // A tenant joins *mid-round* — between two step() calls, while the
  // veteran's requests are still fanning out across 4 shards. The WFQ
  // start-tag clamp must hold under the engine exactly as it does over
  // one controller: neither side monopolizes from the join onward.
  service svc = sharded_builder(4)
                    .fairness(fairness_kind::weighted_share)
                    .build_service();
  session veteran = svc.open_session(1.0);
  util::pcg64 gen(41);
  for (int i = 0; i < 2000; ++i) {
    (void)veteran.async_read(util::uniform_below(gen, 512));
  }
  // Partial service: requests are in flight inside the engine when the
  // joiner arrives.
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(svc.step());
  }
  const std::uint64_t veteran_head_start = veteran.stats().completed;

  session joiner = svc.open_session(1.0);
  for (int i = 0; i < 2000; ++i) {
    (void)joiner.async_read(util::uniform_below(gen, 512));
  }
  for (int round = 0; round < 12; ++round) {
    ASSERT_TRUE(svc.step());
  }
  const std::uint64_t veteran_done =
      veteran.stats().completed - veteran_head_start;
  const std::uint64_t joiner_done = joiner.stats().completed;
  ASSERT_GT(veteran_done, 0u) << "veteran starved by the mid-round joiner";
  ASSERT_GT(joiner_done, 0u) << "joiner starved by the veteran";
  const double joiner_share =
      static_cast<double>(joiner_done) /
      static_cast<double>(veteran_done + joiner_done);
  EXPECT_NEAR(joiner_share, 0.5, 0.15);
  svc.run_until_idle();
}

TEST(ServiceApi, WeightedShareTracksWeightsAcrossShards) {
  // The §5.3.2 proportional-share property must survive the fan-out:
  // completions (delivered by the engine's completion-ordering layer)
  // still converge to the weight ratios.
  service svc = sharded_builder(4)
                    .fairness(fairness_kind::weighted_share)
                    .build_service();
  const std::vector<double> weights = {1.0, 3.0};
  std::vector<session> users;
  util::pcg64 gen(43);
  for (const double w : weights) {
    users.push_back(svc.open_session(w));
  }
  for (session& user : users) {
    for (int i = 0; i < 1500; ++i) {
      (void)user.async_read(util::uniform_below(gen, 512));
    }
  }
  for (int round = 0; round < 10; ++round) {
    ASSERT_TRUE(svc.step());
  }
  std::uint64_t total = 0;
  for (const session& user : users) {
    ASSERT_GT(user.stats().completed, 0u);
    ASSERT_GT(user.pending(), 0u);  // backlog never emptied
    total += user.stats().completed;
  }
  const double heavy_share =
      static_cast<double>(users[1].stats().completed) /
      static_cast<double>(total);
  EXPECT_NEAR(heavy_share, 0.75, 0.12);
  svc.run_until_idle();
}

TEST(ServiceApi, AsyncInterleavingTraceIsWorkloadIndependent) {
  // Two services, identical machines; two very different multi-tenant
  // workloads with the same per-tenant request counts. The adversary's
  // view must not distinguish them: both traces pass the obliviousness
  // audit, and the observable cycle structure (the group-size schedule,
  // the one-load-plus-c-paths shape) is identical as a distribution.
  service svc_a = small_builder().trace(true).build_service();
  service svc_b = small_builder().trace(true).build_service();
  const oram::access_trace& trace_a =
      run_traced_workload(svc_a, /*split=*/true, 41);
  const oram::access_trace& trace_b =
      run_traced_workload(svc_b, /*split=*/false, 43);

  const analysis::audit_report report_a =
      audit_service_trace(svc_a, trace_a);
  const analysis::audit_report report_b =
      audit_service_trace(svc_b, trace_b);
  for (const std::string& violation : report_a.violations) {
    ADD_FAILURE() << "workload A: " << violation;
  }
  for (const std::string& violation : report_b.violations) {
    ADD_FAILURE() << "workload B: " << violation;
  }
  EXPECT_TRUE(report_a.leaf_uniformity_ok);
  EXPECT_TRUE(report_b.leaf_uniformity_ok);

  // The per-cycle group-size schedule is a deterministic function of
  // the stage configuration, not of the workload: the two traces agree
  // cycle for cycle over their common prefix.
  const std::vector<std::uint64_t> cs_a = group_size_sequence(trace_a);
  const std::vector<std::uint64_t> cs_b = group_size_sequence(trace_b);
  const std::size_t common = std::min(cs_a.size(), cs_b.size());
  ASSERT_GT(common, 100u);
  for (std::size_t i = 0; i < common; ++i) {
    ASSERT_EQ(cs_a[i], cs_b[i]) << "cycle " << i;
  }

  // Event-mix distributions match: both runs service the same request
  // count, and the per-cycle averages of every observable event kind
  // agree within a few percent (the tail-cycle remainder).
  EXPECT_EQ(report_a.cycles, report_a.storage_reads);
  EXPECT_EQ(report_b.cycles, report_b.storage_reads);
  const double paths_per_cycle_a =
      static_cast<double>(report_a.path_accesses) /
      static_cast<double>(report_a.cycles);
  const double paths_per_cycle_b =
      static_cast<double>(report_b.path_accesses) /
      static_cast<double>(report_b.cycles);
  EXPECT_NEAR(paths_per_cycle_a, paths_per_cycle_b,
              0.05 * paths_per_cycle_a);
}

}  // namespace
}  // namespace horam

// Tests of the round-scoped request-coalescing subsystem
// (src/coalesce/): round_table merge semantics (read-read, read-after-
// write forwarding, last-writer-wins write combining, fetch-before-
// write promotion, prefix capacity), fan-out delivery, differential
// shadow-map correctness across the backend x shard grid, the
// coalescing(off) trace-equality grid (backends x shards x shuffle
// policies x runtimes, with a bare-controller reference for the
// single-shard cells), sim-vs-threaded bit-for-bit parity with
// coalescing on, per-tenant FIFO completion order when one physical
// access retires tickets from several tenants, obliviousness (round
// shape at the public cap; zipfian-vs-uniform per-shard bus
// distribution equality), stats semantics (physical_accesses /
// coalesced_requests / ios_per_logical_request, the trusted-memory-hit
// add-back, reset_stats), and the builder's named setter diagnostics.
#include <gtest/gtest.h>

#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "analysis/obliviousness.h"
#include "coalesce/coalescer.h"
#include "horam.h"
#include "test_support.h"
#include "util/rng.h"
#include "workload/generators.h"

namespace horam {
namespace {

using oram::block_id;

constexpr std::uint64_t kBlocks = 256;
constexpr std::uint64_t kMemoryBlocks = 64;
constexpr std::size_t kPayload = 16;

client_builder coalesce_builder(std::uint32_t shards,
                                std::uint64_t seed_salt = 71) {
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

request read_of(block_id id) {
  request req;
  req.id = id;
  return req;
}

request write_of(block_id id, std::uint8_t tag) {
  request req;
  req.op = oram::op_kind::write;
  req.id = id;
  req.write_data = tagged(tag);
  return req;
}

// ----------------------------------------------- round_table semantics

TEST(CoalesceTable, ReadReadMergesIntoOnePhysicalAccess) {
  coalesce::round_table table(8);
  table.add(1, read_of(5));
  table.add(2, read_of(5));
  EXPECT_EQ(table.groups(), 1u);
  EXPECT_EQ(table.members(), 2u);
  EXPECT_EQ(table.merged(), 1u);

  const std::vector<coalesce::group> groups = table.take();
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].physical.op, oram::op_kind::read);
  EXPECT_FALSE(groups[0].physical.fetch_before_write);
  ASSERT_EQ(groups[0].members.size(), 2u);
  EXPECT_EQ(groups[0].members[0].tag, 1u);
  EXPECT_EQ(groups[0].members[1].tag, 2u);
  EXPECT_EQ(groups[0].members[1].source, coalesce::member_source::physical);
  EXPECT_EQ(table.groups(), 0u);  // take() empties the table
  EXPECT_EQ(table.members(), 0u);
}

TEST(CoalesceTable, ReadAfterWriteForwardsTheWrittenData) {
  coalesce::round_table table(8);
  table.add(1, write_of(9, 0xaa));
  table.add(2, read_of(9));
  const std::vector<coalesce::group> groups = table.take();
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].physical.op, oram::op_kind::write);
  // The write opened the group, so nobody needs the pre-write payload.
  EXPECT_FALSE(groups[0].physical.fetch_before_write);
  ASSERT_EQ(groups[0].members.size(), 2u);
  EXPECT_EQ(groups[0].members[0].source, coalesce::member_source::write);
  EXPECT_EQ(groups[0].members[1].source,
            coalesce::member_source::forwarded);
  EXPECT_EQ(groups[0].members[1].forward_data, tagged(0xaa));
}

TEST(CoalesceTable, LastWriterWinsCombinesWrites) {
  coalesce::round_table table(8);
  table.add(1, write_of(3, 0x11));
  table.add(2, write_of(3, 0x22));
  table.add(3, read_of(3));
  const std::vector<coalesce::group> groups = table.take();
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].physical.write_data, tagged(0x22));
  ASSERT_EQ(groups[0].members.size(), 3u);
  EXPECT_EQ(groups[0].members[1].source, coalesce::member_source::write);
  // The read rides the final combined write, by serial semantics.
  EXPECT_EQ(groups[0].members[2].forward_data, tagged(0x22));
}

TEST(CoalesceTable, WritePromotesAReadGroupToFetchBeforeWrite) {
  coalesce::round_table table(8);
  table.add(1, read_of(7));
  table.add(2, write_of(7, 0x33));
  table.add(3, read_of(7));
  const std::vector<coalesce::group> groups = table.take();
  ASSERT_EQ(groups.size(), 1u);
  // One physical access serves everyone: a read-modify-write returns
  // the pre-write payload for the early reader and applies the write.
  EXPECT_EQ(groups[0].physical.op, oram::op_kind::write);
  EXPECT_TRUE(groups[0].physical.fetch_before_write);
  EXPECT_EQ(groups[0].physical.write_data, tagged(0x33));
  ASSERT_EQ(groups[0].members.size(), 3u);
  EXPECT_EQ(groups[0].members[0].source, coalesce::member_source::physical);
  EXPECT_EQ(groups[0].members[2].source,
            coalesce::member_source::forwarded);
  EXPECT_EQ(groups[0].members[2].forward_data, tagged(0x33));
}

TEST(CoalesceTable, PrefixCapacityAdmitsMergesButNotNewGroups) {
  coalesce::round_table table(2);
  EXPECT_TRUE(table.admits(1));
  table.add(1, read_of(1));
  table.add(2, read_of(2));
  // The cap counts distinct blocks: merges stay admissible, a third
  // group does not.
  EXPECT_TRUE(table.admits(1));
  EXPECT_TRUE(table.admits(2));
  EXPECT_FALSE(table.admits(3));
  table.add(3, read_of(2));
  EXPECT_EQ(table.groups(), 2u);
  EXPECT_EQ(table.merged(), 1u);
  EXPECT_THROW(table.add(4, read_of(3)), contract_error);
}

TEST(CoalesceTable, FanOutDeliversPerMemberResults) {
  coalesce::round_table table(8);
  table.add(10, read_of(4));   // opener: physical read
  table.add(11, write_of(4, 0x55));
  table.add(12, read_of(4));   // served from the forwarded write
  std::vector<coalesce::group> groups = table.take();
  ASSERT_EQ(groups.size(), 1u);

  request_result physical;
  physical.completion_time = 1000;
  physical.hit = false;
  physical.read_data = tagged(0x99);  // the pre-write payload

  // One group, so every member completes at its time.
  const sim::sim_time group_times[] = {1000};
  coalesce::completion_order order;
  order.assign(groups, group_times);
  std::vector<std::pair<std::uint64_t, request_result>> delivered;
  coalesce::fan_out(std::move(groups[0]), std::move(physical), order.times(),
                    kPayload,
                    [&](std::uint64_t tag, request_result&& result) {
                      delivered.emplace_back(tag, std::move(result));
                    });

  ASSERT_EQ(delivered.size(), 3u);
  EXPECT_EQ(delivered[0].first, 10u);
  EXPECT_EQ(delivered[0].second.read_data, tagged(0x99));
  EXPECT_FALSE(delivered[0].second.hit);  // opener keeps the real outcome
  EXPECT_EQ(delivered[1].first, 11u);
  EXPECT_TRUE(delivered[1].second.read_data.empty());  // writes: no payload
  EXPECT_TRUE(delivered[1].second.hit);  // absorbed = trusted-memory hit
  EXPECT_EQ(delivered[2].first, 12u);
  EXPECT_EQ(delivered[2].second.read_data, tagged(0x55));
  EXPECT_TRUE(delivered[2].second.hit);
  for (const auto& [tag, result] : delivered) {
    EXPECT_EQ(result.completion_time, 1000) << "tag " << tag;
  }
}

request read_by(std::uint32_t user, block_id id) {
  request req = read_of(id);
  req.user = user;
  return req;
}

TEST(CoalesceTable, MergedMemberWaitsOnlyForItsOwnTenant) {
  // Group 0 (block 1) completes at 100, group 1 (block 2) at 250. A
  // member merged into group 0 after group 1 opened waits for group 1
  // only when group 1's opener is its own tenant's earlier request.
  const sim::sim_time group_times[] = {100, 250};
  for (const std::uint32_t other : {0u, 1u}) {
    coalesce::round_table table(8);
    table.add(1, read_by(0, 1));      // group 0
    table.add(2, read_by(other, 2));  // group 1
    table.add(3, read_by(0, 1));      // merges into group 0
    std::vector<coalesce::group> groups = table.take();
    ASSERT_EQ(groups.size(), 2u);
    ASSERT_EQ(groups[0].members.size(), 2u);
    EXPECT_EQ(groups[0].members[1].admission, 2u);
    EXPECT_EQ(groups[1].members[0].user, other);

    coalesce::completion_order order;
    order.assign(groups, group_times);
    ASSERT_EQ(order.times().size(), 3u);
    EXPECT_EQ(order.times()[0], 100);
    EXPECT_EQ(order.times()[1], 250);
    // Same tenant: FIFO behind its own later miss. Another tenant's
    // miss does not hold it.
    EXPECT_EQ(order.times()[2], other == 0 ? 250 : 100) << "other " << other;

    request_result physical;
    physical.completion_time = 100;
    sim::sim_time merged_time = 0;
    coalesce::fan_out(std::move(groups[0]), std::move(physical),
                      order.times(), kPayload,
                      [&](std::uint64_t tag, request_result&& result) {
                        if (tag == 3) {
                          merged_time = result.completion_time;
                        }
                      });
    EXPECT_EQ(merged_time, order.times()[2]);
  }
}

TEST(CoalesceTable, SingleTenantOrderIsTheInOrderRoundClamp) {
  // With one tenant the per-tenant rule is exactly in-order retirement
  // of the round: group times clamped to their running maximum in batch
  // order, an opener at its group's clamped time and a merged member at
  // the clamped time of the newest group when it was admitted. Random
  // rounds, random (non-monotone) group times.
  util::pcg64 gen(test::seed(76));
  coalesce::completion_order order;  // reused, as the engine does
  for (int round = 0; round < 200; ++round) {
    coalesce::round_table table;
    std::vector<std::size_t> newest_group;  // per member, at admission
    std::vector<std::size_t> own_group;
    std::map<block_id, std::size_t> group_of;
    const std::size_t members = 1 + util::uniform_below(gen, 40);
    for (std::size_t i = 0; i < members; ++i) {
      const block_id id = util::uniform_below(gen, 12);
      group_of.try_emplace(id, group_of.size());
      own_group.push_back(group_of[id]);
      newest_group.push_back(group_of.size() - 1);
      table.add(i, util::bernoulli(gen, 0.3)
                       ? write_of(id, static_cast<std::uint8_t>(i))
                       : read_of(id));
    }
    const std::vector<coalesce::group> groups = table.take();
    std::vector<sim::sim_time> times(groups.size());
    for (sim::sim_time& t : times) {
      t = static_cast<sim::sim_time>(util::uniform_below(gen, 1000));
    }
    std::vector<sim::sim_time> clamped(times.size());
    sim::sim_time frontier = 0;
    for (std::size_t g = 0; g < times.size(); ++g) {
      frontier = std::max(frontier, times[g]);
      clamped[g] = frontier;
    }

    order.assign(groups, times);
    ASSERT_EQ(order.times().size(), members);
    for (const coalesce::group& g : groups) {
      for (std::size_t k = 0; k < g.members.size(); ++k) {
        const std::size_t i = g.members[k].tag;
        EXPECT_EQ(g.members[k].admission, i);
        const sim::sim_time expected =
            clamped[k == 0 ? own_group[i] : newest_group[i]];
        ASSERT_EQ(order.times()[i], expected)
            << "round " << round << " member " << i;
      }
    }
  }
}

TEST(CoalesceEngine, TenantsDoNotWaitOnEachOthersMisses) {
  // Two tenants share one coalesced shard: tenant 0 re-reads a hot set
  // the cache tree holds, tenant 1 reads cold blocks. Each tenant's
  // completions stay FIFO, and some of tenant 0's hits complete before
  // a miss tenant 1 submitted earlier — the in-order round clamp
  // forbade that.
  client oram = coalesce_builder(1, 77).coalescing(true).build();
  util::pcg64 gen(test::seed(77));
  std::vector<request> warm;
  for (block_id id = 0; id < 8; ++id) {
    warm.push_back(read_by(0, id));
  }
  oram.run(warm, nullptr);

  std::vector<request> batch;
  for (int i = 0; i < 120; ++i) {
    const std::uint32_t user = static_cast<std::uint32_t>(i % 2);
    batch.push_back(read_by(user, user == 0
                                      ? util::uniform_below(gen, 8)
                                      : 8 + util::uniform_below(
                                                gen, kBlocks - 8)));
  }
  oram.submit(batch);
  std::vector<request_result> results;
  oram.drain(&results);
  ASSERT_EQ(results.size(), batch.size());

  sim::sim_time last[2] = {0, 0};
  sim::sim_time latest_miss = 0;  // of tenant 1, submitted so far
  std::size_t overtaken = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const std::uint32_t user = batch[i].user;
    const sim::sim_time t = results[i].completion_time;
    EXPECT_GE(t, last[user]) << "tenant " << user << " request " << i;
    last[user] = t;
    if (user == 1) {
      latest_miss = std::max(latest_miss, t);
    } else if (t < latest_miss) {
      ++overtaken;
    }
  }
  EXPECT_GT(overtaken, 0u);
}

// ------------------------------- differential correctness (shadow map)

struct coalesce_grid_point {
  backend_kind backend;
  std::uint32_t shards;
};

class CoalesceConformance
    : public ::testing::TestWithParam<coalesce_grid_point> {};

INSTANTIATE_TEST_SUITE_P(
    BackendsByShards, CoalesceConformance,
    ::testing::ValuesIn([] {
      std::vector<coalesce_grid_point> grid;
      for (const backend_kind kind : all_backend_kinds) {
        for (const std::uint32_t shards : {1u, 4u}) {
          grid.push_back(coalesce_grid_point{kind, shards});
        }
      }
      return grid;
    }()),
    [](const ::testing::TestParamInfo<coalesce_grid_point>& info) {
      return std::string(backend_name(info.param.backend)) + "_x" +
             std::to_string(info.param.shards);
    });

/// Serial-semantics oracle: duplicate-heavy traffic through coalesced
/// rounds must read exactly what a serial machine would have read.
TEST_P(CoalesceConformance, ShadowReplayThroughSubmitAndDrain) {
  client oram = coalesce_builder(GetParam().shards)
                    .backend(GetParam().backend)
                    .coalescing(true)
                    .build();
  std::map<block_id, std::vector<std::uint8_t>> shadow;
  util::pcg64 driver(test::seed(72 + GetParam().shards));

  // Hot-set traffic over 8 blocks (plus a uniform tail) so rounds
  // genuinely merge: reads, writes, and read-after-write in one batch.
  const int chunks = 10;
  const int chunk_size = 24;
  std::uint8_t stamp = 0;
  for (int chunk = 0; chunk < chunks; ++chunk) {
    std::vector<request> batch;
    std::vector<std::vector<std::uint8_t>> expected;
    for (int i = 0; i < chunk_size; ++i) {
      const block_id id = util::bernoulli(driver, 0.75)
                              ? util::uniform_below(driver, 8)
                              : util::uniform_below(driver, kBlocks);
      if (util::bernoulli(driver, 0.4)) {
        request req = write_of(id, ++stamp);
        shadow[id] = req.write_data;
        expected.emplace_back();  // writes return no payload
        batch.push_back(std::move(req));
      } else {
        expected.push_back(shadow.contains(id)
                               ? shadow[id]
                               : std::vector<std::uint8_t>(kPayload, 0));
        batch.push_back(read_of(id));
      }
    }
    oram.submit(batch);
    std::vector<request_result> results;
    oram.drain(&results);
    ASSERT_EQ(results.size(), batch.size());
    for (int i = 0; i < chunk_size; ++i) {
      EXPECT_EQ(results[static_cast<std::size_t>(i)].read_data,
                expected[static_cast<std::size_t>(i)])
          << "chunk " << chunk << " entry " << i;
    }
  }

  // The hot set actually coalesced, and the identity holds.
  const engine_stats& router = oram.eng().router_stats();
  EXPECT_EQ(router.real_requests,
            static_cast<std::uint64_t>(chunks * chunk_size));
  EXPECT_GT(router.coalesced_requests, 0u);
  EXPECT_EQ(router.physical_accesses + router.coalesced_requests,
            router.real_requests);
  for (std::uint32_t s = 0; s < oram.eng().shard_count(); ++s) {
    ASSERT_NO_THROW(oram.eng().shard(s).backend().check_consistency())
        << "shard " << s;
  }
}

// ------------------------------------ coalescing(off) bit-for-bit grid

struct off_grid_point {
  backend_kind backend;
  std::uint32_t shards;
  shuffle_policy shuffle;
  /// Shard lanes on one worker thread each, or the sim machine.
  bool threaded;
};

std::string off_grid_name(const off_grid_point& p) {
  return std::string(backend_name(p.backend)) + "_x" +
         std::to_string(p.shards) + "_" +
         std::string(shuffle_policy_name(p.shuffle)) + "_" +
         (p.threaded ? "threaded" : "sim");
}

/// Prints a grid point by its name: gtest's default printer would dump
/// the struct's bytes, padding included, into the test IDs.
void PrintTo(const off_grid_point& p, std::ostream* os) {
  *os << off_grid_name(p);
}

class CoalesceOffGrid : public ::testing::TestWithParam<off_grid_point> {};

INSTANTIATE_TEST_SUITE_P(
    BackendsByShardsByPolicies, CoalesceOffGrid,
    ::testing::ValuesIn([] {
      std::vector<off_grid_point> grid;
      for (const backend_kind kind : all_backend_kinds) {
        for (const std::uint32_t shards : {1u, 4u}) {
          for (const shuffle_policy shuffle :
               {shuffle_policy::foreground, shuffle_policy::incremental}) {
            for (const bool threaded : {false, true}) {
              grid.push_back(off_grid_point{kind, shards, shuffle, threaded});
            }
          }
        }
      }
      return grid;
    }()),
    [](const ::testing::TestParamInfo<off_grid_point>& info) {
      return off_grid_name(info.param);
    });

std::vector<request> off_grid_stream(std::uint64_t seed) {
  util::pcg64 gen(seed);
  std::vector<request> stream;
  for (int i = 0; i < 200; ++i) {
    request req;
    req.op = util::bernoulli(gen, 0.3) ? oram::op_kind::write
                                       : oram::op_kind::read;
    // Duplicate-heavy, so an accidentally-armed coalescer would merge
    // (and visibly diverge) rather than degenerate to singletons.
    req.id = util::bernoulli(gen, 0.5) ? util::uniform_below(gen, 8)
                                       : util::uniform_below(gen, kBlocks);
    if (req.op == oram::op_kind::write) {
      req.write_data = tagged(static_cast<std::uint8_t>(i));
    }
    stream.push_back(std::move(req));
  }
  return stream;
}

void expect_same_traces(const client& a, const client& b) {
  for (std::uint32_t s = 0; s < a.eng().shard_count(); ++s) {
    const oram::access_trace* ta = a.eng().shard_trace(s);
    const oram::access_trace* tb = b.eng().shard_trace(s);
    ASSERT_NE(ta, nullptr);
    ASSERT_NE(tb, nullptr);
    ASSERT_EQ(ta->size(), tb->size()) << "shard " << s;
    for (std::size_t i = 0; i < ta->size(); ++i) {
      ASSERT_EQ(ta->events()[i].kind, tb->events()[i].kind)
          << "shard " << s << " event " << i;
      ASSERT_EQ(ta->events()[i].a, tb->events()[i].a)
          << "shard " << s << " event " << i;
      ASSERT_EQ(ta->events()[i].b, tb->events()[i].b)
          << "shard " << s << " event " << i;
    }
  }
}

/// coalescing(off) — the default — must be bit-for-bit the machine that
/// never heard of coalescing: identical results, stats, latency
/// histograms and per-shard bus traces across the whole grid; the
/// single-shard sim cells additionally check against a manually wired
/// bare controller (the historical, engine-free machine).
TEST_P(CoalesceOffGrid, OffIsBitForBitTheNonCoalescingMachine) {
  const auto build = [&](bool touch_setter) {
    client_builder builder = coalesce_builder(GetParam().shards, 73)
                                 .backend(GetParam().backend)
                                 .shuffle(GetParam().shuffle)
                                 .trace(true);
    if (GetParam().threaded) {
      builder.threads(GetParam().shards);
    }
    if (touch_setter) {
      builder.coalescing(false);
    }
    return builder.build();
  };
  client off = build(/*touch_setter=*/true);
  client untouched = build(/*touch_setter=*/false);
  EXPECT_FALSE(off.config().coalescing);

  const std::vector<request> stream = off_grid_stream(test::seed(74));
  std::vector<request_result> off_results;
  std::vector<request_result> untouched_results;
  off.run(stream, &off_results);
  untouched.run(stream, &untouched_results);

  ASSERT_EQ(off_results.size(), untouched_results.size());
  for (std::size_t i = 0; i < off_results.size(); ++i) {
    ASSERT_EQ(off_results[i].completion_time,
              untouched_results[i].completion_time)
        << "request " << i;
    ASSERT_EQ(off_results[i].hit, untouched_results[i].hit);
    ASSERT_EQ(off_results[i].read_data, untouched_results[i].read_data);
  }
  test::expect_stats_equal(off.stats(), untouched.stats());
  EXPECT_EQ(off.eng().router_stats().coalesced_requests, 0u);
  expect_same_traces(off, untouched);

  if (GetParam().shards == 1 && !GetParam().threaded) {
    // The engine-free reference: a bare controller wired exactly as the
    // pre-engine facade did it.
    sim::block_device storage{sim::hdd_paper()};
    sim::block_device memory{sim::dram_ddr4()};
    const sim::cpu_model cpu{sim::cpu_aesni()};
    util::pcg64 rng(test::seed(73));
    oram::access_trace trace;
    horam_config config;
    config.block_count = kBlocks;
    config.memory_blocks = kMemoryBlocks;
    config.payload_bytes = kPayload;
    config.shuffle = GetParam().shuffle;
    std::unique_ptr<oram_backend> backend =
        make_backend(GetParam().backend, config, storage, cpu, rng,
                     &trace, nullptr, &memory);
    controller bare(config, std::move(backend), memory, cpu, rng, &trace);
    std::vector<request_result> bare_results;
    bare.run(stream, &bare_results);
    ASSERT_EQ(bare_results.size(), off_results.size());
    for (std::size_t i = 0; i < bare_results.size(); ++i) {
      ASSERT_EQ(bare_results[i].completion_time,
                off_results[i].completion_time)
          << "request " << i;
      ASSERT_EQ(bare_results[i].read_data, off_results[i].read_data);
    }
    const oram::access_trace* off_trace = off.eng().shard_trace(0);
    ASSERT_NE(off_trace, nullptr);
    ASSERT_EQ(trace.size(), off_trace->size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
      ASSERT_EQ(trace.events()[i].kind, off_trace->events()[i].kind)
          << "event " << i;
      ASSERT_EQ(trace.events()[i].a, off_trace->events()[i].a);
      ASSERT_EQ(trace.events()[i].b, off_trace->events()[i].b);
    }
  }
}

// --------------------------- sim vs threaded parity with coalescing ON

TEST(CoalesceRuntimeParity, ThreadedMatchesSimBitForBit) {
  // The round tables are built by the coordinator before lane fan-out,
  // so the threaded runtime must replay the sim machine exactly —
  // results, stats, router counters and per-shard traces — with
  // coalescing on.
  // `threads` = 0 drives the sim machine.
  const auto drive = [](std::uint32_t threads,
                        std::vector<request_result>* results) {
    client_builder builder =
        coalesce_builder(4, 75).coalescing(true).trace(true);
    if (threads > 0) {
      builder.threads(threads);
    }
    client oram = builder.build();
    workload::stream_config wl;
    wl.request_count = 240;
    wl.block_count = kBlocks;
    wl.write_fraction = 0.3;
    wl.payload_bytes = kPayload;
    util::pcg64 gen(test::seed(76));
    const std::vector<request> stream =
        workload::hot_set(gen, wl, 0.8, 12);
    for (std::size_t base = 0; base < stream.size(); base += 40) {
      for (std::size_t i = base;
           i < std::min(base + 40, stream.size()); ++i) {
        oram.submit(stream[i]);
      }
      std::vector<request_result> chunk;
      oram.drain(&chunk);
      for (request_result& r : chunk) {
        results->push_back(std::move(r));
      }
    }
    return oram;
  };

  std::vector<request_result> sim_results;
  std::vector<request_result> threaded_results;
  client sim_machine = drive(0, &sim_results);
  client threaded_machine = drive(4, &threaded_results);

  ASSERT_EQ(sim_results.size(), threaded_results.size());
  for (std::size_t i = 0; i < sim_results.size(); ++i) {
    ASSERT_EQ(sim_results[i].completion_time,
              threaded_results[i].completion_time)
        << "request " << i;
    ASSERT_EQ(sim_results[i].hit, threaded_results[i].hit);
    ASSERT_EQ(sim_results[i].read_data, threaded_results[i].read_data);
  }
  EXPECT_EQ(sim_machine.now(), threaded_machine.now());
  EXPECT_EQ(sim_machine.stats().requests,
            threaded_machine.stats().requests);
  EXPECT_EQ(sim_machine.stats().hits, threaded_machine.stats().hits);
  const engine_stats& ra = sim_machine.eng().router_stats();
  const engine_stats& rb = threaded_machine.eng().router_stats();
  EXPECT_EQ(ra.physical_accesses, rb.physical_accesses);
  EXPECT_EQ(ra.coalesced_requests, rb.coalesced_requests);
  EXPECT_EQ(ra.pad_requests, rb.pad_requests);
  EXPECT_GT(ra.coalesced_requests, 0u);
  expect_same_traces(sim_machine, threaded_machine);
}

// ------------------------- multi-tenant fan-out and per-tenant FIFO

TEST(CoalesceService, OnePhysicalAccessRetiresTicketsAcrossTenants) {
  service svc = coalesce_builder(1, 77).coalescing(true).build_service();
  session alice = svc.open_session();
  session bob = svc.open_session();
  session carol = svc.open_session();

  constexpr block_id kHot = 42;
  ticket seed_write = alice.async_write(kHot, tagged(0x7e));
  svc.run_until_idle();
  (void)seed_write.result();
  svc.reset_stats();

  // Three tenants, one hot block, one scheduling window: the round
  // table must retire all three tickets with a single physical access.
  ticket ta = alice.async_read(kHot);
  ticket tb = bob.async_read(kHot);
  ticket tc = carol.async_read(kHot);
  svc.run_until_idle();
  EXPECT_EQ(ta.result().payload, tagged(0x7e));
  EXPECT_EQ(tb.result().payload, tagged(0x7e));
  EXPECT_EQ(tc.result().payload, tagged(0x7e));

  const engine_stats& router = svc.underlying().eng().router_stats();
  EXPECT_EQ(router.real_requests, 3u);
  EXPECT_EQ(router.physical_accesses, 1u);
  EXPECT_EQ(router.coalesced_requests, 2u);
  // Application-level stats count all three logical requests; the two
  // absorbed members are trusted-memory hits.
  EXPECT_EQ(svc.stats().requests, 3u);
  EXPECT_EQ(svc.stats().hits + svc.stats().misses, 3u);
  EXPECT_GE(svc.stats().hits, 2u);
}

TEST(CoalesceService, PerTenantCompletionOrderIsFifo) {
  service svc = coalesce_builder(1, 78).coalescing(true).build_service();
  std::vector<session> users;
  for (int u = 0; u < 3; ++u) {
    users.push_back(svc.open_session());
  }

  // Interleaved hot/private traffic: merges into earlier groups, new
  // groups after merges, cross-tenant sharing — the shapes that would
  // reorder completions without the order_hint frontier rule.
  util::pcg64 gen(test::seed(79));
  std::vector<std::vector<ticket>> tickets(users.size());
  for (int round = 0; round < 60; ++round) {
    for (std::size_t u = 0; u < users.size(); ++u) {
      const bool hot = util::bernoulli(gen, 0.6);
      const block_id id =
          hot ? util::uniform_below(gen, 4)
              : 16 + static_cast<block_id>(u) * 32 +
                    util::uniform_below(gen, 32);
      if (util::bernoulli(gen, 0.3)) {
        tickets[u].push_back(users[u].async_write(
            id, tagged(static_cast<std::uint8_t>(round))));
      } else {
        tickets[u].push_back(users[u].async_read(id));
      }
    }
  }
  svc.run_until_idle();

  for (std::size_t u = 0; u < users.size(); ++u) {
    sim::sim_time previous = 0;
    for (std::size_t i = 0; i < tickets[u].size(); ++i) {
      const ticket_result& r = tickets[u][i].result();
      EXPECT_GE(r.sim_time, previous)
          << "tenant " << u << " ticket " << i
          << " completed before its predecessor";
      previous = r.sim_time;
    }
  }
  EXPECT_GT(svc.underlying().eng().router_stats().coalesced_requests, 0u);
}

// -------------------------------------------------------- obliviousness

TEST(CoalesceObliviousness, RoundShapeStaysAtThePublicCap) {
  // Coalescing on implies padded rounds on every shard count, single
  // shard included: every round executes exactly round_cap() slots per
  // shard no matter how many requests merged, so each shard
  // controller's raw request count is rounds × round_cap().
  for (const std::uint32_t shards : {1u, 4u}) {
    client oram = coalesce_builder(shards, 80).coalescing(true).build();
    workload::stream_config wl;
    wl.request_count = 300;
    wl.block_count = kBlocks;
    util::pcg64 gen(test::seed(81));
    const std::vector<request> stream = workload::zipfian(gen, wl, 1.1);
    for (std::size_t base = 0; base < stream.size(); base += 30) {
      for (std::size_t i = base;
           i < std::min(base + 30, stream.size()); ++i) {
        oram.submit(stream[i]);
      }
      oram.drain(nullptr);
    }

    const std::uint32_t cap = oram.eng().round_cap();
    ASSERT_GT(cap, 0u);
    const std::uint64_t rounds = oram.eng().router_stats().rounds;
    ASSERT_GT(rounds, 0u) << shards << " shards";
    ASSERT_EQ(oram.eng().shard_count(), shards);
    for (std::uint32_t s = 0; s < shards; ++s) {
      EXPECT_EQ(oram.eng().shard(s).stats().requests, rounds * cap)
          << "shard " << s;
    }
    EXPECT_GT(oram.eng().router_stats().coalesced_requests, 0u);
  }
}

TEST(CoalesceObliviousness, RingHotSetCollapsesToOneAccessPerRound) {
  // Coalescing composes with the ring backend: a batch hammering one
  // block retires through a single physical access (one one-slot-per-
  // bucket path read serves every member), while the bus shape stays
  // pinned at the public round cap — the adversary sees identical
  // padded rounds whether 1 or 12 requests merged.
  client oram = coalesce_builder(1, 91)
                    .backend(backend_kind::ring)
                    .coalescing(true)
                    .trace(true)
                    .build();
  constexpr std::uint64_t kRounds = 20;
  constexpr std::uint64_t kBatch = 12;
  for (std::uint64_t round = 0; round < kRounds; ++round) {
    const block_id hot = static_cast<block_id>(round % 4);
    for (std::uint64_t i = 0; i < kBatch; ++i) {
      oram.submit(read_of(hot));
    }
    oram.drain(nullptr);
  }

  const engine_stats& router = oram.eng().router_stats();
  EXPECT_EQ(router.real_requests, kRounds * kBatch);
  EXPECT_EQ(router.physical_accesses, kRounds)
      << "each duplicate batch must collapse to one access";
  EXPECT_EQ(router.coalesced_requests, kRounds * (kBatch - 1));

  const std::uint32_t cap = oram.eng().round_cap();
  ASSERT_GT(cap, 0u);
  ASSERT_GT(router.rounds, 0u);
  EXPECT_EQ(oram.eng().shard(0).stats().requests, router.rounds * cap);
  ASSERT_NO_THROW(oram.eng().shard(0).backend().check_consistency());
}

TEST(CoalesceObliviousness, SkewIsInvisibleOnPerShardBusTraces) {
  // Zipfian ~1.1 vs uniform of the same length through two identically
  // configured coalescing machines: the per-shard storage position
  // streams must be draws from one distribution (two-sample KS +
  // chi-square homogeneity), even though the zipfian run coalesces
  // heavily and the uniform one barely at all.
  client skewed = coalesce_builder(4, 82).coalescing(true).trace(true).build();
  client flat = coalesce_builder(4, 82).coalescing(true).trace(true).build();
  const auto drive = [](client& oram, bool zipf, std::uint64_t seed) {
    workload::stream_config wl;
    wl.request_count = 2400;
    wl.block_count = kBlocks;
    util::pcg64 gen(seed);
    const std::vector<request> stream =
        zipf ? workload::zipfian(gen, wl, 1.1) : workload::uniform(gen, wl);
    for (std::size_t base = 0; base < stream.size(); base += 60) {
      for (std::size_t i = base;
           i < std::min(base + 60, stream.size()); ++i) {
        oram.submit(stream[i]);
      }
      oram.drain(nullptr);
    }
  };
  drive(skewed, /*zipf=*/true, test::seed(83));
  drive(flat, /*zipf=*/false, test::seed(84));
  EXPECT_GT(skewed.eng().router_stats().coalesced_requests,
            2 * flat.eng().router_stats().coalesced_requests);

  for (std::uint32_t s = 0; s < 4; ++s) {
    const oram::access_trace* trace_a = skewed.eng().shard_trace(s);
    const oram::access_trace* trace_b = flat.eng().shard_trace(s);
    ASSERT_NE(trace_a, nullptr);
    ASSERT_NE(trace_b, nullptr);
    const std::vector<std::uint64_t> pos_a =
        analysis::storage_read_positions(*trace_a);
    const std::vector<std::uint64_t> pos_b =
        analysis::storage_read_positions(*trace_b);
    ASSERT_GT(pos_a.size(), 100u) << "shard " << s;
    ASSERT_GT(pos_b.size(), 100u) << "shard " << s;
    const storage::partition_geometry& geometry =
        skewed.eng().shard(s).storage().geometry();
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

// ---------------------------------------------------------------- stats

TEST(CoalesceStats, CountersSatisfyTheCoalescingIdentities) {
  client oram = coalesce_builder(1, 85).coalescing(true).build();
  workload::stream_config wl;
  wl.request_count = 200;
  wl.block_count = kBlocks;
  wl.write_fraction = 0.25;
  wl.payload_bytes = kPayload;
  util::pcg64 gen(test::seed(86));
  const std::vector<request> stream = workload::hot_set(gen, wl, 0.9, 8);
  for (std::size_t base = 0; base < stream.size(); base += 25) {
    for (std::size_t i = base; i < std::min(base + 25, stream.size());
         ++i) {
      oram.submit(stream[i]);
    }
    oram.drain(nullptr);
  }

  const engine_stats& router = oram.eng().router_stats();
  EXPECT_EQ(router.real_requests, wl.request_count);
  EXPECT_GT(router.coalesced_requests, 0u);
  EXPECT_LT(router.physical_accesses, router.real_requests);
  EXPECT_EQ(router.physical_accesses + router.coalesced_requests,
            router.real_requests);
  EXPECT_DOUBLE_EQ(router.ios_per_logical_request(),
                   static_cast<double>(router.physical_accesses) /
                       static_cast<double>(router.real_requests));
  EXPECT_LT(router.ios_per_logical_request(), 1.0);

  // Application-level aggregation: every logical request counts, and
  // the absorbed members come back as trusted-memory hits.
  const controller_stats& total = oram.stats();
  EXPECT_EQ(total.requests, wl.request_count);
  EXPECT_EQ(total.hits + total.misses, wl.request_count);
}

TEST(CoalesceStats, OffKeepsPhysicalEqualToLogical) {
  client oram = coalesce_builder(4, 87).build();
  util::pcg64 gen(test::seed(88));
  std::vector<request> stream(120);
  for (request& req : stream) {
    req.id = util::uniform_below(gen, 16);  // duplicates, never merged
  }
  oram.run(stream);
  const engine_stats& router = oram.eng().router_stats();
  EXPECT_EQ(router.real_requests, 120u);
  EXPECT_EQ(router.physical_accesses, 120u);
  EXPECT_EQ(router.coalesced_requests, 0u);
  EXPECT_DOUBLE_EQ(router.ios_per_logical_request(), 1.0);
}

TEST(CoalesceStats, ResetStatsClearsTheCoalescerCounters) {
  client oram = coalesce_builder(4, 89).coalescing(true).build();
  for (block_id id = 0; id < 8; ++id) {
    oram.submit(read_of(id % 2));  // heavy duplication
  }
  oram.drain(nullptr);
  ASSERT_GT(oram.eng().router_stats().coalesced_requests, 0u);

  oram.reset_stats();
  EXPECT_EQ(oram.eng().router_stats().physical_accesses, 0u);
  EXPECT_EQ(oram.eng().router_stats().coalesced_requests, 0u);
  EXPECT_EQ(oram.eng().router_stats().real_requests, 0u);
  EXPECT_DOUBLE_EQ(oram.eng().router_stats().ios_per_logical_request(),
                   0.0);

  // Queue-state accounting must survive the reset: pending slots keep
  // feeding the scheduler pump afterwards.
  oram.submit(read_of(1));
  oram.submit(read_of(1));
  EXPECT_EQ(oram.eng().pending_slots(), 1u);
  oram.drain(nullptr);
  EXPECT_EQ(oram.eng().pending_slots(), 0u);
  EXPECT_EQ(oram.eng().router_stats().real_requests, 2u);
  EXPECT_EQ(oram.eng().router_stats().physical_accesses, 1u);
}

TEST(CoalesceStats, PendingSlotsCountDistinctBlocks) {
  client on = coalesce_builder(4, 90).coalescing(true).build();
  client off = coalesce_builder(4, 90).build();
  for (const block_id id : {5u, 5u, 5u, 9u, 9u, 13u}) {
    on.submit(read_of(id));
    off.submit(read_of(id));
  }
  EXPECT_EQ(on.eng().pending(), 6u);
  EXPECT_EQ(on.eng().pending_slots(), 3u);  // three distinct blocks
  EXPECT_EQ(off.eng().pending_slots(), 6u);  // off: slots == requests
  on.drain(nullptr);
  off.drain(nullptr);
  EXPECT_EQ(on.eng().pending_slots(), 0u);
}

// ------------------------------------------------- builder diagnostics

// The bool setters take a bool but no string: a literal such as "off"
// would otherwise decay to pointer-to-bool and silently read as true.
template <typename T>
concept coalescing_takes =
    requires(client_builder b, T v) { b.coalescing(v); };
template <typename T>
concept ring_xor_takes = requires(client_builder b, T v) { b.ring_xor(v); };
template <typename T>
concept map_on_storage_takes =
    requires(client_builder b, T v) { b.map_on_storage(v); };
static_assert(coalescing_takes<bool> && ring_xor_takes<bool> &&
              map_on_storage_takes<bool>);
static_assert(!coalescing_takes<const char*> &&
              !ring_xor_takes<const char*> &&
              !map_on_storage_takes<const char*>);

}  // namespace
}  // namespace horam

// Tests for the Ring ORAM tree: extract/install correctness under a
// shadow oracle, the unread-dummy invariant behind the one-slot-per-
// bucket reads, early reshuffles, deterministic evictions, the XOR
// read mode's bit-for-bit agreement with per-slot reads, and bulk
// initialisation — plus backend-level builder knobs through the public
// facade. The backend's map agreement and drain bounds are shared with
// Path ORAM (backend_conformance_test, TreeBackendDetail).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "backend_test_access.h"
#include "horam.h"
#include "oram/ring/ring_oram.h"
#include "test_support.h"

namespace horam::oram {
namespace {

struct fixture {
  sim::block_device device{sim::dram_ddr4()};
  sim::cpu_model cpu{sim::cpu_aesni()};
  util::pcg64 rng{test::seed(301)};
  access_trace trace;

  /// Deliberately tight defaults (S = 3, A = 4) so short tests still
  /// cross early reshuffles and scheduled evictions.
  ring_oram_config config(std::uint64_t leaves, std::uint32_t z = 4,
                          std::uint32_t s = 3, std::uint32_t a = 4) const {
    ring_oram_config c;
    c.leaf_count = leaves;
    c.real_slots = z;
    c.spare_slots = s;
    c.eviction_rate = a;
    c.payload_bytes = 16;
    c.id_universe = 1024;
    c.seal = true;
    return c;
  }
};

std::vector<std::uint8_t> payload_of(std::uint8_t tag) {
  return std::vector<std::uint8_t>(16, tag);
}

/// Whether the tree holds `id` (in a slot or the stash).
bool holds(const ring_oram& oram, block_id id) {
  return ring_oram_test_access::leaf_of(oram, id).has_value();
}

/// extract() of a block the tree holds, under the leaf it holds it at:
/// the test stands in for the caller's map.
void extract(ring_oram& oram, block_id id, std::span<std::uint8_t> out) {
  const std::optional<leaf_id> leaf = ring_oram_test_access::leaf_of(oram, id);
  ASSERT_TRUE(leaf.has_value()) << "block " << id << " is not resident";
  oram.extract(id, *leaf, out);
}

TEST(RingOram, Geometry) {
  fixture fx;
  ring_oram oram(fx.config(16), fx.device, fx.cpu, fx.rng, nullptr);
  EXPECT_EQ(oram.level_count(), 5u);        // log2(16) + 1
  EXPECT_EQ(oram.bucket_count(), 31u);      // 2*16 - 1
  EXPECT_EQ(oram.slots_per_bucket(), 7u);   // Z + S = 4 + 3
  EXPECT_EQ(oram.capacity_blocks(), 124u);  // 31 * Z
  EXPECT_EQ(oram.total_slots(), 217u);      // 31 * 7
  EXPECT_EQ(oram.resident_blocks(), 0u);
  EXPECT_NO_THROW(oram.check_consistency());
}

TEST(RingOram, RejectsNonPowerOfTwoLeaves) {
  fixture fx;
  EXPECT_THROW(
      ring_oram(fx.config(48), fx.device, fx.cpu, fx.rng, nullptr),
      contract_error);
}

TEST(RingOram, InstallThenExtractRoundTrips) {
  fixture fx;
  ring_oram oram(fx.config(16), fx.device, fx.cpu, fx.rng, nullptr);
  oram.install(9, payload_of(0x77));
  EXPECT_TRUE(holds(oram, 9));
  EXPECT_EQ(oram.resident_blocks(), 1u);
  EXPECT_THROW(oram.install(9, payload_of(1)), contract_error);

  std::vector<std::uint8_t> out(16);
  extract(oram, 9, out);
  EXPECT_EQ(out, payload_of(0x77));
  EXPECT_FALSE(holds(oram, 9));
  EXPECT_EQ(oram.resident_blocks(), 0u);
  // The trusted bucket records refuse a block the tree does not hold.
  EXPECT_THROW(oram.extract(9, 0, out), contract_error);
  EXPECT_NO_THROW(oram.check_consistency());
}

// A refused extract is caught from trusted memory before any draw or
// bus work: a block the tree does not hold, a sheltering block under
// another leaf, and a slot-resident block under a leaf whose path misses
// its bucket leave the trace, the counters and the tree as they were.
TEST(RingOram, RefusedExtractLeavesNoTrace) {
  fixture fx;
  ring_oram oram(fx.config(16), fx.device, fx.cpu, fx.rng, &fx.trace);
  for (block_id id = 0; id < 24; ++id) {
    oram.install(id, payload_of(static_cast<std::uint8_t>(id + 1)));
  }
  oram.force_evict(16);
  oram.install(30, payload_of(0x30));  // shelters in the stash
  const auto slots = ring_oram_test_access::slot_metadata(oram);
  const std::uint32_t spb = oram.slots_per_bucket();
  const auto below_root =
      std::find_if(slots.begin() + spb, slots.end(), [](const auto& slot) {
        return slot.first != dummy_block_id;
      });
  ASSERT_NE(below_root, slots.end());
  const block_id placed = below_root->first;
  const leaf_id placed_leaf = *ring_oram_test_access::leaf_of(oram, placed);
  const leaf_id stash_leaf = *ring_oram_test_access::leaf_of(oram, 30);

  const std::size_t events = fx.trace.size();
  const tree_stats before = oram.stats();
  std::vector<std::uint8_t> out(16);
  EXPECT_THROW(oram.extract(900, 0, out), contract_error);
  EXPECT_THROW(oram.extract(30, stash_leaf ^ 1, out), contract_error);
  // Differs at level 1: the paths share the root bucket alone.
  EXPECT_THROW(oram.extract(placed, placed_leaf ^ 8, out), contract_error);
  EXPECT_EQ(fx.trace.size(), events);
  EXPECT_EQ(oram.stats().real_accesses, before.real_accesses);
  EXPECT_EQ(oram.resident_blocks(), 25u);
  EXPECT_EQ(ring_oram_test_access::slot_metadata(oram), slots);
  EXPECT_NO_THROW(oram.check_consistency());
  oram.extract(placed, placed_leaf, out);
  EXPECT_EQ(out, payload_of(static_cast<std::uint8_t>(placed + 1)));
}

// A freshly installed block shelters in the stash; extracting it must
// serve from trusted memory under an all-dummy cover path read, and the
// eviction that read owes must not find it.
TEST(RingOram, ExtractFromStashSurvivesScheduledEviction) {
  fixture fx;
  // A = 1: every path read owes an eviction, run right after it; one
  // that could still see the extracted target would sweep it back in.
  ring_oram oram(fx.config(16, 4, 3, 1), fx.device, fx.cpu, fx.rng,
                 nullptr);
  for (int round = 0; round < 32; ++round) {
    const block_id id = static_cast<block_id>(round);
    oram.install(id, payload_of(static_cast<std::uint8_t>(round + 1)));
    std::vector<std::uint8_t> out(16);
    extract(oram, id, out);
    EXPECT_EQ(oram.evictions_owed(), 1u);
    oram.evict_owed();
    EXPECT_EQ(oram.evictions_owed(), 0u);
    EXPECT_EQ(out, payload_of(static_cast<std::uint8_t>(round + 1)));
    EXPECT_FALSE(holds(oram, id));
  }
  EXPECT_EQ(oram.stats().evictions, 32u);
  EXPECT_NO_THROW(oram.check_consistency());
}

// Online accesses never evict: every A-th one owes an eviction, and
// evict_owed() runs all that are owed as one union of the next
// reverse-lexicographic paths, in one round trip.
TEST(RingOram, AccessesOweEvictionsThatRunAsOneUnion) {
  fixture fx;
  ring_oram oram(fx.config(16, 4, 25, 3), fx.device, fx.cpu, fx.rng,
                 &fx.trace);
  oram.initialize_full(40, [](block_id id, std::span<std::uint8_t> out) {
    out[0] = static_cast<std::uint8_t>(id);
  });
  std::vector<std::uint8_t> out(16);
  for (int i = 0; i < 7; ++i) {
    oram.dummy_access();
  }
  extract(oram, 5, out);
  extract(oram, 6, out);
  EXPECT_EQ(oram.stats().evictions, 0u);
  EXPECT_EQ(oram.evictions_owed(), 3u);  // 9 accesses at A = 3

  // The next three reverse-lexicographic leaves (counters 0, 1, 2 of
  // 16 leaves, bit-reversed over 4 bits): 0, 8 and 4.
  ASSERT_EQ(ring_oram_test_access::next_eviction_leaf(oram), 0u);
  std::set<std::uint64_t> expected;
  for (const leaf_id leaf : {0u, 8u, 4u}) {
    for (std::uint32_t level = 0; level < oram.level_count(); ++level) {
      expected.insert(ring_oram_test_access::bucket_on_path(oram, leaf, level));
    }
  }
  const sim::io_stats before = fx.device.stats();
  fx.trace.clear();
  oram.evict_owed();
  EXPECT_EQ(oram.evictions_owed(), 0u);
  EXPECT_EQ(oram.stats().evictions, 3u);
  EXPECT_EQ(fx.device.stats().round_trips - before.round_trips, 1u);
  // Each bucket of the union is written once.
  std::vector<std::uint64_t> written;
  for (const trace_event& event : fx.trace.events()) {
    if (event.kind == event_kind::storage_write_sweep) {
      written.push_back(event.a / oram.slots_per_bucket());
    }
  }
  EXPECT_EQ(written.size(), expected.size());
  EXPECT_EQ(std::set<std::uint64_t>(written.begin(), written.end()),
            expected);

  const sim::io_stats after = fx.device.stats();
  oram.evict_owed();  // nothing owed: no I/O
  EXPECT_EQ(fx.device.stats().round_trips, after.round_trips);
  EXPECT_EQ(oram.stats().evictions, 3u);
  EXPECT_NO_THROW(oram.check_consistency());
}

TEST(RingOram, ShadowDifferentialUnderReshufflesAndEvictions) {
  // Extract-verify-reinstall cycles against a shadow map, with tight
  // S and A so the run crosses many early reshuffles and scheduled
  // evictions; every extract must return the latest installed payload.
  fixture fx;
  ring_oram oram(fx.config(16), fx.device, fx.cpu, fx.rng, nullptr);
  std::map<block_id, std::vector<std::uint8_t>> shadow;
  util::pcg64 driver(test::seed(303));
  for (block_id id = 0; id < 60; ++id) {
    auto data = payload_of(static_cast<std::uint8_t>(id));
    oram.install(id, data);
    shadow[id] = std::move(data);
  }
  std::vector<std::uint8_t> out(16);
  for (int step = 0; step < 1500; ++step) {
    // Owed evictions run every few steps, as unions of one or more
    // paths.
    if (step % 5 == 4) {
      oram.evict_owed();
    }
    if (util::bernoulli(driver, 0.2)) {
      oram.dummy_access();
      continue;
    }
    const block_id id = util::uniform_below(driver, 60);
    extract(oram, id, out);
    ASSERT_EQ(out, shadow[id]) << "step " << step << " id " << id;
    auto data = payload_of(static_cast<std::uint8_t>(step));
    data[1] = static_cast<std::uint8_t>(id);
    oram.install(id, data);
    shadow[id] = std::move(data);
  }
  EXPECT_GT(oram.stats().early_reshuffles, 0u);
  EXPECT_GT(oram.stats().evictions, 0u);
  EXPECT_NO_THROW(oram.check_consistency());
}

TEST(RingOram, XorOffMatchesXorOnByteForByte) {
  // The XOR mode changes only what crosses the bus, not which slots
  // are chosen or what the client recovers: two trees driven by
  // identically seeded randomness must produce identical payloads and
  // identical traces, with the XOR tree issuing far fewer device reads.
  fixture fx;
  sim::block_device device_a{sim::dram_ddr4()};
  sim::block_device device_b{sim::dram_ddr4()};
  util::pcg64 rng_a{test::seed(305)};
  util::pcg64 rng_b{test::seed(305)};
  access_trace trace_a;
  access_trace trace_b;
  // Roomier S and A than the fixture default: range sweeps (reshuffles
  // and evictions) cost the same in both modes, so keeping them rare
  // preserves the online read-op contrast the last assertion checks.
  ring_oram_config config_on = fx.config(16, 4, 10, 8);
  config_on.xor_reads = true;
  ring_oram_config config_off = config_on;
  config_off.xor_reads = false;

  ring_oram with_xor(config_on, device_a, fx.cpu, rng_a, &trace_a);
  ring_oram without(config_off, device_b, fx.cpu, rng_b, &trace_b);

  util::pcg64 driver(test::seed(307));
  std::vector<std::uint8_t> out_a(16);
  std::vector<std::uint8_t> out_b(16);
  for (block_id id = 0; id < 40; ++id) {
    const auto data = payload_of(static_cast<std::uint8_t>(id + 1));
    with_xor.install(id, data);
    without.install(id, data);
  }
  for (int step = 0; step < 400; ++step) {
    const block_id id = util::uniform_below(driver, 40);
    if (holds(with_xor, id)) {
      extract(with_xor, id, out_a);
      extract(without, id, out_b);
      ASSERT_EQ(out_a, out_b) << "step " << step;
      with_xor.install(id, out_a);
      without.install(id, out_b);
    } else {
      with_xor.dummy_access();
      without.dummy_access();
    }
  }

  ASSERT_EQ(trace_a.size(), trace_b.size());
  for (std::size_t i = 0; i < trace_a.size(); ++i) {
    ASSERT_EQ(trace_a.events()[i].kind, trace_b.events()[i].kind)
        << "event " << i;
    ASSERT_EQ(trace_a.events()[i].a, trace_b.events()[i].a);
    ASSERT_EQ(trace_a.events()[i].b, trace_b.events()[i].b);
  }
  // Each online path read costs 1 op combined vs level_count ops split.
  EXPECT_LT(device_a.stats().read_ops, device_b.stats().read_ops / 2);
  EXPECT_NO_THROW(with_xor.check_consistency());
  EXPECT_NO_THROW(without.check_consistency());
}

TEST(RingOram, DummyAndRealAccessesShareBusShape) {
  // With S and A large enough that neither schedule fires, a real
  // extract and a dummy access emit exactly the same event shape: one
  // path access plus one slot read per level.
  fixture fx;
  ring_oram oram(fx.config(16, 4, 100, 100000), fx.device, fx.cpu, fx.rng,
                 &fx.trace);
  oram.install(5, payload_of(5));
  oram.force_evict();  // place it in the tree so the extract reads a slot

  const auto shape_of = [&](auto&& action) {
    fx.trace.clear();
    action();
    std::map<event_kind, int> shape;
    for (const trace_event& event : fx.trace.events()) {
      ++shape[event.kind];
    }
    return shape;
  };
  std::vector<std::uint8_t> out(16);
  const auto real = shape_of([&] { extract(oram, 5, out); });
  const auto dummy = shape_of([&] { oram.dummy_access(); });
  EXPECT_EQ(real, dummy);
  ASSERT_EQ(real.size(), 2u);
  EXPECT_EQ(real.at(event_kind::memory_path_access), 1);
  EXPECT_EQ(real.at(event_kind::storage_read_slot),
            static_cast<int>(oram.level_count()));
}

TEST(RingOram, TightSpareBudgetForcesEarlyReshuffles) {
  // S = 2 exhausts a bucket's dummies after two touches; the reshuffle
  // must re-arm every bucket before its spares run dry (the audit
  // rejects any bucket resting at read_count >= S).
  fixture fx;
  ring_oram oram(fx.config(8, 4, 2, 100000), fx.device, fx.cpu, fx.rng,
                 nullptr);
  for (int i = 0; i < 300; ++i) {
    oram.dummy_access();
  }
  EXPECT_GT(oram.stats().early_reshuffles, 0u);
  EXPECT_NO_THROW(oram.check_consistency());
}

TEST(RingOram, ForceEvictDrainsTheStash) {
  fixture fx;
  ring_oram oram(fx.config(16, 4, 25, 100000), fx.device, fx.cpu, fx.rng,
                 nullptr);
  for (block_id id = 0; id < 48; ++id) {
    oram.install(id, payload_of(static_cast<std::uint8_t>(id)));
  }
  EXPECT_EQ(oram.stash_ref().size(), 48u);
  for (int i = 0; i < 32; ++i) {
    oram.force_evict();
  }
  // Two reverse-lex sweeps of 16 leaves place everything that fits.
  EXPECT_LE(oram.stash_ref().size(), 2u * 4u);
  EXPECT_EQ(oram.resident_blocks(), 48u);  // residency is unchanged
  EXPECT_NO_THROW(oram.check_consistency());
}

TEST(RingOram, UnionDrainStashStaysBounded) {
  // Evicting the same paths one at a time is one way to place blocks
  // into the buckets of their union. The union pass fills the union
  // greedily, deepest level first: the blocks eligible at a bucket
  // share its remaining ancestors, so no placement keeps more blocks
  // out of the stash. From one pre-drain state, a union drain may
  // never leave a larger stash than the path-at-a-time drain, and both
  // must hold the same blocks with the same payloads.
  struct shape {
    std::uint64_t leaves;
    std::uint32_t z;
    std::uint32_t s;
    std::uint32_t a;
    std::uint64_t blocks;  // bulk-built, then `moved` re-installed
    std::uint64_t moved;
  };
  const shape shapes[] = {{16, 2, 5, 3, 24, 12},        // the golden shape
                          {64, 16, 25, 20, 1000, 300}};  // the default
  struct ring_run {
    sim::block_device device{sim::dram_ddr4()};
    sim::cpu_model cpu{sim::cpu_aesni()};
    util::pcg64 rng;
    ring_oram oram;
    ring_run(const ring_oram_config& config, std::uint64_t seed)
        : rng(seed), oram(config, device, cpu, rng, nullptr) {}

    /// Bulk build, then `moved` extracts (online reads, reshuffles and
    /// scheduled evictions) whose blocks are installed back into the
    /// stash under fresh leaves.
    void prepare(const shape& sh, std::uint64_t seed) {
      oram.initialize_full(sh.blocks,
                           [](block_id id, std::span<std::uint8_t> out) {
                             out[0] = static_cast<std::uint8_t>(id);
                             out[1] = static_cast<std::uint8_t>(id >> 8);
                           });
      util::pcg64 driver(seed);
      std::vector<block_id> ids(sh.blocks);
      for (block_id id = 0; id < sh.blocks; ++id) {
        ids[id] = id;
      }
      std::vector<std::uint8_t> out(16);
      for (std::uint64_t i = 0; i < sh.moved; ++i) {
        std::swap(ids[i], ids[i + util::uniform_below(driver, sh.blocks - i)]);
        extract(oram, ids[i], out);
        out[2] = static_cast<std::uint8_t>(i);
        oram.install(ids[i], out);
      }
    }
    std::map<block_id, std::vector<std::uint8_t>> residents() const {
      std::map<block_id, std::vector<std::uint8_t>> out;
      oram.for_each_resident(
          [&](block_id id, leaf_id, std::span<const std::uint8_t> payload) {
            out[id].assign(payload.begin(), payload.end());
          });
      return out;
    }
  };

  fixture fx;
  for (const shape& sh : shapes) {
    ring_oram_config config = fx.config(sh.leaves, sh.z, sh.s, sh.a);
    config.id_universe = sh.blocks;
    for (std::uint64_t round = 0; round < 20; ++round) {
      const std::uint64_t seed = test::seed(311 + round);
      for (int variant = 0; variant < 3; ++variant) {
        ring_run by_union(config, seed);
        ring_run by_path(config, seed);
        // Two paths, one path per level, and a shuffle drain's budget.
        const std::uint64_t levels = by_union.oram.level_count();
        const std::uint64_t count =
            variant == 0   ? 2
            : variant == 1 ? levels
                           : (sh.moved + sh.a - 1) / sh.a;
        by_union.prepare(sh, seed ^ 0x5eed);
        by_path.prepare(sh, seed ^ 0x5eed);
        ASSERT_EQ(by_union.oram.stash_ref().size(),
                  by_path.oram.stash_ref().size());
        ASSERT_GT(by_union.oram.stash_ref().size(), 0u);

        by_union.oram.force_evict(count);
        for (std::uint64_t i = 0; i < count; ++i) {
          by_path.oram.force_evict();
        }
        EXPECT_EQ(by_union.oram.stats().evictions,
                  by_path.oram.stats().evictions);
        EXPECT_LE(by_union.oram.stash_ref().size(),
                  by_path.oram.stash_ref().size())
            << "Z = " << sh.z << ", round " << round << ", count " << count;
        ASSERT_NO_THROW(by_union.oram.check_consistency());
        ASSERT_NO_THROW(by_path.oram.check_consistency());
        EXPECT_EQ(by_union.residents(), by_path.residents());
      }
    }
  }
}

TEST(RingOram, EvictionWiderThanTheTreeTouchesEachBucketOnce) {
  // An eviction of 3 x leaf_count paths names every leaf three times;
  // its union is still the whole tree, each bucket read once as Z
  // ascending slot reads (root level first, ascending) and written in
  // one sweep (deepest level first, ascending within a level).
  fixture fx;
  ring_oram oram(fx.config(16, 2, 5, 3), fx.device, fx.cpu, fx.rng,
                 &fx.trace);
  for (block_id id = 0; id < 24; ++id) {
    oram.install(id, payload_of(static_cast<std::uint8_t>(id)));
  }
  const std::uint64_t count = 3 * oram.config().leaf_count;
  const std::uint64_t evictions = oram.stats().evictions;
  fx.trace.clear();
  oram.force_evict(count);
  EXPECT_EQ(oram.stats().evictions, evictions + count);

  const std::uint64_t spb = oram.slots_per_bucket();
  const std::uint64_t z = oram.config().real_slots;
  ASSERT_EQ(fx.trace.size(), oram.bucket_count() * (z + 1));
  std::size_t at = 0;
  for (std::uint64_t bucket = 0; bucket < oram.bucket_count(); ++bucket) {
    for (std::uint64_t i = 0; i < z; ++i, ++at) {
      const trace_event& event = fx.trace.events()[at];
      EXPECT_EQ(event.kind, event_kind::storage_read_slot) << "event " << at;
      EXPECT_EQ(event.a / spb, bucket) << "event " << at;
      EXPECT_TRUE(i == 0 || fx.trace.events()[at - 1].a < event.a)
          << "event " << at;
    }
  }
  for (std::uint32_t level = oram.level_count(); level-- > 0;) {
    const std::uint64_t first = (std::uint64_t{1} << level) - 1;
    for (std::uint64_t bucket = first; bucket < 2 * first + 1; ++bucket) {
      const trace_event& event = fx.trace.events()[at];
      EXPECT_EQ(event.kind, event_kind::storage_write_sweep) << "event " << at;
      EXPECT_EQ(event.a, bucket * spb) << "event " << at;
      EXPECT_EQ(event.b, spb) << "event " << at;
      ++at;
    }
  }
  EXPECT_EQ(oram.resident_blocks(), 24u);
  EXPECT_NO_THROW(oram.check_consistency());
}

// Ring ORAM's ReadBucket: every eviction, drain and early reshuffle
// reads exactly Z slots of each bucket it rewrites — every remaining
// real plus unread dummies, each slot unread before the read — as one
// device read of Z logical blocks per bucket. The op count and round
// trips are those of a whole-bucket read: one read and one write per
// union bucket, one round trip per eviction.
TEST(RingOram, BucketReadsAreZUnreadSlotsWithEveryReal) {
  fixture fx;
  // S < A, so the root and its children run out of spares between
  // evictions and reshuffle early.
  ring_oram oram(fx.config(64, 4, 3, 5), fx.device, fx.cpu, fx.rng,
                 &fx.trace);
  const std::uint32_t z = oram.config().real_slots;
  const std::uint64_t block =
      ring_oram_test_access::store(oram).logical_block_bytes();
  std::vector<block_id> residents;
  oram.initialize_full(220, [](block_id id, std::span<std::uint8_t> out) {
    out[0] = static_cast<std::uint8_t>(id);
  });
  for (block_id id = 0; id < 220; ++id) {
    residents.push_back(id);
  }

  util::pcg64 gen{test::seed(307)};
  std::vector<std::uint8_t> out(16);
  std::map<std::uint64_t, std::uint64_t> drains;  // paths -> count
  std::uint64_t reads = 0;
  std::uint64_t with_reals = 0;
  std::uint64_t reshuffles = 0;
  std::uint64_t owed = 0;
  for (int step = 0; step < 1500; ++step) {
    auto slots = ring_oram_test_access::slot_metadata(oram);
    const sim::io_stats io = fx.device.stats();
    const std::uint64_t evictions = oram.stats().evictions;
    fx.trace.clear();
    const std::uint64_t choice = util::uniform_below(gen, 10);
    std::uint64_t drain = 0;
    if (choice < 6) {
      // An online read of a resident, returned to the stash.
      const std::size_t i = util::uniform_below(gen, residents.size());
      extract(oram, residents[i], out);
      oram.install(residents[i], out);
    } else if (choice < 7) {
      oram.dummy_access();
    } else if (choice < 8) {
      // The evictions the online reads owe, as one union.
      owed += oram.evictions_owed();
      oram.evict_owed();
    } else {
      constexpr std::uint64_t counts[] = {1, 8, 13};
      drain = counts[util::uniform_below(gen, 3)];
      oram.force_evict(drain);
      ++drains[drain];
    }

    const auto bucket_reads = ring_oram_test_access::bucket_reads(
        oram, std::move(slots), fx.trace.events());
    for (const auto& read : bucket_reads) {
      ++reads;
      ASSERT_EQ(read.offsets.size(), z) << "step " << step;
      for (std::size_t i = 0; i < read.offsets.size(); ++i) {
        const std::uint32_t k = read.offsets[i];
        EXPECT_TRUE(i == 0 || read.offsets[i - 1] < k) << "step " << step;
        EXPECT_EQ(std::count(read.consumed_offsets.begin(),
                             read.consumed_offsets.end(), k),
                  0)
            << "step " << step << ": slot " << k << " read twice";
      }
      if (read.reals_known) {
        ++with_reals;
        for (const std::uint32_t k : read.real_offsets) {
          EXPECT_EQ(std::count(read.offsets.begin(), read.offsets.end(), k),
                    1)
              << "step " << step << ": real at slot " << k << " left unread";
        }
      }
      reshuffles += read.reshuffle ? 1 : 0;
    }

    if (drain > 0) {
      // The union's buckets: each read once and written once.
      const std::uint64_t buckets = bucket_reads.size();
      std::set<std::uint64_t> distinct;
      for (const auto& read : bucket_reads) {
        distinct.insert(read.bucket);
      }
      EXPECT_EQ(distinct.size(), buckets);
      EXPECT_EQ(oram.stats().evictions, evictions + drain);
      const sim::io_stats& now = fx.device.stats();
      EXPECT_EQ(now.read_ops - io.read_ops, buckets);
      EXPECT_EQ(now.write_ops - io.write_ops, buckets);
      EXPECT_EQ(now.round_trips - io.round_trips, 1u);
      EXPECT_EQ(now.bytes_read - io.bytes_read, buckets * z * block);
      EXPECT_EQ(now.bytes_written - io.bytes_written,
                buckets * oram.slots_per_bucket() * block);
    }
  }
  EXPECT_GT(drains[1], 0u);
  EXPECT_GT(drains[8], 0u);
  EXPECT_GT(drains[13], 0u);
  EXPECT_GT(owed, 0u);
  EXPECT_EQ(oram.stats().evictions,
            owed + drains[1] + 8 * drains[8] + 13 * drains[13]);
  EXPECT_GT(reshuffles, 0u);
  EXPECT_EQ(reshuffles, oram.stats().early_reshuffles);
  EXPECT_GT(with_reals, reads / 2);
  EXPECT_NO_THROW(oram.check_consistency());
}

TEST(RingOram, InitializeFullPlacesAndRoundTripsEveryBlock) {
  fixture fx;
  ring_oram oram(fx.config(16), fx.device, fx.cpu, fx.rng, nullptr);
  std::vector<leaf_id> leaves;
  oram.initialize_full(
      100,
      [](block_id id, std::span<std::uint8_t> out) {
        out[0] = static_cast<std::uint8_t>(id);
        out[1] = static_cast<std::uint8_t>(id >> 8);
      },
      &leaves);
  EXPECT_EQ(oram.resident_blocks(), 100u);
  ASSERT_EQ(leaves.size(), 100u);
  for (block_id id = 0; id < 100; ++id) {
    EXPECT_EQ(ring_oram_test_access::leaf_of(oram, id).value_or(~leaf_id{0}),
              leaves[id]);
  }
  EXPECT_NO_THROW(oram.check_consistency());

  std::set<block_id> visited;
  oram.for_each_resident(
      [&](block_id id, leaf_id leaf, std::span<const std::uint8_t> payload) {
        EXPECT_EQ(leaf, leaves[id]);
        EXPECT_EQ(payload[0], static_cast<std::uint8_t>(id));
        visited.insert(id);
      });
  EXPECT_EQ(visited.size(), 100u);

  std::vector<std::uint8_t> out(16);
  for (block_id id = 0; id < 100; ++id) {
    extract(oram, id, out);
    ASSERT_EQ(out[0], static_cast<std::uint8_t>(id)) << "id " << id;
    ASSERT_EQ(out[1], static_cast<std::uint8_t>(id >> 8));
  }
  EXPECT_EQ(oram.resident_blocks(), 0u);
}

TEST(RingOram, InitializeFullOverflowShelteredInStash) {
  // Packing a tiny tree to capacity overflows the greedy placement
  // whenever the random leaf draw is lopsided (a 2-leaf, Z = 1 tree
  // overflows with probability 1/4 per build); the remainder must land
  // in the stash and stay extractable. Rebuild until a lopsided draw
  // shows up — 64 balanced draws in a row is a ~1e-8 event.
  fixture fx;
  for (int attempt = 0; attempt < 64; ++attempt) {
    ring_oram oram(fx.config(2, /*z=*/1, /*s=*/2), fx.device, fx.cpu,
                   fx.rng, nullptr);
    const std::uint64_t count = oram.capacity_blocks();  // 3 * 1 = 3
    oram.initialize_full(count,
                         [](block_id id, std::span<std::uint8_t> out) {
                           out[0] = static_cast<std::uint8_t>(id + 1);
                         });
    EXPECT_EQ(oram.resident_blocks(), count);
    EXPECT_NO_THROW(oram.check_consistency());
    const bool overflowed = oram.stash_ref().size() > 0;
    std::vector<std::uint8_t> out(16);
    for (block_id id = 0; id < count; ++id) {
      extract(oram, id, out);
      ASSERT_EQ(out[0], static_cast<std::uint8_t>(id + 1)) << "id " << id;
    }
    if (overflowed) {
      return;
    }
  }
  FAIL() << "no build overflowed into the stash across 64 attempts";
}

// An eviction opens every real record on its path in one batch before
// any block enters the stash. A tampered record in the path's deepest
// occupied bucket, read last, must fail the eviction with the typed
// crypto error while the stash and every slot's metadata stay as they
// were — none of the records read before it may have moved.
TEST(FaultInjection, TamperedRingEvictionLeavesTheStashUntouched) {
  fixture fx;
  ring_oram oram(fx.config(16, 4, 3, /*a=*/100000), fx.device, fx.cpu,
                 fx.rng, nullptr);
  oram.initialize_full(100, [](block_id id, std::span<std::uint8_t> out) {
    out[0] = static_cast<std::uint8_t>(id);
  });
  for (block_id id = 100; id < 104; ++id) {
    oram.install(id, payload_of(static_cast<std::uint8_t>(id)));
  }
  ASSERT_NO_THROW(oram.check_consistency());

  // The real slots of the next eviction path, in the order it reads
  // them (root to leaf).
  const leaf_id leaf = ring_oram_test_access::next_eviction_leaf(oram);
  const auto before = ring_oram_test_access::slot_metadata(oram);
  std::vector<std::uint64_t> path_reals;
  for (std::uint32_t level = 0; level < oram.level_count(); ++level) {
    const std::uint64_t bucket =
        ring_oram_test_access::bucket_on_path(oram, leaf, level);
    for (std::uint32_t k = 0; k < oram.slots_per_bucket(); ++k) {
      const std::uint64_t slot = bucket * oram.slots_per_bucket() + k;
      if (before[slot].first != dummy_block_id) {
        path_reals.push_back(slot);
      }
    }
  }
  ASSERT_GE(path_reals.size(), 2u);
  ring_oram_test_access::corrupt(oram, path_reals.back(), 20, 0x04);

  std::map<block_id, std::vector<std::uint8_t>> stash_before;
  for (const auto& [id, entry] : oram.stash_ref()) {
    stash_before[id] = entry.payload;
  }
  EXPECT_THROW(oram.force_evict(), crypto::crypto_error);

  std::map<block_id, std::vector<std::uint8_t>> stash_after;
  for (const auto& [id, entry] : oram.stash_ref()) {
    stash_after[id] = entry.payload;
  }
  EXPECT_EQ(stash_after, stash_before);
  EXPECT_EQ(ring_oram_test_access::slot_metadata(oram), before);
  EXPECT_EQ(oram.resident_blocks(), 104u);
}

// ------------------------------------------------- ring-backend detail

constexpr std::uint64_t kBlocks = 256;
constexpr std::uint64_t kMemoryBlocks = 32;
constexpr std::size_t kPayload = 16;

// A shuffle drain of n re-installed blocks runs ⌈n/A⌉ evictions, Ring
// ORAM's own one-per-A-insertions rate. On every shipped (Z, S, A)
// shape that budget alone must bring the stash back to at most 2Z, so
// the conditional tail stays idle. The golden shape (Z = 2) may fire
// the tail now and then; there only the floor it drains to is checked.
TEST(RingOram, DrainRunsAtTheEvictionRate) {
  struct shape {
    std::uint32_t z;
    std::uint32_t s;
    std::uint32_t a;
    bool tail_idle;
  };
  const shape shapes[] = {{2, 5, 3, false},
                          {4, 6, 3, true},
                          {8, 13, 10, true},
                          {16, 25, 20, true},
                          {32, 49, 40, true}};
  constexpr std::uint64_t kDrainBlocks = 4096;
  for (const shape& sh : shapes) {
    for (std::uint64_t round = 0; round < 2; ++round) {
      horam_config config;
      config.block_count = kDrainBlocks;
      config.memory_blocks = 512;
      config.payload_bytes = kPayload;
      config.seal = false;  // placement does not depend on sealing
      config.ring_bucket_size = sh.z;
      config.ring_spare_slots = sh.s;
      config.ring_eviction_rate = sh.a;
      sim::block_device device{sim::hdd_paper()};
      sim::block_device map_device{sim::dram_ddr4()};
      sim::cpu_model cpu{sim::cpu_aesni()};
      util::pcg64 rng{test::seed(341 + round)};
      ring_backend backend(config, device, cpu, rng, nullptr, nullptr,
                           &map_device);
      util::pcg64 driver{test::seed(343 + round)};
      for (std::uint64_t period = 0; period < 50; ++period) {
        std::vector<evicted_block> evicted;
        for (std::uint64_t i = 0; i < config.period_loads(); ++i) {
          const block_id target = util::uniform_below(driver, kDrainBlocks);
          oram_backend::load_result load = backend.in_storage(target)
                                               ? backend.load_block(target)
                                               : backend.dummy_load();
          if (load.id != dummy_block_id) {
            evicted.push_back(evicted_block{load.id, std::move(load.payload)});
          }
        }
        const std::uint64_t budget = (evicted.size() + sh.a - 1) / sh.a;
        std::vector<evicted_block> overflow;
        (void)backend.shuffle_period(std::move(evicted), period, overflow);
        EXPECT_TRUE(overflow.empty());
        const std::uint64_t steps = backend.last_drain_steps();
        const std::size_t stash = backend.tree().stash_ref().size();
        // The tail is capped at 4·budget + 64 single evictions.
        ASSERT_GE(steps, budget);
        ASSERT_LE(steps, 5 * budget + 64);
        if (sh.tail_idle) {
          EXPECT_EQ(steps, budget)
              << "Z = " << sh.z << ", round " << round << ", period "
              << period;
        }
        EXPECT_LE(stash, 2u * sh.z)
            << "Z = " << sh.z << ", round " << round << ", period "
            << period;
        ASSERT_NO_THROW(backend.check_consistency());
      }
    }
  }
}

// The facade's (Z, S, A) knobs reach the tree, including sizes with no
// power-of-two relationship to anything.
TEST(RingBackendDetail, FacadeGeometryKnobsReachTheTree) {
  client oram = client_builder()
                    .blocks(200)
                    .memory_blocks(30)
                    .payload_bytes(8)
                    .backend(backend_kind::ring)
                    .ring_bucket_size(5)
                    .ring_spare_slots(4)
                    .ring_eviction_rate(3)
                    .seed(test::seed(331))
                    .build();
  const std::vector<std::uint8_t> data(8, 0x5A);
  oram.write(3, data);
  EXPECT_EQ(oram.read(3), data);
  EXPECT_NO_THROW(oram.backend().check_consistency());
}

TEST(RingBackendDetail, FacadeClientRoundTripsWithXorOff) {
  client oram = client_builder()
                    .blocks(kBlocks)
                    .memory_blocks(kMemoryBlocks)
                    .payload_bytes(kPayload)
                    .backend("ring-oram")
                    .ring_xor(false)
                    .seed(test::seed(337))
                    .build();
  EXPECT_EQ(oram.kind(), backend_kind::ring);
  util::pcg64 driver(test::seed(339));
  std::map<block_id, std::vector<std::uint8_t>> shadow;
  for (int step = 0; step < 200; ++step) {
    const block_id id = util::uniform_below(driver, kBlocks);
    if (util::bernoulli(driver, 0.5)) {
      std::vector<std::uint8_t> data(kPayload,
                                     static_cast<std::uint8_t>(step));
      oram.write(id, data);
      shadow[id] = std::move(data);
    } else {
      const auto expected = shadow.contains(id)
                                ? shadow[id]
                                : std::vector<std::uint8_t>(kPayload, 0);
      ASSERT_EQ(oram.read(id), expected) << "step " << step;
    }
  }
  EXPECT_NO_THROW(oram.backend().check_consistency());
}

TEST(RingBackendDetail, BuilderRejectsDegenerateKnobs) {
  EXPECT_THROW(client_builder().ring_bucket_size(0), contract_error);
  EXPECT_THROW(client_builder().ring_spare_slots(0), contract_error);
  EXPECT_THROW(client_builder().ring_eviction_rate(0), contract_error);
}

}  // namespace
}  // namespace horam::oram

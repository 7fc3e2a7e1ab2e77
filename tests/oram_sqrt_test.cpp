// Tests for the square-root ORAM backend (src/oram/sqrt): dummy
// capacity sized to the access period, one fresh slot per load,
// read-once slots within a period, payloads surviving the Melbourne
// reshuffle, and the whole-array reshuffle cost the partitioned
// backend avoids.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>
#include <span>
#include <vector>

#include "oram/sqrt/sqrt_backend.h"
#include "sim/profiles.h"
#include "test_support.h"
#include "util/rng.h"

namespace horam::oram {
namespace {

constexpr std::size_t kPayload = 16;

struct fixture {
  sim::block_device disk{sim::hdd_paper()};
  sim::cpu_model cpu{sim::cpu_aesni()};
  util::pcg64 rng{test::seed(41)};
  access_trace trace;

  horam_config config(std::uint64_t n = 256, std::uint64_t memory = 64) {
    horam_config c;
    c.block_count = n;
    c.memory_blocks = memory;
    c.payload_bytes = kPayload;
    c.seal = true;
    return c;
  }

  sqrt_backend make(const horam_config& c) {
    static const std::function<void(block_id, std::span<std::uint8_t>)>
        filler = [](block_id id, std::span<std::uint8_t> out) {
          out[0] = static_cast<std::uint8_t>(id);
          out[1] = static_cast<std::uint8_t>(id >> 8);
        };
    return sqrt_backend(c, disk, cpu, rng, &trace, &filler);
  }

  /// Slots read since the last clear(), in order.
  std::vector<std::uint64_t> slot_reads() const {
    std::vector<std::uint64_t> slots;
    for (const trace_event& event : trace.events()) {
      if (event.kind == event_kind::storage_read_slot) {
        slots.push_back(event.a);
      }
    }
    return slots;
  }
};

bool filled(const std::vector<std::uint8_t>& payload, block_id id) {
  return payload.size() == kPayload &&
         payload[0] == static_cast<std::uint8_t>(id) &&
         payload[1] == static_cast<std::uint8_t>(id >> 8);
}

TEST(SqrtBackend, DummyCountCoversTheAccessPeriod) {
  fixture fx;
  // n/2 = 32 dummy loads per period beat the sqrt(N) = 16 floor.
  const sqrt_backend wide = fx.make(fx.config(256, 64));
  EXPECT_EQ(wide.dummy_count(), 32u);
  EXPECT_EQ(wide.total_slots(), 256u + 32u);
  // A small cache leaves the classic sqrt(N) dummies as the floor.
  const sqrt_backend narrow = fx.make(fx.config(256, 8));
  EXPECT_EQ(narrow.dummy_count(), 16u);
  EXPECT_EQ(narrow.total_slots(), 256u + 16u);
}

TEST(SqrtBackend, FillerSeedsInitialPayloads) {
  fixture fx;
  sqrt_backend backend = fx.make(fx.config());
  for (const block_id id : {block_id{0}, block_id{1}, block_id{200},
                            block_id{255}}) {
    const auto load = backend.load_block(id);
    EXPECT_EQ(load.id, id);
    EXPECT_TRUE(filled(load.payload, id)) << "block " << id;
  }
}

TEST(SqrtBackend, ConstructionIsNotMeasured) {
  fixture fx;
  const sqrt_backend backend = fx.make(fx.config());
  EXPECT_EQ(fx.disk.stats().total_ops(), 0u);
  EXPECT_EQ(backend.stats().real_loads, 0u);
}

TEST(SqrtBackend, EveryLoadReadsExactlyOneSlot) {
  fixture fx;
  sqrt_backend backend = fx.make(fx.config());
  fx.trace.clear();
  fx.disk.reset_stats();
  backend.load_block(9);
  EXPECT_EQ(fx.slot_reads().size(), 1u);
  EXPECT_EQ(fx.disk.stats().read_ops, 1u);
  EXPECT_EQ(fx.disk.stats().write_ops, 0u);
  fx.trace.clear();
  backend.dummy_load();
  EXPECT_EQ(fx.slot_reads().size(), 1u);
  EXPECT_EQ(fx.disk.stats().read_ops, 2u);
}

TEST(SqrtBackend, SlotsNeverRepeatWithinPeriod) {
  // The defining square-root ORAM invariant: within one period every
  // touched slot is distinct, real misses and dummy loads alike.
  fixture fx;
  const horam_config c = fx.config(256, 64);
  sqrt_backend backend = fx.make(c);
  util::pcg64 driver(test::seed(42));
  for (std::uint64_t period = 0; period < 4; ++period) {
    fx.trace.clear();
    std::vector<evicted_block> cached;
    for (std::uint64_t i = 0; i < c.period_loads(); ++i) {
      const block_id id = util::uniform_below(driver, c.block_count);
      const auto load = util::bernoulli(driver, 0.5) && backend.in_storage(id)
                            ? backend.load_block(id)
                            : backend.dummy_load();
      if (load.id != dummy_block_id) {
        cached.push_back(evicted_block{load.id, load.payload});
      }
    }
    const std::vector<std::uint64_t> slots = fx.slot_reads();
    EXPECT_EQ(slots.size(), c.period_loads());
    EXPECT_EQ(std::set<std::uint64_t>(slots.begin(), slots.end()).size(),
              slots.size())
        << "a slot repeated in period " << period;
    std::vector<evicted_block> overflow;
    backend.shuffle_period(std::move(cached), period, overflow);
  }
}

TEST(SqrtBackend, DummyLoadsWithinBudgetFindNoLiveBlock) {
  fixture fx;
  sqrt_backend backend = fx.make(fx.config());
  for (std::uint64_t i = 0; i < backend.dummy_count(); ++i) {
    const auto load = backend.dummy_load();
    EXPECT_EQ(load.id, dummy_block_id);
    EXPECT_TRUE(load.payload.empty());
  }
  EXPECT_EQ(backend.stats().dummy_loads, backend.dummy_count());
  EXPECT_EQ(backend.stats().exhausted_dummy_loads, 0u);
  EXPECT_EQ(backend.stats().prefetched_blocks, 0u);
  for (block_id id = 0; id < 256; ++id) {
    EXPECT_TRUE(backend.in_storage(id));
  }
}

TEST(SqrtBackend, ExhaustedDummyLoadsStillReadOneSlotAndPrefetch) {
  // Past the dummy budget (only reachable outside the controller's
  // period cadence) a dummy load reads a uniform slot; a live block
  // found there is handed out as a prefetch with its payload.
  fixture fx;
  sqrt_backend backend = fx.make(fx.config());
  for (std::uint64_t i = 0; i < backend.dummy_count(); ++i) {
    backend.dummy_load();
  }
  fx.trace.clear();
  std::uint64_t prefetched = 0;
  for (int i = 0; i < 64; ++i) {
    const auto load = backend.dummy_load();
    if (load.id != dummy_block_id) {
      ++prefetched;
      EXPECT_FALSE(backend.in_storage(load.id));
      EXPECT_TRUE(filled(load.payload, load.id)) << "block " << load.id;
    }
  }
  EXPECT_EQ(fx.slot_reads().size(), 64u);
  EXPECT_EQ(backend.stats().exhausted_dummy_loads, 64u);
  EXPECT_EQ(backend.stats().prefetched_blocks, prefetched);
  // 256 of the 288 slots hold real blocks: most reads find one.
  EXPECT_GT(prefetched, 16u);
  EXPECT_NO_THROW(backend.check_consistency());
}

TEST(SqrtBackend, ShuffleWritesBackEvictedPayloads) {
  fixture fx;
  sqrt_backend backend = fx.make(fx.config());
  std::vector<evicted_block> evicted;
  for (block_id id = 10; id < 30; ++id) {
    auto load = backend.load_block(id);
    load.payload[2] = 0xA5;  // the cache mutated the block
    evicted.push_back(evicted_block{id, load.payload});
  }
  std::vector<evicted_block> overflow;
  backend.shuffle_period(std::move(evicted), 0, overflow);
  EXPECT_TRUE(overflow.empty());
  EXPECT_NO_THROW(backend.check_consistency());
  for (block_id id = 10; id < 30; ++id) {
    ASSERT_TRUE(backend.in_storage(id));
    const auto load = backend.load_block(id);
    EXPECT_TRUE(filled(load.payload, id)) << "block " << id;
    EXPECT_EQ(load.payload[2], 0xA5) << "block " << id;
  }
  // Blocks the period never touched keep their initial payloads.
  EXPECT_EQ(backend.load_block(31).payload[2], 0);
}

TEST(SqrtBackend, ShuffleRestoresTheDummyBudget) {
  fixture fx;
  sqrt_backend backend = fx.make(fx.config());
  for (std::uint64_t i = 0; i < backend.dummy_count(); ++i) {
    backend.dummy_load();
  }
  std::vector<evicted_block> overflow;
  backend.shuffle_period({}, 0, overflow);
  for (std::uint64_t i = 0; i < backend.dummy_count(); ++i) {
    EXPECT_EQ(backend.dummy_load().id, dummy_block_id);
  }
  EXPECT_EQ(backend.stats().exhausted_dummy_loads, 0u);
  EXPECT_EQ(backend.stats().partitions_shuffled, 1u);
}

TEST(SqrtBackend, ShuffleRepermutesTheArray) {
  // A block's slot before and after a reshuffle must be unrelated; with
  // 64 blocks over 288 slots, most land somewhere new.
  fixture fx;
  sqrt_backend backend = fx.make(fx.config());
  std::vector<evicted_block> evicted;
  fx.trace.clear();
  for (block_id id = 0; id < 64; ++id) {
    evicted.push_back(evicted_block{id, backend.load_block(id).payload});
  }
  const std::vector<std::uint64_t> before = fx.slot_reads();
  std::vector<evicted_block> overflow;
  backend.shuffle_period(std::move(evicted), 0, overflow);
  fx.trace.clear();
  for (block_id id = 0; id < 64; ++id) {
    backend.load_block(id);
  }
  const std::vector<std::uint64_t> after = fx.slot_reads();
  ASSERT_EQ(before.size(), after.size());
  std::size_t unmoved = 0;
  for (std::size_t i = 0; i < before.size(); ++i) {
    unmoved += before[i] == after[i] ? 1 : 0;
  }
  EXPECT_LT(unmoved, 8u);
}

TEST(SqrtBackend, ReshuffleSweepsTheWholeArray) {
  // The cost the partitioned backend avoids: every period re-permutes
  // all N + D slots, so the shuffle moves at least the whole array in
  // and out regardless of how small the hot set was.
  fixture fx;
  sqrt_backend backend = fx.make(fx.config());
  const auto one = backend.load_block(3);
  fx.trace.clear();
  fx.disk.reset_stats();
  std::vector<evicted_block> overflow;
  const horam::shuffle_cost cost = backend.shuffle_period(
      {evicted_block{3, one.payload}}, 0, overflow);
  const std::uint64_t array_bytes =
      backend.total_slots() * block_codec(kPayload, true, 0).record_bytes();
  EXPECT_GE(fx.disk.stats().bytes_read, array_bytes);
  EXPECT_GE(fx.disk.stats().bytes_written, array_bytes);
  EXPECT_GT(cost.io_read, 0);
  EXPECT_GT(cost.io_write, 0);
  EXPECT_GT(cost.cpu, 0);
  bool read_sweep = false;
  bool write_sweep = false;
  for (const trace_event& event : fx.trace.events()) {
    if (event.kind == event_kind::storage_read_sweep) {
      read_sweep = event.b == backend.total_slots();
    } else if (event.kind == event_kind::storage_write_sweep) {
      write_sweep = event.b == backend.total_slots();
    }
  }
  EXPECT_TRUE(read_sweep);
  EXPECT_TRUE(write_sweep);
}

TEST(SqrtBackend, FoldBackRewritesOnlyAlreadyRevealedSlots) {
  // Before the reshuffle each evicted block is written back to the slot
  // its own load already revealed, so the write-back leaks nothing new.
  fixture fx;
  sqrt_backend backend = fx.make(fx.config());
  std::vector<evicted_block> evicted;
  fx.trace.clear();
  for (block_id id = 40; id < 56; ++id) {
    evicted.push_back(evicted_block{id, backend.load_block(id).payload});
  }
  const std::vector<std::uint64_t> revealed = fx.slot_reads();
  fx.trace.clear();
  std::vector<evicted_block> overflow;
  backend.shuffle_period(std::move(evicted), 0, overflow);
  std::vector<std::uint64_t> written;
  for (const trace_event& event : fx.trace.events()) {
    if (event.kind == event_kind::storage_write_slot) {
      written.push_back(event.a);
    }
  }
  EXPECT_EQ(written, revealed);
}

TEST(SqrtBackend, ShuffleRequiresTheWholeHotSet) {
  fixture fx;
  sqrt_backend backend = fx.make(fx.config());
  const auto kept = backend.load_block(5);
  backend.load_block(6);
  std::vector<evicted_block> overflow;
  EXPECT_THROW(backend.shuffle_period({evicted_block{5, kept.payload}}, 0,
                                      overflow),
               contract_error);
}

TEST(SqrtBackend, ShuffleRejectsBlocksItNeverHandedOut) {
  fixture fx;
  sqrt_backend backend = fx.make(fx.config());
  std::vector<evicted_block> overflow;
  EXPECT_THROW(backend.shuffle_period(
                   {evicted_block{7, std::vector<std::uint8_t>(kPayload)}},
                   0, overflow),
               contract_error);
  EXPECT_THROW(
      backend.shuffle_period(
          {evicted_block{256, std::vector<std::uint8_t>(kPayload)}}, 0,
          overflow),
      contract_error);
}

TEST(SqrtBackend, OutOfRangeIdsAreContractViolations) {
  fixture fx;
  sqrt_backend backend = fx.make(fx.config());
  EXPECT_THROW((void)backend.in_storage(256), contract_error);
  EXPECT_THROW(backend.load_block(256), contract_error);
}

TEST(SqrtBackend, LayoutIsDeterministicPerSeed) {
  const auto first_slots = [](std::uint64_t seed) {
    fixture fx;
    fx.rng = util::pcg64(seed);
    sqrt_backend backend = fx.make(fx.config());
    fx.trace.clear();
    for (block_id id = 0; id < 16; ++id) {
      backend.load_block(id);
    }
    return fx.slot_reads();
  };
  EXPECT_EQ(first_slots(test::seed(43)), first_slots(test::seed(43)));
  EXPECT_NE(first_slots(test::seed(43)), first_slots(test::seed(44)));
}

TEST(SqrtBackend, LogicalBlockBytesSetTheFootprintAndTransferSize) {
  // A logical block size wider than the sealed record models a real
  // deployment's block: every slot occupies, and every load moves, the
  // logical size.
  fixture fx;
  horam_config c = fx.config();
  c.logical_block_bytes = 4096;
  sqrt_backend backend = fx.make(c);
  const std::uint64_t scratch_records = shuffle::melbourne_scratch_records(
      backend.total_slots(), shuffle::melbourne_config{});
  EXPECT_EQ(backend.physical_bytes(),
            (2 * backend.total_slots() + scratch_records) * 4096);
  fx.disk.reset_stats();
  const auto load = backend.load_block(77);
  EXPECT_TRUE(filled(load.payload, 77));
  EXPECT_EQ(fx.disk.stats().bytes_read, 4096u);
}

TEST(SqrtBackend, FootprintIsTwoArraysPlusScratch) {
  fixture fx;
  const sqrt_backend backend = fx.make(fx.config());
  const std::uint64_t record =
      block_codec(kPayload, true, 0).record_bytes();
  const std::uint64_t scratch_records = shuffle::melbourne_scratch_records(
      backend.total_slots(), shuffle::melbourne_config{});
  EXPECT_EQ(backend.physical_bytes(),
            (2 * backend.total_slots() + scratch_records) * record);
  // Trusted state: one 8-byte slot index per virtual index plus one
  // cached flag per block.
  EXPECT_EQ(backend.control_memory_bytes(), backend.total_slots() * 8 + 256);
}

}  // namespace
}  // namespace horam::oram

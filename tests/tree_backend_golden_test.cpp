// Golden pins for the two tree backends (Path ORAM and Ring ORAM behind
// the oram_backend interface). Each case builds a sealed backend with a
// forced multi-level recursive position map, runs a fixed sequence of
// loads, dummy loads and shuffle periods (monolithic and budgeted; the
// work loads leave owed runs before each shuffle, as in the
// controller), and
// pins what an observer or a reviewer of the machine can see: device
// operations, bytes and round trips on both lanes, a digest of the
// adversary's trace, the stash-drain unit counts and stash sizes, the
// accumulated device-time costs, the returned payloads, and the tree's
// seal key seed (sealed bytes never reach the trace, so the key domain
// is pinned directly). Any refactor of the backend adapters must leave
// every value here unchanged.
//
// The seeds are fixed constants rather than test::seed(): the pinned
// values are a property of this exact run.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <span>
#include <vector>

#include "horam.h"

namespace horam {
namespace {

using oram::block_id;

constexpr std::uint64_t kBlocks = 256;

struct golden {
  // Storage lane (tree) and memory lane (map chain) device counters.
  std::uint64_t tree_read_ops = 0;
  std::uint64_t tree_write_ops = 0;
  std::uint64_t tree_bytes_read = 0;
  std::uint64_t tree_bytes_written = 0;
  std::uint64_t tree_round_trips = 0;
  std::uint64_t map_read_ops = 0;
  std::uint64_t map_write_ops = 0;
  std::uint64_t map_bytes_read = 0;
  std::uint64_t map_bytes_written = 0;
  std::uint64_t map_round_trips = 0;
  std::uint64_t trace_events = 0;
  std::uint64_t trace_digest = 0;
  std::vector<std::uint64_t> drain_steps;  // per shuffle period
  std::vector<std::uint64_t> stash_sizes;  // after each period
  std::int64_t cost_total = 0;             // loads + shuffles, virtual ns
  std::uint64_t payload_digest = 0;
  std::uint64_t key_seed = 0;

  bool operator==(const golden&) const = default;
};

std::ostream& operator<<(std::ostream& os,
                         const std::vector<std::uint64_t>& v) {
  os << "{";
  for (std::size_t i = 0; i < v.size(); ++i) {
    os << (i == 0 ? "" : ", ") << v[i];
  }
  return os << "}";
}

std::ostream& operator<<(std::ostream& os, const golden& g) {
  return os << "{" << g.tree_read_ops << "u, " << g.tree_write_ops << "u, "
            << g.tree_bytes_read << "u, " << g.tree_bytes_written << "u, "
            << g.tree_round_trips << "u, " << g.map_read_ops << "u, "
            << g.map_write_ops << "u, " << g.map_bytes_read << "u, "
            << g.map_bytes_written << "u, " << g.map_round_trips << "u, "
            << g.trace_events << "u, 0x" << std::hex << g.trace_digest
            << std::dec << "ULL, " << g.drain_steps << ", " << g.stash_sizes
            << ", " << g.cost_total << ", 0x" << std::hex << g.payload_digest
            << "ULL, 0x" << g.key_seed << "ULL" << std::dec << "}";
}

/// FNV-1a over a 64-bit word, byte by byte.
void fnv(std::uint64_t& h, std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
}

horam_config base_config() {
  horam_config c;
  c.block_count = kBlocks;
  c.memory_blocks = 96;
  c.bucket_size = 2;
  c.payload_bytes = 16;
  c.seal = true;
  c.key_seed = 0x60d1e5;
  c.map_entries_per_block = 8;
  c.map_direct_threshold = 4;
  return c;
}

void add(std::int64_t& total, const oram::cost_split& cost) {
  total += cost.io + cost.memory + cost.cpu;
}

/// Drives `Backend` through the fixed sequence and collects the pins.
template <class Backend>
golden run(const horam_config& config) {
  sim::block_device device{sim::hdd_paper()};
  sim::block_device map_device{sim::dram_ddr4()};
  sim::cpu_model cpu{sim::cpu_aesni()};
  util::pcg64 rng{0x7ee5eed};
  oram::access_trace trace;
  const std::function<void(block_id, std::span<std::uint8_t>)> filler =
      [](block_id id, std::span<std::uint8_t> out) {
        for (std::size_t i = 0; i < out.size(); ++i) {
          out[i] = static_cast<std::uint8_t>(id * 31 + i);
        }
      };
  Backend backend(config, device, cpu, rng, &trace, &filler, &map_device);
  EXPECT_GE(backend.map().level_count(), 2u);

  golden g;
  g.payload_digest = 0xcbf29ce484222325ULL;
  util::pcg64 driver{0xd21be4};
  for (std::uint64_t period = 0; period < 3; ++period) {
    std::vector<oram::evicted_block> evicted;
    deferred_work* owed = nullptr;
    for (std::uint64_t cycle = 0; cycle < config.period_loads(); ++cycle) {
      const block_id target = util::uniform_below(driver, kBlocks);
      const auto load = backend.in_storage(target)
                            ? backend.load_block(target)
                            : backend.dummy_load();
      add(g.cost_total, load.cost);
      if (load.deferred != nullptr) {
        owed = load.deferred;
      }
      if (load.id != oram::dummy_block_id) {
        fnv(g.payload_digest, load.id);
        for (const std::uint8_t byte : load.payload) {
          fnv(g.payload_digest, byte);
        }
        evicted.push_back(oram::evicted_block{load.id, load.payload});
      }
    }
    // Work the loads left owed runs before the shuffle, as the
    // controller's end_period() runs it.
    if (owed != nullptr) {
      add(g.cost_total, owed->run(owed->owed()));
    }
    std::vector<oram::evicted_block> overflow;
    if (period < 2) {
      g.cost_total +=
          backend.shuffle_period(std::move(evicted), period, overflow)
              .total();
    } else {
      // The last period runs incrementally in small device-time slices.
      std::unique_ptr<shuffle_job> job =
          backend.begin_shuffle(std::move(evicted), period);
      while (!job->done()) {
        g.cost_total += job->step(200'000).total();
      }
      job->finish(overflow);
    }
    EXPECT_TRUE(overflow.empty());
    g.drain_steps.push_back(backend.last_drain_steps());
    g.stash_sizes.push_back(backend.tree().stash_ref().size());
    EXPECT_NO_THROW(backend.check_consistency());
  }

  const sim::io_stats& tree_io = device.stats();
  g.tree_read_ops = tree_io.read_ops;
  g.tree_write_ops = tree_io.write_ops;
  g.tree_bytes_read = tree_io.bytes_read;
  g.tree_bytes_written = tree_io.bytes_written;
  g.tree_round_trips = tree_io.round_trips;
  const sim::io_stats& map_io = map_device.stats();
  g.map_read_ops = map_io.read_ops;
  g.map_write_ops = map_io.write_ops;
  g.map_bytes_read = map_io.bytes_read;
  g.map_bytes_written = map_io.bytes_written;
  g.map_round_trips = map_io.round_trips;
  g.trace_events = trace.size();
  g.trace_digest = 0xcbf29ce484222325ULL;
  for (const oram::trace_event& event : trace.events()) {
    fnv(g.trace_digest, static_cast<std::uint64_t>(event.kind));
    fnv(g.trace_digest, event.a);
    fnv(g.trace_digest, event.b);
  }
  g.key_seed = backend.tree().config().key_seed;
  return g;
}

// Expected values list the fields of `golden` in declaration order.
TEST(TreeBackendGolden, PathFlat) {
  const golden expected{
      2400u, 2400u, 211200u, 211200u, 300u, 1101u, 1101u, 202584u, 202584u,
      294u, 7701u, 0xb0a346854db1e880ULL, {52, 52, 52}, {0, 0, 0}, 327536324,
      0x5710625bafdf35d9ULL, 0x608184ULL};
  EXPECT_EQ(run<oram::path_backend>(base_config()), expected);
}

TEST(TreeBackendGolden, PathPage) {
  horam_config config = base_config();
  config.layout = storage::storage_layout::page;
  config.page_bytes = 1024;
  const golden expected{
      897u, 900u, 446952u, 448800u, 300u, 1101u, 1101u, 202584u, 202584u,
      294u, 4698u, 0xee33db508451d1d6ULL, {52, 52, 52}, {0, 0, 0}, 134167130,
      0x5710625bafdf35d9ULL, 0x608184ULL};
  EXPECT_EQ(run<oram::path_backend>(config), expected);
}

TEST(TreeBackendGolden, RingXor) {
  horam_config config = base_config();
  config.ring_bucket_size = 2;
  config.ring_spare_slots = 5;
  config.ring_eviction_rate = 3;
  config.ring_xor = true;
  const golden expected{
      715u, 571u, 56584u, 175868u, 150u, 1105u, 1105u, 203320u, 203320u,
      294u, 5618u, 0x6c8c18d256552af4ULL, {15, 15, 15}, {0, 0, 0}, 81441420,
      0x5710625bafdf35d9ULL, 0x60838cULL};
  EXPECT_EQ(run<oram::ring_backend>(config), expected);
}

TEST(TreeBackendGolden, RingPerSlot) {
  horam_config config = base_config();
  config.ring_bucket_size = 2;
  config.ring_spare_slots = 5;
  config.ring_eviction_rate = 3;
  config.ring_xor = false;
  const golden expected{
      1723u, 571u, 100936u, 175868u, 150u, 1105u, 1105u, 203320u, 203320u,
      294u, 5618u, 0x6c8c18d256552af4ULL, {15, 15, 15}, {0, 0, 0}, 152764844,
      0x5710625bafdf35d9ULL, 0x60838cULL};
  EXPECT_EQ(run<oram::ring_backend>(config), expected);
}

}  // namespace
}  // namespace horam

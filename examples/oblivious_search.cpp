// Oblivious binary search — the paper's §5.3.2 observation made
// concrete: "the square root ORAM has the advantage in the group
// access, such as the binary search O(N) comparing to the Path ORAM
// O(N log N)". Each probe of a binary search depends on the previous
// one, so a pure Path ORAM pays a full path (log N blocks of traffic)
// per probe; H-ORAM serves warm probes from its memory tree and touches
// storage once per cold probe.
//
// We search a sorted table of 64-bit keys striped over blocks and
// compare H-ORAM against the tree-top Path ORAM baseline on the same
// virtual machine.
//
//   $ ./examples/oblivious_search
#include <cstdio>
#include <iostream>
#include <cstring>

#include "crypto/key_schedule.h"
#include "horam.h"
#include "oram/path/path_oram.h"
#include "util/math.h"
#include "util/table.h"
#include "util/units.h"

namespace {

using namespace horam;

constexpr std::uint64_t keys_per_block = 8;

std::uint64_t key_at(std::uint64_t index) { return 1000 + 3 * index; }

/// Reads the key at `index` through a read callback over blocks.
template <typename ReadBlock>
std::uint64_t fetch_key(std::uint64_t index, ReadBlock&& read_block) {
  const std::vector<std::uint8_t> block =
      read_block(index / keys_per_block);
  std::uint64_t key = 0;
  std::memcpy(&key, block.data() + (index % keys_per_block) * 8, 8);
  return key;
}

/// Classic binary search over [0, count) via oblivious block reads.
template <typename ReadBlock>
std::int64_t search(std::uint64_t count, std::uint64_t needle,
                    ReadBlock&& read_block, std::uint64_t& probes) {
  std::uint64_t lo = 0;
  std::uint64_t hi = count;
  probes = 0;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    ++probes;
    const std::uint64_t key = fetch_key(mid, read_block);
    if (key == needle) {
      return static_cast<std::int64_t>(mid);
    }
    if (key < needle) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return -1;
}

}  // namespace

int main() {
  using namespace horam;

  constexpr std::uint64_t key_count = 1 << 16;  // 64 Ki sorted keys
  constexpr std::uint64_t block_count = key_count / keys_per_block;

  // --- H-ORAM instance, pre-filled with the sorted table. The
  // interactive-search deployment matches Fig 5-2's client/server
  // setting: shuffles run between query bursts, off the critical path.
  const auto fill_sorted = [](oram::block_id b,
                              std::span<std::uint8_t> payload) {
    for (std::uint64_t k = 0; k < keys_per_block; ++k) {
      const std::uint64_t key = key_at(b * keys_per_block + k);
      std::memcpy(payload.data() + k * 8, &key, 8);
    }
  };
  client horam_ctrl = client_builder()
                          .blocks(block_count)
                          .cache_ratio(0.125)
                          .payload_bytes(keys_per_block * 8)
                          .logical_block_bytes(1024)
                          .seal(true)
                          .shuffle(shuffle_policy::offloaded)
                          .filler(fill_sorted)
                          .seed(55)
                          .build();
  const sim::cpu_model cpu(sim::cpu_aesni());

  // --- Path ORAM baseline on its own devices. ---
  sim::block_device path_disk(sim::hdd_paper());
  sim::block_device path_memory(sim::dram_ddr4());
  util::pcg64 path_rng(56);
  oram::path_oram_config path_config;
  path_config.bucket_size = 4;
  path_config.leaf_count =
      util::next_pow2(2 * block_count) / (2 * path_config.bucket_size);
  path_config.payload_bytes = keys_per_block * 8;
  path_config.logical_block_bytes = 1024;
  path_config.id_universe = block_count;
  path_config.seal = true;
  // Its own key root: no label is shared with the H-ORAM client's stores.
  path_config.keys =
      crypto::key_schedule(56).seal({crypto::store_kind::backend_tree});
  path_config.memory_levels = static_cast<std::uint32_t>(util::floor_log2(
      horam_ctrl.config().memory_blocks / path_config.bucket_size + 1));
  oram::path_oram path(path_config, path_memory, &path_disk, cpu,
                       path_rng, nullptr);
  path.initialize_full(
      block_count, [](oram::block_id b, std::span<std::uint8_t> payload) {
        for (std::uint64_t k = 0; k < keys_per_block; ++k) {
          const std::uint64_t key = key_at(b * keys_per_block + k);
          std::memcpy(payload.data() + k * 8, &key, 8);
        }
      });

  // --- Run a burst of searches on both. ---
  constexpr int searches = 64;
  std::uint64_t horam_probes = 0;
  std::uint64_t path_probes = 0;
  sim::sim_time path_time = 0;

  const sim::sim_time horam_start = horam_ctrl.now();
  util::pcg64 needles(57);
  for (int s = 0; s < searches; ++s) {
    const std::uint64_t target =
        key_at(util::uniform_below(needles, key_count));
    std::uint64_t probes = 0;
    const std::int64_t found = search(
        key_count, target,
        [&](std::uint64_t block) { return horam_ctrl.read(block); },
        probes);
    horam_probes += probes;
    if (found < 0) {
      std::printf("H-ORAM search failed?!\n");
      return 1;
    }
  }
  const sim::sim_time horam_time = horam_ctrl.now() - horam_start;

  util::pcg64 needles2(57);
  for (int s = 0; s < searches; ++s) {
    const std::uint64_t target =
        key_at(util::uniform_below(needles2, key_count));
    std::uint64_t probes = 0;
    const std::int64_t found = search(
        key_count, target,
        [&](std::uint64_t block) {
          std::vector<std::uint8_t> out(keys_per_block * 8);
          path_time += path
                           .access(oram::op_kind::read, block, {}, out)
                           .total();
          return out;
        },
        probes);
    path_probes += probes;
    if (found < 0) {
      std::printf("Path ORAM search failed?!\n");
      return 1;
    }
  }

  std::printf("oblivious binary search over %llu sorted keys "
              "(%d searches):\n\n",
              static_cast<unsigned long long>(key_count), searches);
  util::text_table table({"System", "Probes", "Virtual time",
                          "Per search"});
  table.add_row({"H-ORAM", util::format_count(horam_probes),
                 util::format_time_ns(horam_time),
                 util::format_time_ns(horam_time / searches)});
  table.add_row({"Path ORAM (tree-top)", util::format_count(path_probes),
                 util::format_time_ns(path_time),
                 util::format_time_ns(path_time / searches)});
  table.print(std::cout);
  std::printf(
      "\nthe top of the binary-search tree (blocks near the midpoints) "
      "stays cached in\nH-ORAM's memory tree, so warm probes cost one "
      "cheap cycle (the storage channel\nsees only indistinguishable "
      "dummy loads) instead of the baseline's full\nread-and-rewrite "
      "path — the group-access advantage §5.3.2 attributes to the\n"
      "square-root family. Shuffles run server-side between query "
      "bursts (Fig 5-2).\n");
  return 0;
}

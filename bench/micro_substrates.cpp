// Google-benchmark microbenchmarks of the substrates: cipher, PRF,
// sealing, the hier Feistel permutation, RNG, Fenwick sampling, shuffle
// kernels, Path ORAM access, Ring ORAM eviction unions.
// These measure host performance of the library code itself (the other
// harnesses report virtual time).
#include <benchmark/benchmark.h>

#include <string>

#include "crypto/chacha20.h"
#include "crypto/detail/kernels.h"
#include "crypto/seal.h"
#include "crypto/siphash.h"
#include "oram/common/block_codec.h"
#include "oram/common/bucket_codec.h"
#include "oram/hier/feistel_prp.h"
#include "oram/path/path_oram.h"
#include "oram/path/recursive_position_map.h"
#include "oram/ring/ring_oram.h"
#include "shuffle/bitonic.h"
#include "shuffle/fisher_yates.h"
#include "sim/profiles.h"
#include "util/fenwick.h"
#include "util/rng.h"

namespace {

using namespace horam;

/// The batch kernels this run dispatched to, e.g. "avx512 16x chacha20,
/// 8x siphash": crypto timings are only comparable at equal widths.
std::string kernel_label() {
  const crypto::detail::kernel_isa isa = crypto::detail::dispatched_isa();
  return std::string(crypto::detail::kernel_name(isa)) + " " +
         std::to_string(crypto::detail::chacha_lanes(isa)) + "x chacha20, " +
         std::to_string(crypto::detail::siphash_lanes(isa)) + "x siphash";
}

void bm_chacha20_block(benchmark::State& state) {
  crypto::chacha_key key{};
  crypto::chacha_nonce nonce{};
  std::array<std::uint8_t, 64> out;
  std::uint32_t counter = 0;
  for (auto _ : state) {
    crypto::chacha20_block(key, counter++, nonce, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          64);
  state.SetLabel(kernel_label());
}
BENCHMARK(bm_chacha20_block);

void bm_chacha20_xor_1k(benchmark::State& state) {
  crypto::chacha_key key{};
  crypto::chacha_nonce nonce{};
  std::vector<std::uint8_t> data(1024, 0x5a);
  for (auto _ : state) {
    crypto::chacha20_xor(key, nonce, 0, data);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1024);
  state.SetLabel(kernel_label());
}
BENCHMARK(bm_chacha20_xor_1k);

// The sealed record's ciphertext: 8-B id + 256-B payload.
void bm_chacha20_xor_264(benchmark::State& state) {
  crypto::chacha_key key{};
  crypto::chacha_nonce nonce{};
  std::vector<std::uint8_t> data(264, 0x5a);
  for (auto _ : state) {
    crypto::chacha20_xor(key, nonce, 1, data);
    benchmark::DoNotOptimize(data.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          264);
  state.SetLabel(kernel_label());
}
BENCHMARK(bm_chacha20_xor_264);

void bm_siphash_1k(benchmark::State& state) {
  crypto::siphash_key key{};
  std::vector<std::uint8_t> data(1024, 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::siphash24(key, data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1024);
  state.SetLabel(kernel_label());
}
BENCHMARK(bm_siphash_1k);

void bm_seal_open_1k(benchmark::State& state) {
  crypto::block_sealer sealer(crypto::derive_seal_keys(1));
  std::vector<std::uint8_t> record(1024 + crypto::seal_overhead, 0x11);
  std::vector<std::uint8_t> plaintext(1024);
  for (auto _ : state) {
    sealer.seal_in_place(record);
    sealer.open_into(record, plaintext);
    benchmark::DoNotOptimize(plaintext.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1024);
  state.SetLabel(kernel_label());
}
BENCHMARK(bm_seal_open_1k);

// One sealed record of the benchmark's shape (8-B id + 256-B payload)
// encoded and decoded through the codec.
void bm_codec_encode_decode_256(benchmark::State& state) {
  oram::block_codec codec(256, /*seal=*/true, 1);
  const std::vector<std::uint8_t> payload(256, 0x11);
  std::vector<std::uint8_t> record(codec.record_bytes());
  std::vector<std::uint8_t> out(256);
  oram::block_id id = 0;
  for (auto _ : state) {
    codec.encode(id++, payload, record);
    benchmark::DoNotOptimize(codec.decode(record, out));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel(kernel_label());
}
BENCHMARK(bm_codec_encode_decode_256);

// One Path ORAM bucket of the benchmark's shape (Z = 4, 256-B payloads)
// at tree-like occupancy — one real slot, three dummies — sealed and
// opened as one unit.
void bm_bucket_seal_open_z4_256(benchmark::State& state) {
  oram::bucket_codec codec(4, 256, /*seal=*/true, 1);
  const std::vector<std::uint8_t> payload(256, 0x11);
  std::vector<std::uint8_t> bucket(codec.bucket_bytes());
  std::vector<oram::block_id> ids(4);
  std::vector<std::uint8_t> out(4 * 256);
  oram::block_id id = 0;
  for (auto _ : state) {
    const oram::bucket_codec::entry real{id++, payload};
    codec.encode(std::span<const oram::bucket_codec::entry>(&real, 1),
                 bucket);
    benchmark::DoNotOptimize(codec.decode(bucket, ids, out));
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel(kernel_label());
}
BENCHMARK(bm_bucket_seal_open_z4_256);

// One Path ORAM path window of the benchmark's shape (L buckets of
// Z = 4, 256-B payloads; L = 9 for 256 leaves) at tree-like occupancy —
// one real slot per bucket — opened and re-sealed the way an access
// does it: decode_many() over the window (all MACs, then all id
// headers, then the real payloads), then encode_plain() per bucket and
// one seal_many() leaf to root.
void bm_path_seal_open_z4_256(benchmark::State& state) {
  const auto levels = static_cast<std::size_t>(state.range(0));
  oram::bucket_codec codec(4, 256, /*seal=*/true, 1);
  const std::vector<std::uint8_t> payload(256, 0x11);
  std::vector<std::uint8_t> window(levels * codec.bucket_bytes());
  std::vector<std::span<const std::uint8_t>> root_first;
  std::vector<std::span<std::uint8_t>> leaf_first;
  for (std::size_t level = 0; level < levels; ++level) {
    root_first.push_back(std::span<const std::uint8_t>(window).subspan(
        level * codec.bucket_bytes(), codec.bucket_bytes()));
    leaf_first.push_back(std::span<std::uint8_t>(window).subspan(
        (levels - 1 - level) * codec.bucket_bytes(), codec.bucket_bytes()));
  }
  std::vector<oram::block_id> ids(levels * 4);
  std::vector<std::uint8_t> out(levels * 4 * 256);
  oram::block_id id = 0;
  const auto compose = [&] {
    for (const std::span<std::uint8_t> bucket : leaf_first) {
      const oram::bucket_codec::entry real{id++, payload};
      codec.encode_plain(std::span<const oram::bucket_codec::entry>(&real, 1),
                         bucket);
    }
    codec.seal_many(leaf_first);
  };
  compose();
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.decode_many(root_first, ids, out));
    compose();
    benchmark::DoNotOptimize(window.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel(kernel_label());
}
BENCHMARK(bm_path_seal_open_z4_256)->Arg(9)->Arg(10);

// The same bucket as four per-slot codec records (the layout before
// buckets were sealed whole), for comparison.
void bm_codec_records_z4_256(benchmark::State& state) {
  oram::block_codec codec(256, /*seal=*/true, 1);
  const std::vector<std::uint8_t> payload(256, 0x11);
  std::vector<std::uint8_t> bucket(4 * codec.record_bytes());
  std::vector<std::uint8_t> out(256);
  oram::block_id id = 0;
  for (auto _ : state) {
    const auto record = [&](std::size_t k) {
      return std::span<std::uint8_t>(bucket).subspan(
          k * codec.record_bytes(), codec.record_bytes());
    };
    codec.encode(id++, payload, record(0));
    for (std::size_t k = 1; k < 4; ++k) {
      codec.encode_dummy(record(k));
    }
    for (std::size_t k = 0; k < 4; ++k) {
      benchmark::DoNotOptimize(codec.decode(record(k), out));
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel(kernel_label());
}
BENCHMARK(bm_codec_records_z4_256);

// N sealed records of the benchmark's shape (8-B id + 256-B payload)
// per call, the way the per-slot backends move a chunk: encode_plain()
// per record and one seal_many(), then one decode_many() of the list.
// Items are records, so /1 against /512 is the batching gain per
// record.
void bm_record_seal_open(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  oram::block_codec codec(256, /*seal=*/true, 1);
  const std::vector<std::uint8_t> payload(256, 0x11);
  std::vector<std::uint8_t> image(count * codec.record_bytes());
  std::vector<std::span<std::uint8_t>> records;
  std::vector<std::span<const std::uint8_t>> sealed;
  for (std::size_t i = 0; i < count; ++i) {
    records.push_back(std::span<std::uint8_t>(image).subspan(
        i * codec.record_bytes(), codec.record_bytes()));
    sealed.push_back(records.back());
  }
  std::vector<oram::block_id> ids(count);
  std::vector<std::uint8_t> out(count * 256);
  oram::block_id id = 0;
  for (auto _ : state) {
    for (const std::span<std::uint8_t> record : records) {
      codec.encode_plain(id++, payload, record);
    }
    codec.seal_many(records);
    codec.decode_many(sealed, ids, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * count));
  state.SetLabel(kernel_label());
}
BENCHMARK(bm_record_seal_open)->Arg(1)->Arg(16)->Arg(512);

// The hier rebuild's slot -> rank map over N consecutive slots of a
// 20,736-slot level: inverse_many() for N = 512 (a merge chunk) and for
// N = 1 (one slot). Items are slots.
void bm_feistel_inverse(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  constexpr std::uint64_t domain = 20736;
  crypto::siphash_key key{};
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(i * 29 + 5);
  }
  const oram::feistel_prp prp(domain, key);
  std::vector<std::uint64_t> ranks(count);
  std::uint64_t first = 0;
  for (auto _ : state) {
    prp.inverse_many(first, ranks);
    benchmark::DoNotOptimize(ranks.data());
    first = (first + count) % (domain - count + 1);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * count));
}
BENCHMARK(bm_feistel_inverse)->Arg(1)->Arg(512);

void bm_pcg64(benchmark::State& state) {
  util::pcg64 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next_u64());
  }
}
BENCHMARK(bm_pcg64);

void bm_chacha_rng(benchmark::State& state) {
  crypto::chacha_rng rng(std::uint64_t{1});
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next_u64());
  }
}
BENCHMARK(bm_chacha_rng);

void bm_fenwick_sample(benchmark::State& state) {
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  util::fenwick_tree tree(size);
  for (std::size_t i = 0; i < size; ++i) {
    tree.add(i, 4);
  }
  util::pcg64 rng(2);
  for (auto _ : state) {
    const auto offset = static_cast<std::int64_t>(
        util::uniform_below(rng, static_cast<std::uint64_t>(
                                     tree.total())));
    benchmark::DoNotOptimize(tree.find_by_offset(offset));
  }
}
BENCHMARK(bm_fenwick_sample)->Arg(256)->Arg(1024)->Arg(4096);

void bm_fisher_yates(benchmark::State& state) {
  const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
  util::pcg64 rng(3);
  std::vector<std::uint8_t> records(n * 64);
  for (auto _ : state) {
    shuffle::fisher_yates(rng, records, 64);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(bm_fisher_yates)->Arg(1024)->Arg(4096);

void bm_bitonic_shuffle(benchmark::State& state) {
  const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
  util::pcg64 rng(4);
  std::vector<std::uint8_t> records(n * 64);
  for (auto _ : state) {
    shuffle::bitonic_shuffle(rng, records, 64);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(bm_bitonic_shuffle)->Arg(1024)->Arg(4096);

// One write access to an in-memory Path ORAM of the repository
// benchmark's cache-tree shape: 256 leaves (9 levels), Z = 4, 256-B
// payloads, as many blocks as leaves.
void bm_path_oram_access(benchmark::State& state) {
  sim::block_device memory(sim::dram_ddr4());
  const sim::cpu_model cpu(sim::cpu_aesni());
  util::pcg64 rng(5);
  oram::path_oram_config config;
  config.leaf_count = 256;
  config.bucket_size = 4;
  config.payload_bytes = 256;
  config.id_universe = 256;
  config.seal = state.range(0) != 0;
  oram::path_oram oram(config, memory, nullptr, cpu, rng, nullptr);
  std::vector<std::uint8_t> payload(256, 1);
  oram::block_id id = 0;
  for (auto _ : state) {
    oram.access(oram::op_kind::write, id % 256, payload, {});
    ++id;
  }
  state.SetLabel(config.seal ? "sealed, " + kernel_label() : "plain");
}
BENCHMARK(bm_path_oram_access)->Arg(0)->Arg(1);

// One sealed cache-tree cycle of k path accesses (one write, k - 1
// dummy padding accesses) on the bm_path_oram_access shape, read and
// written back as one path union; items are path accesses.
void bm_path_oram_cycle(benchmark::State& state) {
  sim::block_device memory(sim::dram_ddr4());
  const sim::cpu_model cpu(sim::cpu_aesni());
  util::pcg64 rng(5);
  oram::path_oram_config config;
  config.leaf_count = 256;
  config.bucket_size = 4;
  config.payload_bytes = 256;
  config.id_universe = 256;
  config.seal = true;
  oram::path_oram oram(config, memory, nullptr, cpu, rng, nullptr);
  const std::vector<std::uint8_t> payload(256, 1);
  std::vector<oram::path_oram::request> cycle(
      static_cast<std::size_t>(state.range(0)));
  cycle[0].op = oram::op_kind::write;
  cycle[0].write_data = payload;
  oram::block_id id = 0;
  for (auto _ : state) {
    cycle[0].id = id % 256;
    benchmark::DoNotOptimize(oram.access_batch(cycle));
    ++id;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
  state.SetLabel("sealed, " + kernel_label());
}
BENCHMARK(bm_path_oram_cycle)->Arg(1)->Arg(3)->Arg(5);

// One sealed Ring ORAM eviction union of k reverse-lexicographic paths
// on a zipf-tenants shard's tree (4096 blocks of 256 B, 256 leaves,
// Z = 16, S = 25): every union bucket has Z of its slots read and its
// reals opened, then is written back whole and resealed once. k = 1 is the online eviction, k = 13 a shard
// drain's budget (⌈n/A⌉ for n ≈ 247 re-installed blocks at A = 20);
// items are evicted paths.
void bm_ring_drain(benchmark::State& state) {
  sim::block_device storage(sim::nvme());
  const sim::cpu_model cpu(sim::cpu_aesni());
  util::pcg64 rng(5);
  oram::ring_oram_config config;
  config.leaf_count = 256;
  config.real_slots = 16;
  config.spare_slots = 25;
  config.payload_bytes = 256;
  config.id_universe = 4096;
  config.seal = true;
  oram::ring_oram oram(config, storage, cpu, rng, nullptr);
  oram.initialize_full(config.id_universe,
                       [](oram::block_id id, std::span<std::uint8_t> out) {
                         out[0] = static_cast<std::uint8_t>(id);
                       });
  const auto paths = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(oram.force_evict(paths));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
  state.SetLabel("sealed, " + kernel_label());
}
BENCHMARK(bm_ring_drain)->Arg(1)->Arg(8)->Arg(13);

// A shard's period-end map update on a zipf-tenants shard's recursive
// map (4096 ids, 64 entries per 512-B map block, so one sealed level of
// 64 blocks on a 16-leaf tree, Z = 4): the leaves of n = 231
// re-installed blocks, as one map pass (assign_all; walks:0) and as 231
// one-path assign() walks (walks:1). levels:2 forces a second level (a
// 16-entry residue threshold: the 64 level-0 blocks' leaves go into one
// level-1 block), so the pass and the walks descend through both. Items
// are map entries; the counters give the modelled virtual time and the
// round trips per update.
void bm_map_pass(benchmark::State& state) {
  sim::block_device memory(sim::dram_ddr4());
  const sim::cpu_model cpu(sim::cpu_aesni());
  util::pcg64 rng(7);
  oram::recursive_map_config config;
  config.universe = 4096;
  config.entries_per_block = 64;
  config.direct_threshold = state.range(1) == 1 ? 1024 : 16;
  config.bucket_size = 4;
  config.seal = true;
  std::vector<oram::leaf_id> initial(config.universe);
  for (oram::block_id id = 0; id < initial.size(); ++id) {
    initial[id] = util::uniform_below(rng, 256);
  }
  oram::recursive_position_map map(config, memory, cpu, rng, nullptr,
                                   initial);
  constexpr std::size_t kEntries = 231;
  std::vector<oram::recursive_position_map::entry> entries(kEntries);
  const bool walks = state.range(0) != 0;
  sim::sim_time virtual_time = 0;
  memory.reset_stats();
  for (auto _ : state) {
    for (oram::recursive_position_map::entry& e : entries) {
      e.id = util::uniform_below(rng, config.universe);
      e.leaf = util::uniform_below(rng, 256);
    }
    if (walks) {
      for (const oram::recursive_position_map::entry& e : entries) {
        virtual_time += map.assign(e.id, e.leaf).total();
      }
    } else {
      virtual_time += map.assign_all(entries).total();
    }
  }
  const auto iterations = static_cast<double>(state.iterations());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kEntries));
  state.counters["virt_us"] =
      static_cast<double>(virtual_time) / 1000.0 / iterations;
  state.counters["round_trips"] =
      static_cast<double>(memory.stats().round_trips) / iterations;
  state.SetLabel("sealed, " + kernel_label());
}
BENCHMARK(bm_map_pass)
    ->ArgNames({"walks", "levels"})
    ->Args({0, 1})
    ->Args({1, 1})
    ->Args({0, 2})
    ->Args({1, 2});

}  // namespace

BENCHMARK_MAIN();

// Google-benchmark microbenchmarks of the substrates: cipher, PRF,
// sealing, RNG, Fenwick sampling, shuffle kernels, Path ORAM access.
// These measure host performance of the library code itself (the other
// harnesses report virtual time).
#include <benchmark/benchmark.h>

#include "crypto/chacha20.h"
#include "crypto/seal.h"
#include "crypto/siphash.h"
#include "oram/common/block_codec.h"
#include "oram/common/bucket_codec.h"
#include "oram/path/path_oram.h"
#include "shuffle/bitonic.h"
#include "shuffle/fisher_yates.h"
#include "sim/profiles.h"
#include "util/fenwick.h"
#include "util/rng.h"

namespace {

using namespace horam;

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
}
BENCHMARK(bm_bucket_seal_open_z4_256);

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
}
BENCHMARK(bm_codec_records_z4_256);

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

void bm_path_oram_access(benchmark::State& state) {
  sim::block_device memory(sim::dram_ddr4());
  const sim::cpu_model cpu(sim::cpu_aesni());
  util::pcg64 rng(5);
  oram::path_oram_config config;
  config.leaf_count = 1024;
  config.bucket_size = 4;
  config.payload_bytes = 64;
  config.id_universe = 8192;
  config.seal = state.range(0) != 0;
  oram::path_oram oram(config, memory, nullptr, cpu, rng, nullptr);
  std::vector<std::uint8_t> payload(64, 1);
  oram::block_id id = 0;
  for (auto _ : state) {
    oram.access(oram::op_kind::write, id % 4096, payload, {});
    ++id;
  }
  state.SetLabel(config.seal ? "sealed" : "plain");
}
BENCHMARK(bm_path_oram_access)->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();

// Ablation for the sharded engine: throughput as the block space is
// striped over 1 / 2 / 4 / 8 controller shards, for every backend, on
// the paper's device profile. Each shard owns its own storage lane, so
// total throughput should scale with the shard count until padding
// overhead (the oblivious router tops every shard round up to the
// public cap) and the per-shard memory split eat the gains.
//
// Every run writes BENCH_shards.json to the working directory so the
// performance trajectory is machine-readable (CI uploads it as an
// artifact); `--json` additionally emits the same document to stdout
// instead of the table, and `--small` shrinks the dataset for smoke
// runs.
#include <fstream>
#include <iostream>
#include <vector>

#include "common.h"
#include "util/table.h"
#include "util/units.h"

namespace {

using namespace horam;
using namespace horam::bench;

constexpr std::uint32_t kShardCounts[] = {1, 2, 4, 8};

}  // namespace

int main(int argc, char** argv) {
  const bench_options options = parse_bench_args(argc, argv);

  dataset data;
  data.data_bytes = options.small ? 8 * util::mib : 64 * util::mib;
  data.memory_bytes = options.small ? 1 * util::mib : 8 * util::mib;
  const workload_recipe recipe = bench_recipe(options, 4000, 25000);
  const machine hw = paper_machine();

  if (!options.json) {
    std::cout << "=== Ablation: shard count x backend ("
              << util::format_bytes(data.data_bytes) << " dataset, "
              << util::format_count(recipe.request_count)
              << " requests, paper HDD profile) ===\n";
  }

  std::string json = "{\n  \"bench\": \"ablation_shards\",\n  \"runs\": [\n";
  bool first_run = true;
  util::text_table table({"Backend", "Shards", "Total time",
                          "Throughput (req/s)", "Speedup vs 1", "Hit rate",
                          "I/O accesses", "Storage"});
  for (const backend_kind kind : all_backend_kinds) {
    sim::sim_time base_time = 0;
    for (const std::uint32_t shards : kShardCounts) {
      const system_run run = run_horam(
          data, recipe, hw,
          [shards](horam_config& config) { config.shard_count = shards; },
          kind);
      const sim::sim_time total_time = run.stats.total_time;
      if (shards == 1) {
        base_time = total_time;
      }
      const double speedup =
          total_time > 0 ? static_cast<double>(base_time) /
                               static_cast<double>(total_time)
                         : 0.0;
      const double throughput =
          total_time > 0 ? static_cast<double>(run.stats.requests) * 1e9 /
                               static_cast<double>(total_time)
                         : 0.0;
      table.add_row(
          {std::string(backend_name(kind)), std::to_string(shards),
           util::format_time_ns(run.stats.total_time),
           util::format_count(static_cast<std::uint64_t>(throughput)),
           util::format_double(speedup, 2) + "x",
           util::format_double(100.0 * run.hit_rate(), 1) + " %",
           util::format_count(run.stats.cycles),
           util::format_bytes(run.storage_bytes)});
      if (!first_run) {
        json += ",\n";
      }
      first_run = false;
      json += "    {\"backend\": " +
              json_escape(backend_name(kind)) +
              ", \"shards\": " + std::to_string(shards) +
              ", \"speedup_vs_1_shard\": " +
              json_number(speedup) + ", " + json_fields(run) + "}";
    }
  }
  json += "\n  ]\n}\n";

  std::ofstream out("BENCH_shards.json");
  out << json;
  out.close();

  if (options.json) {
    std::cout << json;
  } else {
    table.print(std::cout);
    std::cout
        << "Each shard owns an independent storage lane, so lanes drain "
           "in parallel and the\nround router pads every shard to a "
           "public per-round cap — throughput scales\nwith shards while "
           "the bus shape of each lane stays workload-independent.\n"
           "(wrote BENCH_shards.json)\n";
  }
  return 0;
}

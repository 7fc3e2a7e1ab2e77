// Ablation for the real-thread runtime: wall-clock time as shard lanes
// move from the single-threaded sim machine onto 1 / 2 / 4 / 8 worker
// threads, for each backend and shard count, on the paper's device
// profile. Virtual time (total_time) is runtime-invariant by
// construction — the determinism tests assert bit-for-bit equality —
// so the interesting column is wall_seconds: with real cores available
// the threaded runtime should approach wall/threads scaling until the
// per-round fan-out/merge barrier and the host's core count cap it.
//
// Every run writes BENCH_threads.json to the working directory so the
// performance trajectory is machine-readable (CI uploads it as an
// artifact); the document records hardware_threads so a 1-core CI box
// showing no speedup is distinguishable from a regression. `--json`
// additionally emits the same document to stdout instead of the table,
// and `--small` shrinks the dataset and backend list for smoke runs.
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "util/table.h"
#include "util/units.h"

namespace {

using namespace horam;
using namespace horam::bench;

constexpr std::uint32_t kShardCounts[] = {1, 4, 8};
/// 0 = the sim runtime baseline; the rest are threaded worker counts.
constexpr std::uint32_t kThreadCounts[] = {0, 1, 2, 4, 8};

}  // namespace

int main(int argc, char** argv) {
  const bench_options options = parse_bench_args(argc, argv);

  dataset data;
  data.data_bytes = options.small ? 8 * util::mib : 64 * util::mib;
  data.memory_bytes = options.small ? 1 * util::mib : 8 * util::mib;
  const workload_recipe recipe = bench_recipe(options, 4000, 25000);
  const machine hw = paper_machine();

  const std::vector<backend_kind> kinds =
      options.small
          ? std::vector<backend_kind>{backend_kind::partitioned,
                                      backend_kind::path}
          : std::vector<backend_kind>(std::begin(all_backend_kinds),
                                      std::end(all_backend_kinds));

  if (!options.json) {
    std::cout << "=== Ablation: threads x shards x backend ("
              << util::format_bytes(data.data_bytes) << " dataset, "
              << util::format_count(recipe.request_count)
              << " requests, paper HDD profile, "
              << std::thread::hardware_concurrency()
              << " hardware threads) ===\n";
  }

  std::string json = "{\n  \"bench\": \"ablation_threads\",\n"
                     "  \"hardware_threads\": " +
                     std::to_string(std::thread::hardware_concurrency()) +
                     ",\n  \"runs\": [\n";
  bool first_run = true;
  util::text_table table({"Backend", "Shards", "Runtime", "Threads",
                          "Sim total", "Wall (s)", "Wall speedup vs 1t",
                          "Throughput (req/s)"});
  for (const backend_kind kind : kinds) {
    for (const std::uint32_t shards : kShardCounts) {
      // Collect the whole thread sweep for this backend x shards cell
      // first: wall speedups are relative to the threaded 1-worker run
      // (same runtime machinery, no parallelism).
      std::vector<std::pair<std::uint32_t, system_run>> cell;
      for (const std::uint32_t threads : kThreadCounts) {
        if (threads > shards) {
          continue;  // extra workers past one-per-shard can't get work
        }
        const system_run run = run_horam(
            data, recipe, hw,
            [shards, threads](horam_config& config) {
              config.shard_count = shards;
              config.worker_threads = threads;
            },
            kind);
        cell.emplace_back(threads, run);
      }
      double base_wall = 0.0;
      for (const auto& [threads, run] : cell) {
        if (threads == 1) {
          base_wall = run.wall_seconds;
        }
      }
      for (const auto& [threads, run] : cell) {
        const double wall_speedup =
            run.wall_seconds > 0.0 && base_wall > 0.0
                ? base_wall / run.wall_seconds
                : 0.0;
        const double throughput =
            run.stats.total_time > 0
                ? static_cast<double>(run.stats.requests) * 1e9 /
                      static_cast<double>(run.stats.total_time)
                : 0.0;
        table.add_row(
            {std::string(backend_name(kind)), std::to_string(shards),
             run.runtime, std::to_string(run.threads),
             util::format_time_ns(run.stats.total_time),
             util::format_double(run.wall_seconds, 2),
             util::format_double(wall_speedup, 2) + "x",
             util::format_count(static_cast<std::uint64_t>(throughput))});
        if (!first_run) {
          json += ",\n";
        }
        first_run = false;
        json += "    {\"backend\": " + json_escape(backend_name(kind)) +
                ", \"shards\": " + std::to_string(shards) +
                ", \"requested_threads\": " + std::to_string(threads) +
                ", \"wall_speedup_vs_1_thread\": " +
                json_number(wall_speedup) + ", " + json_fields(run) + "}";
      }
    }
  }
  json += "\n  ]\n}\n";

  std::ofstream out("BENCH_threads.json");
  out << json;
  out.close();

  if (options.json) {
    std::cout << json;
  } else {
    table.print(std::cout);
    std::cout
        << "Sim total is runtime-invariant (the determinism grid asserts "
           "bit-for-bit\nequality); only wall-clock moves. Wall speedup "
           "compares against the threaded\n1-worker run and is bounded "
           "by min(threads, shards, hardware threads).\n"
           "(wrote BENCH_threads.json)\n";
  }
  return 0;
}

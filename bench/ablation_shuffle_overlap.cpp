// Ablation for the deamortized shuffle pipeline: request-latency tail
// (p50/p95/p99/max) as the shuffle runs foreground vs. incrementally in
// budget-bounded slices between access rounds, swept over slice budget
// x backend x shard count on the paper's HDD profile.
//
// The foreground policy charges each period's whole shuffle burst at
// the period boundary, so every request in flight at that moment eats
// the full burst — the p99/max cliff. shuffle_policy::incremental
// spreads the same device time over the period's rounds; the slice
// budget trades tail latency (smaller slices, flatter tail) against
// stall risk (a budget too small to finish a job within one period
// pays the remainder foreground at the next boundary).
//
// Budgets are derived from the measured foreground burst: b0 = burst /
// period_loads is the smallest budget that finishes a job within one
// period (no stall); the sweep brackets it from both sides. Every run
// writes BENCH_shuffle_overlap.json to the working directory (CI
// uploads it as an artifact); `--json` emits the same document to
// stdout instead of the table, `--small` shrinks the matrix for smoke
// runs.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common.h"
#include "util/math.h"
#include "util/table.h"
#include "util/units.h"

namespace {

using namespace horam;
using namespace horam::bench;

constexpr std::uint32_t kShardCounts[] = {1, 4, 8};

}  // namespace

int main(int argc, char** argv) {
  const bench_options options = parse_bench_args(argc, argv);

  // Geometry note: the cliff only registers at p99 if the requests in
  // flight at a period boundary are > 1% of the stream, i.e. periods
  // must recur every few thousand requests. A paper-ratio cache (1/8)
  // at this scale shuffles once or twice per run and pushes the cliff
  // out to p99.9 — so this ablation runs cache-lean (1 MB memory ⇒
  // period every n/2 = 512 loads), which is also the regime the
  // ROADMAP's many-tenant service lives in.
  dataset data;
  data.data_bytes = options.small ? 8 * util::mib : 32 * util::mib;
  data.memory_bytes = 1 * util::mib;
  const workload_recipe recipe = bench_recipe(options, 4000, 25000);
  const machine hw = paper_machine();

  std::vector<backend_kind> backends;
  if (options.small) {
    // The two native stepped-job backends cover the smoke run.
    backends = {backend_kind::partitioned, backend_kind::path};
  } else {
    backends.assign(std::begin(all_backend_kinds),
                    std::end(all_backend_kinds));
  }

  if (!options.json) {
    std::cout << "=== Ablation: shuffle overlap (slice budget x backend x "
                 "shards, "
              << util::format_bytes(data.data_bytes) << " dataset, "
              << util::format_count(recipe.request_count)
              << " requests, paper HDD profile) ===\n";
  }

  std::string json =
      "{\n  \"bench\": \"ablation_shuffle_overlap\",\n  \"runs\": [\n";
  bool first_run = true;
  util::text_table table({"Backend", "Shards", "Policy", "Slice budget",
                          "p50", "p99", "max", "p99 vs fg", "Slices",
                          "Stall", "Total time"});

  const auto emit = [&](backend_kind kind, std::uint32_t shards,
                        shuffle_policy policy, sim::sim_time budget,
                        const system_run& run, sim::sim_time fg_p99) {
    const double p99_ratio =
        fg_p99 > 0 ? static_cast<double>(run.latency_p99()) /
                         static_cast<double>(fg_p99)
                   : 0.0;
    table.add_row(
        {std::string(backend_name(kind)), std::to_string(shards),
         std::string(shuffle_policy_name(policy)),
         budget > 0 ? util::format_time_ns(budget) : "-",
         util::format_time_ns(run.latency_p50()),
         util::format_time_ns(run.latency_p99()),
         util::format_time_ns(run.latency_max()),
         policy == shuffle_policy::incremental
             ? util::format_double(p99_ratio, 3) + "x"
             : "1x",
         util::format_count(run.stats.shuffle_slices),
         util::format_time_ns(run.stats.shuffle_stall_time),
         util::format_time_ns(run.stats.total_time)});
    if (!first_run) {
      json += ",\n";
    }
    first_run = false;
    json += "    {\"backend\": " + json_escape(backend_name(kind)) +
            ", \"shards\": " + std::to_string(shards) +
            ", \"policy\": " + json_escape(shuffle_policy_name(policy)) +
            ", \"slice_budget_ns\": " + std::to_string(budget) +
            ", \"p99_vs_foreground\": " + json_number(p99_ratio) +
            ", " + json_fields(run) + "}";
  };

  for (const backend_kind kind : backends) {
    for (const std::uint32_t shards : kShardCounts) {
      const auto tweak = [shards](shuffle_policy policy,
                                  sim::sim_time budget) {
        return [shards, policy, budget](horam_config& config) {
          config.shard_count = shards;
          config.shuffle = policy;
          config.shuffle_slice_budget = budget;
        };
      };

      // Foreground baseline: the latency cliff to beat.
      const system_run fg = run_horam(
          data, recipe, hw, tweak(shuffle_policy::foreground, 0), kind);
      emit(kind, shards, shuffle_policy::foreground, 0, fg,
           fg.latency_p99());

      // b0: smallest slice budget that retires a period's burst within
      // the period (burst spread over the per-shard period_loads
      // rounds). Derived from public quantities only.
      const std::uint64_t per_shard_period_loads =
          std::max<std::uint64_t>(1, data.memory_blocks() / shards / 2);
      const sim::sim_time mean_burst =
          fg.stats.periods > 0
              ? fg.stats.shuffle_time /
                    static_cast<sim::sim_time>(fg.stats.periods)
              : 0;
      const sim::sim_time b0 = std::max<sim::sim_time>(
          1, util::ceil_div(static_cast<std::uint64_t>(mean_burst),
                            per_shard_period_loads));

      // The ladder brackets the interesting range: b0 (finest no-stall
      // slices), a middle rung, and quarter-burst slices (coarse —
      // approaching the foreground cliff again).
      const sim::sim_time quarter_burst =
          std::max<sim::sim_time>(4 * b0, mean_burst / 4);
      for (const sim::sim_time budget : {b0, 4 * b0, quarter_burst}) {
        const system_run run = run_horam(
            data, recipe, hw,
            tweak(shuffle_policy::incremental, budget), kind);
        emit(kind, shards, shuffle_policy::incremental, budget, run,
             fg.latency_p99());
      }
    }
  }
  json += "\n  ]\n}\n";

  std::ofstream out("BENCH_shuffle_overlap.json");
  out << json;
  out.close();

  if (options.json) {
    std::cout << json;
  } else {
    table.print(std::cout);
    std::cout
        << "Foreground charges each period's whole shuffle at the "
           "boundary (the p99/max cliff);\nincremental spreads the same "
           "device time over budget-bounded slices between rounds.\n"
           "b0 = burst / period_loads is the no-stall budget; below it "
           "the leftover is paid\nforeground at the next boundary "
           "(Stall column). sqrt's reshuffle job is a single\nunit "
           "(one slice = the whole burst), so its tail stays "
           "at 1x by\nconstruction — the native stepped jobs "
           "(partitioned, path) are where the win is.\n"
           "(wrote BENCH_shuffle_overlap.json)\n";
  }
  return 0;
}

// Ablation for §5.3.1 (partial shuffle): sweep the shuffle cadence
// 1/r — shuffling only 1/k of the partitions per period trades shuffle
// I/O for redundant masking reads on un-shuffled partitions. The paper:
// "Through this method, we can compute a proper shuffle ratio with a
// system profiling, which balances the shuffle overhead and the I/O
// overhead."
#include <iostream>

#include "common.h"
#include "util/table.h"
#include "util/units.h"

int main() {
  using namespace horam;
  using namespace horam::bench;

  dataset data;
  data.data_bytes = 64 * util::mib;
  data.memory_bytes = 8 * util::mib;
  workload_recipe recipe;
  recipe.request_count = 25000;
  const machine hw = paper_machine();

  std::cout << "=== Ablation: partial shuffle ratio (64 MB dataset, "
               "25,000 requests) ===\n";
  util::text_table table({"Shuffle ratio r", "I/O accesses",
                          "Masking reads", "Shuffle time", "Access time",
                          "Total time", "Speedup vs r=1"});

  sim::sim_time baseline_total = 0;
  for (const std::uint32_t cadence : {1u, 2u, 4u, 8u}) {
    // Masking reads need dead-slot fodder: scale the slack with the
    // pending-segment depth (documented partial-shuffle cost).
    const double slack = 1.05 + 0.1 * (cadence - 1);
    const system_run run =
        run_horam(data, recipe, hw, [&](horam_config& config) {
          config.shuffle_every_periods = cadence;
          config.partition_slack = slack;
        });
    if (cadence == 1) {
      baseline_total = run.stats.total_time;
    }
    // Recover masking-read count: total loads in io_accesses are
    // cycles; masking reads show up as extra storage reads inside the
    // access periods. Re-derive from a dedicated run for clarity.
    client ctrl = client_builder()
                      .blocks(data.block_count())
                      .memory_blocks(data.memory_blocks())
                      .payload_bytes(data.payload_bytes)
                      .logical_block_bytes(data.block_bytes)
                      .storage_profile(hw.storage)
                      .memory_profile(hw.memory)
                      .cpu(hw.cpu)
                      .seal(false)
                      .shuffle_every(cadence)
                      .config_tweak([&](horam_config& config) {
                        config.partition_slack = slack;
                      })
                      .seed(recipe.seed ^ 0x605a)
                      .build();
    util::pcg64 wl(recipe.seed);
    workload::stream_config stream;
    stream.request_count = recipe.request_count;
    stream.block_count = data.block_count();
    stream.payload_bytes = data.payload_bytes;
    ctrl.run(workload::hotspot(wl, stream, recipe.hot_probability,
                               recipe.hot_region_fraction));
    const std::uint64_t masking = ctrl.backend().stats().masking_reads;

    table.add_row(
        {"1/" + std::to_string(cadence), util::format_count(run.stats.cycles),
         util::format_count(masking),
         util::format_time_ns(run.stats.shuffle_time),
         util::format_time_ns(
             run.stats.total_time -
             std::min(run.stats.total_time, run.stats.shuffle_time)),
         util::format_time_ns(run.stats.total_time),
         util::format_double(static_cast<double>(baseline_total) /
                                 static_cast<double>(run.stats.total_time),
                             2) +
             "x"});
  }
  table.print(std::cout);
  std::cout << "Less frequent shuffles cut shuffle I/O but add masking "
               "reads and defer compaction\n(the paper's predicted "
               "balance point shows as the minimum of Total time).\n";
  return 0;
}

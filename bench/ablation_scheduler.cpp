// Ablation for §4.2 (secure scheduler): stage schedules and prefetch
// window. Shows why the paper ramps c across the period (a flat large c
// wastes dummy path reads while the tree is cold) and how the prefetch
// distance d reduces dummy padding.
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

  std::cout << "=== Ablation: scheduler stages (64 MB dataset) ===\n";
  struct stage_option {
    const char* name;
    std::vector<scheduler_stage> stages;
  };
  const std::vector<stage_option> options = {
      {"flat c=1", {{1, 1.0}}},
      {"flat c=3", {{3, 1.0}}},
      {"flat c=5", {{5, 1.0}}},
      {"flat c=8", {{8, 1.0}}},
      {"paper {1,3,5}", {{1, 0.20}, {3, 0.13}, {5, 0.67}}},
      {"aggressive {1,5,8}", {{1, 0.15}, {5, 0.25}, {8, 0.60}}},
  };
  util::text_table stage_table({"Stage schedule", "I/O accesses",
                                "c-hat", "Hit rate", "Total time"});
  for (const stage_option& option : options) {
    const system_run run =
        run_horam(data, recipe, hw, [&](horam_config& config) {
          config.stages = option.stages;
        });
    stage_table.add_row(
        {option.name, util::format_count(run.stats.cycles),
         util::format_double(run.avg_c(), 2),
         util::format_double(100.0 * run.hit_rate(), 1) + " %",
         util::format_time_ns(run.stats.total_time)});
  }
  stage_table.print(std::cout);

  std::cout << "\n=== Ablation: prefetch window d = factor * c + 1 ===\n";
  util::text_table window_table({"Prefetch factor", "I/O accesses",
                                 "c-hat", "Total time"});
  for (const std::uint32_t factor : {1u, 2u, 3u, 5u, 8u}) {
    const system_run run =
        run_horam(data, recipe, hw, [&](horam_config& config) {
          config.prefetch_factor = factor;
        });
    window_table.add_row({std::to_string(factor),
                          util::format_count(run.stats.cycles),
                          util::format_double(run.avg_c(), 2),
                          util::format_time_ns(run.stats.total_time)});
  }
  window_table.print(std::cout);
  std::cout << "A deeper window (the paper's I/O pre-fetching) finds "
               "more real work per cycle,\nraising c-hat until the "
               "memory lane saturates.\n";
  return 0;
}

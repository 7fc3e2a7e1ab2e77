// Reproduces Table 5-4: 1 GB dataset with 500,000 requests.
//
// Paper reference (H-ORAM vs Path ORAM):
//   storage/memory size: 1 GB / 128 MB vs 1.875 GB / 128 MB
//   number of I/O accesses: 129,235 vs 500,000
//   I/O latency: 107 us vs 1,364 us
//   shuffle time: 9,743 ms * 2; total: 29,657 ms vs 682,041 ms (22.9x)
#include <iostream>

#include "common.h"
#include "util/table.h"
#include "util/units.h"

int main() {
  using namespace horam;
  using namespace horam::bench;

  dataset data;
  data.data_bytes = util::gib;
  data.memory_bytes = 128 * util::mib;

  workload_recipe recipe;
  recipe.request_count = 500000;

  const machine hw = paper_machine();
  const system_run horam_run = run_horam(data, recipe, hw);
  const system_run path_run = run_tree_top_path(data, recipe, hw);

  paper_reference paper;
  paper.horam_io_accesses = 129235;
  paper.horam_io_latency_us = 107;
  paper.horam_shuffle_ms = 2 * 9743;
  paper.horam_total_ms = 29657;
  paper.path_io_accesses = 500000;
  paper.path_io_latency_us = 1364;
  paper.path_total_ms = 682041;

  print_comparison("Table 5-4: 1 GB dataset, 500,000 requests",
                   horam_run, path_run, paper);

  const system_run horam_async =
      run_horam(data, recipe, hw, [](horam_config& config) {
        config.shuffle = shuffle_policy::async_writeback;
      });
  std::cout << "\nWith async write-back shuffle (models the thesis's "
               "page-cache-assisted measurement):\n"
            << "  total time "
            << util::format_time_ns(horam_async.stats.total_time)
            << ", speedup "
            << util::format_double(
                   static_cast<double>(path_run.stats.total_time) /
                       static_cast<double>(horam_async.stats.total_time),
                   1)
            << "x\n";
  return 0;
}

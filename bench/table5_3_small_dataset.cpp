// Reproduces Table 5-3: 64 MB dataset with 25,000 requests.
//
// Paper reference (H-ORAM vs Path ORAM):
//   storage/memory size: 64 MB / 8 MB vs 120 MB / 8 MB
//   number of I/O accesses: 7,228 vs 25,000
//   I/O latency: 77 us vs 1,032 us
//   shuffle time: 729 ms * 1; total time: 1,290 ms vs 25,575 ms (19.8x)
//
// Our simulator charges the shuffle's sequential writes at the paper's
// measured raw throughput (55.2 MB/s); the thesis's 729 ms shuffle is
// only reachable with page-cache write absorption, so a second H-ORAM
// row shows the async write-back policy that models it.
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
  const system_run horam_run = run_horam(data, recipe, hw);
  const system_run path_run = run_tree_top_path(data, recipe, hw);

  paper_reference paper;
  paper.horam_io_accesses = 7228;
  paper.horam_io_latency_us = 77;
  paper.horam_shuffle_ms = 729;
  paper.horam_total_ms = 1290;
  paper.path_io_accesses = 25000;
  paper.path_io_latency_us = 1032;
  paper.path_total_ms = 25575;

  print_comparison("Table 5-3: 64 MB dataset, 25,000 requests",
                   horam_run, path_run, paper);

  // Page-cache-style write-back (the thesis testbed's behaviour).
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

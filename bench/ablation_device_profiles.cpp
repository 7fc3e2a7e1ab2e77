// Ablation for §3.1's hardware premise: who wins, and by how much, as
// the storage device changes. H-ORAM's advantage rests on the random/
// sequential gap of HDDs; on NVMe the gap — and with it the crossover —
// largely disappears.
#include <iostream>

#include "common.h"
#include "sim/profiles.h"
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

  std::cout << "=== Ablation: storage device sensitivity (64 MB "
               "dataset, 25,000 requests) ===\n";
  util::text_table table({"Storage device", "H-ORAM total",
                          "Path ORAM total", "Speedup",
                          "H-ORAM I/O latency", "Path I/O latency"});
  const std::vector<sim::device_profile> devices = {
      sim::hdd_7200_raw(), sim::hdd_paper(), sim::ssd_sata(),
      sim::nvme()};
  for (const auto& device : devices) {
    machine hw = paper_machine();
    hw.storage = device;
    const system_run horam_run = run_horam(data, recipe, hw);
    const system_run path_run = run_tree_top_path(data, recipe, hw);
    table.add_row(
        {device.name, util::format_time_ns(horam_run.stats.total_time),
         util::format_time_ns(path_run.stats.total_time),
         util::format_double(
             static_cast<double>(path_run.stats.total_time) /
                 static_cast<double>(horam_run.stats.total_time),
             1) +
             "x",
         util::format_double(horam_run.avg_io_latency_us(), 0) + " us",
         util::format_double(path_run.avg_io_latency_us(), 0) + " us"});
  }
  table.print(std::cout);
  std::cout << "The seek-dominated devices are where the cacheable "
               "interface pays off; as random\naccess approaches "
               "sequential speed the two designs converge.\n";
  return 0;
}

// Reproduces Figure 5-2 (applications of the non-shuffle case): in the
// client/server deployment the shuffle runs on the remote server or in
// off-line hours, so only access-period time hits the critical path.
// The paper's claim: "without considering the shuffle as an extra
// overhead, our H-ORAM can theoretically achieve 32 times faster access
// time than the Path ORAM."
#include <iostream>
#include <string>

#include "common.h"
#include "util/table.h"
#include "util/units.h"

int main() {
  using namespace horam;
  using namespace horam::bench;

  const machine hw = paper_machine();

  struct scenario {
    const char* name;
    std::uint64_t data_mb;
    std::uint64_t memory_mb;
    std::uint64_t requests;
  };
  const std::vector<scenario> scenarios = {
      {"64 MB / 8 MB", 64, 8, 25000},
      {"1 GB / 128 MB", 1024, 128, 400000},
  };

  std::cout << "=== Figure 5-2: client/server non-shuffle case ===\n";
  util::text_table table({"Dataset", "Policy", "Total time",
                          "Speedup vs Path ORAM"});
  for (const scenario& s : scenarios) {
    dataset data;
    data.data_bytes = s.data_mb * util::mib;
    data.memory_bytes = s.memory_mb * util::mib;
    workload_recipe recipe;
    recipe.request_count = s.requests;

    const system_run path_run = run_tree_top_path(data, recipe, hw);
    const auto speedup = [&](const system_run& run) {
      return util::format_double(
                 static_cast<double>(path_run.stats.total_time) /
                     static_cast<double>(run.stats.total_time),
                 1) +
             "x";
    };

    // One row per execution policy, labelled from the canonical name
    // list so the table never drifts from the enum.
    for (const shuffle_policy policy :
         {shuffle_policy::foreground, shuffle_policy::async_writeback,
          shuffle_policy::offloaded}) {
      const system_run run =
          run_horam(data, recipe, hw, [policy](horam_config& c) {
            c.shuffle = policy;
          });
      table.add_row({s.name, std::string(shuffle_policy_name(policy)),
                     util::format_time_ns(run.stats.total_time), speedup(run)});
    }
  }
  table.print(std::cout);
  std::cout << "Paper: ideal non-shuffle case ~32x over Path ORAM.\n";
  return 0;
}

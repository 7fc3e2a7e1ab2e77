// Reproduces Figure 4-2: a cycle-by-cycle view of the secure scheduler
// with I/O prefetching. Nine requests sit in the ROB (the figure's
// {H1 H2 H3 M1 H4 H5 M2 M2 H6} pattern: H = in-memory hit, M = storage
// miss); with c = 3 and d = 9 the scheduler overlaps each cycle's
// storage load with three in-memory accesses. As the controller does, a
// miss is served from its own load's fill at the end of that cycle (the
// figure services it through the memory lane one cycle later).
//
//   $ ./examples/scheduler_trace
#include <algorithm>
#include <cstdio>
#include <functional>
#include <iostream>

#include "horam.h"
#include "util/table.h"

int main() {
  using namespace horam;

  // The figure's request mix: positions of the misses in the window.
  const std::vector<const char*> labels = {"H1", "H2", "H3", "M1", "H4",
                                           "H5", "M2", "M2'", "H6"};
  const std::vector<bool> initially_resident = {
      true, true, true, false, true, true, false, false, true};
  // Request k asks for block k, except the duplicate M2' which re-reads
  // M2's block (the figure schedules its load once).
  const std::vector<oram::block_id> ids = {0, 1, 2, 3, 4, 5, 6, 6, 8};

  std::vector<bool> resident = initially_resident;
  rob_table rob;
  for (std::uint64_t i = 0; i < ids.size(); ++i) {
    rob.push(i);
  }

  scheduler sched({{3, 1.0}}, /*period_loads=*/1000,
                  /*prefetch_factor=*/3);  // c = 3, d = 10 > figure's 9

  std::printf("Figure 4-2: request scheduler with prefetching "
              "(c = 3, window d = 10)\n");
  std::printf("ROB: ");
  for (const char* label : labels) {
    std::printf("%s ", label);
  }
  std::printf("\n\n");

  util::text_table table({"Cycle", "I/O lane (load)", "Memory lane "
                          "(3 path accesses)", "Serviced"});
  for (int cycle = 1; !rob.empty(); ++cycle) {
    const cycle_plan plan = sched.plan(
        rob, 0, [&](std::uint64_t index) { return ids[index]; },
        [&](oram::block_id id) -> bool {
          for (std::uint64_t k = 0; k < ids.size(); ++k) {
            if (ids[k] == id) {
              return resident[k];
            }
          }
          return false;
        });

    std::string io_cell = "load dummy";
    std::string memory_cell;
    std::string serviced_cell;
    for (const std::size_t position : plan.hit_positions) {
      const std::uint64_t request = rob.at(position);
      memory_cell += std::string(labels[request]) + " ";
      serviced_cell += std::string(labels[request]) + " ";
    }
    for (std::uint32_t k = 0; k < plan.dummy_hits; ++k) {
      memory_cell += "dummy ";
    }
    std::vector<std::size_t> retiring = plan.hit_positions;
    if (plan.miss_position.has_value()) {
      // The fill serves its request and makes the block resident.
      const std::uint64_t request = rob.at(*plan.miss_position);
      io_cell = std::string("load ") + labels[request];
      serviced_cell += std::string(labels[request]) + " ";
      for (std::uint64_t k = 0; k < ids.size(); ++k) {
        resident[k] = resident[k] || ids[k] == ids[request];
      }
      retiring.push_back(*plan.miss_position);
    }
    table.add_row({std::to_string(cycle), io_cell, memory_cell,
                   serviced_cell.empty() ? "-" : serviced_cell});

    // Retire serviced requests (descending positions).
    std::sort(retiring.begin(), retiring.end(), std::greater<>());
    for (const std::size_t position : retiring) {
      rob.remove(position);
    }
    if (cycle > 16) {
      break;  // safety for the demo
    }
  }
  table.print(std::cout);
  std::printf(
      "\nEvery cycle issues exactly one storage load (real or dummy) and "
      "c = 3 path\naccesses — the adversary sees an identical bus shape "
      "whatever the hit/miss mix.\nA miss is served from its load's fill "
      "in the load's own cycle, so its path-access\nslot goes to another "
      "hit; the duplicate M2' needs no second load.\n");
  return 0;
}

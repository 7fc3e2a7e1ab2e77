// Backend matrix: the same hotspot workload through every pluggable
// oblivious store — H-ORAM's partitioned layer, the Path ORAM tree with
// a recursive position map, the Ring ORAM tree with one-slot-per-bucket
// online reads, and the hierarchical store with batched one-round-trip
// probes — on the paper's calibrated machine. The point of the cacheable interface is
// that this whole table is one builder argument; the numbers show what
// each scheme's shuffle machinery (or, for the tree backends,
// per-access walk) costs behind an identical cache, scheduler and
// workload.
//
// Every run writes BENCH_backends.json to the working directory so the
// trajectory is machine-readable (CI uploads it as an artifact);
// `--json` additionally emits the document to stdout instead of the
// table and `--small` shrinks the dataset for smoke runs.
#include <fstream>
#include <iostream>
#include <string>

#include "common.h"
#include "util/table.h"
#include "util/units.h"

int main(int argc, char** argv) {
  using namespace horam;
  using namespace horam::bench;

  const bench_options options = parse_bench_args(argc, argv);

  const machine hw = paper_machine();
  const workload_recipe recipe = bench_recipe(options, 6000, 40000);

  dataset data;
  data.data_bytes = options.small ? 8 * util::mib : 32 * util::mib;
  data.memory_bytes = data.data_bytes / 8;

  if (!options.json) {
    std::cout << "=== One workload, four oblivious stores ("
              << util::format_bytes(data.data_bytes) << " dataset, 1/8 "
              << "memory, "
              << util::format_count(recipe.request_count)
              << " requests) ===\n";
  }
  std::string json = "{\n  \"bench\": \"ablation_backends\",\n"
                     "  \"runs\": [\n";
  bool first_run = true;
  util::text_table table({"Backend", "I/O accesses", "I/O latency",
                          "Shuffle time", "Device ops", "Device bytes",
                          "Storage bytes", "Total time",
                          "vs partitioned"});
  sim::sim_time partitioned_total = 0;
  for (const backend_kind kind : all_backend_kinds) {
    const system_run run =
        run_horam(data, recipe, hw, /*config_tweak=*/{}, kind);
    if (kind == backend_kind::partitioned) {
      partitioned_total = run.stats.total_time;
    }
    table.add_row(
        {std::string(backend_name(kind)),
         util::format_count(run.stats.cycles),
         util::format_double(run.avg_io_latency_us(), 1) + " us",
         util::format_time_ns(run.stats.shuffle_time),
         util::format_count(run.io.total_ops()),
         util::format_bytes(run.io.total_bytes()),
         util::format_bytes(run.storage_bytes),
         util::format_time_ns(run.stats.total_time),
         util::format_double(static_cast<double>(run.stats.total_time) /
                                 static_cast<double>(partitioned_total),
                             2) +
             "x"});
    if (!first_run) {
      json += ",\n";
    }
    first_run = false;
    json += "    {\"backend\": " + json_escape(backend_name(kind)) +
            ", " + json_fields(run) + "}";
  }
  json += "\n  ]\n}\n";

  std::ofstream out("BENCH_backends.json");
  out << json;
  out.close();

  if (options.json) {
    std::cout << json;
  } else {
    table.print(std::cout);
    std::cout << "The flat backends pay their cost in shuffle passes; "
                 "the tree backends pay it\nper access — path walks "
                 "whole buckets, ring reads one slot per bucket (XOR-"
                 "\ncombined) and pays eviction/reshuffle sweeps in the "
                 "background — the trade the\npaper's Figure 3-1 "
                 "frames, now measured behind one interface.\n"
                 "(wrote BENCH_backends.json)\n";
  }
  return 0;
}

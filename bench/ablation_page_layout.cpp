// Ablation for the page-packed bucket layout (src/storage/page_layout):
// storage-device operations per logical request, flat vs page layout,
// for each backend across device profiles (HDD / raw HDD / SSD / DRAM).
//
// The flat layout issues one range op per tree bucket on the path; the
// page layout packs h-level subtree segments into device pages so a
// path costs one op per *segment*, and the valid-bit tree skips device
// reads of never-written segments entirely. Device ops per request is
// therefore the headline column: on the path backend the page rows must
// come in strictly below flat, and the gap matters most on seek-bound
// profiles (HDD) where each saved op is a saved positioning cost. The
// partitioned backend is the control — its accesses are single-slot
// draws from a random permutation, so the layout knob is inert there by
// design and its reduction column stays at 1.00x.
//
// Every run writes BENCH_page_layout.json to the working directory so
// the trajectory is machine-readable (CI uploads it as an artifact);
// `--json` additionally emits the document to stdout instead of the
// table and `--small` shrinks the sweep for smoke runs.
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common.h"
#include "util/table.h"
#include "util/units.h"

namespace {

using namespace horam;
using namespace horam::bench;

}  // namespace

int main(int argc, char** argv) {
  const bench_options options = parse_bench_args(argc, argv);

  dataset data;
  data.data_bytes = options.small ? 8 * util::mib : 64 * util::mib;
  data.memory_bytes = options.small ? 1 * util::mib : 8 * util::mib;
  const workload_recipe recipe = bench_recipe(options, 3000, 20000);

  const std::uint64_t page_bytes = 16384;
  const std::vector<sim::device_profile> profiles =
      bench_storage_profiles(options);
  const std::vector<backend_kind> kinds =
      options.small
          ? std::vector<backend_kind>{backend_kind::path}
          : std::vector<backend_kind>{backend_kind::partitioned,
                                      backend_kind::path};

  if (!options.json) {
    std::cout << "=== Ablation: storage layout x backend x device "
                 "profile ("
              << util::format_bytes(data.data_bytes) << " dataset, "
              << util::format_count(recipe.request_count) << " requests, "
              << util::format_bytes(page_bytes) << " pages) ===\n";
  }

  std::string json = "{\n  \"bench\": \"ablation_page_layout\",\n"
                     "  \"page_bytes\": " +
                     std::to_string(page_bytes) + ",\n  \"runs\": [\n";
  bool first_run = true;
  util::text_table table({"Profile", "Backend", "Layout", "Requests",
                          "Dev reads", "Dev writes", "Ops/req",
                          "Op reduction", "Avg IO (us)", "Sim total"});
  for (const sim::device_profile& profile : profiles) {
    const machine hw{profile, sim::dram_ddr4(), sim::cpu_aesni()};
    for (const backend_kind kind : kinds) {
      double flat_ops_per_request = 0.0;
      for (const storage::storage_layout layout : all_storage_layouts) {
        const system_run run = run_horam(
            data, recipe, hw,
            [layout, page_bytes](horam_config& config) {
              config.layout = layout;
              config.page_bytes = page_bytes;
            },
            kind);
        const double ops_per_request =
            run.stats.requests > 0
                ? static_cast<double>(run.io.total_ops()) /
                      static_cast<double>(run.stats.requests)
                : 0.0;
        if (layout == storage::storage_layout::flat) {
          flat_ops_per_request = ops_per_request;
        }
        // Flat is the control of each profile x backend cell; the
        // reduction column is how many flat-layout device ops one
        // page-layout op replaces.
        const double reduction = ops_per_request > 0.0
                                     ? flat_ops_per_request /
                                           ops_per_request
                                     : 0.0;
        table.add_row(
            {std::string(profile.name),
             std::string(backend_name(kind)),
             std::string(storage_layout_name(layout)),
             util::format_count(run.stats.requests),
             util::format_count(run.io.read_ops),
             util::format_count(run.io.write_ops),
             util::format_double(ops_per_request, 2),
             util::format_double(reduction, 2) + "x",
             util::format_double(run.avg_io_latency_us(), 1),
             util::format_time_ns(run.stats.total_time)});
        if (!first_run) {
          json += ",\n";
        }
        first_run = false;
        json += "    {\"storage_profile\": " + json_escape(profile.name) +
                ", \"backend\": " + json_escape(backend_name(kind)) +
                ", \"layout\": " +
                json_escape(storage_layout_name(layout)) +
                ", \"device_ops_per_request\": " +
                json_number(ops_per_request) +
                ", \"op_reduction_vs_flat\": " + json_number(reduction) +
                ", " + json_fields(run) + "}";
      }
    }
  }
  json += "\n  ]\n}\n";

  std::ofstream out("BENCH_page_layout.json");
  out << json;
  out.close();

  if (options.json) {
    std::cout << json;
  } else {
    table.print(std::cout);
    std::cout
        << "Page rows bundle each h-level path subtree into one device "
           "op and skip reads\nof never-written segments via the "
           "valid-bit tree, so on the path backend the\nops/request "
           "column drops below flat everywhere; seek-bound profiles "
           "(HDD) turn\nthe saved ops into the largest latency win. The "
           "partitioned backend draws\nsingle slots from a permutation "
           "— the layout knob is inert there by design.\n"
           "(wrote BENCH_page_layout.json)\n";
  }
  return 0;
}

// Ablation for dependency-aware round-trip accounting (sim::io_stats::
// round_trips): online storage round trips per request and per backend
// load, swept over backend {path, ring, hier} and device profile
// {hdd, nvme, net-remote}.
//
// A round trip is one request/response exchange with the storage
// device: every operation issued inside one begin_trip()/end_trip()
// scope ships together and counts as a single trip, while operations
// whose inputs depend on earlier results need their own scope and
// therefore their own trip. The path and ring backends walk a
// recursive position map before they can touch the data tree, so each
// load pays (map levels + 1) dependent trips; the hier backend keeps a
// succinct in-memory index and ships all per-level probes as one
// batched scatter read, so a load costs exactly one trip regardless of
// depth (its dummy pools outlast every level's epoch, so no load ever
// waits on a level rebuild). The gap is invisible on throughput-style
// metrics — path may move fewer bytes — and only shows up in
// trip-dominated profiles, so the sweep includes nvme (fast but
// per-op-priced) and net-remote (200us RTT-dominated), where hier's
// total virtual time must come in below path and ring.
//
// Path and ring rows run with map_on_storage=true so their map walks
// hit the same counted device as the data accesses; the default
// in-memory map wiring would hide exactly the cost this ablation
// measures. hier ignores the knob (its index is trusted memory by
// design — that is the trade: control_memory_bytes grows with N).
//
// Every run writes BENCH_round_trips.json to the working directory so
// the trajectory is machine-readable (CI uploads it as an artifact);
// `--json` additionally emits the document to stdout instead of the
// table and `--small` shrinks the workload for smoke runs.
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

/// Profiles this bench sweeps by default: the paper's HDD for
/// continuity, then the two trip-dominated targets the hier backend is
/// built for. `--profile` still restricts to a singleton.
std::vector<sim::device_profile> round_trip_profiles(
    const bench_options& options) {
  if (!options.profile.empty()) {
    return bench_storage_profiles(options);
  }
  return {sim::hdd_paper(), sim::nvme(), sim::net_remote()};
}

}  // namespace

int main(int argc, char** argv) {
  const bench_options options = parse_bench_args(argc, argv);

  dataset data;
  data.data_bytes = options.small ? 8 * util::mib : 32 * util::mib;
  data.memory_bytes = options.small ? 1 * util::mib : 4 * util::mib;
  const workload_recipe recipe = bench_recipe(options, 3000, 20000);

  const std::vector<sim::device_profile> profiles =
      round_trip_profiles(options);

  if (!options.json) {
    std::cout << "=== Ablation: online round trips, backend x device "
                 "profile ("
              << util::format_bytes(data.data_bytes) << " dataset, "
              << util::format_count(recipe.request_count)
              << " requests) ===\n";
  }

  std::string json =
      "{\n  \"bench\": \"ablation_round_trips\",\n  \"runs\": [\n";
  bool first_run = true;
  util::text_table table({"Profile", "Backend", "RT/req", "RT/load",
                          "RT/load vs path", "Online trips",
                          "Shuffle trips", "Sim total",
                          "Total vs path"});

  for (const sim::device_profile& profile : profiles) {
    const machine hw{profile, sim::dram_ddr4(), sim::cpu_aesni()};

    double path_per_load = 0.0;
    double path_total = 0.0;
    const auto emit = [&](const system_run& run,
                          std::string_view backend) {
      const double requests =
          static_cast<double>(std::max<std::uint64_t>(1, run.stats.requests));
      const double loads = static_cast<double>(
          std::max<std::uint64_t>(1, run.stats.cycles));
      const double per_request =
          static_cast<double>(run.online_round_trips()) / requests;
      const double per_load =
          static_cast<double>(run.online_round_trips()) / loads;
      if (backend == "path") {
        path_per_load = per_load;
        path_total = static_cast<double>(run.stats.total_time);
      }
      // Path is the control of each profile: the reduction columns are
      // how many path round trips (how much path virtual time) one of
      // this backend's replaces.
      const double trip_reduction =
          per_load > 0.0 ? path_per_load / per_load : 0.0;
      const double time_reduction =
          run.stats.total_time > 0
              ? path_total / static_cast<double>(run.stats.total_time)
              : 0.0;
      table.add_row({std::string(profile.name), std::string(backend),
                     util::format_double(per_request, 2),
                     util::format_double(per_load, 2),
                     util::format_double(trip_reduction, 2) + "x",
                     util::format_count(run.online_round_trips()),
                     util::format_count(run.stats.shuffle_device_round_trips),
                     util::format_time_ns(run.stats.total_time),
                     util::format_double(time_reduction, 2) + "x"});
      if (!first_run) {
        json += ",\n";
      }
      first_run = false;
      json += "    {\"storage_profile\": " + json_escape(profile.name) +
              ", \"backend\": " + json_escape(backend) +
              ", \"online_round_trips_per_load\": " +
              json_number(per_load) +
              ", \"round_trip_reduction_vs_path\": " +
              json_number(trip_reduction) +
              ", \"time_reduction_vs_path\": " +
              json_number(time_reduction) + ", " + json_fields(run) +
              "}";
    };

    for (const backend_kind backend :
         {backend_kind::path, backend_kind::ring, backend_kind::hier}) {
      const system_run run = run_horam(
          data, recipe, hw,
          [](horam_config& config) {
            config.map_on_storage = true;
            // At bench scale the default direct_threshold (1024)
            // collapses the recursive map to one level, hiding the
            // dependent chain a real-scale dataset pays (8 GB at 64
            // entries/block is a 3-level walk). Recurse down to the
            // depth large-N deployments see so the per-load trip count
            // is representative, not a small-dataset artifact.
            config.map_direct_threshold = 16;
          },
          backend);
      emit(run, backend_name(backend));
    }
  }
  json += "\n  ]\n}\n";

  std::ofstream out("BENCH_round_trips.json");
  out << json;
  out.close();

  if (options.json) {
    std::cout << json;
  } else {
    table.print(std::cout);
    std::cout
        << "RT/load is the dependent request/response chain one "
           "backend load waits on:\npath and ring walk the recursive "
           "position map level by level before touching\nthe tree "
           "(map levels + 1 trips), hier resolves the level in its "
           "in-memory\nsuccinct index and ships every per-level probe "
           "as one batched scatter read\n(exactly 1 trip). RT/req "
           "dilutes by cache hits. The time columns show\nwhere it "
           "matters: trip-priced profiles (nvme, net-remote), not "
           "seek-priced\nones (hdd).\n(wrote BENCH_round_trips.json)\n";
  }
  return 0;
}

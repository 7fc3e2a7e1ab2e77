// Ablation for the Ring ORAM backend (src/oram/ring/): storage-device
// operations and bytes per logical request, swept over the bucket
// geometry (Z real slots x S spare dummies) and device profile, with
// the Path ORAM backend as the per-profile control.
//
// Path reads and rewrites every slot of every bucket on the accessed
// path, so its device bill per request is 2 x levels x Z blocks. Ring
// reads exactly one slot per path bucket online (the real block where
// the target lives, a fresh dummy everywhere else) and, with the XOR
// read mode on, combines the whole path into one device op carrying
// one block's worth of bytes; evictions and early reshuffles move the
// remaining traffic into batched background sweeps amortised over the
// eviction rate A. Device ops and bytes per request are therefore the
// headline columns: ring must come in strictly below path on every
// profile, and the byte gap is widest on the paper's HDD profile where
// XOR turns a levels-deep read into a single seek + one-block
// transfer. An XOR-off row of the default geometry isolates how much
// of the win is the combined fetch vs the one-slot-per-bucket reads.
//
// Every run writes BENCH_ring.json to the working directory so the
// trajectory is machine-readable (CI uploads it as an artifact);
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

/// One ring bucket geometry of the sweep. The spare budget S tracks Z
/// (unread dummies must outlast the reads between reshuffles) and the
/// eviction rate A stays proportional so the background sweep
/// amortisation is comparable across rows.
struct ring_geometry {
  std::uint32_t z = 0;
  std::uint32_t s = 0;
  std::uint32_t a = 0;
};

std::vector<ring_geometry> geometries(bool small) {
  if (small) {
    return {{16, 25, 20}};
  }
  return {{8, 13, 10}, {16, 25, 20}, {32, 49, 40}};
}

}  // namespace

int main(int argc, char** argv) {
  const bench_options options = parse_bench_args(argc, argv);

  dataset data;
  data.data_bytes = options.small ? 8 * util::mib : 32 * util::mib;
  data.memory_bytes = options.small ? 1 * util::mib : 4 * util::mib;
  const workload_recipe recipe = bench_recipe(options, 3000, 20000);

  const std::vector<sim::device_profile> profiles =
      bench_storage_profiles(options);
  const std::vector<ring_geometry> rows = geometries(options.small);

  if (!options.json) {
    std::cout << "=== Ablation: ring geometry (Z x S) x device profile, "
                 "path control ("
              << util::format_bytes(data.data_bytes) << " dataset, "
              << util::format_count(recipe.request_count)
              << " requests) ===\n";
  }

  std::string json = "{\n  \"bench\": \"ablation_ring\",\n  \"runs\": [\n";
  bool first_run = true;
  util::text_table table({"Profile", "Backend", "Z", "S", "A", "XOR",
                          "Online ops/req", "Online B/req",
                          "Online ops vs path", "Online B vs path",
                          "Total B/req", "Total B vs path", "Sim total"});

  for (const sim::device_profile& profile : profiles) {
    const machine hw{profile, sim::dram_ddr4(), sim::cpu_aesni()};

    double path_online_ops = 0.0;
    double path_online_bytes = 0.0;
    double path_total_bytes = 0.0;
    const auto emit = [&](const system_run& run, std::string_view backend,
                          const ring_geometry& geometry, bool xor_reads) {
      const double requests =
          static_cast<double>(std::max<std::uint64_t>(1, run.stats.requests));
      const double online_ops =
          static_cast<double>(run.online_device_ops()) / requests;
      const double online_bytes =
          static_cast<double>(run.online_device_bytes()) / requests;
      const double total_bytes =
          static_cast<double>(run.io.total_bytes()) / requests;
      if (backend == "path") {
        path_online_ops = online_ops;
        path_online_bytes = online_bytes;
        path_total_bytes = total_bytes;
      }
      // Path is the control of each profile; the reduction columns are
      // how many path device ops (bytes) one ring op (byte) replaces.
      const auto reduction = [](double path_value, double value) {
        return value > 0.0 ? path_value / value : 0.0;
      };
      const double online_op_reduction = reduction(path_online_ops,
                                                   online_ops);
      const double online_byte_reduction = reduction(path_online_bytes,
                                                     online_bytes);
      const double total_byte_reduction = reduction(path_total_bytes,
                                                    total_bytes);
      const bool ring = backend == "ring";
      table.add_row(
          {std::string(profile.name), std::string(backend),
           ring ? std::to_string(geometry.z) : "-",
           ring ? std::to_string(geometry.s) : "-",
           ring ? std::to_string(geometry.a) : "-",
           ring ? (xor_reads ? "on" : "off") : "-",
           util::format_double(online_ops, 2),
           util::format_bytes(static_cast<std::uint64_t>(online_bytes)),
           util::format_double(online_op_reduction, 2) + "x",
           util::format_double(online_byte_reduction, 2) + "x",
           util::format_bytes(static_cast<std::uint64_t>(total_bytes)),
           util::format_double(total_byte_reduction, 2) + "x",
           util::format_time_ns(run.stats.total_time)});
      if (!first_run) {
        json += ",\n";
      }
      first_run = false;
      json += "    {\"storage_profile\": " + json_escape(profile.name) +
              ", \"backend\": " + json_escape(backend) +
              ", \"ring_z\": " + std::to_string(ring ? geometry.z : 0) +
              ", \"ring_s\": " + std::to_string(ring ? geometry.s : 0) +
              ", \"ring_a\": " + std::to_string(ring ? geometry.a : 0) +
              ", \"ring_xor\": " +
              (ring && xor_reads ? std::string("true")
                                 : std::string("false")) +
              ", \"online_device_ops_per_request\": " +
              json_number(online_ops) +
              ", \"online_device_bytes_per_request\": " +
              json_number(online_bytes) +
              ", \"device_bytes_per_request\": " +
              json_number(total_bytes) +
              ", \"online_op_reduction_vs_path\": " +
              json_number(online_op_reduction) +
              ", \"online_byte_reduction_vs_path\": " +
              json_number(online_byte_reduction) +
              ", \"byte_reduction_vs_path\": " +
              json_number(total_byte_reduction) + ", " +
              json_fields(run) + "}";
    };

    const system_run path_run = run_horam(data, recipe, hw,
                                          /*config_tweak=*/{},
                                          backend_kind::path);
    emit(path_run, "path", {}, false);

    for (const ring_geometry& geometry : rows) {
      // XOR off only for the default geometry: one row isolates the
      // combined-fetch contribution without doubling the whole sweep.
      const bool sweep_xor_off = geometry.z == 16 && !options.small;
      for (const bool xor_reads :
           sweep_xor_off ? std::vector<bool>{true, false}
                         : std::vector<bool>{true}) {
        const system_run run = run_horam(
            data, recipe, hw,
            [geometry, xor_reads](horam_config& config) {
              config.ring_bucket_size = geometry.z;
              config.ring_spare_slots = geometry.s;
              config.ring_eviction_rate = geometry.a;
              config.ring_xor = xor_reads;
            },
            backend_kind::ring);
        emit(run, "ring", geometry, xor_reads);
      }
    }
  }
  json += "\n  ]\n}\n";

  std::ofstream out("BENCH_ring.json");
  out << json;
  out.close();

  if (options.json) {
    std::cout << json;
  } else {
    table.print(std::cout);
    std::cout
        << "Path pays 2 x levels x Z blocks of online device traffic "
           "per request; ring\nreads one slot per path bucket and, "
           "with XOR on, ships the whole online read\nas a single "
           "device op carrying one block — evictions and early "
           "reshuffles\nbatch the rest into background sweeps "
           "(amortised over A; the Total columns\ninclude them). The "
           "XOR-off row isolates the combined fetch: the op "
           "reduction\nlives there, the online byte reduction is the "
           "one-real-block read itself.\n(wrote BENCH_ring.json)\n";
  }
  return 0;
}

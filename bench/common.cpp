#include "common.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "oram/path/path_oram.h"
#include "sim/profiles.h"
#include "util/math.h"
#include "util/table.h"
#include "util/units.h"

namespace horam::bench {

namespace {

std::vector<request> make_stream(const dataset& data,
                                 const workload_recipe& recipe) {
  util::pcg64 rng(recipe.seed);
  workload::stream_config stream;
  stream.request_count = recipe.request_count;
  stream.block_count = data.block_count();
  stream.write_fraction = 0.0;  // reads and writes cost the same here
  stream.payload_bytes = data.payload_bytes;
  return workload::hotspot(rng, stream, recipe.hot_probability,
                           recipe.hot_region_fraction);
}

double seconds_since(
    const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// --threads from the CLI, applied to every run_horam in the process so
/// existing benches run threaded without touching their run matrices.
std::uint32_t g_cli_threads = 0;

}  // namespace

machine paper_machine() {
  return machine{sim::hdd_paper(), sim::dram_ddr4(), sim::cpu_aesni()};
}

bench_options parse_bench_args(int argc, char** argv) {
  bench_options options;
  const auto count_flag = [&](int& i, std::string_view flag) {
    if (i + 1 >= argc) {
      std::cerr << flag << " needs a value (an integer >= 1)\n";
      std::exit(2);
    }
    char* end = nullptr;
    const unsigned long long value = std::strtoull(argv[++i], &end, 10);
    if (end == nullptr || *end != '\0' || value == 0) {
      std::cerr << flag << " got '" << argv[i]
                << "' (expected an integer >= 1)\n";
      std::exit(2);
    }
    return static_cast<std::uint64_t>(value);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--json") {
      options.json = true;
    } else if (arg == "--small") {
      options.small = true;
    } else if (arg == "--threads") {
      options.threads =
          static_cast<std::uint32_t>(count_flag(i, "--threads"));
    } else if (arg == "--requests") {
      options.requests = count_flag(i, "--requests");
    } else if (arg == "--profile") {
      if (i + 1 >= argc) {
        std::cerr << "--profile needs a name "
                     "(hdd | hdd-raw | ssd | nvme | net-remote | dram)\n";
        std::exit(2);
      }
      options.profile = argv[++i];
      try {
        (void)storage_profile_by_name(options.profile);
      } catch (const contract_error&) {
        std::cerr << "--profile got '" << options.profile
                  << "' (supported: hdd hdd-raw ssd nvme net-remote "
                     "dram)\n";
        std::exit(2);
      }
    } else {
      std::cerr << "unknown flag '" << arg
                << "' (supported: --json --small --threads N "
                   "--profile NAME --requests N)\n";
      std::exit(2);
    }
  }
  g_cli_threads = options.threads;
  return options;
}

std::uint64_t bench_request_count(const bench_options& options,
                                  std::uint64_t small_requests,
                                  std::uint64_t full_requests) {
  if (options.requests > 0) {
    return options.requests;
  }
  return options.small ? small_requests : full_requests;
}

workload_recipe bench_recipe(const bench_options& options,
                             std::uint64_t small_requests,
                             std::uint64_t full_requests) {
  workload_recipe recipe;
  recipe.request_count =
      bench_request_count(options, small_requests, full_requests);
  return recipe;
}

std::vector<sim::device_profile> bench_storage_profiles(
    const bench_options& options) {
  if (!options.profile.empty()) {
    return {storage_profile_by_name(options.profile)};
  }
  if (options.small) {
    return {sim::hdd_paper(), sim::dram_ddr4()};
  }
  return {sim::hdd_paper(), sim::hdd_7200_raw(), sim::ssd_sata(),
          sim::dram_ddr4()};
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  out.push_back('"');
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  std::ostringstream out;
  out << value;
  return out.str();
}

sim::io_stats shard_memory_stats(const engine& eng) {
  sim::io_stats total;
  for (std::uint32_t s = 0; s < eng.shard_count(); ++s) {
    total += eng.shard_memory(s).stats();
  }
  return total;
}

double memory_ops_per_request(const sim::io_stats& memory_io,
                              std::uint64_t requests) {
  return requests > 0 ? static_cast<double>(memory_io.total_ops()) /
                            static_cast<double>(requests)
                      : 0.0;
}

std::string json_fields(const system_run& run) {
  std::ostringstream out;
  out << "\"name\": " << json_escape(run.name);
  controller_stats::for_each_field([&](const char* key, auto member) {
    out << ", \"" << key << "\": " << run.stats.*member;
  });
  const std::uint64_t requests = run.stats.requests;
  const sim::sim_time total_time = run.stats.total_time;
  const double throughput =
      total_time > 0 ? static_cast<double>(requests) * 1e9 /
                           static_cast<double>(total_time)
                     : 0.0;
  out << ", \"avg_io_latency_us\": " << json_number(run.avg_io_latency_us())
      << ", \"throughput_rps\": " << json_number(throughput)
      << ", \"hit_rate\": " << json_number(run.hit_rate())
      << ", \"avg_c\": " << json_number(run.avg_c())
      << ", \"storage_bytes\": " << run.storage_bytes
      << ", \"trusted_bytes\": " << run.trusted_bytes
      << ", \"device_read_ops\": " << run.io.read_ops
      << ", \"device_write_ops\": " << run.io.write_ops
      << ", \"device_read_bytes\": " << run.io.bytes_read
      << ", \"device_write_bytes\": " << run.io.bytes_written
      << ", \"device_round_trips\": " << run.io.round_trips
      << ", \"online_round_trips\": " << run.online_round_trips()
      << ", \"round_trips_per_request\": "
      << json_number(requests > 0
                         ? static_cast<double>(run.online_round_trips()) /
                               static_cast<double>(requests)
                         : 0.0)
      << ", \"memory_ops_per_request\": "
      << json_number(memory_ops_per_request(run.memory_io, requests))
      << ", \"online_device_ops\": " << run.online_device_ops()
      << ", \"online_device_bytes\": " << run.online_device_bytes()
      << ", \"host_seconds\": " << json_number(run.host_seconds)
      << ", \"latency_p50_ns\": " << run.latency_p50()
      << ", \"latency_p95_ns\": " << run.latency_p95()
      << ", \"latency_p99_ns\": " << run.latency_p99()
      << ", \"latency_max_ns\": " << run.latency_max()
      << ", \"runtime\": " << json_escape(run.runtime)
      << ", \"threads\": " << run.threads
      << ", \"wall_seconds\": " << json_number(run.wall_seconds);
  return out.str();
}

system_run run_horam(
    const dataset& data, const workload_recipe& recipe, const machine& hw,
    const std::function<void(horam_config&)>& config_tweak,
    backend_kind backend) {
  const auto start = std::chrono::steady_clock::now();

  client_builder builder;
  builder.blocks(data.block_count())
      .memory_blocks(data.memory_blocks())
      .payload_bytes(data.payload_bytes)
      .logical_block_bytes(data.block_bytes)
      .storage_profile(hw.storage)
      .memory_profile(hw.memory)
      .cpu(hw.cpu)
      .backend(backend)
      .seal(false)  // modelled crypto time; full runs stay fast
      .seed(recipe.seed ^ 0x605a);
  if (g_cli_threads > 0) {
    // CLI-wide threading; a per-run config_tweak setting worker_threads
    // itself still wins (tweaks apply later, inside build()).
    builder.threads(g_cli_threads);
  }
  if (config_tweak) {
    builder.config_tweak(config_tweak);
  }

  client ctrl = builder.build();
  const std::vector<request> stream = make_stream(data, recipe);
  const auto stream_start = std::chrono::steady_clock::now();
  ctrl.run(stream);
  const double wall_seconds = seconds_since(stream_start);

  system_run run;
  run.name = backend == backend_kind::partitioned
                 ? "H-ORAM"
                 : "H-ORAM/" + std::string(backend_name(backend));
  run.stats = ctrl.stats();
  // Whole-machine footprint: every shard's store counts.
  for (std::uint32_t s = 0; s < ctrl.eng().shard_count(); ++s) {
    run.storage_bytes += ctrl.eng().shard(s).backend().physical_bytes();
    run.io += ctrl.eng().shard_storage(s).stats();
  }
  run.memory_io = shard_memory_stats(ctrl.eng());
  run.trusted_bytes = ctrl.control_memory_bytes();
  run.runtime = ctrl.config().worker_threads > 0 ? "threaded" : "sim";
  run.threads = ctrl.eng().worker_threads();
  run.wall_seconds = wall_seconds;
  run.host_seconds = seconds_since(start);
  return run;
}

system_run run_tree_top_path(const dataset& data,
                             const workload_recipe& recipe,
                             const machine& hw) {
  const auto start = std::chrono::steady_clock::now();

  sim::block_device storage_device(hw.storage);
  sim::block_device memory_device(hw.memory);
  const sim::cpu_model cpu(hw.cpu);
  util::pcg64 rng(recipe.seed ^ 0x7061);

  // Tree sized for 2N blocks (<= 50% utilisation, §2.1.2); top levels
  // fill the memory budget, the rest live on storage.
  const std::uint64_t n_blocks = data.block_count();
  oram::path_oram_config config;
  config.bucket_size = 4;
  config.leaf_count =
      util::next_pow2(2 * n_blocks) / (2 * config.bucket_size);
  config.payload_bytes = data.payload_bytes;
  config.logical_block_bytes = data.block_bytes;
  config.id_universe = n_blocks;
  config.seal = false;
  const std::uint64_t memory_bucket_budget =
      data.memory_blocks() / config.bucket_size;
  config.memory_levels = static_cast<std::uint32_t>(
      util::floor_log2(memory_bucket_budget + 1));

  oram::path_oram oram(config, memory_device, &storage_device, cpu, rng,
                       nullptr);
  oram.initialize_full(n_blocks,
                       [](oram::block_id, std::span<std::uint8_t>) {});
  storage_device.reset_stats();
  memory_device.reset_stats();

  const std::vector<request> stream = make_stream(data, recipe);
  const auto stream_start = std::chrono::steady_clock::now();
  oram::cost_split cost;
  for (const request& req : stream) {
    // Serial device usage: a path access walks levels in order.
    cost += oram.access(req.op, req.id, req.write_data, {});
  }

  system_run run;
  run.name = "Path ORAM (tree-top cache)";
  // Every request is a miss served by one storage load; no shuffles.
  controller_stats& stats = run.stats;
  stats.requests = stats.misses = stats.cycles = stats.real_loads =
      stream.size();
  stats.total_time = stats.access_time = cost.total();
  stats.io_busy = stats.io_load_time = cost.io;
  stats.memory_busy = cost.memory;
  stats.cpu_busy = cost.cpu;
  // Physical tree footprint: all buckets at the logical block size.
  run.storage_bytes = (2 * config.leaf_count - 1) * config.bucket_size *
                      data.block_bytes;
  run.io = storage_device.stats();
  run.memory_io = memory_device.stats();
  // Trusted state: the position map and the stash.
  run.trusted_bytes = oram.position_map_bytes() +
                      oram.stash_ref().size() *
                          (data.payload_bytes + sizeof(oram::stash_entry));
  run.wall_seconds = seconds_since(stream_start);
  run.host_seconds = seconds_since(start);
  return run;
}

void print_comparison(const std::string& title, const system_run& horam,
                      const system_run& path,
                      const std::optional<paper_reference>& paper) {
  std::cout << "\n=== " << title << " ===\n";
  util::text_table table(
      paper.has_value()
          ? std::vector<std::string>{"Metric", "H-ORAM (sim)",
                                     "H-ORAM (paper)", "Path ORAM (sim)",
                                     "Path ORAM (paper)"}
          : std::vector<std::string>{"Metric", "H-ORAM (sim)",
                                     "Path ORAM (sim)"});

  const auto row = [&](const std::string& metric, const std::string& h,
                       const std::string& h_paper, const std::string& p,
                       const std::string& p_paper) {
    if (paper.has_value()) {
      table.add_row({metric, h, h_paper, p, p_paper});
    } else {
      table.add_row({metric, h, p});
    }
  };

  const auto ms = [](double v) {
    return util::format_double(v, 0) + " ms";
  };
  row("Number of I/O Access", util::format_count(horam.stats.cycles),
      paper ? util::format_count(
                  static_cast<std::uint64_t>(paper->horam_io_accesses))
            : "",
      util::format_count(path.stats.cycles),
      paper ? util::format_count(
                  static_cast<std::uint64_t>(paper->path_io_accesses))
            : "");
  row("I/O Latency",
      util::format_double(horam.avg_io_latency_us(), 0) + " us",
      paper ? util::format_double(paper->horam_io_latency_us, 0) + " us"
            : "",
      util::format_double(path.avg_io_latency_us(), 0) + " us",
      paper ? util::format_double(paper->path_io_latency_us, 0) + " us"
            : "");
  row("Shuffle Time",
      util::format_time_ns(horam.stats.shuffle_time) + " * " +
          std::to_string(horam.stats.periods),
      paper ? ms(paper->horam_shuffle_ms) : "", "N/A",
      paper ? "N/A" : "");
  row("Total Time", util::format_time_ns(horam.stats.total_time),
      paper ? ms(paper->horam_total_ms) : "",
      util::format_time_ns(path.stats.total_time),
      paper ? ms(paper->path_total_ms) : "");
  row("Storage Size", util::format_bytes(horam.storage_bytes), "",
      util::format_bytes(path.storage_bytes), "");
  table.print(std::cout);

  const double speedup = static_cast<double>(path.stats.total_time) /
                         static_cast<double>(horam.stats.total_time);
  std::cout << "Speedup (total time): " << util::format_double(speedup, 1)
            << "x";
  if (paper.has_value()) {
    std::cout << "   [paper: "
              << util::format_double(
                     paper->path_total_ms / paper->horam_total_ms, 1)
              << "x]";
  }
  std::cout << "\nH-ORAM hit rate: "
            << util::format_double(100.0 * horam.hit_rate(), 1)
            << " %, average c-hat: "
            << util::format_double(horam.avg_c(), 2)
            << ", I/O reduction: "
            << util::format_double(static_cast<double>(path.stats.cycles) /
                                       static_cast<double>(
                                           horam.stats.cycles),
                                   2)
            << "x\n";
  std::cout << "(host simulation time: "
            << util::format_double(horam.host_seconds, 1) << " s + "
            << util::format_double(path.host_seconds, 1) << " s)\n";
}

}  // namespace horam::bench

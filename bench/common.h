// Shared machinery of the benchmark harnesses: end-to-end runners for
// H-ORAM and the tree-top-cache Path ORAM baseline, plus row/report
// helpers that print the paper's tables next to our measured values.
#ifndef HORAM_BENCH_COMMON_H
#define HORAM_BENCH_COMMON_H

#include <algorithm>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "horam.h"

namespace horam::bench {

/// Devices and CPU of one simulated machine (paper Table 5-2 analogue).
struct machine {
  sim::device_profile storage;
  sim::device_profile memory;
  sim::cpu_profile cpu;
};

/// The paper's experimental machine, calibrated (see sim/profiles.h).
machine paper_machine();

/// One end-to-end run's results (rows of Tables 5-3 / 5-4): the
/// controller's counters and the storage devices' totals as recorded,
/// plus what the bench measures itself.
struct system_run {
  std::string name;
  /// Controller counters of the request stream (summed over shards);
  /// stats.cycles is the paper's "Number of I/O Access".
  controller_stats stats;
  /// Storage-device counters of the stream, summed over shard lanes.
  sim::io_stats io;
  /// Memory-device counters (the cache trees' bus), summed over shard
  /// lanes.
  sim::io_stats memory_io;
  std::uint64_t storage_bytes = 0;
  /// Trusted control-layer bytes at the end of the run, summed over
  /// shards (client::control_memory_bytes()).
  std::uint64_t trusted_bytes = 0;
  double host_seconds = 0.0;  // real time spent simulating
  /// Real time spent inside the request stream itself (excludes
  /// machine construction, unlike host_seconds) — the wall-clock
  /// number the threaded runtime moves while total_time stays put.
  double wall_seconds = 0.0;
  /// Execution runtime ("sim" when no worker threads were requested,
  /// else "threaded") and the worker threads actually spawned (0 under
  /// sim and for single-shard machines).
  std::string runtime = "sim";
  std::uint32_t threads = 0;

  [[nodiscard]] double hit_rate() const {
    return static_cast<double>(stats.hits) /
           static_cast<double>(std::max<std::uint64_t>(1, stats.requests));
  }
  [[nodiscard]] double avg_c() const { return stats.average_c(); }
  [[nodiscard]] double avg_io_latency_us() const {
    return stats.average_io_latency_us();
  }
  /// Per-request service-latency tail (controller_stats::
  /// request_latency: ROB entry to retirement, shuffle charges
  /// included) — what the deamortized shuffle pipeline improves.
  [[nodiscard]] sim::sim_time latency_p50() const {
    return stats.request_latency.p50();
  }
  [[nodiscard]] sim::sim_time latency_p95() const {
    return stats.request_latency.p95();
  }
  [[nodiscard]] sim::sim_time latency_p99() const {
    return stats.request_latency.p99();
  }
  [[nodiscard]] sim::sim_time latency_max() const {
    return stats.request_latency.max();
  }

  /// Device ops / bytes / round trips of the access rounds only (totals
  /// minus the shuffle share) — the cost an interactive request
  /// actually waits on. Saturating: a backend whose shuffles outpace
  /// the window's totals (impossible today) would read as zero, not
  /// wrap.
  [[nodiscard]] std::uint64_t online_device_ops() const {
    return saturating_minus(io.total_ops(),
                            stats.shuffle_device().total_ops());
  }
  [[nodiscard]] std::uint64_t online_device_bytes() const {
    return saturating_minus(io.total_bytes(),
                            stats.shuffle_device().total_bytes());
  }
  [[nodiscard]] std::uint64_t online_round_trips() const {
    return saturating_minus(io.round_trips,
                            stats.shuffle_device().round_trips);
  }

 private:
  static std::uint64_t saturating_minus(std::uint64_t a, std::uint64_t b) {
    return a > b ? a - b : 0;
  }
};

/// Workload recipe shared by both systems (§5.2.1): hotspot stream with
/// 80% of requests in a hot region.
struct workload_recipe {
  std::uint64_t request_count = 0;
  double hot_probability = 0.8;
  /// Hot region size as a fraction of the dataset. The thesis does not
  /// report it; 0.017 back-solves from its measured I/O counts (7,228
  /// loads / 25,000 requests small; 129,235 / 500,000 large).
  double hot_region_fraction = 0.017;
  std::uint64_t seed = 2019;
};

/// Dataset geometry shared by both systems.
struct dataset {
  std::uint64_t data_bytes = 0;    // N * block
  std::uint64_t memory_bytes = 0;  // n * block
  std::uint64_t block_bytes = 1024;
  /// Bytes actually carried per block (timing still uses block_bytes);
  /// kept small so 1 GB-scale runs fit comfortably in host memory.
  std::size_t payload_bytes = 32;

  [[nodiscard]] std::uint64_t block_count() const {
    return data_bytes / block_bytes;
  }
  [[nodiscard]] std::uint64_t memory_blocks() const {
    return memory_bytes / block_bytes;
  }
};

/// Runs H-ORAM on the recipe; `config_tweak` (optional) edits the
/// derived horam_config before construction (policies, stages, ...) and
/// `backend` picks the oblivious store behind the controller.
system_run run_horam(
    const dataset& data, const workload_recipe& recipe,
    const machine& hw,
    const std::function<void(horam_config&)>& config_tweak = {},
    backend_kind backend = backend_kind::partitioned);

/// Runs the tree-top-cache Path ORAM baseline (Figure 3-1 a) on the
/// same recipe: 2N-block tree, top levels in memory, the rest on disk.
system_run run_tree_top_path(const dataset& data,
                             const workload_recipe& recipe,
                             const machine& hw);

// ----------------------------------------------------- CLI / JSON mode

/// Flags shared by the bench harnesses (parse with parse_bench_args).
struct bench_options {
  /// Emit machine-readable JSON instead of (or besides) the tables.
  bool json = false;
  /// Shrunken configuration for CI smoke runs.
  bool small = false;
  /// Worker threads for every H-ORAM run in the harness: 0 keeps the
  /// sim runtime, N > 0 runs the shard lanes on N workers. Applies
  /// through run_horam, so every existing ablation bench runs threaded
  /// without code changes; per-run config tweaks still win when they
  /// set worker_threads themselves.
  std::uint32_t threads = 0;
  /// Restrict profile-sweeping benches to one storage profile
  /// (hdd | hdd-raw | ssd | nvme | net-remote | dram); empty sweeps
  /// the bench's own default list. Validated at parse time.
  std::string profile;
  /// Override the per-run request count; 0 keeps the bench's
  /// small/full defaults.
  std::uint64_t requests = 0;
};

/// Parses `--json`, `--small`, `--threads N`, `--profile NAME` and
/// `--requests N`; unknown flags (and unknown profile names) abort
/// with a usage message so CI failures are loud.
bench_options parse_bench_args(int argc, char** argv);

/// The bench's request count: the `--requests` override when given,
/// else the small/full default — the once-per-main
/// `options.small ? X : Y` request block, hoisted.
[[nodiscard]] std::uint64_t bench_request_count(
    const bench_options& options, std::uint64_t small_requests,
    std::uint64_t full_requests);

/// Workload recipe honoring `--requests` / `--small`, for benches whose
/// only per-mode recipe difference is the request count.
[[nodiscard]] workload_recipe bench_recipe(const bench_options& options,
                                           std::uint64_t small_requests,
                                           std::uint64_t full_requests);

/// Storage profiles a profile-sweeping bench should run: the
/// `--profile` singleton when given, else {hdd, dram} for `--small`
/// runs and {hdd, hdd-raw, ssd, dram} for full runs.
[[nodiscard]] std::vector<sim::device_profile> bench_storage_profiles(
    const bench_options& options);

/// Memory-device counters of every shard lane of `eng`, summed.
[[nodiscard]] sim::io_stats shard_memory_stats(const engine& eng);

/// Memory-device ops (reads plus writes) per request; 0 without
/// requests.
[[nodiscard]] double memory_ops_per_request(const sim::io_stats& memory_io,
                                            std::uint64_t requests);

/// JSON string literal with escaping.
std::string json_escape(std::string_view text);

/// A double as a JSON value: finite values print as-is, inf/nan become
/// `null` — std::to_string(inf) would emit "inf", which no JSON parser
/// accepts. Every double a bench emits must go through this.
std::string json_number(double value);

/// The run's metrics as JSON object *fields* (no braces), so callers
/// can prepend their own keys: `{"backend": "...", <json_fields(run)>}`.
std::string json_fields(const system_run& run);

/// Prints a Table 5-3/5-4 style comparison, with the paper's reference
/// numbers when provided.
struct paper_reference {
  double horam_io_accesses = 0;
  double horam_io_latency_us = 0;
  double horam_shuffle_ms = 0;
  double horam_total_ms = 0;
  double path_io_accesses = 0;
  double path_io_latency_us = 0;
  double path_total_ms = 0;
};
void print_comparison(const std::string& title, const system_run& horam,
                      const system_run& path,
                      const std::optional<paper_reference>& paper);

}  // namespace horam::bench

#endif  // HORAM_BENCH_COMMON_H

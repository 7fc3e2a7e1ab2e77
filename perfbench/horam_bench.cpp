// The repository benchmark's measuring program: one workload, one seed,
// one mode per process.
//
//   horam_bench --workload NAME [--seed N] [--seconds S] [--trace FILE]
//
// Plain mode drives the public horam::service in a closed loop (sealing
// on, warm-up excluded by reset_stats()) and reports the end-to-end
// metrics. --trace runs the same machine three times — untraced, then
// assembled by hand with timing decorators at every layer boundary, then
// that traced machine unsealed — reports the per-layer metrics and
// writes the traced machine's spans to FILE as Chrome trace JSON. The
// last line of stdout is one JSON object; the exit code is nonzero when
// any check failed (oracle, consistency, steady state, transparency).
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "closed_loop.h"
#include "common.h"
#include "layer_timing.h"
#include "workloads.h"

namespace horam::perfbench {
namespace {

/// Builds timed for setup_s, after one untimed build; the median is
/// reported.
constexpr int kSetupBuilds = 11;
/// Shuffle periods a non-hier window must span, on every shard.
constexpr std::uint64_t kMinPeriods = 20;
/// Spans kept per lane in the traced run.
constexpr std::size_t kSpanCapacity = 16384;
/// The unsealed twin's virtual throughput must match the traced run's
/// this closely, or the crypto attribution is marked invalid.
constexpr double kTwinTolerance = 0.005;

struct options {
  const workload_spec* w = nullptr;
  std::uint64_t seed = 2019;
  double seconds = 10.0;
  /// Chrome trace output; set exactly when the run is traced.
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "horam_bench: " << problem
            << "\nusage: horam_bench --workload NAME [--seed N] "
               "[--seconds S] [--trace FILE]\nworkloads:";
  for (const workload_spec& w : all_workloads()) {
    std::cerr << ' ' << w.name;
  }
  std::cerr << '\n';
  std::exit(2);
}

options parse(int argc, char** argv) {
  options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage(arg + " needs a value");
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      const std::string name = value();
      opt.w = find_workload(name);
      if (opt.w == nullptr) {
        usage("unknown workload '" + name + "'");
      }
    } else if (arg == "--seed") {
      const std::string text = value();
      char* end = nullptr;
      opt.seed = std::strtoull(text.c_str(), &end, 10);
      if (text.empty() || *end != '\0') {
        usage("--seed got '" + text + "'");
      }
    } else if (arg == "--seconds") {
      const std::string text = value();
      char* end = nullptr;
      opt.seconds = std::strtod(text.c_str(), &end);
      if (text.empty() || *end != '\0' || !(opt.seconds > 0.0) ||
          opt.seconds > 600.0) {
        usage("--seconds got '" + text + "' (0 < S <= 600)");
      }
    } else if (arg == "--trace") {
      opt.trace_out = value();
      if (opt.trace_out.empty()) {
        usage("--trace needs a file name");
      }
    } else {
      usage("unknown flag '" + arg + "'");
    }
  }
  if (opt.w == nullptr) {
    usage("--workload is required");
  }
  return opt;
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

template <typename A, typename B>
double ratio(A num, B den) {
  return ratio(static_cast<double>(num), static_cast<double>(den));
}

/// Parzen's mid-quantile of the raw samples: the linear interpolation,
/// over the distinct values, of the points (mid-rank share, value); a
/// value's mid-rank share is the share of samples below it plus half
/// its own. For untied samples it is the usual interpolated quantile.
/// Virtual latencies come in whole device cycles, so plain quantiles
/// sit on large ties and jump a cycle at a time; this one moves
/// smoothly with the mix of cycle counts.
double quantile(std::vector<sim::sim_time> samples, double q) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  double below_share = -1.0;  // none yet
  double below_value = 0.0;
  for (std::size_t i = 0; i < samples.size();) {
    std::size_t j = i;
    while (j < samples.size() && samples[j] == samples[i]) {
      ++j;
    }
    const double share = static_cast<double>(i + j) / 2.0 / n;
    const double value = static_cast<double>(samples[i]);
    if (share >= q) {
      return below_share < 0.0
                 ? value
                 : below_value + (q - below_share) / (share - below_share) *
                                     (value - below_value);
    }
    below_share = share;
    below_value = value;
    i = j;
  }
  return below_value;
}

std::vector<sim::sim_time> latencies_of(const loop_result& r, bool writes) {
  std::vector<sim::sim_time> picked;
  for (std::size_t i = 0; i < r.latencies.size(); ++i) {
    if ((r.is_write[i] != 0) == writes) {
      picked.push_back(r.latencies[i]);
    }
  }
  return picked;
}

double virt_ops_per_s(const loop_result& r) {
  return ratio(r.measured, static_cast<double>(r.virt_ns) * 1e-9);
}

double host_cpu_us_per_op(const loop_result& r) {
  return ratio(r.cpu_s * 1e6, r.measured);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct metric {
  std::string name;
  double value = 0.0;
  const char* unit = "";
};

/// The run's outcome: what every check found, and the metrics.
struct report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  std::vector<metric> metrics;

  void absorb(const loop_result& r, const char* run) {
    attempted += r.attempted;
    failed += r.failed;
    if (r.failed > 0) {
      problems.push_back(std::string(run) + ": " +
                         std::to_string(r.failed) +
                         " failed checks, first: " + r.first_failure);
    }
  }
};

/// A metric value with every digit it was measured with: bench/common's
/// json_number keeps six significant digits, which is enough for a table
/// but not for a result whose run-to-run jitter must stay visible.
/// Non-finite values still go through json_number (null).
std::string full_precision(double value) {
  if (!std::isfinite(value)) {
    return bench::json_number(value);
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

void print_report(const options& opt, const report& rep) {
  using bench::json_escape;
  std::string line = "{\"workload\": " + json_escape(opt.w->name) +
                     ", \"seed\": " + std::to_string(opt.seed) +
                     ", \"mode\": " +
                     json_escape(opt.trace_out.empty() ? "plain" : "trace") +
                     ", \"correct\": " +
                     (rep.problems.empty() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(rep.attempted) +
                     ", \"failed\": " + std::to_string(rep.failed) +
                     ", \"problems\": [";
  for (std::size_t i = 0; i < rep.problems.size(); ++i) {
    line += (i > 0 ? ", " : "") + json_escape(rep.problems[i]);
  }
  line += "], \"metrics\": {";
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const metric& m = rep.metrics[i];
    line += (i > 0 ? ", " : "") + json_escape(m.name) + ": {\"value\": " +
            full_precision(m.value) + ", \"unit\": " + json_escape(m.unit) +
            "}";
  }
  std::cout << line << "}}" << std::endl;
}

/// Steady-state guard: the window must span enough shuffle periods —
/// for hier, a whole merge cascade into the bottom level.
void check_steady_state(const workload_spec& w, request_port& port,
                        const loop_result& r, report& rep) {
  std::uint64_t need = kMinPeriods;
  if (w.backend == backend_kind::hier) {
    const auto* hier =
        dynamic_cast<const oram::hier_backend*>(&port.store(0));
    invariant(hier != nullptr, "hier workload without a hier backend");
    need = 1;
    for (std::uint32_t l = 1; l < hier->level_count(); ++l) {
      need *= port.eng().config().hier_fanout;
    }
  }
  if (r.min_shard_periods < need) {
    rep.problems.push_back(
        "steady state not reached: " + std::to_string(r.min_shard_periods) +
        " shuffle periods per shard in the window, need " +
        std::to_string(need));
  }
}

/// The requests one run can admit: a first one per slot, then one per
/// completion through warm-up and window, plus the final step's
/// overshoot (it may complete every slot at once).
std::vector<request> run_stream(const options& opt, const engine& eng,
                                std::uint64_t measured) {
  const workload_spec& w = *opt.w;
  return make_stream(
      w, opt.seed, eng,
      w.warmup_ops + measured + 2ULL * w.tenants * w.outstanding);
}

void run_plain(const options& opt, report& rep) {
  const workload_spec& w = *opt.w;
  const std::uint64_t measured = measured_ops(w, opt.seconds);

  const client_builder builder = make_builder(w, opt.seed, /*seal=*/true);
  std::vector<double> builds;
  std::optional<service> svc(builder.build_service());
  for (int i = 0; i < kSetupBuilds; ++i) {
    svc.reset();
    const steady::time_point start = steady::now();
    svc.emplace(builder.build_service());
    builds.push_back(static_cast<double>(elapsed_ns(start)) * 1e-9);
  }
  std::sort(builds.begin(), builds.end());

  service_port port(std::move(*svc), w.tenants, w.outstanding);
  svc.reset();
  const std::vector<request> stream = run_stream(opt, port.eng(), measured);
  const loop_result r =
      run_closed_loop(port, w, stream, w.warmup_ops, measured);
  rep.absorb(r, "service");
  check_steady_state(w, port, r, rep);

  rep.metrics = {
      {"setup_s", builds[builds.size() / 2], "s"},
      {"virt_ops_per_s", virt_ops_per_s(r), "ops/s"},
      {"lat_p50_us", quantile(r.latencies, 0.50) / 1e3, "us"},
      {"lat_p99_us", quantile(r.latencies, 0.99) / 1e3, "us"},
      {"lat_p999_us", quantile(r.latencies, 0.999) / 1e3, "us"},
      {"host_cpu_us_per_op", host_cpu_us_per_op(r), "us"},
      {"wall_ops_per_s", ratio(r.measured, r.wall_s), "ops/s"},
      {"trusted_mem_kib", static_cast<double>(r.trusted_bytes) / 1024.0,
       "KiB"},
      {"storage_bytes_per_user_byte",
       ratio(r.physical_bytes, w.blocks * kPayloadBytes), "B/B"},
      {"peak_rss_mib", peak_rss_mib(), "MiB"},
  };
}

/// Transparency: the traced machine must reproduce the untraced run's
/// virtual behaviour exactly — latencies, clock and counters.
bool same_virtual_run(const loop_result& a, const loop_result& b) {
  const controller_stats& x = a.controller;
  const controller_stats& y = b.controller;
  return a.measured == b.measured && a.virt_ns == b.virt_ns &&
         a.latencies == b.latencies && x.requests == y.requests &&
         x.hits == y.hits && x.cycles == y.cycles &&
         x.real_loads == y.real_loads && x.dummy_loads == y.dummy_loads &&
         x.dummy_path_accesses == y.dummy_path_accesses &&
         x.periods == y.periods && x.shuffle_slices == y.shuffle_slices &&
         x.access_time == y.access_time &&
         x.shuffle_time == y.shuffle_time && x.total_time == y.total_time &&
         x.io_busy == y.io_busy && x.memory_busy == y.memory_busy &&
         x.cpu_busy == y.cpu_busy &&
         x.shuffle_stall_time == y.shuffle_stall_time &&
         a.router.rounds == b.router.rounds &&
         a.router.pad_requests == b.router.pad_requests &&
         a.router.physical_accesses == b.router.physical_accesses &&
         a.storage.read_ops == b.storage.read_ops &&
         a.storage.write_ops == b.storage.write_ops &&
         a.storage.bytes_read == b.storage.bytes_read &&
         a.storage.bytes_written == b.storage.bytes_written &&
         a.storage.round_trips == b.storage.round_trips &&
         a.storage.busy_time == b.storage.busy_time &&
         a.memory.read_ops == b.memory.read_ops &&
         a.memory.write_ops == b.memory.write_ops;
}

struct traced_run {
  loop_result result;
  backend_totals backend;
  policy_totals policy;
  std::uint64_t admits = 0;
  std::int64_t admit_ns = 0;
  std::uint64_t steps = 0;
  std::int64_t step_ns = 0;
  std::uint32_t worker_threads = 0;
  std::uint32_t round_cap = 0;
};

traced_run run_traced(const options& opt, const horam_config& config,
                      std::span<const request> stream, std::uint64_t measured,
                      steady::time_point origin, const char* name,
                      report& rep, bool write_trace) {
  const workload_spec& w = *opt.w;
  traced_port port(config, w, opt.seed, origin, kSpanCapacity);
  traced_run run;
  run.result = run_closed_loop(port, w, stream, w.warmup_ops, measured);
  rep.absorb(run.result, name);
  run.backend = port.backend();
  run.policy = port.policy();
  run.admits = port.admits();
  run.admit_ns = port.admit_ns();
  run.steps = port.steps();
  run.step_ns = port.step_ns();
  run.worker_threads = port.eng().worker_threads();
  run.round_cap = port.eng().round_cap();
  if (write_trace) {
    std::ofstream file(opt.trace_out);
    const std::vector<const span_buffer*> buffers = port.span_buffers();
    write_chrome_trace(file, buffers);
    if (!file) {
      rep.problems.push_back("could not write " + opt.trace_out);
    }
  }
  return run;
}

void run_trace(const options& opt, report& rep) {
  const workload_spec& w = *opt.w;
  const steady::time_point origin = steady::now();
  const std::uint64_t measured = measured_ops(w, opt.seconds);

  // 1. The untraced service, as in plain mode; also captures the config
  //    build_service() derives, which the traced machine reuses.
  horam_config config;
  std::vector<request> stream;
  loop_result plain;
  {
    service_port port(
        make_builder(w, opt.seed, /*seal=*/true, &config).build_service(),
        w.tenants, w.outstanding);
    stream = run_stream(opt, port.eng(), measured);
    plain = run_closed_loop(port, w, stream, w.warmup_ops, measured);
    rep.absorb(plain, "service");
    check_steady_state(w, port, plain, rep);
  }

  // 2. The traced machine, sealed; 3. its unsealed twin.
  const traced_run sealed = run_traced(opt, config, stream, measured, origin,
                                       "traced", rep, /*write_trace=*/true);
  if (!same_virtual_run(plain, sealed.result)) {
    rep.problems.push_back(
        "transparency: the traced machine's virtual run differs from "
        "build_service()'s");
  }
  horam_config unsealed_config = config;
  unsealed_config.seal = false;
  const traced_run twin =
      run_traced(opt, unsealed_config, stream, measured, origin,
                 "traced-unsealed", rep, /*write_trace=*/false);

  const loop_result& r = sealed.result;
  const controller_stats& c = r.controller;
  const backend_totals& b = sealed.backend;
  const double ops = static_cast<double>(r.measured);
  const double periods = static_cast<double>(std::max<std::uint64_t>(
      c.periods, 1));
  const double host = host_cpu_us_per_op(r);
  const double crypto = host - host_cpu_us_per_op(twin.result);
  const bool twin_valid =
      std::abs(virt_ops_per_s(twin.result) - virt_ops_per_s(r)) <=
      kTwinTolerance * virt_ops_per_s(r);
  const std::uint64_t online_ops =
      r.storage.total_ops() - c.shuffle_device_read_ops -
      c.shuffle_device_write_ops;
  const std::uint64_t online_bytes =
      r.storage.total_bytes() - c.shuffle_device_read_bytes -
      c.shuffle_device_write_bytes;

  rep.metrics = {
      {"crypto.host_us_per_op", crypto, "us"},
      {"crypto.host_share", ratio(crypto, host), "ratio"},
      {"crypto.attribution_valid", twin_valid ? 1.0 : 0.0, "bool"},
      {"controller.hit_rate", ratio(c.hits, c.requests), "ratio"},
      {"controller.avg_c", c.average_c(), "count"},
      {"controller.dummy_load_fraction", ratio(c.dummy_loads, c.cycles),
       "ratio"},
      {"controller.dummy_path_accesses_per_op",
       ratio(c.dummy_path_accesses, ops), "count"},
      {"controller.access_virt_us_per_op", ratio(c.access_time, ops) / 1e3,
       "us"},
      {"controller.memory_busy_us_per_op", ratio(c.memory_busy, ops) / 1e3,
       "us"},
      {"controller.cpu_busy_us_per_op", ratio(c.cpu_busy, ops) / 1e3, "us"},
      {"controller.shuffle_virt_us_per_op", ratio(c.shuffle_time, ops) / 1e3,
       "us"},
      {"controller.shuffle_stall_us_per_op",
       ratio(c.shuffle_stall_time, ops) / 1e3, "us"},
      {"controller.periods", static_cast<double>(c.periods), "count"},
      {"controller.shuffle_slices_per_period",
       ratio(c.shuffle_slices, periods), "count"},
      {"backend.shuffle_host_ms_per_period",
       ratio(b.shuffle_host_ns(), periods) / 1e6, "ms"},
      {"backend.shuffle_virt_ms_per_period",
       ratio(b.shuffle_entry.virt_ns + b.job_step.virt_ns, periods) / 1e6,
       "ms"},
      {"backend.shuffle_steps_per_period", ratio(b.job_step.calls, periods),
       "count"},
      {"backend.overflow_blocks_per_period",
       ratio(b.overflow_blocks, periods), "count"},
      {"backend.load_calls_per_op", ratio(b.load.calls, ops), "count"},
      {"backend.load_host_us_per_call",
       ratio(b.load.host_ns, b.load.calls) / 1e3, "us"},
      {"backend.load_virt_us_per_call",
       ratio(b.load.virt_ns, b.load.calls) / 1e3, "us"},
      {"backend.dummy_load_calls_per_op", ratio(b.dummy_load.calls, ops),
       "count"},
      {"backend.dummy_load_host_us_per_call",
       ratio(b.dummy_load.host_ns, b.dummy_load.calls) / 1e3, "us"},
      {"backend.dummy_load_virt_us_per_call",
       ratio(b.dummy_load.virt_ns, b.dummy_load.calls) / 1e3, "us"},
      {"backend.prefetch_fraction", ratio(b.prefetched, b.dummy_load.calls),
       "ratio"},
      {"backend.host_us_per_op", ratio(b.host_ns(), ops) / 1e3, "us"},
      {"engine.rounds_per_kop", ratio(r.router.rounds, ops) * 1e3, "count"},
      {"engine.round_cap", static_cast<double>(sealed.round_cap), "count"},
      {"engine.pad_fraction",
       ratio(r.router.pad_requests,
             r.router.pad_requests + r.router.physical_accesses),
       "ratio"},
      {"coalesce.ios_per_logical_request",
       r.router.ios_per_logical_request(), "ratio"},
      {"coalesce.merged_fraction",
       ratio(r.router.coalesced_requests, r.router.real_requests), "ratio"},
      {"runtime.worker_threads", static_cast<double>(sealed.worker_threads),
       "count"},
      {"runtime.cpu_parallelism", ratio(r.cpu_s, r.wall_s), "ratio"},
      {"service.admit_host_ns_per_op",
       ratio(sealed.admit_ns, sealed.admits), "ns"},
      {"service.step_host_us_per_op", ratio(sealed.step_ns, ops) / 1e3,
       "us"},
      {"service.ops_per_step", ratio(ops, sealed.steps), "count"},
      {"service.read_lat_p99_us",
       quantile(latencies_of(r, false), 0.99) / 1e3, "us"},
      {"service.write_lat_p99_us",
       quantile(latencies_of(r, true), 0.99) / 1e3, "us"},
      {"sched.pick_calls_per_op", ratio(sealed.policy.picks, ops), "count"},
      {"sched.pick_host_ns_per_call",
       ratio(sealed.policy.host_ns, sealed.policy.picks), "ns"},
      {"sched.queued_mean",
       ratio(sealed.policy.queued_sum, sealed.policy.picks), "count"},
      {"core.residual_host_us_per_op",
       ratio(sealed.step_ns - b.host_ns() - sealed.policy.host_ns, ops) / 1e3,
       "us"},
      {"device.online_ops_per_op", ratio(online_ops, ops), "count"},
      {"device.online_kib_per_op", ratio(online_bytes, ops) / 1024.0, "KiB"},
      {"device.online_round_trips_per_op",
       ratio(r.storage.round_trips - c.shuffle_device_round_trips, ops),
       "count"},
      {"device.shuffle_ops_per_op",
       ratio(c.shuffle_device_read_ops + c.shuffle_device_write_ops, ops),
       "count"},
      {"device.shuffle_kib_per_op",
       ratio(c.shuffle_device_read_bytes + c.shuffle_device_write_bytes,
             ops) /
           1024.0,
       "KiB"},
      {"device.storage_busy_us_per_op",
       ratio(r.storage.busy_time, ops) / 1e3, "us"},
      {"device.sequential_fraction",
       ratio(r.storage.sequential_read_ops + r.storage.sequential_write_ops,
             r.storage.total_ops()),
       "ratio"},
      {"device.write_amplification",
       ratio(r.storage.bytes_written,
             std::count(r.is_write.begin(), r.is_write.end(), 1) *
                 kPayloadBytes),
       "ratio"},
      {"device.memory_ops_per_op", ratio(r.memory.total_ops(), ops),
       "count"},
      {"trace.overhead_fraction", ratio(r.wall_s, plain.wall_s) - 1.0,
       "ratio"},
  };
}

}  // namespace
}  // namespace horam::perfbench

int main(int argc, char** argv) {
  using namespace horam::perfbench;
  const options opt = parse(argc, argv);
  // Keep freed memory in the process (up to glibc's largest mmap
  // threshold), so a rebuilt machine reuses the pages of the one before
  // and host times measure the library's work, not the kernel zeroing
  // fresh pages.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  report rep;
  try {
    if (!opt.trace_out.empty()) {
      run_trace(opt, rep);
    } else {
      run_plain(opt, rep);
    }
  } catch (const std::exception& e) {
    ++rep.failed;
    rep.problems.push_back(std::string("exception: ") + e.what());
  }
  if (rep.attempted == 0) {
    rep.problems.push_back("no request completed");
  }
  print_report(opt, rep);
  return rep.problems.empty() ? 0 : 1;
}

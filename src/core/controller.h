// H-ORAM controller: the trusted orchestrator tying together the
// in-memory Path ORAM cache, a pluggable oram_backend (the partitioned
// storage layer by default), the ROB table and the secure scheduler
// (Figure 4-1).
//
// Operation (§4.1): during an access period each cycle issues exactly
// one storage load (real miss, or a dummy that may prefetch) in
// parallel with c in-memory path accesses; the cycle lasts
// max(io lane, memory lane) of virtual time. The c accesses — the
// cycle's hits in plan order, then the padding dummies — reach the
// cache tree as one batch (path_oram::access_batch): the union of
// their c uniform paths is read, opened, re-sealed and written back
// once, so the memory lane is charged per union bucket. A real load
// serves its own request from the fill at the end of its cycle (a read
// returns the fill; a write replaces it, zero-padded, and a
// fetch_before_write write returns it first) and the block enters the
// cache tree as that request leaves it, so a miss retires with the
// cycle's hits and needs no path-access slot. Work a load leaves owed
// (oram_backend::load_result::deferred: Ring ORAM's scheduled
// evictions) waits until the batch's last request has completed — the
// end of run() — or until a period ends, whichever comes first, and
// lengthens the lane there; serve() leaves it for the caller to
// settle() (the sharded engine's round end). Every cycle pays for an
// install and for a trusted-memory copy in each of its c slots, so
// neither lane's length shows whether a block arrived or which hits
// were served from trusted memory. A period is at
// most n/2 loads: after n/2 loads the controller runs the shuffle
// period — oblivious tree evict, group-and-partition shuffle, tree
// re-initialisation — and a caller may end it earlier between batches
// (end_period(); the sharded engine ends every shard's period together,
// at the end of a round). The shuffle's device
// time is charged according to the configured shuffle_policy (foreground /
// page-cache-style async write-back / fully offloaded — Figure 5-2 —
// or deamortized: shuffle_policy::incremental turns the period into a
// backend shuffle_job whose budget-bounded slices run between access
// rounds, so the stop-the-world latency cliff disappears from the
// request tail).
#ifndef HORAM_CORE_CONTROLLER_H
#define HORAM_CORE_CONTROLLER_H

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/config.h"
#include "core/oram_backend.h"
#include "core/rob_table.h"
#include "core/scheduler.h"
#include "core/storage_layer.h"
#include "oram/common/access_trace.h"
#include "oram/common/types.h"
#include "oram/path/path_oram.h"
#include "sim/cpu_model.h"
#include "sim/device.h"
#include "sim/stats.h"
#include "sim/time.h"
#include "util/rng.h"

namespace horam {

/// One application request.
struct request {
  oram::op_kind op = oram::op_kind::read;
  oram::block_id id = 0;
  /// Submitting user (multi-user front end; 0 for single user).
  std::uint32_t user = 0;
  /// Payload for writes (empty for reads).
  std::vector<std::uint8_t> write_data;
  /// Read-modify-write: a write that also returns the block's pre-write
  /// payload in request_result::read_data. One physical access either
  /// way — ORAM rewrites the block on every access — so the bus shape
  /// is unchanged. The coalescer uses this to serve readers that were
  /// merged ahead of a write in the same round.
  bool fetch_before_write = false;
};

/// Per-request outcome (optional output of run()).
struct request_result {
  sim::sim_time completion_time = 0;
  /// Control-layer knowledge: was the block memory-resident when first
  /// scheduled? (Never observable on the bus.)
  bool hit = false;
  std::vector<std::uint8_t> read_data;
};

/// Throws util::contract_error for a request no cycle can serve — an id
/// outside [0, config.block_count), or a write longer than
/// config.payload_bytes. Every admission path (controller::run and the
/// engine's) calls it before anything is queued, loaded or drawn.
void check_admissible(const request& req, const horam_config& config);

/// Aggregate counters of a controller run.
struct controller_stats {
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t cycles = 0;  // == storage loads issued (paper: "I/O accesses")
  std::uint64_t real_loads = 0;
  std::uint64_t dummy_loads = 0;
  std::uint64_t dummy_path_accesses = 0;
  std::uint64_t periods = 0;  // completed shuffle periods
  /// Incremental shuffle slices pumped between access rounds
  /// (shuffle_policy::incremental with a bounded slice budget).
  std::uint64_t shuffle_slices = 0;

  sim::sim_time access_time = 0;   // wall time of access periods
  sim::sim_time shuffle_time = 0;  // device time of shuffle periods
  sim::sim_time total_time = 0;    // wall time incl. charged shuffles
  sim::sim_time io_busy = 0;       // storage-device busy time
  sim::sim_time memory_busy = 0;   // memory-device busy time
  sim::sim_time cpu_busy = 0;      // control-layer busy time
  sim::sim_time io_load_time = 0;  // storage time of loads only
  /// Time spent finishing an in-flight incremental job foreground
  /// because the next period boundary arrived first (the cliff the
  /// slice budget should be sized to avoid).
  sim::sim_time shuffle_stall_time = 0;
  /// Runs of the work loads left owed (load_result::deferred) and their
  /// device time: lane time after the batch's completions, counted in
  /// access_time and the busy times but in no load.
  std::uint64_t deferred_runs = 0;
  sim::sim_time deferred_time = 0;

  /// Storage-device traffic attributable to shuffle periods and
  /// incremental shuffle slices, measured by snapshotting the device's
  /// io_stats around the shuffle execution points (zero until
  /// attach_device_stats wires a device; the engine does). Subtracting
  /// these from the device totals isolates the *online* traffic of the
  /// access rounds — the split the ring backend's one-slot reads and
  /// XOR fetches improve while its evictions batch into sweeps.
  std::uint64_t shuffle_device_read_ops = 0;
  std::uint64_t shuffle_device_write_ops = 0;
  std::uint64_t shuffle_device_read_bytes = 0;
  std::uint64_t shuffle_device_write_bytes = 0;
  /// Round trips (sim::io_stats::round_trips) the shuffle machinery
  /// consumed; device total minus this is the online round-trip count —
  /// the dependent-exchange metric the hier backend's batched probes
  /// collapse to ≈1 per request.
  std::uint64_t shuffle_device_round_trips = 0;

  /// Streaming per-request service-latency histogram (ROB entry to
  /// retirement, shuffle charges included), the controller-level half
  /// of the tail-latency accounting. Resource-level: under the sharded
  /// engine it includes the router's padding requests — the tenant
  /// layer's histograms are the application-level view.
  sim::latency_histogram request_latency;

  /// Average storage-load service time (the paper's "I/O Latency").
  [[nodiscard]] double average_io_latency_us() const noexcept {
    return cycles == 0 ? 0.0
                       : static_cast<double>(io_load_time) / 1e3 /
                             static_cast<double>(cycles);
  }
  /// Realised average group size (the paper's ĉ, Eq 5-1).
  [[nodiscard]] double average_c() const noexcept {
    return cycles == 0 ? 0.0
                       : static_cast<double>(requests) /
                             static_cast<double>(cycles);
  }

  /// The field table: calls f(key, member) once per scalar counter,
  /// where key is the name bench rows report it under. Summing, the
  /// bench JSON and the test comparisons all walk this one list; the
  /// static_assert after the struct fails the build when a counter is
  /// added without a row.
  template <typename F>
  static constexpr void for_each_field(F&& f) {
    f("requests", &controller_stats::requests);
    f("hits", &controller_stats::hits);
    f("misses", &controller_stats::misses);
    f("io_accesses", &controller_stats::cycles);
    f("real_loads", &controller_stats::real_loads);
    f("dummy_loads", &controller_stats::dummy_loads);
    f("dummy_path_accesses", &controller_stats::dummy_path_accesses);
    f("shuffle_count", &controller_stats::periods);
    f("shuffle_slices", &controller_stats::shuffle_slices);
    f("access_time_ns", &controller_stats::access_time);
    f("shuffle_time_ns", &controller_stats::shuffle_time);
    f("total_time_ns", &controller_stats::total_time);
    f("io_busy_ns", &controller_stats::io_busy);
    f("memory_busy_ns", &controller_stats::memory_busy);
    f("cpu_busy_ns", &controller_stats::cpu_busy);
    f("io_load_time_ns", &controller_stats::io_load_time);
    f("shuffle_stall_ns", &controller_stats::shuffle_stall_time);
    f("deferred_runs", &controller_stats::deferred_runs);
    f("deferred_time_ns", &controller_stats::deferred_time);
    f("shuffle_device_read_ops", &controller_stats::shuffle_device_read_ops);
    f("shuffle_device_write_ops",
      &controller_stats::shuffle_device_write_ops);
    f("shuffle_device_read_bytes",
      &controller_stats::shuffle_device_read_bytes);
    f("shuffle_device_write_bytes",
      &controller_stats::shuffle_device_write_bytes);
    f("shuffle_device_round_trips",
      &controller_stats::shuffle_device_round_trips);
  }

  /// Pairs each shuffle_device_* counter with the device counter it
  /// snapshots (controller::charge_shuffle_device_delta).
  template <typename F>
  static constexpr void for_each_shuffle_device_field(F&& f) {
    f(&sim::io_stats::read_ops, &controller_stats::shuffle_device_read_ops);
    f(&sim::io_stats::write_ops,
      &controller_stats::shuffle_device_write_ops);
    f(&sim::io_stats::bytes_read,
      &controller_stats::shuffle_device_read_bytes);
    f(&sim::io_stats::bytes_written,
      &controller_stats::shuffle_device_write_bytes);
    f(&sim::io_stats::round_trips,
      &controller_stats::shuffle_device_round_trips);
  }

  /// The shuffle share of the storage device's traffic, as io_stats
  /// (sequential counts and busy time are not split out).
  [[nodiscard]] sim::io_stats shuffle_device() const noexcept {
    sim::io_stats share;
    for_each_shuffle_device_field(
        [&](auto device, auto own) { share.*device = this->*own; });
    return share;
  }

  /// Element-wise accumulation, for multi-instance runs (the sharded
  /// engine, multi-machine benches). Every field sums — including the
  /// wall-clock fields, which therefore read as *lane* time; a caller
  /// aggregating parallel lanes overrides total_time with the wall
  /// window it measured (core/engine.cpp does).
  controller_stats& operator+=(const controller_stats& other) noexcept {
    for_each_field(
        [&](const char*, auto member) { this->*member += other.*member; });
    request_latency += other.request_latency;
    return *this;
  }
};

/// Every scalar counter has exactly one field-table row.
static_assert(
    [] {
      std::size_t bytes = sizeof(sim::latency_histogram);
      controller_stats::for_each_field([&](const char*, auto member) {
        bytes += sizeof(controller_stats{}.*member);
      });
      return bytes;
    }() == sizeof(controller_stats),
    "controller_stats: a counter is missing from for_each_field");

/// Sums a set of per-instance counters (see operator+= for the
/// wall-clock caveat on parallel lanes).
[[nodiscard]] inline controller_stats aggregate(
    std::span<const controller_stats> parts) noexcept {
  controller_stats total;
  for (const controller_stats& part : parts) {
    total += part;
  }
  return total;
}

class controller {
 public:
  /// Primary constructor: the caller chooses the oblivious store. The
  /// backend must protect `config.block_count` blocks of
  /// `config.payload_bytes` payload; `memory_device` backs the in-memory
  /// cache tree.
  controller(const horam_config& config,
             std::unique_ptr<oram_backend> backend,
             sim::block_device& memory_device, const sim::cpu_model& cpu,
             util::random_source& rng, oram::access_trace* trace = nullptr);

  /// Convenience constructor: fronts the default partitioned
  /// storage_layer on `storage_device`. Pass a filler to give blocks
  /// initial contents (null = zero-filled).
  controller(const horam_config& config, sim::block_device& storage_device,
             sim::block_device& memory_device, const sim::cpu_model& cpu,
             util::random_source& rng, oram::access_trace* trace = nullptr,
             const std::function<void(oram::block_id,
                                      std::span<std::uint8_t>)>* filler =
                 nullptr);

  /// Processes a batch of requests to completion. Results (per-request
  /// completion time, read payloads) are captured when `results` is
  /// non-null. May be called repeatedly; virtual time accumulates.
  void run(std::span<const request> requests,
           std::vector<request_result>* results = nullptr);
  /// run() without its last step: work the loads leave owed stays owed
  /// after the batch's last completion, for the caller to settle()
  /// (a period end inside the batch still runs all of it first).
  void serve(std::span<const request> requests,
             std::vector<request_result>* results = nullptr);
  /// Units of work the loads left owed that have not run (0 = none;
  /// deferred_work::owed()).
  [[nodiscard]] std::uint64_t owed_units() const;
  /// Runs the first `limit` owed units as one round trip and charges
  /// them to the lane (kAllOwed: everything owed).
  void settle(std::uint64_t limit);
  static constexpr std::uint64_t kAllOwed = UINT64_MAX;

  /// Convenience single-request API (examples / interactive use); pads
  /// the group with dummies like any other cycle.
  std::vector<std::uint8_t> read(oram::block_id id);
  void write(oram::block_id id, std::span<const std::uint8_t> data);

  [[nodiscard]] const controller_stats& stats() const noexcept {
    return stats_;
  }
  /// Zeroes the counters and restarts the total_time epoch at the
  /// current virtual time, so benches can exclude warm-up traffic.
  void reset_stats() noexcept;
  /// Wires the storage device's counters so shuffle-period device
  /// traffic can be told apart from online access traffic (the
  /// shuffle_device_* stats). `stats` must outlive the controller;
  /// null (the default) leaves those counters at zero. The convenience
  /// ctor and the engine attach automatically.
  void attach_device_stats(const sim::io_stats* stats) noexcept {
    device_stats_ = stats;
  }
  /// Requests an incremental pump should submit per scheduling round
  /// (see scheduler::round_budget).
  [[nodiscard]] std::uint64_t round_budget() const noexcept;
  /// True while an incremental shuffle job is riding between rounds
  /// (shuffle_policy::incremental with a bounded slice budget).
  [[nodiscard]] bool shuffle_in_flight() const noexcept {
    return shuffle_job_ != nullptr;
  }
  /// Ends the current access period now, before its n/2 loads are used
  /// up: runs any work the loads left owed, then the shuffle period
  /// exactly as the load budget would. An
  /// incremental job still in flight is first drained foreground (a
  /// stall, counted in shuffle_stall_time); callers that must not stall
  /// check shuffle_in_flight() first. Call between run() batches only.
  void end_period();
  /// Loads the current period has left before its budget ends it.
  [[nodiscard]] std::uint64_t period_loads_left() const noexcept {
    return config_.period_loads() - loads_this_period_;
  }
  [[nodiscard]] sim::sim_time now() const noexcept { return clock_.now(); }
  [[nodiscard]] const horam_config& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const oram::path_oram& memory_tree() const noexcept {
    return *tree_;
  }
  /// The oblivious store behind the cache layer.
  [[nodiscard]] const oram_backend& backend() const noexcept {
    return *storage_;
  }
  /// Typed view of the default partitioned backend; only valid when the
  /// controller fronts a storage_layer (geometry-aware tests, audits).
  [[nodiscard]] const storage_layer& storage() const;
  /// Trusted-memory bytes the control layer occupies (reporting).
  [[nodiscard]] std::uint64_t control_memory_bytes() const;

 private:
  [[nodiscard]] bool resident(oram::block_id id) const;
  /// Runs one slice of the in-flight incremental shuffle job (no-op
  /// without one); charges the slice's device time and, when the job
  /// completes, shelters its overflow.
  void pump_shuffle_slice();
  /// Accumulates the storage-device op/byte growth since `before` into
  /// the shuffle_device_* counters (no-op without an attached device).
  void charge_shuffle_device_delta(const sim::io_stats& before) noexcept;
  /// The trusted-memory copy of a block staged in the in-flight shuffle
  /// job or parked in the shelter; null for any other block.
  [[nodiscard]] std::vector<std::uint8_t>* trusted_copy(oram::block_id id);

  horam_config config_;
  const sim::cpu_model& cpu_;
  util::random_source& rng_;
  oram::access_trace* trace_;

  sim::sim_clock clock_;
  std::unique_ptr<oram::path_oram> tree_;
  std::unique_ptr<oram_backend> storage_;
  scheduler scheduler_;
  rob_table rob_;

  /// Control-layer shelter for shuffle-overflow blocks; resident from
  /// the scheduler's point of view (served with dummy path accesses).
  std::unordered_map<oram::block_id, std::vector<std::uint8_t>> shelter_;

  /// In-flight incremental shuffle job (shuffle_policy::incremental
  /// with a bounded budget); its staged blocks are resident from the
  /// scheduler's point of view, like the shelter.
  std::unique_ptr<shuffle_job> shuffle_job_;

  /// Storage-device counters for the shuffle/online traffic split
  /// (attach_device_stats); null = split not measured.
  const sim::io_stats* device_stats_ = nullptr;

  /// The backend's handle to work loads left owed and not yet settled
  /// (null = nothing owed).
  deferred_work* deferred_ = nullptr;

  /// The cycle's cache-tree accesses (per-cycle scratch; its views into
  /// the run's requests and results are used within the cycle only).
  std::vector<oram::path_oram::request> cycle_accesses_;

  std::uint64_t loads_this_period_ = 0;
  std::uint64_t period_index_ = 0;
  /// Outstanding async write-back debt (shuffle_policy::async_writeback).
  sim::sim_time flush_debt_ = 0;
  /// Virtual-time origin of the current stats window (reset_stats).
  sim::sim_time stats_epoch_ = 0;

  controller_stats stats_;
};

}  // namespace horam

#endif  // HORAM_CORE_CONTROLLER_H

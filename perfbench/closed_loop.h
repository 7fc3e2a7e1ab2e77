// Closed-loop load: every tenant keeps a fixed number of tickets in
// flight and admits the next request of the stream as soon as one
// completes. The loop pumps one of two machines through the same
// request_port interface — the public horam::service, or the traced
// machine assembled from public pieces with timing decorators at each
// layer boundary — so the two runs are comparable bit for bit.
//
// A correctness oracle checks every completion (see run_closed_loop).
#ifndef HORAM_PERFBENCH_CLOSED_LOOP_H
#define HORAM_PERFBENCH_CLOSED_LOOP_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "horam.h"
#include "layer_timing.h"
#include "workloads.h"

namespace horam::perfbench {

/// Outcome of one admitted request, as the application sees it.
struct completion {
  std::vector<std::uint8_t> payload;
  /// Virtual latency from admission to completion.
  sim::sim_time latency = 0;
};

/// The machine a closed-loop run pumps. Requests are addressed by slot
/// (tenant * outstanding + k): each slot holds at most one request.
class request_port {
 public:
  virtual ~request_port() = default;

  virtual void submit(std::size_t slot, std::uint32_t tenant,
                      request req) = 0;
  /// One scheduling round; false when nothing is pending.
  virtual bool step() = 0;
  /// Moves out the completion of the slot's request once it finished.
  virtual bool take(std::size_t slot, completion& out) = 0;
  /// Start of the measured window: zero every counter.
  virtual void reset_stats() = 0;
  /// End of the measured window.
  virtual void end_window() {}
  [[nodiscard]] virtual engine& eng() = 0;
  /// Shard `s`'s oblivious store, undecorated.
  [[nodiscard]] virtual const oram_backend& store(std::uint32_t s) = 0;
};

/// The public service, driven through sessions and tickets.
class service_port final : public request_port {
 public:
  service_port(service svc, std::uint32_t tenants, std::uint32_t outstanding);

  void submit(std::size_t slot, std::uint32_t tenant, request req) override;
  bool step() override { return svc_.step(); }
  bool take(std::size_t slot, completion& out) override;
  void reset_stats() override { svc_.reset_stats(); }
  [[nodiscard]] engine& eng() override { return svc_.underlying().eng(); }
  [[nodiscard]] const oram_backend& store(std::uint32_t s) override {
    return eng().shard(s).backend();
  }

 private:
  service svc_;
  std::vector<session> sessions_;
  std::vector<ticket> tickets_;
};

/// The build_service() machine assembled by hand: an engine whose shard
/// factory wraps make_backend in timed_backend, and a tenant_scheduler
/// over it with a timed_policy around the fairness policy. Also times
/// admissions and scheduler steps, and records one span per step.
class traced_port final : public request_port {
 public:
  /// `config` is the config build_service() derived for the workload
  /// (client_builder's defaults fill in the devices and CPU).
  traced_port(const horam_config& config, const workload_spec& w,
              std::uint64_t seed, steady::time_point origin,
              std::size_t span_capacity);

  void submit(std::size_t slot, std::uint32_t tenant, request req) override;
  bool step() override;
  bool take(std::size_t slot, completion& out) override;
  void reset_stats() override;
  void end_window() override;
  [[nodiscard]] engine& eng() override { return *engine_; }
  [[nodiscard]] const oram_backend& store(std::uint32_t s) override;

  /// Window totals, summed over shards.
  [[nodiscard]] backend_totals backend() const;
  [[nodiscard]] const policy_totals& policy() const noexcept;
  [[nodiscard]] std::uint64_t admits() const noexcept { return admits_; }
  [[nodiscard]] std::int64_t admit_ns() const noexcept { return admit_ns_; }
  [[nodiscard]] std::uint64_t steps() const noexcept { return steps_; }
  [[nodiscard]] std::int64_t step_ns() const noexcept { return step_ns_; }
  [[nodiscard]] std::vector<const span_buffer*> span_buffers() const;

 private:
  sim::cpu_model cpu_;
  /// Id of the open scheduler-step span: the parent of backend spans,
  /// read by the shard workers while the step is in flight.
  std::atomic<std::uint64_t> step_span_{0};
  span_buffer coordinator_spans_;
  std::vector<std::unique_ptr<span_buffer>> shard_spans_;
  /// Owned by the engine's controllers, in shard order.
  std::vector<timed_backend*> backends_;
  timed_policy* policy_ = nullptr;
  std::unique_ptr<engine> engine_;
  std::unique_ptr<tenant_scheduler> sched_;

  std::vector<std::optional<completion>> done_;
  std::unordered_map<std::uint64_t, std::size_t> slot_of_seq_;
  std::uint64_t admits_ = 0;
  std::int64_t admit_ns_ = 0;
  std::uint64_t steps_ = 0;
  std::int64_t step_ns_ = 0;
};

/// Everything a closed-loop run measured.
struct loop_result {
  /// Completions checked by the oracle (warm-up, window and drain) and
  /// how many of them failed, with the first failure's description.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_failure;

  /// The measured window.
  std::uint64_t measured = 0;
  sim::sim_time virt_ns = 0;
  double cpu_s = 0.0;
  double wall_s = 0.0;
  /// Per-completion virtual latency, in completion order, and whether
  /// it was a write.
  std::vector<sim::sim_time> latencies;
  std::vector<std::uint8_t> is_write;

  /// Machine counters at the end of the window.
  controller_stats controller;
  engine_stats router;
  std::uint64_t min_shard_periods = 0;
  sim::io_stats storage;
  sim::io_stats memory;
  std::uint64_t trusted_bytes = 0;
  std::uint64_t physical_bytes = 0;
};

/// Runs `warmup` completions, then a window of at least `measured`
/// completions (counters reset at its start), then drains every
/// outstanding request and audits each shard with check_consistency().
///
/// The oracle: every payload encodes (block id, write version). A read
/// must return its own block id and a version that was issued before
/// the read completed and is not stale — no write to the block that
/// was admitted after that version completed may have completed
/// before the read was admitted. Admissions and completions are
/// ordered as the loop observes them.
[[nodiscard]] loop_result run_closed_loop(request_port& port,
                                          const workload_spec& w,
                                          std::span<const request> stream,
                                          std::uint64_t warmup,
                                          std::uint64_t measured);

}  // namespace horam::perfbench

#endif  // HORAM_PERFBENCH_CLOSED_LOOP_H

// Timing decorators placed at the library's public layer boundaries for
// the benchmark's traced run: a timed_backend around each shard's
// oram_backend (and every shuffle_job it hands out), and a timed_policy
// around the tenant scheduler's fairness policy. They forward every
// call unchanged — the traced machine must behave bit for bit like the
// untraced one — and record host time, virtual cost and call counts,
// plus spans into a bounded in-memory buffer.
//
// Threading: one timed_backend per shard, so under the threaded runtime
// each decorator is only touched by the worker its shard is confined
// to. The coordinator reads or resets them between scheduler steps,
// when every worker is idle; the engine's mailboxes order those
// accesses.
#ifndef HORAM_PERFBENCH_LAYER_TIMING_H
#define HORAM_PERFBENCH_LAYER_TIMING_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <ostream>
#include <span>
#include <string_view>
#include <vector>

#include "horam.h"

namespace horam::perfbench {

using steady = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t elapsed_ns(steady::time_point since) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(steady::now() -
                                                              since)
      .count();
}

/// One completed span: a timed call at a layer boundary. `parent` links
/// a backend call to the scheduler step that caused it (0 = root).
struct span {
  const char* name = "";
  std::uint32_t lane = 0;  // 0 = coordinator, s + 1 = shard s
  std::int64_t start_ns = 0;
  std::int64_t duration_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
};

/// Bounded span buffer of one lane. Spans past the capacity are counted
/// and dropped, so a long run cannot exhaust memory.
class span_buffer {
 public:
  span_buffer(std::uint32_t lane, steady::time_point origin,
              std::size_t capacity);

  void set_enabled(bool on) noexcept { enabled_ = on; }
  /// Records a span of `duration_ns` that started at `start`.
  void record(const char* name, steady::time_point start,
              std::int64_t duration_ns, std::uint64_t parent);
  /// Reserves the id of a span that is still open (its children need
  /// it as their parent); close it with record_with_id.
  [[nodiscard]] std::uint64_t next_id() noexcept {
    return (static_cast<std::uint64_t>(lane_ + 1) << 40) | (++counter_);
  }
  void record_with_id(std::uint64_t id, const char* name,
                      steady::time_point start, std::int64_t duration_ns,
                      std::uint64_t parent);

  [[nodiscard]] std::span<const span> spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

 private:
  std::uint32_t lane_;
  steady::time_point origin_;
  std::size_t capacity_;
  bool enabled_ = false;
  std::uint64_t counter_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<span> spans_;
};

/// Writes the spans as Chrome trace-event JSON (chrome://tracing,
/// Perfetto): one complete ("X") event per span, ids and parent links
/// in args.
void write_chrome_trace(std::ostream& out,
                        std::span<const span_buffer* const> buffers);

/// Call count, host time and virtual cost of one boundary call kind.
struct call_totals {
  std::uint64_t calls = 0;
  std::int64_t host_ns = 0;
  sim::sim_time virt_ns = 0;

  call_totals& operator+=(const call_totals& other) noexcept {
    calls += other.calls;
    host_ns += other.host_ns;
    virt_ns += other.virt_ns;
    return *this;
  }
};

/// What one shard's timed_backend saw.
struct backend_totals {
  call_totals load;
  call_totals dummy_load;
  /// Dummy loads that brought back a live block (prefetch).
  std::uint64_t prefetched = 0;
  /// Shuffle entry points (shuffle_period, begin_shuffle): one per
  /// period. Their virt_ns is the cost shuffle_period returned.
  call_totals shuffle_entry;
  /// shuffle_job::step calls with the slice cost each returned.
  call_totals job_step;
  /// shuffle_job::finish calls (host time only).
  call_totals job_finish;
  /// Blocks handed back unplaced by shuffle periods.
  std::uint64_t overflow_blocks = 0;

  [[nodiscard]] std::int64_t shuffle_host_ns() const noexcept {
    return shuffle_entry.host_ns + job_step.host_ns + job_finish.host_ns;
  }
  [[nodiscard]] std::int64_t host_ns() const noexcept {
    return load.host_ns + dummy_load.host_ns + shuffle_host_ns();
  }
  backend_totals& operator+=(const backend_totals& other) noexcept;
};

/// Forwarding oram_backend that times every call (see file comment).
class timed_backend final : public oram_backend {
 public:
  /// `step_span` holds the id of the coordinator's open scheduler-step
  /// span, the parent of every span this shard records.
  timed_backend(std::unique_ptr<oram_backend> inner, span_buffer& spans,
                const std::atomic<std::uint64_t>& step_span);

  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_->name();
  }
  [[nodiscard]] bool in_storage(oram::block_id id) const override {
    return inner_->in_storage(id);
  }
  load_result load_block(oram::block_id id) override;
  load_result dummy_load() override;
  shuffle_cost shuffle_period(
      std::vector<oram::evicted_block> evicted, std::uint64_t period_index,
      std::vector<oram::evicted_block>& overflow_out) override;
  [[nodiscard]] std::unique_ptr<shuffle_job> begin_shuffle(
      std::vector<oram::evicted_block> evicted,
      std::uint64_t period_index) override;
  [[nodiscard]] const backend_stats& stats() const noexcept override {
    return inner_->stats();
  }
  [[nodiscard]] std::uint64_t physical_bytes() const override {
    return inner_->physical_bytes();
  }
  [[nodiscard]] std::uint64_t control_memory_bytes() const override {
    return inner_->control_memory_bytes();
  }
  void check_consistency() const override { inner_->check_consistency(); }

  [[nodiscard]] const oram_backend& inner() const noexcept {
    return *inner_;
  }
  [[nodiscard]] const backend_totals& totals() const noexcept {
    return totals_;
  }
  void reset_totals() noexcept { totals_ = backend_totals{}; }

 private:
  friend class timed_job;

  /// Adds one timed call to `totals` and records its span.
  void note(call_totals& totals, const char* name, steady::time_point start,
            sim::sim_time virt);

  std::unique_ptr<oram_backend> inner_;
  span_buffer& spans_;
  const std::atomic<std::uint64_t>& step_span_;
  backend_totals totals_;
};

/// Pick count, host time and the queue depth the policy saw.
struct policy_totals {
  std::uint64_t picks = 0;
  std::int64_t host_ns = 0;
  /// Sum over picks of the admitted requests queued across the offered
  /// lanes.
  std::uint64_t queued_sum = 0;
};

/// Forwarding fairness_policy that times every pick.
class timed_policy final : public fairness_policy {
 public:
  explicit timed_policy(std::unique_ptr<fairness_policy> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_->name();
  }
  [[nodiscard]] std::size_t pick(
      std::span<const tenant_lane> lanes) override;

  [[nodiscard]] const policy_totals& totals() const noexcept {
    return totals_;
  }
  void reset_totals() noexcept { totals_ = policy_totals{}; }

 private:
  std::unique_ptr<fairness_policy> inner_;
  policy_totals totals_;
};

}  // namespace horam::perfbench

#endif  // HORAM_PERFBENCH_LAYER_TIMING_H

#include "layer_timing.h"

#include <cstdio>

namespace horam::perfbench {

span_buffer::span_buffer(std::uint32_t lane, steady::time_point origin,
                         std::size_t capacity)
    : lane_(lane), origin_(origin), capacity_(capacity) {
  spans_.reserve(capacity);
}

void span_buffer::record(const char* name, steady::time_point start,
                         std::int64_t duration_ns, std::uint64_t parent) {
  if (enabled_) {
    record_with_id(next_id(), name, start, duration_ns, parent);
  }
}

void span_buffer::record_with_id(std::uint64_t id, const char* name,
                                 steady::time_point start,
                                 std::int64_t duration_ns,
                                 std::uint64_t parent) {
  if (!enabled_) {
    return;
  }
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  spans_.push_back(span{
      name, lane_,
      std::chrono::duration_cast<std::chrono::nanoseconds>(start - origin_)
          .count(),
      duration_ns, id, parent});
}

void write_chrome_trace(std::ostream& out,
                        std::span<const span_buffer* const> buffers) {
  out << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [";
  bool first = true;
  char line[256];
  for (const span_buffer* buffer : buffers) {
    for (const span& s : buffer->spans()) {
      std::snprintf(line, sizeof line,
                    "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                    "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                    "{\"id\": %llu, \"parent\": %llu}}",
                    first ? "" : ",", s.name, s.lane,
                    static_cast<double>(s.start_ns) / 1e3,
                    static_cast<double>(s.duration_ns) / 1e3,
                    static_cast<unsigned long long>(s.id),
                    static_cast<unsigned long long>(s.parent));
      out << line;
      first = false;
    }
  }
  out << "\n]}\n";
}

backend_totals& backend_totals::operator+=(
    const backend_totals& other) noexcept {
  load += other.load;
  dummy_load += other.dummy_load;
  prefetched += other.prefetched;
  shuffle_entry += other.shuffle_entry;
  job_step += other.job_step;
  job_finish += other.job_finish;
  overflow_blocks += other.overflow_blocks;
  return *this;
}

/// Forwarding shuffle_job: times step() and finish() into the owning
/// backend's totals. The controller destroys its job before its
/// backend, so the back-reference never dangles.
class timed_job final : public shuffle_job {
 public:
  timed_job(std::unique_ptr<shuffle_job> inner, timed_backend& owner)
      : inner_(std::move(inner)), owner_(owner) {}

  shuffle_cost step(sim::sim_time device_budget) override {
    const steady::time_point start = steady::now();
    const shuffle_cost cost = inner_->step(device_budget);
    owner_.note(owner_.totals_.job_step, "shuffle_job.step", start,
                cost.total());
    return cost;
  }
  [[nodiscard]] bool done() const noexcept override { return inner_->done(); }
  [[nodiscard]] bool holds(oram::block_id id) const override {
    return inner_->holds(id);
  }
  [[nodiscard]] std::vector<std::uint8_t>* staged(oram::block_id id) override {
    return inner_->staged(id);
  }
  void finish(std::vector<oram::evicted_block>& overflow_out) override {
    const std::size_t before = overflow_out.size();
    const steady::time_point start = steady::now();
    inner_->finish(overflow_out);
    owner_.note(owner_.totals_.job_finish, "shuffle_job.finish", start, 0);
    owner_.totals_.overflow_blocks += overflow_out.size() - before;
  }

 private:
  std::unique_ptr<shuffle_job> inner_;
  timed_backend& owner_;
};

timed_backend::timed_backend(std::unique_ptr<oram_backend> inner,
                             span_buffer& spans,
                             const std::atomic<std::uint64_t>& step_span)
    : inner_(std::move(inner)), spans_(spans), step_span_(step_span) {}

void timed_backend::note(call_totals& totals, const char* name,
                         steady::time_point start, sim::sim_time virt) {
  const std::int64_t host = elapsed_ns(start);
  ++totals.calls;
  totals.host_ns += host;
  totals.virt_ns += virt;
  spans_.record(name, start, host,
                step_span_.load(std::memory_order_relaxed));
}

oram_backend::load_result timed_backend::load_block(oram::block_id id) {
  const steady::time_point start = steady::now();
  load_result result = inner_->load_block(id);
  note(totals_.load, "backend.load_block", start, result.cost.total());
  return result;
}

oram_backend::load_result timed_backend::dummy_load() {
  const steady::time_point start = steady::now();
  load_result result = inner_->dummy_load();
  note(totals_.dummy_load, "backend.dummy_load", start, result.cost.total());
  if (result.id != oram::dummy_block_id) {
    ++totals_.prefetched;
  }
  return result;
}

shuffle_cost timed_backend::shuffle_period(
    std::vector<oram::evicted_block> evicted, std::uint64_t period_index,
    std::vector<oram::evicted_block>& overflow_out) {
  const std::size_t before = overflow_out.size();
  const steady::time_point start = steady::now();
  const shuffle_cost cost =
      inner_->shuffle_period(std::move(evicted), period_index, overflow_out);
  note(totals_.shuffle_entry, "backend.shuffle_period", start, cost.total());
  totals_.overflow_blocks += overflow_out.size() - before;
  return cost;
}

std::unique_ptr<shuffle_job> timed_backend::begin_shuffle(
    std::vector<oram::evicted_block> evicted, std::uint64_t period_index) {
  const steady::time_point start = steady::now();
  std::unique_ptr<shuffle_job> job =
      inner_->begin_shuffle(std::move(evicted), period_index);
  note(totals_.shuffle_entry, "backend.begin_shuffle", start, 0);
  return std::make_unique<timed_job>(std::move(job), *this);
}

std::size_t timed_policy::pick(std::span<const tenant_lane> lanes) {
  for (const tenant_lane& lane : lanes) {
    totals_.queued_sum += lane.queued;
  }
  const steady::time_point start = steady::now();
  const std::size_t choice = inner_->pick(lanes);
  totals_.host_ns += elapsed_ns(start);
  ++totals_.picks;
  return choice;
}

}  // namespace horam::perfbench

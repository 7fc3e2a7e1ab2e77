#include "closed_loop.h"

#include <algorithm>
#include <ctime>
#include <functional>
#include <limits>
#include <string>

#include "sim/profiles.h"

namespace horam::perfbench {

namespace {

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

void add_io(sim::io_stats& total, const sim::io_stats& part) {
  total.read_ops += part.read_ops;
  total.write_ops += part.write_ops;
  total.sequential_read_ops += part.sequential_read_ops;
  total.sequential_write_ops += part.sequential_write_ops;
  total.bytes_read += part.bytes_read;
  total.bytes_written += part.bytes_written;
  total.round_trips += part.round_trips;
  total.busy_time += part.busy_time;
}

/// The oracle's view of admissions and completions (run_closed_loop).
class oracle {
 public:
  /// Version 0 is every block's initial contents, complete before the
  /// first event.
  explicit oracle(std::uint64_t blocks)
      : frontier_(blocks, -1), writes_{write_record{0, -1}} {}

  struct admitted {
    oram::op_kind op = oram::op_kind::read;
    oram::block_id id = 0;
    std::uint64_t version = 0;  // writes only
    std::int64_t admit_event = 0;
    /// Reads: the latest admission event of a write to the block that
    /// had completed when the read was admitted.
    std::int64_t frontier = -1;
  };

  /// Stamps a request about to be admitted; writes get a fresh version
  /// and its payload.
  admitted admit(request& req) {
    admitted a;
    a.op = req.op;
    a.id = req.id;
    a.admit_event = ++clock_;
    if (req.op == oram::op_kind::write) {
      a.version = writes_.size();
      writes_.push_back(write_record{req.id});
      req.write_data.resize(kPayloadBytes);
      encode_payload(req.id, a.version, req.write_data);
    } else {
      a.frontier = frontier_[req.id];
    }
    return a;
  }

  /// Checks a completion; returns an empty string or the failure.
  std::string complete(const admitted& a, const completion& c) {
    const std::int64_t event = ++clock_;
    if (a.op == oram::op_kind::write) {
      writes_[a.version].completed = event;
      frontier_[a.id] = std::max(frontier_[a.id], a.admit_event);
      return {};
    }
    const std::optional<decoded_payload> got = decode_payload(c.payload);
    const auto failure = [&](const std::string& what) {
      return "read of block " + std::to_string(a.id) + " returned " + what;
    };
    if (!got.has_value()) {
      return failure("a malformed payload");
    }
    if (got->id != a.id) {
      return failure("block " + std::to_string(got->id));
    }
    if (got->version != 0 && (got->version >= writes_.size() ||
                              writes_[got->version].id != a.id)) {
      return failure("version " + std::to_string(got->version) +
                     ", never written to it");
    }
    if (writes_[got->version].completed < a.frontier) {
      return failure("stale version " + std::to_string(got->version));
    }
    return {};
  }

 private:
  struct write_record {
    oram::block_id id = 0;
    /// Completion event; "never" until the write completes.
    std::int64_t completed = std::numeric_limits<std::int64_t>::max();
  };

  std::int64_t clock_ = 0;
  /// Per block: the latest admission event of a completed write.
  std::vector<std::int64_t> frontier_;
  /// Indexed by version.
  std::vector<write_record> writes_;
};

}  // namespace

// ------------------------------------------------------------ service_port

service_port::service_port(service svc, std::uint32_t tenants,
                           std::uint32_t outstanding)
    : svc_(std::move(svc)),
      tickets_(static_cast<std::size_t>(tenants) * outstanding) {
  for (std::uint32_t t = 0; t < tenants; ++t) {
    sessions_.push_back(svc_.open_session());
  }
}

void service_port::submit(std::size_t slot, std::uint32_t tenant,
                          request req) {
  session& s = sessions_[tenant];
  tickets_[slot] = req.op == oram::op_kind::write
                       ? s.async_write(req.id, req.write_data)
                       : s.async_read(req.id);
}

bool service_port::take(std::size_t slot, completion& out) {
  ticket& t = tickets_[slot];
  if (!t.ready()) {
    return false;
  }
  const ticket_result& result = t.result();
  out.payload = result.payload;
  out.latency = result.latency;
  t = ticket{};
  return true;
}

// ------------------------------------------------------------ traced_port

traced_port::traced_port(const horam_config& config, const workload_spec& w,
                         std::uint64_t seed, steady::time_point origin,
                         std::size_t span_capacity)
    : cpu_(sim::cpu_aesni()), coordinator_spans_(0, origin, span_capacity) {
  for (std::uint32_t s = 0; s < config.shard_count; ++s) {
    shard_spans_.push_back(
        std::make_unique<span_buffer>(s + 1, origin, span_capacity));
  }
  // Mirrors client_builder::build()'s factory, plus the decorator.
  // Backends read the filler only while they are built.
  using filler = std::function<void(oram::block_id, std::span<std::uint8_t>)>;
  const filler initial = [](oram::block_id id, std::span<std::uint8_t> out) {
    encode_payload(id, 0, out);
  };
  const backend_kind kind = w.backend;
  const engine::shard_factory factory =
      [this, kind, &initial](
          std::uint32_t shard, const horam_config& shard_config,
          sim::block_device& storage, sim::block_device& memory,
          const sim::cpu_model& cpu, util::random_source& rng,
          oram::access_trace* trace,
          std::span<const oram::block_id> shard_blocks) {
        filler rebased;
        const filler* fill = &initial;
        if (!shard_blocks.empty()) {
          rebased = [&initial, shard_blocks](oram::block_id local,
                                             std::span<std::uint8_t> out) {
            initial(shard_blocks[local], out);
          };
          fill = &rebased;
        }
        auto timed = std::make_unique<timed_backend>(
            make_backend(kind, shard_config, storage, cpu, rng, trace, fill,
                         shard_config.map_on_storage ? &storage : &memory),
            *shard_spans_[shard], step_span_);
        backends_.push_back(timed.get());
        return timed;
      };
  engine::options opts;
  opts.storage_profile = storage_profile_by_name(w.storage_profile);
  opts.memory_profile = sim::dram_ddr4();
  opts.seed = seed;
  engine_ = std::make_unique<engine>(config, cpu_, factory, opts);

  auto policy = std::make_unique<timed_policy>(
      make_fairness_policy(fairness_kind::round_robin));
  policy_ = policy.get();
  sched_ = std::make_unique<tenant_scheduler>(*engine_, std::move(policy));
  for (std::uint32_t t = 0; t < w.tenants; ++t) {
    (void)sched_->add_tenant();
  }
  done_.resize(static_cast<std::size_t>(w.tenants) * w.outstanding);
}

void traced_port::submit(std::size_t slot, std::uint32_t tenant,
                         request req) {
  const steady::time_point start = steady::now();
  const std::uint64_t seq = sched_->enqueue(tenant, std::move(req));
  admit_ns_ += elapsed_ns(start);
  ++admits_;
  slot_of_seq_.emplace(seq, slot);
}

bool traced_port::step() {
  const steady::time_point start = steady::now();
  const std::uint64_t id = coordinator_spans_.next_id();
  step_span_.store(id, std::memory_order_relaxed);
  const bool progressed = sched_->step(
      [this](std::uint32_t /*tenant*/, std::uint64_t seq,
             request_result&& result, sim::sim_time latency) {
        const auto it = slot_of_seq_.find(seq);
        invariant(it != slot_of_seq_.end(), "completion for unknown seq");
        done_[it->second] = completion{std::move(result.read_data), latency};
        slot_of_seq_.erase(it);
      });
  const std::int64_t host = elapsed_ns(start);
  step_span_.store(0, std::memory_order_relaxed);
  coordinator_spans_.record_with_id(id, "scheduler.step", start, host, 0);
  step_ns_ += host;
  ++steps_;
  return progressed;
}

bool traced_port::take(std::size_t slot, completion& out) {
  if (!done_[slot].has_value()) {
    return false;
  }
  out = std::move(*done_[slot]);
  done_[slot].reset();
  return true;
}

void traced_port::reset_stats() {
  sched_->reset_stats();
  engine_->reset_stats();
  for (timed_backend* b : backends_) {
    b->reset_totals();
  }
  policy_->reset_totals();
  admits_ = 0;
  admit_ns_ = 0;
  steps_ = 0;
  step_ns_ = 0;
  coordinator_spans_.set_enabled(true);
  for (auto& buffer : shard_spans_) {
    buffer->set_enabled(true);
  }
}

void traced_port::end_window() {
  coordinator_spans_.set_enabled(false);
  for (auto& buffer : shard_spans_) {
    buffer->set_enabled(false);
  }
}

const oram_backend& traced_port::store(std::uint32_t s) {
  expects(s < backends_.size(), "shard index out of range");
  return backends_[s]->inner();
}

backend_totals traced_port::backend() const {
  backend_totals total;
  for (const timed_backend* b : backends_) {
    total += b->totals();
  }
  return total;
}

const policy_totals& traced_port::policy() const noexcept {
  return policy_->totals();
}

std::vector<const span_buffer*> traced_port::span_buffers() const {
  std::vector<const span_buffer*> buffers{&coordinator_spans_};
  for (const auto& buffer : shard_spans_) {
    buffers.push_back(buffer.get());
  }
  return buffers;
}

// --------------------------------------------------------------- the loop

loop_result run_closed_loop(request_port& port, const workload_spec& w,
                            std::span<const request> stream,
                            std::uint64_t warmup, std::uint64_t measured) {
  loop_result out;
  oracle check(w.blocks);

  const std::size_t slots =
      static_cast<std::size_t>(w.tenants) * w.outstanding;
  std::vector<std::optional<oracle::admitted>> busy(slots);
  std::size_t next = 0;
  std::uint64_t completed = 0;
  bool issuing = true;
  bool measuring = false;
  std::uint64_t window_base = 0;
  sim::sim_time virt0 = 0;
  double cpu0 = 0.0;
  steady::time_point wall0;

  const auto issue = [&](std::size_t slot) {
    if (!issuing || next >= stream.size()) {
      return;
    }
    request req = stream[next++];
    busy[slot] = check.admit(req);
    port.submit(slot, static_cast<std::uint32_t>(slot / w.outstanding),
                std::move(req));
  };
  const auto harvest = [&] {
    completion c;
    for (std::size_t slot = 0; slot < slots; ++slot) {
      if (!busy[slot].has_value() || !port.take(slot, c)) {
        continue;
      }
      const oracle::admitted a = *busy[slot];
      busy[slot].reset();
      ++completed;
      ++out.attempted;
      const std::string failure = check.complete(a, c);
      if (!failure.empty() && out.failed++ == 0) {
        out.first_failure = failure;
      }
      if (measuring) {
        out.latencies.push_back(c.latency);
        out.is_write.push_back(a.op == oram::op_kind::write ? 1 : 0);
      }
      issue(slot);
    }
  };

  for (std::size_t slot = 0; slot < slots; ++slot) {
    issue(slot);
  }
  for (;;) {
    invariant(port.step(), "service idle while requests are outstanding");
    harvest();
    if (!measuring && completed >= warmup) {
      port.reset_stats();
      measuring = true;
      window_base = completed;
      virt0 = port.eng().now();
      cpu0 = process_cpu_seconds();
      wall0 = steady::now();
    } else if (measuring && completed - window_base >= measured) {
      out.wall_s = static_cast<double>(elapsed_ns(wall0)) * 1e-9;
      out.cpu_s = process_cpu_seconds() - cpu0;
      out.virt_ns = port.eng().now() - virt0;
      out.measured = completed - window_base;
      port.end_window();
      break;
    }
  }

  engine& eng = port.eng();
  out.controller = eng.stats();
  out.router = eng.router_stats();
  out.min_shard_periods = std::numeric_limits<std::uint64_t>::max();
  for (std::uint32_t s = 0; s < eng.shard_count(); ++s) {
    out.min_shard_periods =
        std::min(out.min_shard_periods, eng.shard(s).stats().periods);
    add_io(out.storage, eng.shard_storage(s).stats());
    add_io(out.memory, eng.shard_memory(s).stats());
    out.physical_bytes += port.store(s).physical_bytes();
  }
  out.trusted_bytes = eng.control_memory_bytes();
  measuring = false;

  // Drain what is still in flight (checked, not measured), then audit.
  issuing = false;
  while (std::any_of(busy.begin(), busy.end(),
                     [](const auto& b) { return b.has_value(); })) {
    invariant(port.step(), "service idle while requests are outstanding");
    harvest();
  }
  for (std::uint32_t s = 0; s < eng.shard_count(); ++s) {
    try {
      port.store(s).check_consistency();
    } catch (const std::exception& e) {
      if (out.failed++ == 0) {
        out.first_failure = std::string("shard ") + std::to_string(s) +
                            " check_consistency: " + e.what();
      }
    }
  }
  return out;
}

}  // namespace horam::perfbench

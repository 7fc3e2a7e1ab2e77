#include "core/controller.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "util/contracts.h"
#include "util/math.h"

namespace horam {

namespace {

/// In-memory tree sizing: the largest power-of-two leaf count whose
/// tree (Z blocks per bucket) fits in `memory_blocks` blocks.
std::uint64_t tree_leaf_count(std::uint64_t memory_blocks,
                              std::uint32_t bucket_size) {
  const std::uint64_t target = std::max<std::uint64_t>(
      1, memory_blocks / (2 * bucket_size));
  return util::is_pow2(target) ? target
                               : util::next_pow2(target) / 2;
}

/// Word ops of serving one request from a trusted-memory copy. Every
/// cycle charges them for each of its c slots, whether or not a slot
/// is served that way, so the memory lane does not show which are.
constexpr std::uint64_t kTrustedCopyWordOps = 8;

/// True when `req` returns the payload it finds: a read, or a
/// fetch_before_write write (the payload it replaces).
bool returns_data(const request& req) {
  return req.op != oram::op_kind::write || req.fetch_before_write;
}

/// Serves `req` from `copy`, a trusted-memory copy of its block: the
/// copy as found is returned (returns_data), and a write replaces it,
/// zero-padded to `payload_bytes` — the semantics of
/// path_oram::access_batch.
void serve_from_copy(const request& req, request_result* result,
                     std::vector<std::uint8_t>& copy,
                     std::size_t payload_bytes) {
  if (result != nullptr && returns_data(req)) {
    result->read_data = copy;
    result->read_data.resize(payload_bytes, 0);
  }
  if (req.op == oram::op_kind::write) {
    copy.assign(req.write_data.begin(), req.write_data.end());
    copy.resize(payload_bytes, 0);
  }
}

}  // namespace

controller::controller(const horam_config& config,
                       std::unique_ptr<oram_backend> backend,
                       sim::block_device& memory_device,
                       const sim::cpu_model& cpu, util::random_source& rng,
                       oram::access_trace* trace)
    : config_(config),
      cpu_(cpu),
      rng_(rng),
      trace_(trace),
      scheduler_(config.stages, config.period_loads(),
                 config.prefetch_factor) {
  config_.validate();
  expects(backend != nullptr, "controller needs an oram_backend");

  oram::path_oram_config tree_config;
  tree_config.leaf_count =
      tree_leaf_count(config_.memory_blocks, config_.bucket_size);
  tree_config.bucket_size = config_.bucket_size;
  tree_config.payload_bytes = config_.payload_bytes;
  tree_config.logical_block_bytes = config_.logical_block_bytes;
  tree_config.id_universe = config_.block_count;
  tree_config.seal = config_.seal;
  tree_config.key_seed = config_.key_seed ^ 0x7472;
  tree_ = std::make_unique<oram::path_oram>(tree_config, memory_device,
                                            /*io_device=*/nullptr, cpu_,
                                            rng_, trace_);
  memory_device.reset_stats();

  storage_ = std::move(backend);
}

controller::controller(
    const horam_config& config, sim::block_device& storage_device,
    sim::block_device& memory_device, const sim::cpu_model& cpu,
    util::random_source& rng, oram::access_trace* trace,
    const std::function<void(oram::block_id, std::span<std::uint8_t>)>*
        filler)
    : controller(config,
                 std::make_unique<storage_layer>(config, storage_device,
                                                 cpu, rng, trace, filler),
                 memory_device, cpu, rng, trace) {
  attach_device_stats(&storage_device.stats());
}

const storage_layer& controller::storage() const {
  const auto* partitioned = dynamic_cast<const storage_layer*>(
      storage_.get());
  expects(partitioned != nullptr,
          "storage() requires the partitioned backend; use backend()");
  return *partitioned;
}

bool controller::resident(oram::block_id id) const {
  return tree_->contains(id) || shelter_.contains(id) ||
         (shuffle_job_ != nullptr && shuffle_job_->holds(id));
}

std::vector<std::uint8_t>* controller::trusted_copy(oram::block_id id) {
  std::vector<std::uint8_t>* staged =
      shuffle_job_ != nullptr ? shuffle_job_->staged(id) : nullptr;
  if (staged != nullptr) {
    return staged;
  }
  const auto shelter_it = shelter_.find(id);
  return shelter_it != shelter_.end() ? &shelter_it->second : nullptr;
}

void check_admissible(const request& req, const horam_config& config) {
  expects(req.id < config.block_count, "request id out of range");
  expects(req.op != oram::op_kind::write ||
              req.write_data.size() <= config.payload_bytes,
          "write larger than the block payload");
}

void controller::run(std::span<const request> requests,
                     std::vector<request_result>* results) {
  serve(requests, results);
  // Every request of the batch has completed: work the loads left owed
  // runs now, after the lane's last completion.
  settle(kAllOwed);
  stats_.total_time = clock_.now() - stats_epoch_;
}

void controller::serve(std::span<const request> requests,
                       std::vector<request_result>* results) {
  invariant(rob_.empty(), "previous batch left requests in the ROB");
  for (const request& req : requests) {
    check_admissible(req, config_);
  }
  if (results != nullptr) {
    results->assign(requests.size(), request_result{});
  }

  /// ROB-entry timestamps: request_latency measures entry → retirement.
  std::vector<sim::sim_time> enqueued_at(requests.size(), 0);
  std::uint64_t next_to_enqueue = 0;
  std::uint64_t serviced = 0;
  std::vector<std::size_t> retiring;

  const auto id_of = [&](std::uint64_t request_index) {
    return requests[request_index].id;
  };
  const auto is_resident = [&](oram::block_id id) { return resident(id); };
  const auto result_of = [&](std::uint64_t request_index) {
    return results != nullptr ? &(*results)[request_index] : nullptr;
  };

  while (serviced < requests.size()) {
    // Keep the ROB ahead of the prefetch window.
    const std::uint64_t want = scheduler_.round_budget(loads_this_period_);
    while (rob_.size() < want && next_to_enqueue < requests.size()) {
      enqueued_at[next_to_enqueue] = clock_.now();
      rob_.push(next_to_enqueue++);
    }

    const cycle_plan plan =
        scheduler_.plan(rob_, loads_this_period_, id_of, is_resident);
    trace(trace_, oram::event_kind::cycle_begin, stats_.cycles, plan.c);

    // --- I/O lane: exactly one storage load per cycle. ---
    oram_backend::load_result load;
    if (plan.miss_position.has_value()) {
      load = storage_->load_block(id_of(rob_.at(*plan.miss_position)));
      ++stats_.real_loads;
    } else {
      load = storage_->dummy_load();
      ++stats_.dummy_loads;
    }
    if (load.deferred != nullptr) {
      deferred_ = load.deferred;
    }

    // --- Memory lane: the cycle's c path accesses in one batch: the
    // hits in plan order, then the padding dummies. A block staged in
    // the in-flight shuffle job or parked in the shelter is served from
    // trusted memory, covered by a dummy at its own position so the bus
    // shape is unchanged; writes go through into the trusted copy (so a
    // staged block's shuffle places the fresh data). ---
    oram::cost_split memory_cost;
    memory_cost.cpu += cpu_.word_ops_time(kTrustedCopyWordOps) * plan.c;
    cycle_accesses_.clear();
    for (const std::size_t position : plan.hit_positions) {
      const std::uint64_t request_index = rob_.at(position);
      const request& req = requests[request_index];
      request_result* result = result_of(request_index);
      oram::path_oram::request& access = cycle_accesses_.emplace_back();
      if (std::vector<std::uint8_t>* trusted = trusted_copy(req.id)) {
        serve_from_copy(req, result, *trusted, config_.payload_bytes);
        continue;
      }
      access.id = req.id;
      access.op = req.op;
      access.write_data = req.write_data;
      if (result != nullptr && returns_data(req)) {
        result->read_data.resize(config_.payload_bytes);
        access.read_out = result->read_data;
      }
    }
    cycle_accesses_.resize(cycle_accesses_.size() + plan.dummy_hits);
    stats_.dummy_path_accesses += plan.dummy_hits;
    memory_cost += tree_->access_batch(cycle_accesses_);

    // The loaded block lands in the tree stash at cycle end. A real
    // load first serves its own request from the fill, so the block
    // enters the tree as that request leaves it. Every cycle pays for
    // an install, so the I/O lane does not show whether a block
    // arrived.
    if (plan.miss_position.has_value()) {
      const std::uint64_t request_index = rob_.at(*plan.miss_position);
      serve_from_copy(requests[request_index], result_of(request_index),
                      load.payload, config_.payload_bytes);
    }
    if (load.id != oram::dummy_block_id) {
      tree_->install(load.id, load.payload);
    }
    const oram::cost_split install_cost = tree_->install_cost();

    // Lanes overlap (§4.1: "the I/O loads and in-memory reads are
    // conducted simultaneously"); the cycle lasts the slower lane. A
    // load's memory time (e.g. the path backend's recursive-map walk)
    // is serial with its storage access, so it extends the I/O lane.
    const sim::sim_time io_lane =
        load.cost.io + load.cost.memory + load.cost.cpu + install_cost.cpu;
    const sim::sim_time memory_lane =
        memory_cost.memory + memory_cost.cpu;
    const sim::sim_time cycle_time = std::max(io_lane, memory_lane);
    clock_.advance(cycle_time);

    // Async write-back debt drains with otherwise-idle device time.
    if (flush_debt_ > 0) {
      flush_debt_ = std::max<sim::sim_time>(
          0, flush_debt_ - (cycle_time - load.cost.io));
    }

    ++stats_.cycles;
    stats_.access_time += cycle_time;
    stats_.io_busy += load.cost.io;
    stats_.io_load_time += load.cost.io;
    stats_.memory_busy += memory_cost.memory + load.cost.memory;
    stats_.cpu_busy += load.cost.cpu + memory_cost.cpu + install_cost.cpu;

    // Retire the cycle's hits and its served miss together, at cycle
    // end (descending positions keep indices valid).
    retiring.assign(plan.hit_positions.begin(), plan.hit_positions.end());
    if (plan.miss_position.has_value()) {
      retiring.push_back(*plan.miss_position);
    }
    std::sort(retiring.begin(), retiring.end(), std::greater<>());
    for (const std::size_t position : retiring) {
      const std::uint64_t request_index = rob_.at(position);
      const bool hit = position != plan.miss_position;
      if (request_result* result = result_of(request_index)) {
        result->completion_time = clock_.now();
        result->hit = hit;
      }
      ++(hit ? stats_.hits : stats_.misses);
      stats_.request_latency.record(clock_.now() -
                                    enqueued_at[request_index]);
      rob_.remove(position);
      ++serviced;
      ++stats_.requests;
    }

    // Period bookkeeping: every cycle consumes one of the n/2 loads.
    if (++loads_this_period_ >= config_.period_loads()) {
      end_period();
    }

    // Deamortization point: one budget-bounded slice of any in-flight
    // incremental shuffle job runs between access rounds, so its
    // device time lands in slice-sized pieces instead of one cliff.
    pump_shuffle_slice();
  }
  stats_.total_time = clock_.now() - stats_epoch_;
}

void controller::reset_stats() noexcept {
  stats_ = controller_stats{};
  stats_epoch_ = clock_.now();
}

std::uint64_t controller::round_budget() const noexcept {
  return scheduler_.round_budget(loads_this_period_);
}

std::uint64_t controller::owed_units() const {
  return deferred_ != nullptr ? deferred_->owed() : 0;
}

void controller::settle(std::uint64_t limit) {
  if (deferred_ == nullptr || limit == 0) {
    return;
  }
  // The handle stays while units remain owed past the limit.
  const bool all = limit >= deferred_->owed();
  const oram::cost_split cost = deferred_->run(limit);
  if (all) {
    deferred_ = nullptr;
  }
  const sim::sim_time elapsed = cost.io + cost.memory + cost.cpu;
  clock_.advance(elapsed);
  if (flush_debt_ > 0) {
    flush_debt_ =
        std::max<sim::sim_time>(0, flush_debt_ - (elapsed - cost.io));
  }
  ++stats_.deferred_runs;
  stats_.deferred_time += elapsed;
  stats_.access_time += elapsed;
  stats_.io_busy += cost.io;
  stats_.memory_busy += cost.memory;
  stats_.cpu_busy += cost.cpu;
}

void controller::pump_shuffle_slice() {
  if (shuffle_job_ == nullptr) {
    return;
  }
  // The job was begun by the period that just ended (period_index_ was
  // advanced at creation).
  trace(trace_, oram::event_kind::shuffle_slice, period_index_ - 1,
        stats_.shuffle_slices);
  const sim::io_stats device_before =
      device_stats_ != nullptr ? *device_stats_ : sim::io_stats{};
  const shuffle_cost sc = shuffle_job_->step(config_.shuffle_slice_budget);
  clock_.advance(sc.total());
  ++stats_.shuffle_slices;
  stats_.shuffle_time += sc.total();
  stats_.io_busy += sc.io_read + sc.io_write;
  stats_.memory_busy += sc.memory;
  stats_.cpu_busy += sc.cpu;
  if (shuffle_job_->done()) {
    std::vector<oram::evicted_block> overflow;
    shuffle_job_->finish(overflow);
    shuffle_job_.reset();
    for (auto& block : overflow) {
      shelter_.emplace(block.id, std::move(block.payload));
    }
  }
  charge_shuffle_device_delta(device_before);
}

void controller::charge_shuffle_device_delta(
    const sim::io_stats& before) noexcept {
  if (device_stats_ == nullptr) {
    return;
  }
  controller_stats::for_each_shuffle_device_field([&](auto device, auto own) {
    stats_.*own += device_stats_->*device - before.*device;
  });
}

void controller::end_period() {
  // Owed work runs first, so the shuffle starts from the state the
  // public load count implies.
  settle(kAllOwed);

  // An incremental job still in flight blocks the next period: drain
  // it foreground now — the latency cliff a well-sized slice budget
  // avoids (budget * period_loads should cover a whole shuffle).
  while (shuffle_job_ != nullptr) {
    const sim::sim_time stall_begin = clock_.now();
    pump_shuffle_slice();
    stats_.shuffle_stall_time += clock_.now() - stall_begin;
  }

  trace(trace_, oram::event_kind::period_begin, period_index_);

  // 1) Oblivious tree evict (§4.3.1).
  std::vector<oram::evicted_block> evicted;
  const oram::cost_split evict_cost = tree_->evict_all(evicted);

  // Shelter blocks re-enter the shuffle as hot data too.
  for (auto& [id, payload] : shelter_) {
    evicted.push_back(oram::evicted_block{id, std::move(payload)});
  }
  shelter_.clear();

  // 2) Group-and-partition shuffle (§4.3.2) through the backend's job
  // entry point. shuffle_policy::incremental with a bounded budget
  // defers the job to the slice pump unless it is already done (a hier
  // period with nothing to merge); otherwise it runs to completion
  // right here, which is what shuffle_period() does.
  const bool deferred = config_.defers_shuffles();
  std::vector<oram::evicted_block> overflow;
  shuffle_cost sc;
  const sim::io_stats device_before =
      device_stats_ != nullptr ? *device_stats_ : sim::io_stats{};
  std::unique_ptr<shuffle_job> job =
      storage_->begin_shuffle(std::move(evicted), period_index_);
  if (deferred && !job->done()) {
    shuffle_job_ = std::move(job);
  } else {
    sc = run_to_completion(*job, overflow);
  }
  charge_shuffle_device_delta(device_before);
  for (auto& block : overflow) {
    shelter_.emplace(block.id, std::move(block.payload));
  }

  // 3) Initialise a new tree (§4.1.3 step 3).
  const oram::cost_split reset_cost = tree_->reset();

  // Charge wall time according to the shuffle policy.
  const sim::sim_time local_work = evict_cost.memory + evict_cost.cpu +
                                   reset_cost.memory + reset_cost.cpu;
  sim::sim_time charged = 0;
  switch (config_.shuffle) {
    case shuffle_policy::async_writeback:
      // Reads and trusted-memory work are foreground; writes are
      // absorbed by the write-back cache and drain during the next
      // access period (leftover debt stalls the next shuffle).
      charged = flush_debt_ + local_work + sc.io_read + sc.memory + sc.cpu;
      flush_debt_ = sc.io_write;
      break;
    case shuffle_policy::offloaded:
      // Figure 5-2: the storage-side shuffle runs off the critical
      // path; only the local tree evict + rebuild is paid.
      charged = local_work;
      break;
    case shuffle_policy::foreground:
    case shuffle_policy::incremental:
      // Everything is foreground. Under incremental, local tree work
      // lands at the boundary and the backend's device time lands slice
      // by slice between rounds (pump_shuffle_slice) — or, with an
      // unbounded budget, entirely in sc right here.
      charged = flush_debt_ + local_work + sc.total();
      flush_debt_ = 0;
      break;
  }
  clock_.advance(charged);

  stats_.shuffle_time += local_work + sc.total();
  stats_.io_busy += sc.io_read + sc.io_write;
  stats_.memory_busy += evict_cost.memory + reset_cost.memory + sc.memory;
  stats_.cpu_busy += evict_cost.cpu + reset_cost.cpu + sc.cpu;
  ++stats_.periods;
  loads_this_period_ = 0;
  ++period_index_;
}

std::vector<std::uint8_t> controller::read(oram::block_id id) {
  std::vector<request> batch(1);
  batch[0].op = oram::op_kind::read;
  batch[0].id = id;
  std::vector<request_result> results;
  run(batch, &results);
  return std::move(results[0].read_data);
}

void controller::write(oram::block_id id,
                       std::span<const std::uint8_t> data) {
  std::vector<request> batch(1);
  batch[0].op = oram::op_kind::write;
  batch[0].id = id;
  batch[0].write_data.assign(data.begin(), data.end());
  run(batch, nullptr);
}

std::uint64_t controller::control_memory_bytes() const {
  // Cache-tree position map + backend bookkeeping + stash payloads
  // (for the Figure 4-1 style report).
  const std::uint64_t stash_bytes =
      tree_->stash_ref().size() * (config_.payload_bytes + 16);
  return tree_->position_map_bytes() + storage_->control_memory_bytes() +
         stash_bytes;
}

}  // namespace horam

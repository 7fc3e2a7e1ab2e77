#include "core/engine.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

#include "util/contracts.h"

namespace horam {

namespace {

crypto::siphash_key make_route_key(std::uint64_t seed) {
  crypto::siphash_key key{};
  const std::uint64_t lo = seed;
  const std::uint64_t hi = seed ^ 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 8; ++i) {
    key[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(lo >> (8 * i));
    key[static_cast<std::size_t>(8 + i)] =
        static_cast<std::uint8_t>(hi >> (8 * i));
  }
  return key;
}

}  // namespace

std::uint64_t engine::derive_shard_seed(std::uint64_t route_key_seed,
                                        std::uint64_t seed,
                                        std::uint32_t shard,
                                        std::uint32_t domain) {
  // PRF the (domain, shard) pair under the routing key and fold it into
  // the machine seed: streams stay independent even for adjacent base
  // seeds, where the old sequential scheme (seed + c * shard) made
  // shard s under seed k identical to shard s-1 under seed k + c.
  const crypto::siphash_key key = make_route_key(route_key_seed);
  const std::uint64_t label =
      (static_cast<std::uint64_t>(domain) << 32) | shard;
  return seed ^ crypto::siphash24_u64(key, label);
}

/// One controller shard with its own device lane.
struct engine::shard_state {
  horam_config config;

  /// The shard's machine lane.
  struct lane_state {
    sim::block_device storage;
    sim::block_device memory;
    util::pcg64 rng;
    /// Separate stream for padding ids, so routing dummies never
    /// perturbs the shard's ORAM randomness.
    util::pcg64 pad_rng;
    std::optional<oram::access_trace> trace;

    lane_state(const sim::device_profile& storage_profile,
               const sim::device_profile& memory_profile,
               std::uint64_t seed, std::uint64_t pad_seed, bool with_trace)
        : storage(storage_profile),
          memory(memory_profile),
          rng(seed),
          pad_rng(pad_seed) {
      if (with_trace) {
        trace.emplace();
      }
    }
  };

  std::unique_ptr<lane_state> lane;
  std::unique_ptr<controller> ctrl;
  /// Completion-ordering scratch, reused round to round: the groups'
  /// global completion times and the per-tenant order over them.
  std::vector<sim::sim_time> group_times;
  coalesce::completion_order order;
};

engine::engine(const horam_config& config, const sim::cpu_model& cpu,
               const shard_factory& factory, const options& opts)
    : config_(config), route_key_(make_route_key(config.route_key_seed)) {
  expects(factory != nullptr, "engine needs a shard factory");
  config_.validate();
  const std::uint32_t count = config_.shard_count;

  // The shards' global-id lists live only while the factories build
  // the shards; routing afterwards recomputes the PRF and keeps just
  // the local ids, packed at the widest shard's bits.
  std::vector<std::vector<oram::block_id>> members(count);
  if (count > 1) {
    expects(config_.block_count <= std::numeric_limits<std::uint32_t>::max(),
            "sharding needs block ids that fit 32 bits");
    for (oram::block_id id = 0; id < config_.block_count; ++id) {
      members[route(id)].push_back(id);
    }
    std::uint64_t widest = 1;
    for (const std::vector<oram::block_id>& ids : members) {
      widest = std::max<std::uint64_t>(widest, ids.size());
    }
    local_id_of_ = util::packed_array(
        config_.block_count,
        std::max(1u, static_cast<unsigned>(std::bit_width(widest - 1))));
    for (const std::vector<oram::block_id>& ids : members) {
      for (std::uint64_t local = 0; local < ids.size(); ++local) {
        local_id_of_.set(ids[local], local);
      }
    }
  }
  // The scheduler's round budget at the widest stage.
  std::uint32_t widest_c = 1;
  for (const scheduler_stage& stage : config_.stages) {
    widest_c = std::max(widest_c, stage.c);
  }
  round_cap_ = static_cast<std::uint32_t>(
      scheduler::budget_at(widest_c, config_.prefetch_factor));

  shards_.reserve(count);
  for (std::uint32_t s = 0; s < count; ++s) {
    horam_config shard_config = config_;
    shard_config.shard_count = 1;  // a shard's own view is unsharded
    if (count > 1) {
      shard_config.block_count = members[s].size();
      // The memory budget splits evenly (remainder dropped); refusing
      // undersized splits here keeps direct engine construction honest
      // too — silently inflating per-shard caches would overrun the
      // configured trusted-memory budget.
      expects(config_.memory_blocks / count >=
                  2ULL * config_.bucket_size,
              "shards(): splitting memory_blocks() this many ways leaves "
              "less than one bucket pair per shard — lower shards() or "
              "raise memory_blocks()");
      shard_config.memory_blocks = config_.memory_blocks / count;
      // Every shard's sealers start their nonce counters at 0, so a
      // shared key would reuse (key, nonce) pairs — and so the ChaCha20
      // keystream — across shards. Domain 2 gives each shard its own.
      shard_config.key_seed =
          derive_shard_seed(config_.route_key_seed, config_.key_seed, s, 2);
      expects(shard_config.block_count > 0,
              "shards(): the routing PRF left a shard without blocks — "
              "lower shards()");
      expects(shard_config.memory_blocks / 2 < shard_config.block_count,
              "shards(): splitting memory_blocks() this many ways leaves "
              "a shard with more cache than data — lower shards() or "
              "raise blocks()");
    }
    shard_config.validate();

    auto state = std::make_unique<shard_state>();
    state->config = shard_config;
    // A single-shard engine keeps the caller's seed verbatim — it must
    // stay bit-for-bit the historical single-controller machine (its
    // pad stream is never drawn: slots always equal reals). Real shards
    // get PRF-derived per-shard streams, domain 0 for the ORAM RNG and
    // domain 1 for the pad-id stream.
    const std::uint64_t rng_seed =
        count == 1
            ? opts.seed
            : derive_shard_seed(config_.route_key_seed, opts.seed, s, 0);
    const std::uint64_t pad_seed =
        derive_shard_seed(config_.route_key_seed, opts.seed, s, 1);
    state->lane = std::make_unique<shard_state::lane_state>(
        opts.storage_profile, opts.memory_profile, rng_seed, pad_seed,
        opts.trace);
    oram::access_trace* trace =
        state->lane->trace.has_value() ? &*state->lane->trace : nullptr;
    std::unique_ptr<oram_backend> backend =
        factory(s, shard_config, state->lane->storage, state->lane->memory,
                cpu, state->lane->rng, trace,
                std::span<const oram::block_id>(members[s]));
    expects(backend != nullptr, "shard factory returned no backend");
    state->ctrl = std::make_unique<controller>(
        shard_config, std::move(backend), state->lane->memory, cpu,
        state->lane->rng, trace);
    // Wire the lane's device counters so each shard controller can
    // split its device traffic into shuffle vs online access rounds.
    state->ctrl->attach_device_stats(&state->lane->storage.stats());
    shards_.push_back(std::move(state));
  }
  queues_.resize(count);
  if (config_.coalescing) {
    queued_counts_.resize(count);
  }

  if (config_.worker_threads > 0 && count > 1) {
    // Worker counts clamp to the shard count (shard s is confined to
    // worker s % threads, so extra workers could never receive work). A
    // single-shard engine stays on the calling thread: it is a pure
    // pass-through with no lanes to overlap, and spawning a worker would
    // only add a hop.
    const std::uint32_t threads = std::min(config_.worker_threads, count);
    reports_ = std::make_unique<runtime::mailbox<lane_report>>(count);
    // Job-queue capacity: a round posts at most ceil(count / threads)
    // jobs per worker; sizing boxes at the shard count means post()
    // never blocks the coordinator.
    pool_ = std::make_unique<runtime::worker_pool>(threads, count);
  }
}

engine::~engine() = default;

std::uint32_t engine::route(oram::block_id id) const {
  return static_cast<std::uint32_t>(crypto::siphash24_u64(route_key_, id) %
                                    config_.shard_count);
}

std::uint32_t engine::shard_of(oram::block_id id) const {
  expects(id < config_.block_count, "shard_of: id out of range");
  return shards_.size() == 1 ? 0 : route(id);
}

oram::block_id engine::shard_local_id(oram::block_id id) const {
  expects(id < config_.block_count, "shard_local_id: id out of range");
  return shards_.size() == 1 ? id : local_id_of_.get(id);
}

engine::lane_report engine::service_lane(lane_task&& task,
                                         sim::sim_time start) noexcept {
  lane_report report;
  report.shard = task.shard;
  report.physical = task.groups.size();
  for (const coalesce::group& g : task.groups) {
    report.reals += g.members.size();
  }
  try {
    shard_state& sh = *shards_[task.shard];
    if (task.end_period || task.settle > 0) {
      // Round-end pass. An aligned end never meets a deferred shuffle,
      // so no job is in flight for end_period() to drain in the
      // foreground.
      const sim::sim_time local_start = sh.ctrl->now();
      if (task.end_period) {
        sh.ctrl->end_period();
      } else {
        sh.ctrl->settle(task.settle);
      }
      report.elapsed = sh.ctrl->now() - local_start;
      return report;
    }
    const std::uint64_t periods_before = sh.ctrl->stats().periods;
    const std::size_t physical = task.groups.size();
    std::vector<request> batch;
    batch.reserve(task.slots);
    for (coalesce::group& g : task.groups) {
      batch.push_back(std::move(g.physical));
    }
    for (std::size_t i = physical; i < task.slots; ++i) {
      request pad;
      pad.op = oram::op_kind::read;
      pad.id = util::uniform_below(sh.lane->pad_rng, sh.config.block_count);
      batch.push_back(std::move(pad));
    }

    // Padded lanes always collect results: the router needs the
    // hit/miss split of its own padding to keep stats()
    // application-level. The single-shard pass honors the caller's
    // choice exactly.
    const bool want_results = task.slots > physical || task.want_out;
    const sim::sim_time local_start = sh.ctrl->now();
    std::vector<request_result> results;
    if (task.defer_settle) {
      sh.ctrl->serve(batch, want_results ? &results : nullptr);
    } else {
      sh.ctrl->run(batch, want_results ? &results : nullptr);
    }

    if (want_results) {
      // Completion-ordering layer: shard-local sim-time offsets map
      // onto the global clock at the lane's start. Every group's mapped
      // time is computed before any fan-out. The controller can serve a
      // resident hit before an earlier miss, so with coalescing on the
      // members complete in per-tenant order (completion_order): none
      // before its own group, nor before its tenant's previous member.
      // Off, each group is one member admitted in batch order and keeps
      // its raw time bit-for-bit.
      std::vector<sim::sim_time>& group_times = sh.group_times;
      group_times.clear();
      for (std::size_t i = 0; i < physical && task.want_out; ++i) {
        results[i].completion_time =
            start + (results[i].completion_time - local_start);
        group_times.push_back(results[i].completion_time);
      }
      std::span<const sim::sim_time> member_times = group_times;
      if (config_.coalescing && task.want_out) {
        sh.order.assign(task.groups, group_times);
        member_times = sh.order.times();
      }
      for (std::size_t i = 0; i < physical && task.want_out; ++i) {
        // Fan the physical result out to every logical member (one
        // member per group with coalescing off, exactly the historical
        // completion stream).
        coalesce::fan_out(
            std::move(task.groups[i]), std::move(results[i]), member_times,
            sh.config.payload_bytes,
            [&report](std::uint64_t tag, request_result&& result) {
              completed done;
              done.tag = tag;
              done.result = std::move(result);
              report.completions.push_back(std::move(done));
            });
      }
      for (std::size_t i = physical; i < task.slots; ++i) {
        ++report.pad_requests;
        if (results[i].hit) {
          ++report.pad_hits;
        } else {
          ++report.pad_misses;
        }
      }
    }
    report.elapsed = sh.ctrl->now() - local_start;
    report.period_ended = sh.ctrl->stats().periods != periods_before;
    report.loads_left = sh.ctrl->period_loads_left();
    report.owed = sh.ctrl->owed_units();
  } catch (...) {
    // Workers must not throw (an escape would terminate the process);
    // the failure crosses back to the coordinator as data and is
    // rethrown there in shard-index order.
    report.error = std::current_exception();
  }
  return report;
}

std::vector<engine::lane_report> engine::run_lanes(
    std::vector<lane_task>&& tasks, sim::sim_time start) {
  std::vector<lane_report> reports(tasks.size());
  if (pool_ == nullptr) {
    // No workers: lanes run sequentially on the calling thread,
    // failures surface immediately.
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      reports[i] = service_lane(std::move(tasks[i]), start);
      if (reports[i].error != nullptr) {
        std::rethrow_exception(reports[i].error);
      }
    }
    return reports;
  }

  // Workers: shard s is pinned to worker s % threads (its
  // thread-confinement home), reports come back through the mailbox in
  // whatever order lanes finish and are placed by their task index.
  // Every report is collected before any error is rethrown — abandoning
  // in-flight lanes would leave workers pushing into a dead round.
  const std::size_t threads = pool_->size();
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const std::size_t worker = tasks[i].shard % threads;
    const bool posted = pool_->post(
        worker, [this, task = std::move(tasks[i]), start, slot = i]() mutable {
          lane_report report = service_lane(std::move(task), start);
          report.slot = slot;
          reports_->push(std::move(report));
        });
    invariant(posted, "worker pool refused a lane job");
  }
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    lane_report report;
    const bool popped = reports_->pop(report);
    invariant(popped, "report mailbox closed mid-round");
    invariant(report.slot < reports.size(), "lane report slot out of range");
    reports[report.slot] = std::move(report);
  }
  for (const lane_report& report : reports) {
    if (report.error != nullptr) {
      std::rethrow_exception(report.error);
    }
  }
  return reports;
}

bool engine::next_round_may_end_a_period(
    const std::vector<lane_report>& reports) const {
  // A round lane makes one load per cycle and retires at least one of
  // its round_cap() slots per cycle (a miss is served from its own
  // load's fill), so it takes at most round_cap() loads: exactly that
  // when every slot misses. A budget reached on the lane's last cycle
  // shuffles after all of its completions; one reached earlier
  // shuffles before the lane's later completions, and the stall lands
  // in their latencies. So a shard with round_cap() loads left or
  // fewer ends every period now, after this round's completions.
  //
  // Looking ahead gives up to round_cap() loads of a period. Where a
  // period cannot hold two whole rounds, that would cut most periods to
  // a single round — a shuffle after every round, more than the stalls
  // it moves — so there the budget alone ends periods. Every shard has
  // the same budget (the memory splits evenly).
  const std::uint64_t round_loads = round_cap_;
  if (shards_.front()->config.period_loads() <= 2 * round_loads) {
    return false;
  }
  return std::any_of(reports.begin(), reports.end(),
                     [this](const lane_report& r) {
                       return r.loads_left <= round_cap_;
                     });
}

void engine::round_end_pass(std::vector<lane_report>& reports, bool align,
                            std::uint64_t settle, sim::sim_time start) {
  std::vector<lane_task> pass;
  std::vector<lane_report*> extended;
  for (lane_report& report : reports) {
    const bool end = align && !report.period_ended;
    if (!end && settle == 0) {
      continue;
    }
    lane_task& task = pass.emplace_back();
    task.shard = report.shard;
    task.end_period = end;
    task.settle = settle;
    extended.push_back(&report);
    stats_.early_period_ends += end ? 1 : 0;
  }
  // Each task runs on its shard's own worker, like the lane it extends.
  // It lengthens the lane, so the round lasts the slowest lane plus its
  // pass; completions already happened before it.
  const std::vector<lane_report> done = run_lanes(std::move(pass), start);
  for (std::size_t i = 0; i < done.size(); ++i) {
    extended[i]->elapsed += done[i].elapsed;
  }
}

void engine::merge_report(lane_report&& report, std::vector<completed>* out,
                          sim::sim_time& longest) {
  // Lanes run in parallel: the round lasts its slowest shard.
  longest = std::max(longest, report.elapsed);
  stats_.real_requests += report.reals;
  stats_.physical_accesses += report.physical;
  stats_.coalesced_requests += report.reals - report.physical;
  stats_.pad_requests += report.pad_requests;
  stats_.pad_hits += report.pad_hits;
  stats_.pad_misses += report.pad_misses;
  if (out != nullptr) {
    for (completed& c : report.completions) {
      out->push_back(std::move(c));
    }
  }
}

std::uint64_t engine::execute(std::vector<std::deque<routed>>& queues,
                              bool one_round, std::vector<completed>* out) {
  // Coalescing implies padded rounds on every shard count (including
  // one): merging changes how many real slots a round consumes, and
  // only a public, constant round shape keeps that invisible.
  const bool padded = shard_count() > 1 || config_.coalescing;
  // A round pops at most round_cap() physical accesses per padded shard;
  // a batch takes the whole queue and sizes its padding afterwards.
  const std::size_t cap = padded && one_round ? round_cap_ : 0;
  // A padded multi-shard round leaves the work its loads owe for the
  // round-end pass, which settles the same count on every shard.
  const bool settles_at_round_end = one_round && shard_count() > 1;
  // note_popped bookkeeping only applies to the engine's own routing
  // queues; run() hands in local buckets that were never submitted.
  const bool own_queues = &queues == &queues_;
  const sim::sim_time start = now();
  const std::size_t out_base = out != nullptr ? out->size() : 0;

  // Phase 1 (coordinator): pop real requests off the routing queues into
  // per-lane task messages. The groups are built here, before lane
  // fan-out, so neither the queues nor the round tables ever cross a
  // thread boundary.
  std::vector<lane_task> tasks;
  tasks.reserve(shard_count());
  std::uint64_t serviced = 0;
  std::uint64_t rounds = 0;
  for (std::uint32_t s = 0; s < shard_count(); ++s) {
    std::deque<routed>& queue = queues[s];
    lane_task task;
    if (config_.coalescing) {
      // Prefix coalescing: consume the longest queue prefix whose
      // distinct block count fits the cap (0 = unbounded). Stopping at
      // the first inadmissible entry (instead of skipping past it) keeps
      // per-tenant completion order intact.
      coalesce::round_table table(cap);
      while (!queue.empty() && table.admits(queue.front().req.id)) {
        routed entry = std::move(queue.front());
        queue.pop_front();
        if (own_queues) {
          note_popped(s, entry.req.id);
        }
        ++serviced;
        table.add(entry.tag, std::move(entry.req));
      }
      task.groups = table.take();
    } else {
      const std::size_t reals =
          cap > 0 ? std::min(cap, queue.size()) : queue.size();
      task.groups.reserve(reals);
      for (std::size_t i = 0; i < reals; ++i) {
        routed& entry = queue.front();
        coalesce::group g;
        coalesce::member& only = g.members.emplace_back();
        only.tag = entry.tag;
        only.user = entry.req.user;
        only.admission = i;
        g.physical = std::move(entry.req);
        task.groups.push_back(std::move(g));
        queue.pop_front();
      }
      serviced += reals;
    }
    if (padded) {
      rounds = std::max<std::uint64_t>(
          rounds, (task.groups.size() + round_cap_ - 1) / round_cap_);
    }
    task.shard = s;
    task.want_out = out != nullptr;
    task.defer_settle = settles_at_round_end;
    tasks.push_back(std::move(task));
  }
  // Every padded shard executes the same whole number of cap rounds —
  // real requests first, dummies after — so the per-shard bus shape
  // carries no information about the routed bucket sizes (or, with
  // coalescing, about how many requests merged).
  for (lane_task& task : tasks) {
    task.slots = padded ? rounds * round_cap_ : task.groups.size();
  }
  std::erase_if(tasks, [](const lane_task& task) { return task.slots == 0; });
  if (tasks.empty()) {
    return serviced;  // nothing was queued
  }

  // Phase 2: execute the lanes — sequentially (sim) or on the
  // per-shard workers (threaded) — then the round-end pass. If a
  // shard's period ended, or a round left too few loads for the next
  // one, it ends every other shard's period in the same execution.
  // Deferred shuffles spread their device time over slices instead of
  // stalling one round, so there aligning would only add periods: those
  // shards keep their own n/2-load cadence. After a round, every shard
  // whose period it does not end runs the same number of owed units:
  // the smallest count any shard owes, so no lane waits on another's
  // extra eviction. The rest stays owed, and a period end runs it all.
  std::vector<lane_report> reports = run_lanes(std::move(tasks), start);
  bool period_ended = std::any_of(
      reports.begin(), reports.end(),
      [](const lane_report& r) { return r.period_ended; });
  const bool align =
      shard_count() > 1 && !config_.defers_shuffles() &&
      (period_ended || (one_round && next_round_may_end_a_period(reports)));
  std::uint64_t settle = 0;
  if (settles_at_round_end) {
    settle = std::min_element(reports.begin(), reports.end(),
                              [](const lane_report& a, const lane_report& b) {
                                return a.owed < b.owed;
                              })->owed;
  }
  if (align || settle > 0) {
    round_end_pass(reports, align, settle, start);
    period_ended = period_ended || align;
  }
  if (padded && period_ended) {
    ++stats_.shuffle_rounds;
  }

  // Phase 3 (coordinator): merge reports in task (= shard-index) order,
  // the exact order the sequential machine produces, whatever order the
  // lanes actually finished in. Lanes overlap: the execution lasts its
  // slowest shard.
  sim::sim_time longest = 0;
  for (lane_report& report : reports) {
    merge_report(std::move(report), out, longest);
  }
  if (padded) {
    stats_.rounds += rounds;
    global_now_ = start + longest;
    if (one_round && out != nullptr) {
      std::stable_sort(
          out->begin() + static_cast<std::ptrdiff_t>(out_base), out->end(),
          [](const completed& a, const completed& b) {
            return a.result.completion_time < b.result.completion_time;
          });
    }
  }
  return serviced;
}

void engine::check_admissible(const request& req) const {
  horam::check_admissible(req, config_);
}

void engine::run(std::span<const request> requests,
                 std::vector<request_result>* results) {
  for (const request& req : requests) {
    check_admissible(req);
  }
  if (results != nullptr) {
    results->assign(requests.size(), request_result{});
  }
  std::vector<std::deque<routed>> buckets(shard_count());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    routed entry;
    entry.tag = i;
    entry.req = requests[i];
    entry.req.id = shard_local_id(requests[i].id);
    buckets[shard_of(requests[i].id)].push_back(std::move(entry));
  }
  std::vector<completed> done;
  (void)execute(buckets, /*one_round=*/false,
                results != nullptr ? &done : nullptr);
  if (results != nullptr) {
    for (completed& c : done) {
      (*results)[c.tag] = std::move(c.result);
    }
  }
}

std::uint64_t engine::submit(request req) {
  check_admissible(req);
  const std::uint32_t s = shard_of(req.id);
  routed entry;
  entry.tag = next_token_++;
  entry.req = std::move(req);
  entry.req.id = shard_local_id(entry.req.id);
  const std::uint64_t token = entry.tag;
  const oram::block_id local = entry.req.id;
  queues_[s].push_back(std::move(entry));
  ++pending_total_;
  if (config_.coalescing) {
    // Slot accounting: a round slot is a *distinct* queued block, not a
    // queued request — the pump reads pending_slots() so one physical
    // access retiring many tickets doesn't under-fill rounds.
    if (queued_counts_[s][local]++ == 0) {
      ++pending_slots_;
    }
  }
  return token;
}

void engine::note_popped(std::uint32_t s, oram::block_id local) noexcept {
  if (!config_.coalescing) {
    return;
  }
  const auto it = queued_counts_[s].find(local);
  invariant(it != queued_counts_[s].end() && it->second > 0,
            "pop of a block with no queued count");
  if (--it->second == 0) {
    queued_counts_[s].erase(it);
    --pending_slots_;
  }
}

bool engine::step_round(const completion& on_complete) {
  if (pending_total_ == 0) {
    return false;
  }
  std::vector<completed> done;
  const std::uint64_t serviced =
      execute(queues_, /*one_round=*/true, on_complete ? &done : nullptr);
  pending_total_ -= serviced;
  if (on_complete) {
    for (completed& c : done) {
      on_complete(c.tag, std::move(c.result));
    }
  }
  return true;
}

void engine::drain(std::vector<request_result>* results) {
  if (results != nullptr) {
    results->clear();
  }
  if (pending_total_ == 0) {
    return;
  }
  // The queue snapshot is a known batch: open-loop lane execution.
  std::vector<completed> done;
  pending_total_ -= execute(queues_, /*one_round=*/false,
                            results != nullptr ? &done : nullptr);
  invariant(pending_total_ == 0, "drain left requests behind");
  if (results != nullptr) {
    // Tokens are monotone in submission order.
    std::sort(done.begin(), done.end(),
              [](const completed& a, const completed& b) {
                return a.tag < b.tag;
              });
    results->reserve(done.size());
    for (completed& c : done) {
      results->push_back(std::move(c.result));
    }
  }
}

std::uint64_t engine::round_budget() const {
  return shards_.size() == 1
             ? shards_[0]->ctrl->round_budget()
             : static_cast<std::uint64_t>(shard_count()) * round_cap_;
}

sim::sim_time engine::now() const noexcept {
  return shards_.size() == 1 ? shards_[0]->ctrl->now() : global_now_;
}

const controller_stats& engine::stats() const noexcept {
  controller_stats total;
  for (const std::unique_ptr<shard_state>& sh : shards_) {
    total += sh->ctrl->stats();
  }
  // The router's padding traffic is invisible to applications: strip it
  // from the request-level counters, keep the resource counters raw.
  total.requests -= std::min(total.requests, stats_.pad_requests);
  total.hits -= std::min(total.hits, stats_.pad_hits);
  total.misses -= std::min(total.misses, stats_.pad_misses);
  // Coalesced members never reached a controller, but they are real
  // application requests served from the round table in trusted memory:
  // add them back as control-layer hits so the counters stay
  // application-level. Zero with coalescing off.
  total.requests += stats_.coalesced_requests;
  total.hits += stats_.coalesced_requests;
  if (shards_.size() > 1) {
    total.total_time = global_now_ - stats_epoch_;
  }
  aggregate_ = total;
  return aggregate_;
}

void engine::reset_stats() noexcept {
  for (const std::unique_ptr<shard_state>& sh : shards_) {
    sh->ctrl->reset_stats();
    sh->lane->storage.reset_stats();
    sh->lane->memory.reset_stats();
  }
  stats_ = engine_stats{};
  stats_epoch_ = now();
}

controller& engine::shard(std::uint32_t index) {
  expects(index < shards_.size(), "shard index out of range");
  return *shards_[index]->ctrl;
}

const controller& engine::shard(std::uint32_t index) const {
  expects(index < shards_.size(), "shard index out of range");
  return *shards_[index]->ctrl;
}

sim::block_device& engine::shard_storage(std::uint32_t index) {
  expects(index < shards_.size(), "shard index out of range");
  return shards_[index]->lane->storage;
}

const sim::block_device& engine::shard_storage(std::uint32_t index) const {
  expects(index < shards_.size(), "shard index out of range");
  return shards_[index]->lane->storage;
}

sim::block_device& engine::shard_memory(std::uint32_t index) {
  expects(index < shards_.size(), "shard index out of range");
  return shards_[index]->lane->memory;
}

const sim::block_device& engine::shard_memory(std::uint32_t index) const {
  expects(index < shards_.size(), "shard index out of range");
  return shards_[index]->lane->memory;
}

const oram::access_trace* engine::shard_trace(std::uint32_t index) const {
  expects(index < shards_.size(), "shard index out of range");
  const shard_state& sh = *shards_[index];
  return sh.lane->trace.has_value() ? &*sh.lane->trace : nullptr;
}

std::vector<oram::block_id> engine::shard_blocks(std::uint32_t index) const {
  expects(index < shards_.size(), "shard index out of range");
  std::vector<oram::block_id> blocks;
  if (shards_.size() > 1) {
    for (oram::block_id id = 0; id < config_.block_count; ++id) {
      if (route(id) == index) {
        blocks.push_back(id);
      }
    }
  }
  return blocks;
}

std::uint64_t engine::control_memory_bytes() const {
  std::uint64_t total = local_id_of_.memory_bytes();
  for (const std::unique_ptr<shard_state>& sh : shards_) {
    total += sh->ctrl->control_memory_bytes();
  }
  return total;
}

}  // namespace horam

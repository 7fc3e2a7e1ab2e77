#include "core/multi_user.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/contracts.h"

namespace horam {

// --------------------------------------------------- tenant_scheduler

tenant_scheduler::tenant_scheduler(engine& eng,
                                   std::unique_ptr<fairness_policy> policy,
                                   std::size_t max_queue_depth)
    : engine_(eng),
      policy_(std::move(policy)),
      max_queue_depth_(max_queue_depth),
      stats_epoch_(eng.now()) {
  expects(policy_ != nullptr, "tenant_scheduler needs a fairness policy");
}

std::uint32_t tenant_scheduler::add_tenant(double weight) {
  expects(weight > 0.0, "tenant weight must be positive");
  const auto tenant = static_cast<std::uint32_t>(lanes_.size());
  lane fresh;
  fresh.weight = weight;
  fresh.stats.tenant = tenant;
  fresh.stats.weight = weight;
  lanes_.push_back(std::move(fresh));
  return tenant;
}

void tenant_scheduler::grant(std::uint32_t tenant, user_grant grant) {
  expects(tenant < lanes_.size(), "grant for unknown tenant");
  expects(grant.first <= grant.last, "grant range must be ordered");
  grants_[tenant] = grant;
}

std::uint64_t tenant_scheduler::enqueue(std::uint32_t tenant, request req) {
  expects(tenant < lanes_.size(), "enqueue for unknown tenant");
  engine_.check_admissible(req);
  // Access control before anything is queued: a rejected request leaves
  // no observable trace.
  const auto it = grants_.find(tenant);
  if (it != grants_.end() && !it->second.allows(req.id)) {
    throw access_denied(tenant, req.id);
  }
  lane& target = lanes_[tenant];
  if (max_queue_depth_ > 0 && target.queue.size() >= max_queue_depth_) {
    throw queue_overflow(tenant, target.queue.size());
  }
  if (target.queue.empty()) {
    // WFQ start-tag rule: a lane that goes backlogged resumes at the
    // scheduler's virtual clock (the highest pass ever dispatched, so
    // it persists across idle periods), not at its own lifetime count.
    // Idle time — or joining late — therefore cannot bank a monopoly in
    // either direction: veterans are not starved by fresh lanes, and
    // fresh lanes are not starved by veterans.
    const auto floor_serviced = static_cast<std::uint64_t>(std::max(
        0.0, std::ceil(virtual_pass_ * target.weight - 1.0)));
    target.serviced = std::max(target.serviced, floor_serviced);
  }
  req.user = tenant;
  queued_request entry;
  entry.seq = next_seq_++;
  entry.submitted = engine_.now();
  entry.req = std::move(req);
  target.queue.push_back(std::move(entry));
  ++target.stats.submitted;
  ++queued_total_;
  return target.queue.back().seq;
}

bool tenant_scheduler::step(const completion& on_complete) {
  if (queued_total_ == 0 && inflight_.empty()) {
    return false;
  }

  // One scheduling round: pop up to round_budget() requests, one policy
  // pick at a time, so the engine's shard rounds stay full while
  // tenants interleave at request granularity. The engine's own backlog
  // counts against the budget: with skewed routing a hot shard drains
  // slower than the pops arrive, and without this cap the in-engine
  // queue would grow without bound while the per-tenant admission
  // limits (which guard the *admission* queues) never fire.
  // The backlog is measured in round *slots* (distinct queued blocks
  // under coalescing, queued requests otherwise) and re-read per pick:
  // merged requests consume no new slot, so a hot-block burst keeps
  // admitting until the round's physical capacity is genuinely spoken
  // for. With coalescing off pending_slots() == pending() and the loop
  // is exactly the historical available = budget - backlog pop count.
  const std::uint64_t budget = engine_.round_budget();

  // Build the policy's view once per round and maintain it in place:
  // only the picked lane's fields change between picks, so a round is
  // O(budget) policy work instead of O(budget * tenants) rebuilds.
  std::vector<tenant_lane> views;
  views.reserve(lanes_.size());
  for (std::uint32_t tenant = 0; tenant < lanes_.size(); ++tenant) {
    if (!lanes_[tenant].queue.empty()) {
      views.push_back(tenant_lane{tenant, lanes_[tenant].weight,
                                  lanes_[tenant].queue.size(),
                                  lanes_[tenant].serviced});
    }
  }
  while (engine_.pending_slots() < budget && !views.empty()) {
    const std::size_t choice = policy_->pick(views);
    invariant(choice < views.size(), "fairness policy picked no lane");
    lane& source = lanes_[views[choice].tenant];
    queued_request entry = std::move(source.queue.front());
    source.queue.pop_front();
    virtual_pass_ = std::max(
        virtual_pass_,
        (static_cast<double>(source.serviced) + 1.0) / source.weight);
    ++source.serviced;
    --queued_total_;
    ++source.inflight;
    const std::uint64_t token = engine_.submit(std::move(entry.req));
    inflight_.emplace(token, inflight_meta{views[choice].tenant,
                                           entry.seq, entry.submitted});
    if (--views[choice].queued == 0) {
      views.erase(views.begin() + static_cast<std::ptrdiff_t>(choice));
    } else {
      ++views[choice].serviced;
    }
  }

  // One engine round; the completion-ordering layer delivers finished
  // requests with completion_time already on the global clock.
  engine_.step_round([&](std::uint64_t token, request_result&& result) {
    const auto it = inflight_.find(token);
    invariant(it != inflight_.end(),
              "engine completed an unknown request token");
    const inflight_meta meta = it->second;
    inflight_.erase(it);
    lane& owner = lanes_[meta.tenant];
    invariant(owner.inflight > 0, "inflight underflow");
    --owner.inflight;
    const sim::sim_time latency =
        result.completion_time - meta.submitted;
    tenant_stats& ts = owner.stats;
    ++ts.completed;
    ts.total_latency += latency;
    ts.max_latency = std::max(ts.max_latency, latency);
    ts.latency.record(latency);
    if (on_complete) {
      on_complete(meta.tenant, meta.seq, std::move(result), latency);
    }
  });
  return true;
}

void tenant_scheduler::run_until_idle(const completion& on_complete) {
  while (step(on_complete)) {
  }
}

std::size_t tenant_scheduler::queued(std::uint32_t tenant) const {
  expects(tenant < lanes_.size(), "queued() for unknown tenant");
  return lanes_[tenant].queue.size() + lanes_[tenant].inflight;
}

tenant_stats tenant_scheduler::stats(std::uint32_t tenant) const {
  expects(tenant < lanes_.size(), "stats() for unknown tenant");
  tenant_stats snapshot = lanes_[tenant].stats;
  snapshot.queued = lanes_[tenant].queue.size() + lanes_[tenant].inflight;
  const sim::sim_time elapsed = engine_.now() - stats_epoch_;
  snapshot.throughput =
      elapsed > 0 ? static_cast<double>(snapshot.completed) * 1e9 /
                        static_cast<double>(elapsed)
                  : 0.0;
  return snapshot;
}

void tenant_scheduler::reset_stats() {
  for (std::uint32_t tenant = 0; tenant < lanes_.size(); ++tenant) {
    lane& l = lanes_[tenant];
    l.stats = tenant_stats{};
    l.stats.tenant = tenant;
    l.stats.weight = l.weight;
    // Requests still queued or riding in the engine stay admitted and
    // will complete after the reset; count them as submitted in the new
    // epoch.
    l.stats.submitted = l.queue.size() + l.inflight;
  }
  stats_epoch_ = engine_.now();
}

}  // namespace horam

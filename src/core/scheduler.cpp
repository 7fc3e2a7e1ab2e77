#include "core/scheduler.h"

#include <algorithm>

#include "util/contracts.h"

namespace horam {

scheduler::scheduler(std::vector<scheduler_stage> stages,
                     std::uint64_t period_loads,
                     std::uint32_t prefetch_factor)
    : stages_(std::move(stages)), prefetch_factor_(prefetch_factor) {
  expects(!stages_.empty(), "scheduler needs at least one stage");
  expects(period_loads > 0, "period must allow at least one load");
  expects(prefetch_factor_ >= 1, "prefetch factor must be >= 1");

  // Convert stage fractions into cumulative load boundaries; the last
  // stage always extends to the end of the period.
  boundaries_.reserve(stages_.size());
  double cumulative = 0.0;
  for (std::size_t s = 0; s < stages_.size(); ++s) {
    cumulative += stages_[s].fraction;
    const auto boundary = static_cast<std::uint64_t>(
        cumulative * static_cast<double>(period_loads) + 0.5);
    boundaries_.push_back(
        s + 1 == stages_.size() ? period_loads : std::min(boundary,
                                                          period_loads));
  }
}

std::uint32_t scheduler::group_size(std::uint64_t loads_done) const {
  const std::uint64_t within = loads_done % boundaries_.back();
  for (std::size_t s = 0; s < boundaries_.size(); ++s) {
    if (within < boundaries_[s]) {
      return stages_[s].c;
    }
  }
  return stages_.back().c;
}

std::uint64_t scheduler::window(std::uint64_t loads_done) const {
  return window_at(group_size(loads_done), prefetch_factor_);
}

std::uint64_t scheduler::round_budget(std::uint64_t loads_done) const {
  return budget_at(group_size(loads_done), prefetch_factor_);
}

cycle_plan scheduler::plan(
    const rob_table& rob, std::uint64_t loads_done,
    const std::function<oram::block_id(std::uint64_t)>& id_of_request,
    const std::function<bool(oram::block_id)>& resident) const {
  cycle_plan plan;
  plan.c = group_size(loads_done);
  const std::size_t scan =
      std::min<std::size_t>(rob.size(), window(loads_done));

  for (std::size_t position = 0; position < scan; ++position) {
    const oram::block_id id = id_of_request(rob.at(position));
    if (resident(id)) {
      if (plan.hit_positions.size() < plan.c) {
        plan.hit_positions.push_back(position);
      }
    } else if (!plan.miss_position.has_value()) {
      plan.miss_position = position;
    }
    if (plan.hit_positions.size() == plan.c &&
        plan.miss_position.has_value()) {
      break;
    }
  }
  plan.dummy_hits = plan.c - static_cast<std::uint32_t>(
                                 plan.hit_positions.size());
  return plan;
}

}  // namespace horam

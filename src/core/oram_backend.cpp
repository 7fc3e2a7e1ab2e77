#include "core/oram_backend.h"

#include <utility>

#include "util/contracts.h"

namespace horam {

shuffle_cost run_to_completion(
    shuffle_job& job, std::vector<oram::evicted_block>& overflow_out) {
  shuffle_cost cost;
  while (!job.done()) {
    cost += job.step(0);
  }
  job.finish(overflow_out);
  return cost;
}

shuffle_cost staged_shuffle_job::step(sim::sim_time device_budget) {
  expects(!done(), "shuffle_job::step() after done()");
  shuffle_cost slice;
  do {
    run_unit(slice);
  } while (!done() &&
           (device_budget <= 0 ||
            (slice.total() < device_budget &&
             slice.total() + next_unit_bound() <= device_budget)));
  return slice;
}

bool staged_shuffle_job::holds(oram::block_id id) const {
  return staging_.contains(id);
}

std::vector<std::uint8_t>* staged_shuffle_job::staged(oram::block_id id) {
  const auto it = staging_.find(id);
  return it == staging_.end() ? nullptr : &it->second;
}

void staged_shuffle_job::finish(
    std::vector<oram::evicted_block>& overflow_out) {
  expects(done(), "shuffle_job::finish() before done()");
  expects(!finished_, "shuffle_job::finish() called twice");
  for (const oram::block_id id : kept_) {
    overflow_out.push_back(oram::evicted_block{id, unstage(id)});
  }
  invariant(staging_.empty(), "shuffle job finished with unplaced blocks");
  finished_ = true;
  on_finish();
}

void staged_shuffle_job::stage(oram::block_id id,
                               std::vector<std::uint8_t> payload) {
  const bool fresh = staging_.emplace(id, std::move(payload)).second;
  invariant(fresh, "shuffle job staged the same block twice");
}

std::vector<std::uint8_t> staged_shuffle_job::unstage(oram::block_id id) {
  const auto it = staging_.find(id);
  invariant(it != staging_.end(), "shuffle job unstaged an absent block");
  std::vector<std::uint8_t> payload = std::move(it->second);
  staging_.erase(it);
  return payload;
}

void staged_shuffle_job::keep(oram::block_id id) {
  invariant(staging_.contains(id), "shuffle job kept an absent block");
  kept_.push_back(id);
}

const std::vector<std::uint8_t>& staged_shuffle_job::payload_of(
    oram::block_id id) const {
  const auto it = staging_.find(id);
  invariant(it != staging_.end(), "shuffle job has no such staged block");
  return it->second;
}

shuffle_cost oram_backend::shuffle_period(
    std::vector<oram::evicted_block> evicted, std::uint64_t period_index,
    std::vector<oram::evicted_block>& overflow_out) {
  return run_to_completion(*begin_shuffle(std::move(evicted), period_index),
                           overflow_out);
}

}  // namespace horam

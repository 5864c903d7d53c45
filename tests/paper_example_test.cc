// Integration tests against the paper's worked example (Tables 2-4).
//
// One documented discrepancy: the paper's Table 3(d) splits the group with
// cost 7.02 in the fourth iteration although a group with cost 7.26 exists,
// contradicting the pseudocode's ReturnMax(MaxPQ) rule (§3.1). We implement
// the pseudocode, so our fourth split picks the 7.26 group and plain DRP
// lands at ≈24.22 instead of the paper's 24.09. The CDS trace of Table 4 is
// internally consistent and is reproduced exactly from the paper's own
// Table 4(a) starting point.
#include <gtest/gtest.h>

#include <algorithm>

#include "cds_oracle.h"
#include "core/cds.h"
#include "core/drp.h"
#include "core/drp_cds.h"
#include "model/cost.h"
#include "workload/paper_example.h"

namespace dbs {
namespace {

// Builds the paper's Table 4(a) grouping (= Table 3(d) DRP output):
// g0 {d9,d2,d3}, g1 {d6,d5,d15}, g2 {d1,d12}, g3 {d10,d13,d4,d8},
// g4 {d14,d7,d11}; ids are paper indices minus one.
Allocation paper_table4a_allocation(const Database& db) {
  std::vector<ChannelId> assignment(15, 0);
  auto set_group = [&](std::initializer_list<int> paper_ids, ChannelId c) {
    for (int d : paper_ids) assignment[static_cast<std::size_t>(d - 1)] = c;
  };
  set_group({9, 2, 3}, 0);
  set_group({6, 5, 15}, 1);
  set_group({1, 12}, 2);
  set_group({10, 13, 4, 8}, 3);
  set_group({14, 7, 11}, 4);
  return Allocation(db, 5, std::move(assignment));
}

TEST(PaperExample, InitialCostIs135_60) {
  const Database db = paper_table2_database();
  const Allocation everything(db, 1);
  EXPECT_NEAR(everything.cost(), kPaperInitialCost, 0.005);
}

TEST(PaperExample, FirstDrpSplitMatchesTable3b) {
  const Database db = paper_table2_database();
  const DrpResult two = run_drp(db, 2);
  ASSERT_EQ(two.groups.size(), 2u);
  // Split between d12 and d10: 8 items left, 7 right.
  EXPECT_EQ(two.groups[0].end, 8u);
  // Exact values are 29.0441 and 28.6120; the paper prints 29.04 and 28.62
  // (its second figure looks like an upward rounding slip), so allow 0.01.
  EXPECT_NEAR(two.groups[0].cost, kPaperFirstSplitCostA, 0.01);
  EXPECT_NEAR(two.groups[1].cost, kPaperFirstSplitCostB, 0.01);
}

TEST(PaperExample, SecondDrpIterationMatchesTable3c) {
  const Database db = paper_table2_database();
  const DrpResult three = run_drp(db, 3);
  ASSERT_EQ(three.groups.size(), 3u);
  std::vector<double> costs;
  for (const DrpGroup& g : three.groups) costs.push_back(g.cost);
  std::sort(costs.begin(), costs.end());
  // Table 3(c): 7.02, 6.82, 28.62 (exact: 7.0227, 6.8204, 28.6120).
  EXPECT_NEAR(costs[0], 6.82, 0.01);
  EXPECT_NEAR(costs[1], 7.02, 0.01);
  EXPECT_NEAR(costs[2], 28.62, 0.01);
}

TEST(PaperExample, DrpFiveGroupsFollowPseudocode) {
  // Following ReturnMax strictly, the fourth iteration splits the 7.26 group
  // {d10,d13,d4,d8} into {d10,d13} and {d4,d8}; total cost ≈ 24.22 (the
  // paper's table shows 24.09 by splitting the 7.02 group instead — see the
  // file comment).
  const Database db = paper_table2_database();
  const DrpResult five = run_drp(db, 5);
  ASSERT_EQ(five.groups.size(), 5u);
  EXPECT_NEAR(five.allocation.cost(), 24.22, 0.01);
}

TEST(PaperExample, Table4aStartingCostIs24_09) {
  const Database db = paper_table2_database();
  const Allocation alloc = paper_table4a_allocation(db);
  EXPECT_NEAR(alloc.cost(), kPaperDrpCost, 0.01);
}

TEST(PaperExample, CdsFirstMoveIsD10ToGroup2WithGain0_95) {
  const Database db = paper_table2_database();
  const Allocation alloc = paper_table4a_allocation(db);
  const CdsMove move = oracle::best_move(alloc);
  EXPECT_EQ(move.item, 9u);   // d10
  EXPECT_EQ(move.from, 3u);   // paper group 4
  EXPECT_EQ(move.to, 1u);     // paper group 2
  EXPECT_NEAR(move.gain, kPaperCdsFirstGain, 0.005);
}

TEST(PaperExample, CdsSecondMoveIsD12WithGain0_45) {
  const Database db = paper_table2_database();
  Allocation alloc = paper_table4a_allocation(db);
  alloc.move(9, 1);  // apply the first move
  EXPECT_NEAR(alloc.cost(), kPaperCdsAfterFirst, 0.01);
  const CdsMove move = oracle::best_move(alloc);
  EXPECT_EQ(move.item, 11u);  // d12
  EXPECT_EQ(move.from, 2u);   // paper group 3
  EXPECT_EQ(move.to, 1u);     // paper group 2
  EXPECT_NEAR(move.gain, kPaperCdsSecondGain, 0.005);
}

TEST(PaperExample, CdsReachesLocalOptimum22_29) {
  const Database db = paper_table2_database();
  Allocation alloc = paper_table4a_allocation(db);
  const CdsStats stats = run_cds(alloc);
  EXPECT_NEAR(alloc.cost(), kPaperCdsFinalCost, 0.01);
  EXPECT_GE(stats.iterations, 2u);
  EXPECT_LE(oracle::best_move(alloc).gain, 1e-12);
}

TEST(PaperExample, CdsFinalGroupingMatchesTable4d) {
  const Database db = paper_table2_database();
  Allocation alloc = paper_table4a_allocation(db);
  run_cds(alloc);
  // Table 4(d): {d9,d2,d3,d6} {d5,d15,d10,d12,d14} {d1} {d13,d4,d8} {d7,d11}.
  auto group_of = [&](int paper_id) {
    return alloc.channel_of(static_cast<ItemId>(paper_id - 1));
  };
  EXPECT_EQ(alloc.count_of(group_of(9)), 4u);
  for (int d : {9, 2, 3, 6}) EXPECT_EQ(group_of(d), group_of(9)) << "d" << d;
  EXPECT_EQ(alloc.count_of(group_of(5)), 5u);
  for (int d : {5, 15, 10, 12, 14}) EXPECT_EQ(group_of(d), group_of(5)) << "d" << d;
  EXPECT_EQ(alloc.count_of(group_of(1)), 1u);
  EXPECT_EQ(alloc.count_of(group_of(13)), 3u);
  for (int d : {13, 4, 8}) EXPECT_EQ(group_of(d), group_of(13)) << "d" << d;
  EXPECT_EQ(alloc.count_of(group_of(7)), 2u);
  EXPECT_EQ(group_of(7), group_of(11));
}

TEST(PaperExample, DrpCdsEndsNearPaperOptimum) {
  // Even though our DRP diverges at the fourth split, CDS refinement lands
  // within a whisker of the paper's 22.29 local optimum.
  const Database db = paper_table2_database();
  const DrpCdsResult result = run_drp_cds(db, 5);
  EXPECT_LE(result.final_cost, 22.70);
  EXPECT_GE(result.final_cost, 21.50);
  EXPECT_LE(result.final_cost, result.drp_cost);
}

TEST(PaperExample, WaitingTimeAtTable5Bandwidth) {
  // b = 10 size units/s (Table 5). W_b = cost/2b + Σfz/b is easy to pin.
  const Database db = paper_table2_database();
  Allocation alloc = paper_table4a_allocation(db);
  run_cds(alloc);
  const double expected =
      alloc.cost() / 20.0 + download_component(db, 10.0);
  EXPECT_NEAR(program_waiting_time(alloc, 10.0), expected, 1e-12);
}

}  // namespace
}  // namespace dbs

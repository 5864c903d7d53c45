// Test-only oracle for CDS's move search: the paper's exhaustive scan over
// all N·(K−1) single-item moves. run_cds finds its moves through the
// candidate index (core/candidate_index.h); the tests hold it to this scan,
// move for move.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "core/cds.h"
#include "model/allocation.h"

namespace dbs::oracle {

/// Moves one exhaustive scan evaluates: every item against every other
/// channel.
inline std::size_t full_scan_evaluations(const Allocation& alloc) {
  return alloc.items() * static_cast<std::size_t>(alloc.channels() - 1);
}

/// The best single-item move by exhaustive scan (gain may be ≤ 0 at a local
/// optimum). Ties resolve to the smallest (item, to) pair.
inline CdsMove best_move(const Allocation& alloc) {
  CdsMove best;
  bool have = false;
  for (ItemId x = 0; x < alloc.items(); ++x) {
    const ChannelId p = alloc.channel_of(x);
    for (ChannelId q = 0; q < alloc.channels(); ++q) {
      if (q == p) continue;
      const double gain = alloc.move_gain(x, q);
      if (!have || gain > best.gain) {
        have = true;
        best = CdsMove{x, p, q, gain};
      }
    }
  }
  return best;
}

/// The paper's best-improvement CDS loop on best_move(): one full scan per
/// applied move. Returns the applied moves in order.
inline std::vector<CdsMove> scan_cds(Allocation& alloc) {
  std::vector<CdsMove> moves;
  if (alloc.channels() < 2) return moves;
  for (;;) {
    const CdsMove move = best_move(alloc);
    if (!(move.gain > CdsOptions{}.min_gain)) return moves;
    alloc.move(move.item, move.to);
    moves.push_back(move);
  }
}

/// Runs dbs::run_cds one move at a time (max_iterations = 1) and returns
/// the moves it applied in order, read off the assignment each step changed.
inline std::vector<CdsMove> run_cds_stepwise(Allocation& alloc) {
  std::vector<CdsMove> moves;
  for (;;) {
    const std::vector<ChannelId> before = alloc.assignment();
    if (dbs::run_cds(alloc, {.max_iterations = 1}).iterations == 0) return moves;
    for (ItemId x = 0; x < alloc.items(); ++x) {
      if (alloc.channel_of(x) != before[x]) {
        moves.push_back(CdsMove{x, before[x], alloc.channel_of(x), 0.0});
        break;
      }
    }
  }
}

/// Checks that run_cds applies the oracle loop's moves, in the same order,
/// from a copy of `start`; both runs end at the identical assignment.
inline void expect_run_cds_matches_oracle(const Allocation& start,
                                          const std::string& context) {
  Allocation by_oracle = start;
  Allocation stepped = start;
  const std::vector<CdsMove> expected = scan_cds(by_oracle);
  const std::vector<CdsMove> actual = run_cds_stepwise(stepped);
  ASSERT_EQ(actual.size(), expected.size()) << context;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(actual[i].item, expected[i].item) << context << ", move " << i;
    ASSERT_EQ(actual[i].from, expected[i].from) << context << ", move " << i;
    ASSERT_EQ(actual[i].to, expected[i].to) << context << ", move " << i;
  }
  EXPECT_EQ(stepped.assignment(), by_oracle.assignment()) << context;

  // One uninterrupted run keeps a single index alive across every fold.
  Allocation whole = start;
  const CdsStats stats = dbs::run_cds(whole);
  EXPECT_EQ(stats.iterations, expected.size()) << context;
  EXPECT_EQ(whole.assignment(), by_oracle.assignment()) << context;
  EXPECT_EQ(stats.final_cost, by_oracle.cost()) << context;
}

}  // namespace dbs::oracle

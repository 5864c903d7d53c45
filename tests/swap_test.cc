#include "core/swap.h"

#include <gtest/gtest.h>

#include "cds_oracle.h"
#include "core/drp.h"
#include "core/drp_cds.h"
#include "workload/generator.h"

namespace dbs {
namespace {

TEST(Swap, GainMatchesRecomputedDelta) {
  const Database db = generate_database({.items = 30, .diversity = 2.0, .seed = 1});
  const Allocation alloc = run_drp(db, 4).allocation;
  Rng rng(2);
  for (int trial = 0; trial < 100; ++trial) {
    const ItemId a = static_cast<ItemId>(rng.below(db.size()));
    const ItemId b = static_cast<ItemId>(rng.below(db.size()));
    const double predicted = swap_gain(alloc, a, b);
    Allocation copy = alloc;
    const ChannelId ca = copy.channel_of(a);
    const ChannelId cb = copy.channel_of(b);
    copy.move(a, cb);
    copy.move(b, ca);
    EXPECT_NEAR(alloc.cost() - copy.cost(), predicted, 1e-9)
        << "a=" << a << " b=" << b;
  }
}

TEST(Swap, SameChannelSwapIsZero) {
  const Database db = generate_database({.items = 10, .seed = 3});
  const Allocation alloc(db, 2, {0, 0, 0, 0, 0, 1, 1, 1, 1, 1});
  EXPECT_DOUBLE_EQ(swap_gain(alloc, 0, 1), 0.0);
  EXPECT_DOUBLE_EQ(swap_gain(alloc, 2, 2), 0.0);
}

TEST(Swap, BestSwapAgreesWithExhaustiveScan) {
  const Database db = generate_database({.items = 25, .diversity = 2.0, .seed = 4});
  const Allocation alloc = run_drp(db, 3).allocation;
  const SwapMove best = best_swap(alloc);
  for (ItemId a = 0; a < db.size(); ++a) {
    for (ItemId b = a + 1; b < db.size(); ++b) {
      EXPECT_LE(swap_gain(alloc, a, b), best.gain + 1e-12);
    }
  }
}

TEST(Swap, DeepSearchNeverWorseThanCdsAlone) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Database db = generate_database({.items = 80, .skewness = 0.8,
                                           .diversity = 2.0, .seed = seed});
    Allocation cds_only = run_drp(db, 6).allocation;
    Allocation deep = cds_only;
    run_cds(cds_only);
    const DeepSearchStats stats = run_cds_with_swaps(deep);
    EXPECT_LE(deep.cost(), cds_only.cost() + 1e-9) << "seed " << seed;
    EXPECT_NEAR(stats.final_cost, deep.cost(), 1e-12);
  }
}

TEST(Swap, DeepSearchEndsDoublyLocallyOptimal) {
  const Database db = generate_database({.items = 60, .diversity = 2.5, .seed = 9});
  Allocation alloc = run_drp(db, 5).allocation;
  run_cds_with_swaps(alloc);
  EXPECT_LE(oracle::best_move(alloc).gain, 1e-12);
  EXPECT_LE(best_swap(alloc).gain, 1e-12);
  std::string error;
  EXPECT_TRUE(alloc.validate(&error)) << error;
}

TEST(Swap, EscapesASingleMoveLocalOptimum) {
  // Hand-built trap: channels {hot-small, cold-big} / {hot-small', cold-big'}
  // where the best single move is neutral-or-worse but the cross swap helps.
  // Construct: p = {A(f=.4,z=1), B(f=.1,z=10)}, q = {C(f=.35,z=2), D(f=.15,z=9)}.
  // Verify by construction that if CDS stalls somewhere above, swaps still
  // find any improving exchange — asserted generically over seeds: whenever
  // best_move gain <= 0 and best_swap gain > 0, the swap must reduce cost.
  std::size_t escapes = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const Database db = generate_database({.items = 40, .skewness = 0.7,
                                           .diversity = 2.0, .seed = seed});
    Allocation alloc = run_drp(db, 4).allocation;
    run_cds(alloc);
    const SwapMove swap = best_swap(alloc);
    if (swap.gain > 1e-9) {
      const double before = alloc.cost();
      alloc.move(swap.a, swap.from_b);
      alloc.move(swap.b, swap.from_a);
      EXPECT_LT(alloc.cost(), before);
      ++escapes;
    }
  }
  // The swap neighborhood must be non-trivial: it fires on at least one of
  // the 40 CDS-optimal instances.
  EXPECT_GE(escapes, 1u);
}

}  // namespace
}  // namespace dbs

#include "serve/server_loop.h"

#include <gtest/gtest.h>

#include <limits>

#include "common/check.h"
#include "common/distributions.h"
#include "model/cost.h"
#include "obs/metrics.h"
#include "obs/obs.h"  // for the DBS_OBS_ENABLED default
#include "workload/drift.h"
#include "workload/generator.h"

namespace dbs {
namespace {

std::vector<double> sample_sizes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> sizes(n);
  for (double& z : sizes) z = sample_item_size(rng, 2.0);
  return sizes;
}

/// Draws a request window from a fixed popularity vector.
std::vector<Request> window_from(const std::vector<double>& freqs, std::size_t count,
                                 Rng& rng) {
  const AliasSampler sampler(freqs);
  std::vector<Request> window;
  window.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    window.push_back({static_cast<double>(i), static_cast<ItemId>(sampler.sample(rng))});
  }
  return window;
}

TEST(Drift, PreservesSizesAndNormalization) {
  const Database db = generate_database({.items = 30, .diversity = 2.0, .seed = 1});
  Rng rng(2);
  const Database drifted = drift_frequencies(db, rng);
  ASSERT_EQ(drifted.size(), db.size());
  double sum = 0.0;
  for (ItemId id = 0; id < db.size(); ++id) {
    EXPECT_DOUBLE_EQ(drifted.item(id).size, db.item(id).size);
    sum += drifted.item(id).freq;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Drift, ActuallyChangesFrequencies) {
  const Database db = generate_database({.items = 30, .seed = 3});
  Rng rng(4);
  const Database drifted = drift_frequencies(db, rng, {.transfers = 10, .intensity = 0.8});
  bool changed = false;
  for (ItemId id = 0; id < db.size(); ++id) {
    changed |= std::abs(drifted.item(id).freq - db.item(id).freq) > 1e-9;
  }
  EXPECT_TRUE(changed);
}

TEST(Drift, ZeroIntensityIsIdentity) {
  const Database db = generate_database({.items = 10, .seed = 5});
  Rng rng(6);
  const Database same = drift_frequencies(db, rng, {.transfers = 5, .intensity = 0.0});
  for (ItemId id = 0; id < db.size(); ++id) {
    EXPECT_NEAR(same.item(id).freq, db.item(id).freq, 1e-12);
  }
}

TEST(ServerLoop, StartsWithValidProgram) {
  const BroadcastServerLoop server(sample_sizes(40, 1), {.channels = 4});
  const auto snap = server.snapshot();
  std::string error;
  EXPECT_TRUE(snap->alloc.validate(&error)) << error;
  EXPECT_EQ(snap->version, 0u);
  EXPECT_EQ(snap->db.size(), 40u);
}

TEST(ServerLoop, LearnsSkewAndCutsWaitingTime) {
  // Uniform prior; actual traffic is strongly skewed. After a few windows
  // the program must beat the initial uniform-estimate program.
  BroadcastServerLoop server(sample_sizes(60, 2), {.channels = 6});
  const double initial_wait = program_waiting_time(server.snapshot()->alloc, 10.0);

  const auto true_freqs = zipf_probabilities(60, 1.4);
  Rng rng(7);
  EpochReport last;
  for (int epoch = 0; epoch < 8; ++epoch) {
    last = server.observe_window(window_from(true_freqs, 4000, rng));
  }
  const auto snap = server.snapshot();
  EXPECT_EQ(snap->version, 8u);
  EXPECT_LT(last.waiting_time, initial_wait);
  // The live allocation matches the reported cost.
  EXPECT_NEAR(snap->alloc.cost(),
              last.adopted_rebuild ? last.rebuilt_cost : last.repaired_cost, 1e-9);
}

TEST(ServerLoop, RepairUsuallySufficesUnderMildDrift) {
  BroadcastServerLoop server(sample_sizes(50, 3), {.channels = 5,
                                                   .rebuild_threshold = 0.01});
  auto freqs = zipf_probabilities(50, 1.0);
  Rng rng(8);
  std::size_t escalations = 0;
  // Warm up on stable traffic, then drift mildly.
  for (int epoch = 0; epoch < 4; ++epoch) {
    server.observe_window(window_from(freqs, 3000, rng));
  }
  for (int epoch = 0; epoch < 8; ++epoch) {
    // mild drift: rotate 2% of mass
    const double moved = 0.02 * freqs[0];
    freqs[0] -= moved;
    freqs[(epoch * 7 + 3) % 50] += moved;
    const EpochReport r = server.observe_window(window_from(freqs, 3000, rng));
    escalations += r.escalated ? 1 : 0;
    if (!r.escalated) {
      // Steady-state epochs never pay for a rebuild at all.
      EXPECT_EQ(r.escalation_reason, EscalationReason::kNone);
      EXPECT_EQ(r.rebuilt_cost, 0.0);
      EXPECT_EQ(r.rebuild_ms, 0.0);
      EXPECT_FALSE(r.adopted_rebuild);
      EXPECT_LT(r.cost_excess, 0.05);
    } else {
      // The adoption rule: a rebuild is only skipped when it fails to beat
      // the repaired allocation by the threshold. (Repair can genuinely
      // *beat* the from-scratch rebuild — both are local optima.)
      if (!r.adopted_rebuild) {
        EXPECT_GE(r.rebuilt_cost, r.repaired_cost * (1.0 - 0.01) - 1e-9);
      } else {
        EXPECT_LT(r.rebuilt_cost, r.repaired_cost * (1.0 - 0.01) + 1e-9);
      }
    }
  }
  EXPECT_LT(escalations, 8u)
      << "mild drift should mostly be repaired, not rebuilt";
}

TEST(ServerLoop, AllocationAlwaysValidAcrossEpochs) {
  BroadcastServerLoop server(sample_sizes(30, 4), {.channels = 3});
  const auto freqs = zipf_probabilities(30, 0.8);
  Rng rng(9);
  for (int epoch = 0; epoch < 5; ++epoch) {
    server.observe_window(window_from(freqs, 1000, rng));
    const auto snap = server.snapshot();
    std::string error;
    EXPECT_TRUE(snap->alloc.validate(&error)) << error;
    EXPECT_EQ(&snap->alloc.database(), &snap->db)
        << "allocation must reference the snapshot's own database";
  }
}

TEST(ServerLoop, ReportsRepairAndRebuildWallTimes) {
  BroadcastServerLoop server(sample_sizes(50, 6), {.channels = 5});
  const auto freqs = zipf_probabilities(50, 1.2);
  Rng rng(10);
  for (int epoch = 0; epoch < 3; ++epoch) {
    const EpochReport r = server.observe_window(window_from(freqs, 2000, rng));
    // Stopwatch wall times are always non-negative; the rebuild timer only
    // runs (and the rebuild only does work) when the epoch escalated.
    EXPECT_GE(r.repair_ms, 0.0);
    if (r.escalated) {
      EXPECT_GT(r.rebuild_ms, 0.0);
    } else {
      EXPECT_EQ(r.rebuild_ms, 0.0);
    }
  }
}

TEST(ServerLoop, ReportsControlLoopState) {
  BroadcastServerLoop server(sample_sizes(40, 12), {.channels = 4});
  const auto freqs = zipf_probabilities(40, 1.0);
  Rng rng(13);
  double staleness = 0.0;
  for (int epoch = 1; epoch <= 5; ++epoch) {
    const EpochReport r = server.observe_window(window_from(freqs, 1500, rng));
    // Snapshot versions are strictly monotone and track the epoch.
    EXPECT_EQ(r.version, static_cast<std::size_t>(epoch));
    const auto snap = server.snapshot();
    EXPECT_EQ(snap->version, r.version);
    EXPECT_NEAR(snap->cost, snap->alloc.cost(), 1e-12);
    // The reference is a positive cost and the excess is measured against it.
    EXPECT_GT(r.reference_cost, 0.0);
    EXPECT_NEAR(r.cost_excess, r.repaired_cost / r.reference_cost - 1.0, 1e-12);
    // Estimator staleness grows monotonically toward 1/(1-decay).
    EXPECT_GT(r.estimator_staleness, staleness);
    EXPECT_LE(r.estimator_staleness,
              1.0 / (1.0 - server.config().tracker_decay) + 1e-12);
    staleness = r.estimator_staleness;
    // A stall streak only accumulates on zero-move elevated epochs.
    if (r.repair_moves > 0) {
      EXPECT_EQ(r.stall_streak, 0u);
    }
  }
}

TEST(ServerLoop, NeverEscalateStaysOnRepairUnderFlashCrowd) {
  // An infinite regression margin and a disabled stall trigger pin the
  // service to repair-only operation.
  BroadcastServerLoop server(
      sample_sizes(40, 14),
      {.channels = 4,
       .escalate_threshold = std::numeric_limits<double>::infinity(),
       .stall_epochs = 0});
  auto freqs = zipf_probabilities(40, 1.0);
  Rng rng(15);
  for (int epoch = 0; epoch < 3; ++epoch) {
    server.observe_window(window_from(freqs, 2000, rng));
  }
  // Flash crowd: half the traffic slams onto one previously cold item.
  for (double& f : freqs) f *= 0.5;
  freqs[39] += 0.5;
  for (int epoch = 0; epoch < 6; ++epoch) {
    const EpochReport r = server.observe_window(window_from(freqs, 2000, rng));
    EXPECT_FALSE(r.escalated);
    EXPECT_EQ(r.escalation_reason, EscalationReason::kNone);
    EXPECT_EQ(r.rebuilt_cost, 0.0);
    EXPECT_EQ(r.rebuild_ms, 0.0);
    EXPECT_FALSE(r.adopted_rebuild);
  }
}

TEST(ServerLoop, ZeroRebuildThresholdAdoptsAnyStrictlyBetterRebuild) {
  // Hair-trigger escalation (threshold 0) plus adoption threshold 0: every
  // epoch whose repair fails to improve on the reference must escalate, and
  // any strictly better rebuild must be adopted.
  BroadcastServerLoop server(sample_sizes(50, 16),
                             {.channels = 5,
                              .rebuild_threshold = 0.0,
                              .escalate_threshold = 0.0});
  const auto freqs = zipf_probabilities(50, 1.2);
  Rng rng(17);
  for (int epoch = 0; epoch < 6; ++epoch) {
    const EpochReport r = server.observe_window(window_from(freqs, 2000, rng));
    EXPECT_EQ(r.escalated, r.cost_excess >= 0.0);
    if (r.escalated) {
      EXPECT_EQ(r.adopted_rebuild, r.rebuilt_cost < r.repaired_cost);
      EXPECT_NEAR(server.snapshot()->alloc.cost(),
                  r.adopted_rebuild ? r.rebuilt_cost : r.repaired_cost, 1e-9);
    }
  }
}

TEST(ServerLoop, EmbedsMetricsSnapshotWhenObsIsOn) {
  BroadcastServerLoop server(sample_sizes(30, 7), {.channels = 3});
  const auto freqs = zipf_probabilities(30, 1.0);
  Rng rng(11);
  const auto epochs_counted = [] {
    const obs::MetricsSnapshot metrics = obs::MetricsRegistry::global().snapshot();
    for (const obs::CounterSample& c : metrics.counters) {
      if (c.name == "serve.epochs") return c.value;
    }
    return std::uint64_t{0};
  };
  const std::uint64_t before = epochs_counted();
  server.observe_window(window_from(freqs, 500, rng));
  server.observe_window(window_from(freqs, 500, rng));
#if DBS_OBS_ENABLED
  // A caller that wants metrics reads the registry itself; every epoch
  // counts once.
  EXPECT_EQ(epochs_counted(), before + 2);
#else
  EXPECT_EQ(before, 0u);
  EXPECT_TRUE(obs::MetricsRegistry::global().snapshot().empty());
#endif
}

TEST(ServerLoop, RejectsBadConfig) {
  EXPECT_THROW(BroadcastServerLoop(sample_sizes(5, 5), {.channels = 9}),
               ContractViolation);
  EXPECT_THROW(BroadcastServerLoop(sample_sizes(5, 5),
                                   {.channels = 2, .bandwidth = 0.0}),
               ContractViolation);
  EXPECT_THROW(BroadcastServerLoop({1e300, 2e300, 3e300},
                                   {.channels = 2, .bandwidth = 1e-10}),
               ContractViolation);
  EXPECT_THROW(BroadcastServerLoop(sample_sizes(5, 5),
                                   {.channels = 2, .tracker_decay = 0.0}),
               ContractViolation);
  EXPECT_THROW(BroadcastServerLoop(sample_sizes(5, 5),
                                   {.channels = 2, .escalate_threshold = -0.1}),
               ContractViolation);
  EXPECT_THROW(BroadcastServerLoop(sample_sizes(5, 5),
                                   {.channels = 2, .reference_decay = 1.5}),
               ContractViolation);
}

}  // namespace
}  // namespace dbs

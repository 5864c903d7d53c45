#include "core/cds.h"

#include "core/candidate_index.h"
#include "obs/obs.h"

namespace dbs {

namespace {

/// The first-improvement policy's move search: the first strictly improving
/// move in (item, channel) scan order, or a move with gain 0 when none
/// improves. Same interface as CandidateIndex, so one driver runs both
/// policies.
class FirstImprovementScan {
 public:
  FirstImprovementScan(Allocation& alloc, double min_gain)
      : alloc_(alloc), min_gain_(min_gain) {}

  CdsMove best_move() {
    const std::size_t n = alloc_.items();
    const ChannelId k = alloc_.channels();
    for (ItemId x = 0; x < n; ++x) {
      const ChannelId p = alloc_.channel_of(x);
      for (ChannelId q = 0; q < k; ++q) {
        if (q == p) continue;
        const double gain = alloc_.move_gain(x, q);
        ++moves_evaluated_;
        if (gain > min_gain_) return CdsMove{x, p, q, gain};
      }
    }
    return CdsMove{};
  }

  void apply(const CdsMove& move) { alloc_.move(move.item, move.to); }
  std::size_t moves_evaluated() const { return moves_evaluated_; }
  std::size_t repairs() const { return 0; }

 private:
  Allocation& alloc_;
  double min_gain_;
  std::size_t moves_evaluated_ = 0;
};

/// The CDS loop over either move search. When the iteration budget is
/// exhausted, one more best_move() is the convergence probe: for the index a
/// single O(N) pass, not a full N·(K−1) scan.
/// Both termination tests read `!(gain > min_gain)` so a NaN gain stops the
/// run instead of being applied forever.
template <typename Search>
void drive(Search& search, const CdsOptions& options, CdsStats& stats) {
  bool deadline_stop = false;
  while (stats.iterations < options.max_iterations) {
    if (options.deadline.expired()) {
      // Cooperative cancellation: stop where we stand, and skip the
      // convergence probe — the budget no longer covers it.
      deadline_stop = true;
      break;
    }
    const CdsMove move = search.best_move();
    if (!(move.gain > options.min_gain)) break;  // local optimum (line 18 of CDS)
    search.apply(move);
    ++stats.iterations;
  }
  const bool hit_cap = !deadline_stop && stats.iterations >= options.max_iterations;
  stats.converged =
      !deadline_stop && (!hit_cap || !(search.best_move().gain > options.min_gain));
  stats.moves_evaluated = search.moves_evaluated();
  stats.index_repairs = search.repairs();
}

}  // namespace

CdsStats run_cds(Allocation& alloc, const CdsOptions& options) {
  DBS_OBS_SPAN("core.cds.run");
  CdsStats stats;
  stats.initial_cost = alloc.cost();
  if (alloc.channels() > 1) {  // one channel leaves no move to make
    if (options.policy == CdsPolicy::kBestImprovement) {
      CandidateIndex index(alloc);
      drive(index, options, stats);
    } else {
      FirstImprovementScan scan(alloc, options.min_gain);
      drive(scan, options, stats);
    }
  }
  stats.final_cost = alloc.cost();
  DBS_OBS_COUNTER_INC("core.cds.runs");
  DBS_OBS_COUNTER_ADD("core.cds.iterations", stats.iterations);
  DBS_OBS_COUNTER_ADD("core.cds.moves_evaluated", stats.moves_evaluated);
  DBS_OBS_COUNTER_ADD("core.cds.index_repairs", stats.index_repairs);
  DBS_OBS_HISTOGRAM_OBSERVE("core.cds.iterations_per_run", stats.iterations);
  return stats;
}

}  // namespace dbs

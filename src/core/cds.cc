#include "core/cds.h"

#include "core/candidate_index.h"
#include "core/local_search.h"
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

}  // namespace

CdsStats run_cds(Allocation& alloc, const CdsOptions& options) {
  DBS_OBS_SPAN("core.cds.run");
  CdsStats stats;
  stats.initial_cost = alloc.cost();
  if (alloc.channels() > 1) {  // one channel leaves no move to make
    if (options.policy == CdsPolicy::kBestImprovement) {
      CandidateIndex index(alloc);
      local_search::drive(index, options, stats);
    } else {
      FirstImprovementScan scan(alloc, options.min_gain);
      local_search::drive(scan, options, stats);
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

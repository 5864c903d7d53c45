// The Eq. 4 local-search driver. One loop runs every single-item move search
// in the library: CDS's candidate index and first-improvement scan
// (core/cds.cc) and the heterogeneous-bandwidth scan (hetero/hetero.cc).
// Internal to the library: callers outside src/ use run_cds or
// schedule_hetero.
//
// A move search is any type with
//   CdsMove best_move();                 // gain not > min_gain = no move
//   void apply(const CdsMove& move);     // performs the move
//   std::size_t moves_evaluated() const; // gains computed so far
//   std::size_t repairs() const;         // cache repairs so far (0 if none)
#pragma once

#include "core/cds.h"

namespace dbs::local_search {

/// \brief Applies `search.best_move()` until it stops improving by more
/// than `options.min_gain`, the iteration budget runs out or the deadline
/// fires, and records the run in `stats` (iterations, converged and the
/// search's work counters). When the iteration budget is exhausted, one
/// more best_move() is the convergence probe: for the index a single O(N)
/// pass, not a full N·(K−1) scan.
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

}  // namespace dbs::local_search

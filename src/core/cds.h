// Mechanism CDS — Cost-Diminishing Selection (paper §3.2).
//
// Local-search refinement over an existing allocation. Each iteration finds
// the best single-item move d_x : D_p → D_q by the closed-form reduction of
// Eq. (4),
//     Δc = f_x (Z_p − Z_q) + z_x (F_p − F_q) − 2 f_x z_x,
// applies it if it strictly improves, and stops when no move improves — a
// local optimum of the cost function under the single-move neighbourhood.
//
// The paper finds that move by scanning all N·(K−1) candidates. run_cds finds
// the same move through the per-item candidate index
// (core/candidate_index.h): Eq. 4 factors into a home potential minus a
// target load, so each item's best target is its minimal-load channel. The
// index caches each item's two smallest-load channels and repairs them
// incrementally, so an iteration costs one O(N) pass plus O(log K) per
// repaired item instead of O(N·K). It computes every gain with the scan's Eq. 4 arithmetic and
// tie-break order, so the move sequence is the scan's (docs/ARCHITECTURE.md
// §5 gives the exactness argument).
#pragma once

#include <cstddef>
#include <limits>

#include "common/deadline.h"
#include "model/allocation.h"

namespace dbs {

/// Move-acceptance policy. Best-improvement applies the single best move per
/// iteration, as in the paper; first-improvement applies the first strictly
/// improving move in (item, channel) scan order and is the subject of an
/// ablation bench.
enum class CdsPolicy {
  kBestImprovement,
  kFirstImprovement,
};

/// CDS tuning knobs; defaults reproduce the paper.
struct CdsOptions {
  CdsPolicy policy = CdsPolicy::kBestImprovement;

  /// Safety bound on iterations (each iteration applies one move). The cost
  /// strictly decreases every iteration, so termination is guaranteed anyway;
  /// this guards against pathological floating-point drift.
  std::size_t max_iterations = std::numeric_limits<std::size_t>::max();

  /// A move must reduce cost by more than this to be applied. Zero matches
  /// the paper's Δc > 0; the tiny default avoids cycling on rounding noise.
  /// A NaN gain never counts as an improvement.
  double min_gain = 1e-12;

  /// Cooperative cancellation (DESIGN.md §13): polled once per applied-move
  /// iteration. When it fires the run stops where it stands, like an
  /// exhausted max_iterations but without the final convergence probe
  /// (converged = false). The never() default costs one branch per
  /// iteration, not a clock read.
  Deadline deadline = Deadline::never();
};

/// Outcome of a CDS run.
struct CdsStats {
  std::size_t iterations = 0;  ///< number of applied moves
  double initial_cost = 0.0;
  double final_cost = 0.0;
  bool converged = true;  ///< false iff max_iterations or the deadline
                          ///< stopped the search before a local optimum

  /// Candidate moves whose Δc was computed. Best-improvement pays one per
  /// item when the index is built and one per disturbed item per applied
  /// move; first-improvement pays for the scan prefix it reads each
  /// iteration. Equal `iterations` can hide very different work.
  std::size_t moves_evaluated = 0;

  /// Cached min-2 pairs the candidate index re-queried against its hull
  /// (always 0 under first-improvement, which keeps no cache).
  std::size_t index_repairs = 0;

  double total_reduction() const { return initial_cost - final_cost; }
};

/// A candidate move with its predicted gain.
struct CdsMove {
  ItemId item = 0;
  ChannelId from = 0;
  ChannelId to = 0;
  double gain = 0.0;
};

/// \brief Refines `alloc` in place until a local optimum (or the iteration
/// bound, or the deadline) is reached. Returns per-run statistics.
CdsStats run_cds(Allocation& alloc, const CdsOptions& options = {});

}  // namespace dbs

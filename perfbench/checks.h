// Output checks the benchmark makes apart from the program: every quantity
// is recomputed here from the catalogue columns (f, z) and the reported
// assignment, never read back from the program's own aggregates.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "model/item.h"
#include "workload/trace.h"

namespace perfbench {

using dbs::ChannelId;

/// Relative tolerance between a reported value and its recomputation.
inline constexpr double kRelTol = 1e-9;

/// Why one op's output was rejected; an op with any finding counts as failed.
class Findings {
 public:
  void fail(std::string what) { errors_.push_back(std::move(what)); }
  bool ok() const { return errors_.empty(); }
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  std::vector<std::string> errors_;
};

/// Per-channel aggregates F_i, Z_i recomputed from the columns.
struct Aggregates {
  std::vector<double> freq;
  std::vector<double> size;
};

/// Checks that `assignment` partitions the N items into `channels` non-empty
/// channels and returns the recomputed aggregates, or records why not.
std::optional<Aggregates> check_partition(std::span<const ChannelId> assignment,
                                          std::span<const double> f,
                                          std::span<const double> z,
                                          ChannelId channels, Findings& findings);

/// Eq. 3: Σ_i F_i·Z_i.
double eq3_cost(const Aggregates& agg);

/// Eq. 2: W_b = cost/(2b) + Σ_j f_j·z_j / b.
double eq2_waiting_time(double cost, std::span<const double> f,
                        std::span<const double> z, double bandwidth);

/// Kenyon–Schabanel–Young lower bound max(Σ f·z, (Σ √(f·z))² / K).
double ksy_lower_bound(std::span<const double> f, std::span<const double> z,
                       ChannelId channels);

/// Records a finding unless `reported` matches `recomputed` to kRelTol.
void check_close(const char* what, double reported, double recomputed,
                 Findings& findings);

/// Records a finding if `cost` lies below the lower bound.
void check_lower_bound(double cost, double lower_bound, Findings& findings);

/// Scans all N·(K−1) single-item moves with Eq. 4 and records a finding if
/// any gains more than `min_gain` (plus kRelTol·cost of rounding slack).
void check_local_optimum(std::span<const ChannelId> assignment,
                         std::span<const double> f, std::span<const double> z,
                         const Aggregates& agg, double min_gain,
                         Findings& findings);

/// The benchmark's own decayed-count estimate: c ← ρ·c + window counts,
/// f = (c+α)/(C+α·N).
class DecayedCounts {
 public:
  DecayedCounts(std::size_t items, double decay, double alpha);
  void fold(const std::vector<dbs::Request>& window);
  std::vector<double> frequencies() const;

 private:
  double decay_;
  double alpha_;
  std::vector<double> counts_;
};

/// Records a finding unless every reported frequency matches `expected` to
/// kRelTol.
void check_frequencies(std::span<const double> reported,
                       const std::vector<double>& expected, Findings& findings);

}  // namespace perfbench

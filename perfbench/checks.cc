#include "checks.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

namespace perfbench {

namespace {

bool close(double a, double b) {
  return std::abs(a - b) <= kRelTol * std::max(std::abs(a), std::abs(b));
}

template <typename... Parts>
std::string concat(const Parts&... parts) {
  std::ostringstream out;
  out.precision(17);
  (out << ... << parts);
  return out.str();
}

}  // namespace

std::optional<Aggregates> check_partition(std::span<const ChannelId> assignment,
                                          std::span<const double> f,
                                          std::span<const double> z,
                                          ChannelId channels, Findings& findings) {
  if (assignment.size() != f.size()) {
    findings.fail(concat("assignment covers ", assignment.size(), " of ",
                         f.size(), " items"));
    return std::nullopt;
  }
  Aggregates agg{std::vector<double>(channels, 0.0),
                 std::vector<double>(channels, 0.0)};
  std::vector<std::size_t> count(channels, 0);
  for (std::size_t j = 0; j < assignment.size(); ++j) {
    const ChannelId c = assignment[j];
    if (c >= channels) {
      findings.fail(concat("item ", j, " on channel ", c, " of ", channels));
      return std::nullopt;
    }
    agg.freq[c] += f[j];
    agg.size[c] += z[j];
    ++count[c];
  }
  for (ChannelId c = 0; c < channels; ++c) {
    if (count[c] == 0) {
      findings.fail(concat("channel ", c, " is empty"));
      return std::nullopt;
    }
  }
  return agg;
}

double eq3_cost(const Aggregates& agg) {
  double cost = 0.0;
  for (std::size_t c = 0; c < agg.freq.size(); ++c) cost += agg.freq[c] * agg.size[c];
  return cost;
}

double eq2_waiting_time(double cost, std::span<const double> f,
                        std::span<const double> z, double bandwidth) {
  double download = 0.0;
  for (std::size_t j = 0; j < f.size(); ++j) download += f[j] * z[j];
  return cost / (2.0 * bandwidth) + download / bandwidth;
}

double ksy_lower_bound(std::span<const double> f, std::span<const double> z,
                       ChannelId channels) {
  double own = 0.0;
  double root_mass = 0.0;
  for (std::size_t j = 0; j < f.size(); ++j) {
    own += f[j] * z[j];
    root_mass += std::sqrt(f[j] * z[j]);
  }
  return std::max(own, root_mass * root_mass / channels);
}

void check_close(const char* what, double reported, double recomputed,
                 Findings& findings) {
  if (!close(reported, recomputed)) {
    findings.fail(concat(what, ": reported ", reported, ", recomputed ", recomputed));
  }
}

void check_lower_bound(double cost, double lower_bound, Findings& findings) {
  if (!(cost >= lower_bound * (1.0 - kRelTol))) {
    findings.fail(concat("cost ", cost, " below the KSY lower bound ", lower_bound));
  }
}

void check_local_optimum(std::span<const ChannelId> assignment,
                         std::span<const double> f, std::span<const double> z,
                         const Aggregates& agg, double min_gain,
                         Findings& findings) {
  const std::size_t channels = agg.freq.size();
  const double slack = min_gain + kRelTol * eq3_cost(agg);
  // Eq. 4 splits into a home term and a target term:
  //   Δc = [f_x Z_p + z_x F_p − 2 f_x z_x] − [f_x Z_q + z_x F_q],
  // so the best move of x goes to the q ≠ p minimising the target term.
  for (std::size_t x = 0; x < assignment.size(); ++x) {
    const ChannelId p = assignment[x];
    double best_target = std::numeric_limits<double>::infinity();
    std::size_t best_q = p;
    for (std::size_t q = 0; q < channels; ++q) {
      if (q == p) continue;
      const double target = f[x] * agg.size[q] + z[x] * agg.freq[q];
      if (target < best_target) {
        best_target = target;
        best_q = q;
      }
    }
    if (best_q == p) continue;  // K = 1: no move exists
    const double gain =
        f[x] * agg.size[p] + z[x] * agg.freq[p] - 2.0 * f[x] * z[x] - best_target;
    if (gain > slack) {
      findings.fail(concat("not a local optimum: moving item ", x, " from ", p,
                           " to ", best_q, " gains ", gain));
      return;
    }
  }
}

DecayedCounts::DecayedCounts(std::size_t items, double decay, double alpha)
    : decay_(decay), alpha_(alpha), counts_(items, 0.0) {}

void DecayedCounts::fold(const std::vector<dbs::Request>& window) {
  std::vector<std::size_t> seen(counts_.size(), 0);
  for (const dbs::Request& r : window) ++seen[r.item];
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] = decay_ * counts_[i] + static_cast<double>(seen[i]);
  }
}

std::vector<double> DecayedCounts::frequencies() const {
  double total = 0.0;
  for (double c : counts_) total += c;
  const double norm = total + alpha_ * static_cast<double>(counts_.size());
  std::vector<double> f(counts_.size());
  for (std::size_t i = 0; i < counts_.size(); ++i) f[i] = (counts_[i] + alpha_) / norm;
  return f;
}

void check_frequencies(std::span<const double> reported,
                       const std::vector<double>& expected, Findings& findings) {
  if (reported.size() != expected.size()) {
    findings.fail(concat("estimate covers ", reported.size(), " of ",
                         expected.size(), " items"));
    return;
  }
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (!close(reported[i], expected[i])) {
      findings.fail(concat("frequency of item ", i, ": reported ", reported[i],
                           ", expected ", expected[i]));
      return;
    }
  }
}

}  // namespace perfbench

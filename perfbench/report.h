// Summary statistics and the result line the benchmark prints last.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// Median (mean of the two middle values for an even count); 0 when empty.
double median(std::vector<double> values);

/// Nearest-rank percentile: the smallest sample with at least `q` of the
/// samples at or below it; 0 when empty.
double nearest_rank(std::vector<double> values, double q);

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Renders {"correct", "attempted", "failed", "metrics"} on one line, with
/// every value at full precision.
std::string result_line(bool correct, std::size_t attempted, std::size_t failed,
                        const std::vector<Metric>& metrics);

}  // namespace perfbench

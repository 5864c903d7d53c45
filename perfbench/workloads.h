// The benchmark's workloads. Each builds its inputs from the run seed, drives
// one public entry point of the program per op, and checks every op's output
// with the recomputations in checks.h.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "checks.h"
#include "model/database.h"

namespace perfbench {

/// Per-layer figures by metric name.
using LayerMetrics = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the run's inputs from scratch and returns the seconds spent in
  /// the program's own calls (generator, Database, server construction and
  /// warm-up epochs). May be called several times; the last call's inputs
  /// are the ones the ops use.
  virtual double setup() = 0;

  /// Ops in one round. A run attempts whole rounds only, so every run makes
  /// the same mix of ops.
  virtual std::size_t round_size() const = 0;

  /// Untimed preparation of op `i` of a round.
  virtual void prepare(std::size_t i) = 0;

  /// The timed call into the program.
  virtual void run() = 0;

  /// Checks the last op's output (untimed) and returns its Eq. 3 cost over
  /// the KSY lower bound.
  virtual double check(Findings& findings) = 0;

  /// The catalogues the run built, for timing Database construction alone.
  virtual std::vector<const dbs::Database*> catalogues() const = 0;

  /// Per-layer figures taken from the stats the ops returned.
  virtual void add_layer_metrics(LayerMetrics& /*out*/) const {}
};

/// Builds the named workload, or returns nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(std::string_view name, std::uint64_t seed);

}  // namespace perfbench

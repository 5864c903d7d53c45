// End-to-end benchmark of the planner and the online service (README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//   perfbench --selftest
//
// A run builds its inputs from the seed, times whole rounds of ops for at
// least --seconds of wall time, checks every op's output apart from the
// program, and prints one JSON result as its last line: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "api/scheduler.h"
#include "checks.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "report.h"
#include "workload/estimate.h"
#include "workload/generator.h"
#include "workload/paper_example.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Set-up runs at least kSetupRuns times and until kSetupMinS seconds of it
// are timed, so that even a set-up of a few milliseconds has a steady median.
constexpr std::size_t kSetupRuns = 5;
constexpr double kSetupMinS = 1.0;
// At least ten ops lie beyond op_ms_p90.
constexpr std::size_t kMinOps = 100;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  bool selftest = false;
};

bool parse(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--selftest") {
      options.selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--trace-out") {
      options.trace_out = value;
    } else {
      return false;
    }
  }
  return options.selftest || (!options.workload.empty() && options.seconds > 0.0);
}

// Moves the thread that creates it round the CPUs it may run on, a few
// milliseconds on each, until destroyed; then restores its CPU mask. On a
// shared host one CPU can be 40% slower than another (Table-5 catalogue
// set-up: 13.5 ms pinned to some CPUs, 19 ms on others), and a short
// single-threaded phase otherwise stays on whichever CPU it starts on, so its
// time would depend on that placement. Only for single-threaded phases:
// threads started meanwhile would inherit the one-CPU mask.
class CpuRotation {
 public:
  CpuRotation() : thread_(pthread_self()) {
    if (pthread_getaffinity_np(thread_, sizeof(allowed_), &allowed_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
    }
    if (cpus_.size() < 2) return;
    rotator_ = std::thread([this] {
      std::unique_lock<std::mutex> lock(mutex_);
      for (std::size_t next = 0; !stop_; next = (next + 1) % cpus_.size()) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[next], &one);
        pthread_setaffinity_np(thread_, sizeof(one), &one);
        wake_.wait_for(lock, std::chrono::milliseconds(kDwellMs));
      }
    });
  }

  ~CpuRotation() {
    if (!rotator_.joinable()) return;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_.notify_one();
    rotator_.join();
    pthread_setaffinity_np(thread_, sizeof(allowed_), &allowed_);
  }

  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

 private:
  static constexpr int kDwellMs = 3;
  pthread_t thread_;
  cpu_set_t allowed_{};
  std::vector<int> cpus_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;
  std::thread rotator_;
};

void report_findings(const char* what, const Findings& findings) {
  for (const std::string& error : findings.errors()) {
    std::cerr << "perfbench: " << what << ": " << error << "\n";
  }
}

// ---------------------------------------------------------------------------
// Self-test: every check must fire on a deliberately wrong input and stay
// quiet on the matching right one.

struct SelfTestCase {
  const char* name;
  Findings right;
  Findings wrong;
};

std::vector<SelfTestCase> run_selftest() {
  constexpr ChannelId kChannels = 10;
  dbs::WorkloadConfig config;
  config.items = 2000;
  config.seed = 7;
  const dbs::Database db = dbs::generate_database(config);
  const std::span<const double> f = db.freqs();
  const std::span<const double> z = db.sizes();
  const double min_gain = dbs::CdsOptions{}.min_gain;

  dbs::ScheduleRequest request;
  request.channels = kChannels;
  const dbs::ScheduleResult converged = dbs::schedule(db, request);
  request.algorithm = dbs::Algorithm::kDrp;
  const dbs::ScheduleResult drp_only = dbs::schedule(db, request);
  const std::vector<ChannelId>& good = converged.allocation.assignment();

  std::vector<SelfTestCase> cases(4);

  cases[0].name = "DRP-only allocation vs local-optimality scan";
  for (auto [result, findings] : {std::pair{&converged, &cases[0].right},
                                  std::pair{&drp_only, &cases[0].wrong}}) {
    const auto agg = check_partition(result->allocation.assignment(), f, z,
                                     kChannels, *findings);
    if (agg) {
      check_local_optimum(result->allocation.assignment(), f, z, *agg, min_gain,
                          *findings);
    }
  }

  cases[1].name = "cost off by 1e-6 relative vs Eq. 3 recompute";
  {
    Findings unused;
    const double cost = eq3_cost(*check_partition(good, f, z, kChannels, unused));
    check_close("Eq. 3 cost", converged.cost, cost, cases[1].right);
    check_close("Eq. 3 cost", converged.cost * (1.0 + 1e-6), cost, cases[1].wrong);
  }

  cases[2].name = "an emptied channel vs partition check";
  {
    std::vector<ChannelId> emptied = good;
    for (ChannelId& c : emptied) {
      if (c == kChannels - 1) c = 0;
    }
    check_partition(good, f, z, kChannels, cases[2].right);
    check_partition(emptied, f, z, kChannels, cases[2].wrong);
  }

  cases[3].name = "one request dropped vs decayed-count estimate";
  {
    dbs::TraceConfig trace;
    trace.requests = 20000;
    const std::vector<dbs::Request> window = dbs::generate_trace(db, trace);
    const std::vector<dbs::Request> short_window(window.begin(), window.end() - 1);
    DecayedCounts expected(db.size(), 0.5, 1.0);
    expected.fold(window);
    dbs::DecayedFrequencyTracker full(db.size(), 0.5, 1.0);
    dbs::DecayedFrequencyTracker dropped(db.size(), 0.5, 1.0);
    full.observe(window);
    dropped.observe(short_window);
    check_frequencies(full.frequencies(), expected.frequencies(), cases[3].right);
    check_frequencies(dropped.frequencies(), expected.frequencies(), cases[3].wrong);
  }
  return cases;
}

bool selftest_passes(const std::vector<SelfTestCase>& cases) {
  for (const SelfTestCase& c : cases) {
    if (!c.right.ok() || c.wrong.ok()) return false;
  }
  return true;
}

// DRP-CDS on the paper's Table 2 profile with K = 5 must end within 2% of
// the paper's reported local optimum (Table 4d).
bool table2_passes() {
  const dbs::Database db = dbs::paper_table2_database();
  dbs::ScheduleRequest request;
  request.channels = 5;
  const dbs::ScheduleResult result = dbs::schedule(db, request);
  Findings findings;
  const auto agg = check_partition(result.allocation.assignment(), db.freqs(),
                                   db.sizes(), 5, findings);
  if (agg) {
    check_close("Eq. 3 cost", result.cost, eq3_cost(*agg), findings);
    check_local_optimum(result.allocation.assignment(), db.freqs(), db.sizes(),
                        *agg, dbs::CdsOptions{}.min_gain, findings);
  }
  const double off = std::abs(result.cost - dbs::kPaperCdsFinalCost) /
                     dbs::kPaperCdsFinalCost;
  if (off > 0.02) {
    findings.fail("Table 2 DRP-CDS cost " + std::to_string(result.cost) +
                  " is more than 2% from the paper's 22.29");
  }
  report_findings("Table 2 check", findings);
  return findings.ok();
}

int selftest_main() {
  const std::vector<SelfTestCase> cases = run_selftest();
  std::size_t fired = 0;
  for (const SelfTestCase& c : cases) {
    fired += c.wrong.ok() ? 0 : 1;
    std::cout << (c.wrong.ok() ? "MISSED " : "fired  ") << c.name
              << (c.right.ok() ? "" : "  (control also failed)") << "\n";
    for (const std::string& e : c.wrong.errors()) std::cout << "         " << e << "\n";
  }
  const bool correct = selftest_passes(cases);
  std::cout << result_line(correct, cases.size(), fired, {}) << std::endl;
  return correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Per-layer metrics of the traced run, in BENCHMARK.json order. A layer the
// workload does not reach reads 0.

struct LayerSpec {
  const char* name;
  const char* unit;
};

constexpr LayerSpec kLayerMetrics[] = {
    {"model.database_build_ms", "ms"},
    {"core.drp_ms", "ms"},
    {"core.cds_ms", "ms"},
    {"core.cds.moves", "count"},
    {"core.cds.moves_evaluated", "count"},
    {"core.cds.index_repairs", "count"},
    {"core.cds.us_per_move", "us"},
    {"core.kk_ms", "ms"},
    {"baselines.gopt_ms", "ms"},
    {"api.schedule_self_ms", "ms"},
    {"api.portfolio.racer_ms.drp-cds", "ms"},
    {"api.portfolio.racer_ms.kk-cds", "ms"},
    {"api.portfolio.gopt_wins", "count"},
    {"api.portfolio.gopt_gain", "ratio"},
    {"serve.estimate_ms", "ms"},
    {"serve.repair_ms", "ms"},
    {"serve.repair_moves", "count"},
    {"serve.publish_ms", "ms"},
    {"serve.rebuild_ms", "ms"},
    {"serve.escalations", "count"},
    {"serve.rebuild_adoption_ratio", "ratio"},
    {"obs.trace_overhead_pct", "%"},
};

std::uint64_t counter_value(const dbs::obs::MetricsSnapshot& snapshot,
                            std::string_view name) {
  for (const auto& c : snapshot.counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

// Mean wall time of building a Database from each catalogue's columns.
double database_build_ms(const Workload& workload) {
  constexpr std::size_t kMinBuilds = 16;
  const std::vector<const dbs::Database*> catalogues = workload.catalogues();
  double total_ms = 0.0;
  std::size_t builds = 0;
  while (builds < std::max(kMinBuilds, catalogues.size())) {
    const dbs::Database& db = *catalogues[builds % catalogues.size()];
    const std::vector<double> sizes(db.sizes().begin(), db.sizes().end());
    const std::vector<double> freqs(db.freqs().begin(), db.freqs().end());
    const Clock::time_point start = Clock::now();
    const dbs::Database rebuilt(sizes, freqs);
    total_ms += ms_between(start, Clock::now());
    ++builds;
  }
  return total_ms / static_cast<double>(builds);
}

// Span times are means over the traced ops. Counts cover the first kMinOps
// ops, between the registry snapshots `before` and `after`, and
// `returned_stats` holds the workload's figures from the same ops.
LayerMetrics layer_metrics(const Workload& workload,
                           const std::vector<dbs::obs::TraceEvent>& events,
                           std::size_t traced_ops,
                           const dbs::obs::MetricsSnapshot& before,
                           const dbs::obs::MetricsSnapshot& after,
                           LayerMetrics returned_stats) {
  std::map<std::string, double> span_ms;
  std::map<std::string, std::size_t> span_count;
  for (const dbs::obs::TraceEvent& e : events) {
    span_ms[e.name] += e.dur_us / 1000.0;
    ++span_count[e.name];
  }
  const auto per_traced = [&](const char* name) {
    return traced_ops == 0 ? 0.0 : span_ms[name] / static_cast<double>(traced_ops);
  };
  const auto per_op = [&](const char* name) {
    return static_cast<double>(counter_value(after, name) - counter_value(before, name)) /
           static_cast<double>(kMinOps);
  };

  LayerMetrics out = std::move(returned_stats);
  out["model.database_build_ms"] = database_build_ms(workload);
  const double drp = per_traced("core.drp.run");
  const double cds = per_traced("core.cds.run");
  out["core.drp_ms"] = drp;
  out["core.cds_ms"] = cds;
  out["core.kk_ms"] = per_traced("core.kk.partition");
  const double moves = per_op("core.cds.iterations");
  out["core.cds.moves"] = moves;
  out["core.cds.moves_evaluated"] = per_op("core.cds.moves_evaluated");
  out["core.cds.index_repairs"] = per_op("core.cds.index_repairs");
  out["core.cds.us_per_move"] = moves > 0.0 ? 1000.0 * cds / moves : 0.0;
  if (span_count.count("perfbench.schedule") > 0) {
    out["api.schedule_self_ms"] = per_traced("perfbench.schedule") - drp - cds;
  }
  if (span_count.count("serve.epoch") > 0) {
    const double estimate = per_traced("serve.epoch.estimate");
    const double repair = per_traced("serve.epoch.repair");
    const double rebuild = per_traced("serve.epoch.rebuild");
    out["serve.estimate_ms"] = estimate;
    out["serve.repair_ms"] = repair;
    out["serve.publish_ms"] = per_traced("serve.epoch") - estimate - repair - rebuild;
    const std::size_t rebuilds = span_count["serve.epoch.rebuild"];
    out["serve.rebuild_ms"] =
        rebuilds == 0 ? 0.0 : span_ms["serve.epoch.rebuild"] / static_cast<double>(rebuilds);
  }
  return out;
}

// ---------------------------------------------------------------------------

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

int run_main(const Options& options) {
  std::unique_ptr<Workload> workload = make_workload(options.workload, options.seed);
  if (!workload) {
    std::cerr << "perfbench: unknown workload '" << options.workload << "'\n";
    return 2;
  }

  bool correct = true;
  if (!selftest_passes(run_selftest())) {
    std::cerr << "perfbench: a check failed to fire in the self-test (--selftest)\n";
    correct = false;
  }
  if (!table2_passes()) correct = false;

  std::vector<double> setup_s;
  {
    const CpuRotation rotation;
    double setup_total_s = 0.0;
    while (setup_s.size() < kSetupRuns || setup_total_s < kSetupMinS) {
      setup_s.push_back(workload->setup());
      setup_total_s += setup_s.back();
    }
  }

  dbs::obs::Tracer& tracer = dbs::obs::Tracer::global();
  dbs::obs::MetricsRegistry& registry = dbs::obs::MetricsRegistry::global();
  const dbs::obs::MetricsSnapshot before = registry.snapshot();
  // Counts are taken over the first kMinOps ops, which every run makes
  // whatever the host's speed, so they repeat exactly for a seed.
  dbs::obs::MetricsSnapshot counted;
  LayerMetrics returned_stats;
  std::vector<double> op_ms;
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double quality_sum = 0.0;
  std::size_t quality_ops = 0;
  const Clock::time_point loop_start = Clock::now();
  do {
    for (std::size_t i = 0; i < workload->round_size(); ++i) {
      workload->prepare(i);
      // The traced run alternates untraced and traced rounds, so the
      // tracing overhead is measured under the same host conditions.
      const bool traced = options.trace && (attempted / workload->round_size()) % 2 == 1;
      if (traced) tracer.enable();
      const Clock::time_point start = Clock::now();
      workload->run();
      const double ms = ms_between(start, Clock::now());
      if (traced) tracer.disable();
      op_ms.push_back(ms);
      (traced ? traced_ms : untraced_ms).push_back(ms);

      Findings findings;
      const double quality = workload->check(findings);
      ++attempted;
      if (findings.ok()) {
        // Quality is averaged over the first kMinOps ops, like the counts.
        if (attempted <= kMinOps) {
          quality_sum += quality;
          ++quality_ops;
        }
      } else {
        ++failed;
        if (failed <= 5) report_findings(options.workload.c_str(), findings);
      }
      if (options.trace && attempted == kMinOps) {
        counted = registry.snapshot();
        workload->add_layer_metrics(returned_stats);
      }
    }
  } while (attempted < kMinOps ||
           ms_between(loop_start, Clock::now()) < options.seconds * 1000.0);
  const double loop_s = ms_between(loop_start, Clock::now()) / 1000.0;

  std::vector<Metric> metrics;
  if (!options.trace) {
    metrics = {
        {"setup_s", median(setup_s), "s"},
        {"op_ms_p50", median(op_ms), "ms"},
        {"op_ms_p90", nearest_rank(op_ms, 0.9), "ms"},
        {"ops_per_s", static_cast<double>(attempted) / loop_s, "1/s"},
        {"cost_over_lb",
         quality_ops == 0 ? 0.0 : quality_sum / static_cast<double>(quality_ops), "ratio"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
  } else {
    const std::vector<dbs::obs::TraceEvent> events = tracer.events();
    if (tracer.dropped() > 0) {
      std::cerr << "perfbench: tracer dropped " << tracer.dropped()
                << " spans; span-based layer times are low\n";
    }
    if (!options.trace_out.empty() && !tracer.write_json_file(options.trace_out)) {
      std::cerr << "perfbench: cannot write " << options.trace_out << "\n";
    }
    LayerMetrics layers = layer_metrics(*workload, events, traced_ms.size(), before,
                                        counted, std::move(returned_stats));
    layers["obs.trace_overhead_pct"] =
        100.0 * (median(traced_ms) / median(untraced_ms) - 1.0);
    for (const LayerSpec& spec : kLayerMetrics) {
      metrics.push_back({spec.name, layers[spec.name], spec.unit});
    }
  }

  std::cout << "workload " << options.workload << " seed " << options.seed << ": "
            << attempted << " ops, " << failed << " failed\n";
  for (const Metric& m : metrics) {
    std::printf("  %-32s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::cout << result_line(correct, attempted, failed, metrics) << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!perfbench::parse(argc, argv, options)) {
    std::cerr << "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <file>] | --selftest\n";
    return 2;
  }
  try {
    return options.selftest ? perfbench::selftest_main() : perfbench::run_main(options);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}

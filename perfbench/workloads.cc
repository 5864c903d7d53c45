#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <numeric>
#include <optional>
#include <utility>

#include "api/portfolio.h"
#include "api/scheduler.h"
#include "common/distributions.h"
#include "common/rng.h"
#include "obs/trace.h"
#include "serve/server_loop.h"
#include "workload/generator.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

// Seed of the `index`-th input drawn for `tag` in a run seeded with `seed`.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag, std::uint64_t index) {
  std::uint64_t state = seed;
  state = dbs::splitmix64_next(state) ^ (tag << 32) ^ index;
  return dbs::splitmix64_next(state);
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Paper §4.1 catalogue: Zipf θ = 0.8, sizes 10^U[0, Φ] with Φ = 2.
dbs::Database paper_catalogue(std::size_t items, std::uint64_t seed) {
  dbs::WorkloadConfig config;
  config.items = items;
  config.skewness = 0.8;
  config.diversity = 2.0;
  config.seed = seed;
  return dbs::generate_database(config);
}

constexpr double kBandwidth = 10.0;

// Checks an allocation returned for `db` and returns cost / lower bound.
// `reported_wait` < 0 means the call reports no waiting time.
double check_allocation(const dbs::Database& db, ChannelId channels,
                        std::span<const ChannelId> assignment, double reported_cost,
                        double reported_wait, bool converged, Findings& findings) {
  const std::span<const double> f = db.freqs();
  const std::span<const double> z = db.sizes();
  const std::optional<Aggregates> agg =
      check_partition(assignment, f, z, channels, findings);
  if (!agg) return 0.0;
  const double cost = eq3_cost(*agg);
  check_close("Eq. 3 cost", reported_cost, cost, findings);
  if (reported_wait >= 0.0) {
    check_close("Eq. 2 waiting time", reported_wait,
                eq2_waiting_time(cost, f, z, kBandwidth), findings);
  }
  const double lower_bound = ksy_lower_bound(f, z, channels);
  check_lower_bound(cost, lower_bound, findings);
  if (converged) {
    check_local_optimum(assignment, f, z, *agg, dbs::CdsOptions{}.min_gain, findings);
  }
  return cost / lower_bound;
}

// The catalogues of a run. Set-up builds the first `size` of them. A pool
// that cycles is all the run ever uses, and its workload's round is the
// whole pool, so every run weights its catalogues alike. A pool that does
// not cycle goes on generating: op k always gets catalogue k, fresh, however
// many ops the host's speed lets a run make. Generating past the pool
// happens in prepare(), outside the timed call.
class CataloguePool {
 public:
  CataloguePool(std::uint64_t seed, std::uint64_t tag, std::size_t items,
                std::size_t size, bool cycle)
      : seed_(seed), tag_(tag), items_(items), size_(size), cycle_(cycle) {}

  // Builds the pool from scratch and returns the seconds spent in the
  // generator (generator → Database).
  double build() {
    catalogues_.clear();  // free the previous pool before building the next
    fresh_.reset();
    taken_ = 0;
    current_ = 0;
    double seconds = 0.0;
    for (std::size_t k = 0; k < size_; ++k) {
      const Clock::time_point start = Clock::now();
      catalogues_.push_back(generate(k));
      seconds += seconds_since(start);
    }
    return seconds;
  }

  // Moves to the next op's catalogue. The first op gets catalogue 0.
  void advance() {
    current_ = cycle_ ? taken_ % size_ : taken_;
    ++taken_;
    if (current_ >= size_) fresh_.emplace(generate(current_));
  }

  const dbs::Database& current() const {
    return current_ < size_ ? catalogues_[current_] : *fresh_;
  }

  std::vector<const dbs::Database*> all() const {
    std::vector<const dbs::Database*> out;
    for (const dbs::Database& db : catalogues_) out.push_back(&db);
    return out;
  }

 private:
  dbs::Database generate(std::size_t k) const {
    return paper_catalogue(items_, derive_seed(seed_, tag_, k));
  }

  std::uint64_t seed_;
  std::uint64_t tag_;
  std::size_t items_;
  std::size_t size_;
  bool cycle_;
  std::size_t taken_ = 0;  // catalogues handed out since build()
  std::size_t current_ = 0;
  std::vector<dbs::Database> catalogues_;
  std::optional<dbs::Database> fresh_;
};

// plan-2k and plan-1e5: DRP-CDS through schedule(), one catalogue per op.
class PlanWorkload final : public Workload {
 public:
  PlanWorkload(CataloguePool pool, std::size_t round, ChannelId channels,
               std::size_t max_moves)
      : pool_(std::move(pool)), round_(round), converged_(max_moves == 0) {
    request_.algorithm = dbs::Algorithm::kDrpCds;
    request_.channels = channels;
    request_.bandwidth = kBandwidth;
    if (max_moves > 0) request_.drp_cds.cds.max_iterations = max_moves;
  }

  double setup() override { return pool_.build(); }
  std::size_t round_size() const override { return round_; }
  void prepare(std::size_t /*i*/) override { pool_.advance(); }

  void run() override {
    const dbs::obs::ScopedSpan span("perfbench.schedule");
    result_ = dbs::schedule(pool_.current(), request_);
  }

  double check(Findings& findings) override {
    return check_allocation(pool_.current(), request_.channels,
                            result_->allocation.assignment(), result_->cost,
                            result_->waiting_time, converged_, findings);
  }

  std::vector<const dbs::Database*> catalogues() const override { return pool_.all(); }

 private:
  CataloguePool pool_;
  std::size_t round_;
  bool converged_;
  dbs::ScheduleRequest request_;
  std::optional<dbs::ScheduleResult> result_;
};

// race-mid: the optimizer portfolio plan() on Table-5-midpoint catalogues
// under a deadline no racer reaches, one catalogue per op.
class RaceWorkload final : public Workload {
 public:
  static constexpr ChannelId kChannels = 6;
  static constexpr std::size_t kRound = 32;
  static constexpr double kDeadlineMs = 60000.0;

  explicit RaceWorkload(CataloguePool pool) : pool_(std::move(pool)) {}

  double setup() override { return pool_.build(); }
  std::size_t round_size() const override { return kRound; }
  void prepare(std::size_t /*i*/) override { pool_.advance(); }

  void run() override {
    const dbs::obs::ScopedSpan span("perfbench.plan");
    result_ = dbs::plan(pool_.current(), kChannels, kDeadlineMs);
  }

  double check(Findings& findings) override {
    const dbs::PortfolioResult& result = *result_;
    constexpr std::size_t kRacers = 3;
    if (result.racers.size() != kRacers) {
      findings.fail("portfolio reported " + std::to_string(result.racers.size()) +
                    " racers");
      return 0.0;
    }
    std::size_t best = 0;
    for (std::size_t r = 0; r < kRacers; ++r) {
      const dbs::RacerOutcome& racer = result.racers[r];
      if (static_cast<std::size_t>(racer.racer) != r) {
        findings.fail("racer " + std::to_string(r) + " reported out of order");
      }
      if (!racer.completed) {
        findings.fail(std::string(dbs::portfolio_racer_name(racer.racer)) +
                      " did not complete before the deadline");
      }
      if (racer.cost < result.racers[best].cost) best = r;
    }
    if (static_cast<std::size_t>(result.winner) != best) {
      findings.fail("winner is " +
                    std::string(dbs::portfolio_racer_name(result.winner)) +
                    ", not the lowest-index cheapest racer " +
                    std::string(dbs::portfolio_racer_name(result.racers[best].racer)));
    }
    check_close("winner cost", result.cost, result.racers[best].cost, findings);

    const bool converged = result.winner != dbs::PortfolioRacer::kGopt;
    const double quality =
        check_allocation(pool_.current(), kChannels, result.allocation.assignment(),
                         result.cost, -1.0, converged, findings);

    for (std::size_t r = 0; r < kRacers; ++r) racer_ms_[r] += result.racers[r].elapsed_ms;
    double runner_up = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < kRacers; ++r) {
      if (r != best) runner_up = std::min(runner_up, result.racers[r].cost);
    }
    gain_sum_ += (runner_up - result.cost) / runner_up;
    if (result.winner == dbs::PortfolioRacer::kGopt) ++gopt_wins_;
    ++ops_;
    return quality;
  }

  std::vector<const dbs::Database*> catalogues() const override { return pool_.all(); }

  void add_layer_metrics(LayerMetrics& out) const override {
    if (ops_ == 0) return;
    const double ops = static_cast<double>(ops_);
    out["api.portfolio.racer_ms.drp-cds"] = racer_ms_[0] / ops;
    out["api.portfolio.racer_ms.kk-cds"] = racer_ms_[1] / ops;
    out["baselines.gopt_ms"] = racer_ms_[2] / ops;
    out["api.portfolio.gopt_wins"] = static_cast<double>(gopt_wins_);
    out["api.portfolio.gopt_gain"] = gain_sum_ / ops;
  }

 private:
  CataloguePool pool_;
  std::optional<dbs::PortfolioResult> result_;
  double racer_ms_[3] = {0.0, 0.0, 0.0};
  double gain_sum_ = 0.0;
  std::size_t gopt_wins_ = 0;
  std::size_t ops_ = 0;
};

// serve-2k: BroadcastServerLoop under slowly drifting popularity, one
// observe_window() epoch per op.
class ServeWorkload final : public Workload {
 public:
  static constexpr std::size_t kItems = 2000;
  static constexpr ChannelId kChannels = 10;
  static constexpr std::size_t kWindow = 200000;
  // One round is one drift period: kSwaps random popularity swaps every
  // epoch, and at its end a shift that moves the kShift hottest items.
  static constexpr std::size_t kPeriod = 20;
  static constexpr std::size_t kSwaps = 4;
  static constexpr std::size_t kShift = 150;
  static constexpr std::size_t kWarmup = 10;

  explicit ServeWorkload(std::uint64_t seed) : seed_(seed) {
    config_.channels = kChannels;
    config_.bandwidth = kBandwidth;
  }

  double setup() override {
    loop_.reset();
    catalogue_.emplace(paper_catalogue(kItems, derive_seed(seed_, 3, 0)));
    truth_.assign(catalogue_->freqs().begin(), catalogue_->freqs().end());
    counts_.emplace(kItems, config_.tracker_decay, config_.tracker_alpha);
    drift_rng_.emplace(derive_seed(seed_, 3, 1));
    sample_rng_.emplace(derive_seed(seed_, 3, 2));

    Clock::time_point start = Clock::now();
    loop_ = std::make_unique<dbs::BroadcastServerLoop>(
        std::vector<double>(catalogue_->sizes().begin(), catalogue_->sizes().end()),
        config_);
    double seconds = seconds_since(start);
    for (std::size_t e = 0; e < kWarmup; ++e) {
      prepare(e);
      start = Clock::now();
      loop_->observe_window(window_);
      seconds += seconds_since(start);
      counts_->fold(window_);
    }
    version_ = loop_->snapshot()->version;
    return seconds;
  }

  std::size_t round_size() const override { return kPeriod; }

  void prepare(std::size_t i) override {
    for (std::size_t s = 0; s < kSwaps; ++s) swap_popularity(random_item(), random_item());
    if (i + 1 == kPeriod) {
      std::vector<dbs::ItemId> order(kItems);
      std::iota(order.begin(), order.end(), 0);
      std::partial_sort(order.begin(), order.begin() + kShift, order.end(),
                        [&](dbs::ItemId a, dbs::ItemId b) { return truth_[a] > truth_[b]; });
      for (std::size_t h = 0; h < kShift; ++h) swap_popularity(order[h], random_item());
    }
    const dbs::AliasSampler sampler(truth_);
    window_.resize(kWindow);
    for (std::size_t r = 0; r < kWindow; ++r) {
      window_[r] = dbs::Request{static_cast<double>(r),
                                static_cast<dbs::ItemId>(sampler.sample(*sample_rng_))};
    }
  }

  void run() override {
    const dbs::obs::ScopedSpan span("perfbench.observe_window");
    report_ = loop_->observe_window(window_);
  }

  double check(Findings& findings) override {
    counts_->fold(window_);
    const std::shared_ptr<const dbs::ProgramSnapshot> snap = loop_->snapshot();
    if (report_->version != version_ + 1 || snap->version != report_->version) {
      findings.fail("snapshot version " + std::to_string(snap->version) +
                    " (report " + std::to_string(report_->version) +
                    ") after version " + std::to_string(version_));
    }
    version_ = snap->version;
    check_frequencies(snap->db.freqs(), counts_->frequencies(), findings);

    const std::span<const ChannelId> assignment = snap->alloc.assignment();
    const std::span<const double> f = snap->db.freqs();
    const std::span<const double> z = snap->db.sizes();
    const std::optional<Aggregates> agg =
        check_partition(assignment, f, z, kChannels, findings);
    if (!agg) return 0.0;
    const double cost = eq3_cost(*agg);
    const double wait = eq2_waiting_time(cost, f, z, kBandwidth);
    check_close("snapshot Eq. 3 cost", snap->cost, cost, findings);
    check_close("snapshot Eq. 2 waiting time", snap->waiting_time, wait, findings);
    check_close("epoch report waiting time", report_->waiting_time, wait, findings);
    check_lower_bound(cost, ksy_lower_bound(f, z, kChannels), findings);
    check_local_optimum(assignment, f, z, *agg, dbs::CdsOptions{}.min_gain, findings);

    repair_moves_ += report_->repair_moves;
    escalations_ += report_->escalated ? 1 : 0;
    adoptions_ += report_->adopted_rebuild ? 1 : 0;
    ++ops_;

    // What clients experience: the program on air under the true popularity.
    Findings unused;
    const std::optional<Aggregates> truth =
        check_partition(assignment, truth_, z, kChannels, unused);
    return eq3_cost(*truth) / ksy_lower_bound(truth_, z, kChannels);
  }

  std::vector<const dbs::Database*> catalogues() const override {
    return {&*catalogue_};
  }

  void add_layer_metrics(LayerMetrics& out) const override {
    if (ops_ == 0) return;
    out["serve.repair_moves"] = static_cast<double>(repair_moves_) / ops_;
    out["serve.escalations"] = static_cast<double>(escalations_);
    out["serve.rebuild_adoption_ratio"] =
        escalations_ == 0 ? 0.0 : static_cast<double>(adoptions_) / escalations_;
  }

 private:
  dbs::ItemId random_item() {
    return static_cast<dbs::ItemId>(drift_rng_->below(kItems));
  }
  void swap_popularity(dbs::ItemId a, dbs::ItemId b) { std::swap(truth_[a], truth_[b]); }

  std::uint64_t seed_;
  dbs::ServerLoopConfig config_;
  std::optional<dbs::Database> catalogue_;
  std::unique_ptr<dbs::BroadcastServerLoop> loop_;
  std::vector<double> truth_;
  std::optional<DecayedCounts> counts_;
  std::optional<dbs::Rng> drift_rng_;
  std::optional<dbs::Rng> sample_rng_;
  std::size_t version_ = 0;
  std::vector<dbs::Request> window_;
  std::optional<dbs::EpochReport> report_;
  std::size_t repair_moves_ = 0;
  std::size_t escalations_ = 0;
  std::size_t adoptions_ = 0;
  std::size_t ops_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_workload(std::string_view name, std::uint64_t seed) {
  if (name == "plan-2k") {
    return std::make_unique<PlanWorkload>(CataloguePool(seed, 1, 2000, 384, false), 16,
                                          10, 0);
  }
  if (name == "plan-1e5") {
    return std::make_unique<PlanWorkload>(CataloguePool(seed, 2, 100000, 8, true), 8, 64,
                                          64);
  }
  if (name == "serve-2k") return std::make_unique<ServeWorkload>(seed);
  if (name == "race-mid") {
    return std::make_unique<RaceWorkload>(CataloguePool(seed, 4, 120, 1024, false));
  }
  return nullptr;
}

}  // namespace perfbench

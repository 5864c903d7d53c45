#include "hetero/hetero.h"

#include <algorithm>
#include <numeric>
#include <span>

#include "common/check.h"
#include "core/drp.h"
#include "core/local_search.h"
#include "model/cost.h"

namespace dbs {
namespace {

/// One check_bandwidth-valid bandwidth per channel. 4·Σz / b falls as b
/// grows, so the slowest channel decides; checking each also rejects NaN,
/// which a running minimum would skip.
void check_bandwidths(const Database& db, std::size_t channels,
                      const std::vector<double>& bandwidths) {
  DBS_CHECK_MSG(bandwidths.size() == channels, "need one bandwidth per channel");
  DBS_CHECK_MSG(channels >= 1, "need at least one channel");
  for (double b : bandwidths) check_bandwidth(db, b);
}

/// Per-channel load P_c + F_c·Z_c/2, where P_c = Σ_{x∈c} f_x·z_x is the
/// download term; W is Σ_c load_c / b_c.
std::vector<double> channel_loads(const Allocation& alloc) {
  const Database& db = alloc.database();
  std::vector<double> load(alloc.channels(), 0.0);
  for (ItemId id = 0; id < db.size(); ++id) {
    load[alloc.assignment()[id]] += db.freqs()[id] * db.sizes()[id];
  }
  for (ChannelId c = 0; c < alloc.channels(); ++c) {
    load[c] += alloc.channel_freqs()[c] * alloc.channel_sizes()[c] / 2.0;
  }
  return load;
}

/// The generalized Eq. (4) gain (hetero.h) from the allocation's F and Z
/// columns, unchecked: callers validate the item, channel and bandwidths.
double move_gain(const Allocation& alloc, const std::vector<double>& bandwidths,
                 ItemId item, ChannelId to) {
  const ChannelId from = alloc.assignment()[item];
  if (from == to) return 0.0;
  const double f = alloc.database().freqs()[item];
  const double z = alloc.database().sizes()[item];
  const std::span<const double> freq = alloc.channel_freqs();
  const std::span<const double> size = alloc.channel_sizes();
  const double fz = f * z;
  const double lost =
      ((f * size[from] + z * freq[from] - fz) / 2.0 + fz) / bandwidths[from];
  const double gained = ((f * size[to] + z * freq[to] + fz) / 2.0 + fz) / bandwidths[to];
  return lost - gained;
}

/// schedule_hetero's move search on the shared Eq. (4) driver: the
/// best-improvement scan over every (item, channel) move, keeping the first
/// strictly largest generalized Δ in (item, channel) order.
class HeteroScan {
 public:
  HeteroScan(Allocation& alloc, const std::vector<double>& bandwidths)
      : alloc_(alloc), bandwidths_(bandwidths) {}

  CdsMove best_move() {
    const std::vector<ChannelId>& home = alloc_.assignment();
    CdsMove best;
    bool have = false;
    for (ItemId x = 0; x < alloc_.items(); ++x) {
      for (ChannelId q = 0; q < alloc_.channels(); ++q) {
        if (q == home[x]) continue;
        const double gain = move_gain(alloc_, bandwidths_, x, q);
        ++moves_evaluated_;
        if (!have || gain > best.gain) {
          have = true;
          best = CdsMove{x, home[x], q, gain};
        }
      }
    }
    return best;
  }

  void apply(const CdsMove& move) { alloc_.move(move.item, move.to); }
  std::size_t moves_evaluated() const { return moves_evaluated_; }
  std::size_t repairs() const { return 0; }

 private:
  Allocation& alloc_;
  const std::vector<double>& bandwidths_;
  std::size_t moves_evaluated_ = 0;
};

}  // namespace

double hetero_wait(const Allocation& alloc, const std::vector<double>& bandwidths) {
  check_bandwidths(alloc.database(), alloc.channels(), bandwidths);
  const std::vector<double> load = channel_loads(alloc);
  double w = 0.0;
  for (ChannelId c = 0; c < alloc.channels(); ++c) w += load[c] / bandwidths[c];
  return w;
}

double hetero_move_gain(const Allocation& alloc,
                        const std::vector<double>& bandwidths, ItemId item,
                        ChannelId to) {
  check_bandwidths(alloc.database(), alloc.channels(), bandwidths);
  DBS_CHECK(item < alloc.items());
  DBS_CHECK(to < alloc.channels());
  return move_gain(alloc, bandwidths, item, to);
}

HeteroResult schedule_hetero(const Database& db,
                             const std::vector<double>& bandwidths) {
  // dbs-lint: contract delegated to check_bandwidths and run_drp
  check_bandwidths(db, bandwidths.size(), bandwidths);
  const auto k = static_cast<ChannelId>(bandwidths.size());

  // Step 1: DRP grouping, then heaviest group -> fastest channel.
  DrpResult drp = run_drp(db, k);
  const std::vector<double> group_load = channel_loads(drp.allocation);

  std::vector<ChannelId> groups_by_load(k), channels_by_bw(k);
  std::iota(groups_by_load.begin(), groups_by_load.end(), 0);
  std::iota(channels_by_bw.begin(), channels_by_bw.end(), 0);
  std::stable_sort(groups_by_load.begin(), groups_by_load.end(),
                   [&](ChannelId a, ChannelId b) { return group_load[a] > group_load[b]; });
  std::stable_sort(channels_by_bw.begin(), channels_by_bw.end(),
                   [&](ChannelId a, ChannelId b) { return bandwidths[a] > bandwidths[b]; });
  std::vector<ChannelId> relabel(k);
  for (ChannelId r = 0; r < k; ++r) relabel[groups_by_load[r]] = channels_by_bw[r];

  std::vector<ChannelId> assignment(db.size());
  for (ItemId id = 0; id < db.size(); ++id) {
    assignment[id] = relabel[drp.allocation.channel_of(id)];
  }
  Allocation alloc(db, k, std::move(assignment));

  // Step 2: generalized-Δ local search to a local optimum, on CDS's driver.
  HeteroScan scan(alloc, bandwidths);
  CdsStats stats;
  local_search::drive(scan, CdsOptions{}, stats);
  const double wait = hetero_wait(alloc, bandwidths);
  return HeteroResult{std::move(alloc), wait, stats.iterations};
}

}  // namespace dbs

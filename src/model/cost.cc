#include "model/cost.h"

#include <cmath>

#include "common/check.h"

namespace dbs {

void check_bandwidth(const Database& db, double bandwidth) {
  DBS_CHECK_MSG(std::isfinite(bandwidth) && bandwidth > 0.0,
                "bandwidth " << bandwidth << " must be finite and positive");
  DBS_CHECK_MSG(std::isfinite(4.0 * db.total_size() / bandwidth),
                "bandwidth " << bandwidth << " is too small: 4 * total size / bandwidth "
                                "overflows, so waiting times and move gains would too");
}

double item_waiting_time(const Allocation& alloc, ItemId id, double bandwidth) {
  DBS_CHECK(bandwidth > 0.0);
  const ChannelId c = alloc.channel_of(id);
  const Item& it = alloc.database().item(id);
  return alloc.size_of(c) / (2.0 * bandwidth) + it.size / bandwidth;
}

double channel_waiting_time(const Allocation& alloc, ChannelId c, double bandwidth) {
  DBS_CHECK(bandwidth > 0.0);
  const double f = alloc.freq_of(c);
  if (f <= 0.0) return 0.0;
  // W^(i) = Z_i/(2b) + (Σ f_j z_j over the channel) / (b F_i)
  double weighted = 0.0;
  for (ItemId id : alloc.items_in(c)) {
    const Item& it = alloc.database().item(id);
    weighted += it.freq * it.size;
  }
  return alloc.size_of(c) / (2.0 * bandwidth) + weighted / (bandwidth * f);
}

double program_waiting_time(const Allocation& alloc, double bandwidth) {
  DBS_CHECK(bandwidth > 0.0);
  return probe_component(alloc, bandwidth) +
         download_component(alloc.database(), bandwidth);
}

double download_component(const Database& db, double bandwidth) {
  DBS_CHECK(bandwidth > 0.0);
  return db.weighted_size() / bandwidth;
}

double probe_component(const Allocation& alloc, double bandwidth) {
  DBS_CHECK(bandwidth > 0.0);
  return alloc.cost() / (2.0 * bandwidth);
}

}  // namespace dbs

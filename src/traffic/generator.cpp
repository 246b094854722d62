#include "traffic/generator.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace wormcast {

TrafficGenerator::TrafficGenerator(Simulator& sim, TrafficConfig config,
                                   std::vector<MulticastGroupSpec> groups,
                                   int n_hosts, RandomStream rng, Sink sink)
    : sim_(sim),
      config_(config),
      groups_(std::move(groups)),
      n_hosts_(n_hosts),
      sink_(std::move(sink)) {
  assert(config_.offered_load > 0.0);
  groups_of_host_.resize(static_cast<std::size_t>(n_hosts_));
  for (const MulticastGroupSpec& g : groups_)
    for (const HostId h : g.members)
      groups_of_host_[static_cast<std::size_t>(h)].push_back(g.id);
  rngs_.reserve(static_cast<std::size_t>(n_hosts_));
  for (HostId h = 0; h < n_hosts_; ++h)
    rngs_.push_back(rng.fork(static_cast<std::uint64_t>(h) + 1));
}

void TrafficGenerator::start(Time until) {
  until_ = until;
  for (HostId h = 0; h < n_hosts_; ++h) schedule_next(h);
}

void TrafficGenerator::schedule_next(HostId h) {
  RandomStream& rng = rngs_[static_cast<std::size_t>(h)];
  const double mean_gap = config_.mean_worm_len / config_.offered_load;
  const Time gap = rng.exp_interval(mean_gap);
  if (sim_.now() + gap > until_) return;
  sim_.after(gap, [this, h] { fire(h); });
}

void TrafficGenerator::fire(HostId h) {
  RandomStream& rng = rngs_[static_cast<std::size_t>(h)];
  Demand d;
  d.src = h;
  d.length = std::min(kMaxWormLen, rng.geometric_length(config_.mean_worm_len,
                                                        kMinWormLen));
  const auto& my_groups = groups_of_host_[static_cast<std::size_t>(h)];
  if (!my_groups.empty() && rng.chance(config_.multicast_fraction)) {
    d.multicast = true;
    d.group = rng.pick(my_groups);
  } else if (n_hosts_ > 1) {
    d.multicast = false;
    do {
      d.dst = static_cast<HostId>(rng.uniform(0, n_hosts_ - 1));
    } while (d.dst == h);
  } else {
    schedule_next(h);
    return;
  }
  ++issued_;
  sink_(d);
  schedule_next(h);
}

}  // namespace wormcast

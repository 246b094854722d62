#include "chaos/churn_engine.h"

#include <utility>

namespace wormcast {

ChurnEngine::ChurnEngine(Network& net, std::vector<GroupId> groups,
                         ChurnConfig config, RandomStream rng)
    : net_(net),
      groups_(std::move(groups)),
      config_(config),
      rng_(std::move(rng)) {}

void ChurnEngine::start() {
  if (config_.mean_gap <= 0 || groups_.empty() ||
      config_.until <= config_.from)
    return;
  const Time first =
      config_.from + rng_.exp_interval(static_cast<double>(config_.mean_gap));
  net_.sim().at(first, [this] { tick(); });
}

void ChurnEngine::tick() {
  if (net_.sim().now() >= config_.until) return;
  const GroupId g = rng_.pick(groups_);
  // Draw both decisions every tick so the stream consumed is independent
  // of which branch ends up eligible (steadier sequences under replay).
  const bool leave = rng_.chance(kChurnLeaveBias);
  if (leave) {
    issue_leave(g);
  } else {
    issue_join(g);
  }
  net_.sim().after(rng_.exp_interval(static_cast<double>(config_.mean_gap)),
                   [this] { tick(); });
}

void ChurnEngine::issue_leave(GroupId g) {
  const CircuitTable& circuit = net_.tables().circuit(g);
  if (circuit.size() <= kChurnMinMembers) return;
  std::vector<HostId> eligible;
  for (const HostId h : circuit.order())
    if (!net_.host_removed(h) && !net_.faults().host_dead(h))
      eligible.push_back(h);
  if (static_cast<int>(eligible.size()) <= kChurnMinMembers) return;
  const HostId h = rng_.pick(eligible);
  net_.request_leave(g, h, net_.sim().now());
  parked_[g].push_back(h);
  ++ops_issued_;
}

void ChurnEngine::issue_join(GroupId g) {
  std::vector<HostId>& parked = parked_[g];
  // Crashed hosts never come back; purge them from the rejoin pool.
  std::erase_if(parked, [this](HostId h) {
    return net_.host_removed(h) || net_.faults().host_dead(h);
  });
  HostId h = kNoHost;
  if (!parked.empty() && rng_.chance(kChurnRejoinBias)) {
    const auto idx = static_cast<std::size_t>(
        rng_.keyed_uniform(0, static_cast<std::int64_t>(parked.size()) - 1,
                           0xC0FFEEull, static_cast<std::uint64_t>(g),
                           static_cast<std::uint64_t>(parked.size())));
    h = parked[idx];
    parked.erase(parked.begin() + static_cast<std::ptrdiff_t>(idx));
  } else {
    std::vector<HostId> outsiders;
    for (HostId cand = 0; cand < net_.num_hosts(); ++cand)
      if (!net_.tables().is_member(g, cand) && !net_.host_removed(cand) &&
          !net_.faults().host_dead(cand))
        outsiders.push_back(cand);
    if (outsiders.empty()) return;
    h = rng_.pick(outsiders);
  }
  net_.request_join(g, h, net_.sim().now());
  ++ops_issued_;
}

}  // namespace wormcast

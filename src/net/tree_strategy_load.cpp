#include <algorithm>
#include <array>
#include <limits>
#include <queue>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "net/mcast_route_builder.h"
#include "net/tree_strategy_impl.h"

namespace wormcast::detail {

namespace {

constexpr std::int64_t kUnreached = std::numeric_limits<std::int64_t>::max();

/// Static component of the per-switch detour penalty: `cap_hops` extra hops
/// per port a switch falls short of the fabric's maximum switch degree
/// (low-degree switches have the least multicast port capacity to spare).
std::vector<std::int64_t> static_penalties(const Topology& topo, int cap_hops) {
  std::vector<std::int64_t> out(static_cast<std::size_t>(topo.num_nodes()), 0);
  std::size_t max_degree = 0;
  for (NodeId n = 0; n < topo.num_nodes(); ++n)
    if (topo.node(n).kind == NodeKind::kSwitch)
      max_degree = std::max(max_degree, topo.node(n).ports.size());
  for (NodeId n = 0; n < topo.num_nodes(); ++n) {
    if (topo.node(n).kind != NodeKind::kSwitch) continue;
    out[n] = static_cast<std::int64_t>(cap_hops) *
             static_cast<std::int64_t>(max_degree - topo.node(n).ports.size());
  }
  return out;
}

}  // namespace

LoadAwareStrategy::LoadAwareStrategy(const Topology& topo,
                                     const UpDownRouting& base,
                                     const UpDownOptions& base_opts)
    : TreeStrategy(topo, base, base_opts),
      penalty_(static_penalties(topo, kCapacityPenaltyHops)) {}

void LoadAwareStrategy::fail_link(LinkId l) {
  TreeStrategy::fail_link(l);
  plan_cache_.clear();
}

bool LoadAwareStrategy::replan(const std::vector<std::int64_t>& load) {
  if (load.size() != static_cast<std::size_t>(topo_.num_nodes()))
    throw std::invalid_argument("replan: one load entry per node");
  ++replans_;
  std::vector<std::int64_t> next = static_penalties(topo_, kCapacityPenaltyHops);
  // Scale the observed-load term so the hottest switch pays the full
  // kLoadPenaltyHops and cooler switches scale down linearly (rounded to
  // nearest hop — small asymmetries shouldn't perturb routes).
  std::int64_t max_load = 0;
  for (NodeId n = 0; n < topo_.num_nodes(); ++n)
    if (topo_.node(n).kind == NodeKind::kSwitch)
      max_load = std::max(max_load, load[n]);
  if (max_load > 0) {
    for (NodeId n = 0; n < topo_.num_nodes(); ++n) {
      if (topo_.node(n).kind != NodeKind::kSwitch) continue;
      next[n] += (std::int64_t{kLoadPenaltyHops} *
                      std::max<std::int64_t>(0, load[n]) +
                  max_load / 2) /
                 max_load;
    }
  }
  const bool changed = next != penalty_;
  if (changed) {
    penalty_ = std::move(next);
    plan_cache_.clear();
  }
  return changed;
}

std::vector<std::pair<HostId, std::vector<PortId>>>
LoadAwareStrategy::penalized_paths(HostId src,
                                   const std::vector<HostId>& dests) const {
  const NodeId src_sw = topo_.switch_of_host(src);
  const auto n_nodes = static_cast<std::size_t>(topo_.num_nodes());

  // Dijkstra over (switch, phase) where phase 0 = may still go up and
  // phase 1 = has gone down, exactly the legality state of the plain BFS
  // that fills UpDownRouting's route table, but with edge weight
  // 1 + penalty(next switch). Legality rides the *general* routing's
  // labels: load-aware worms use the full up/down graph, not just the
  // spanning tree. The queue orders ties by (node, phase), and strict-<
  // relaxation with port-ordered neighbour scans pins one deterministic
  // predecessor per state.
  struct Pred {
    NodeId node = kNoNode;
    int phase = -1;
    LinkId link = kNoLink;
  };
  std::vector<std::array<std::int64_t, 2>> dist(n_nodes,
                                                {kUnreached, kUnreached});
  std::vector<std::array<Pred, 2>> pred(n_nodes);
  using QItem = std::tuple<std::int64_t, NodeId, int>;
  std::priority_queue<QItem, std::vector<QItem>, std::greater<QItem>> frontier;
  dist[src_sw][0] = 0;
  frontier.push({0, src_sw, 0});
  while (!frontier.empty()) {
    const auto [d, n, ph] = frontier.top();
    frontier.pop();
    if (d != dist[n][ph]) continue;  // stale entry
    for (const TopoPort& p : topo_.node(n).ports) {
      const LinkId l = p.link;
      if (!base_routing_.link_alive(l) || base_routing_.up_end(l) == kNoNode)
        continue;
      const NodeId m = topo_.peer(l, n);
      if (topo_.node(m).kind != NodeKind::kSwitch) continue;
      const bool up = base_routing_.is_up_traversal(l, n);
      if (up && ph == 1) continue;  // down->up is illegal
      const int nph = up ? 0 : 1;
      const std::int64_t nd = d + 1 + penalty_[m];
      if (nd < dist[m][nph]) {
        dist[m][nph] = nd;
        pred[m][nph] = Pred{n, ph, l};
        frontier.push({nd, m, nph});
      }
    }
  }

  std::vector<std::pair<HostId, std::vector<PortId>>> out;
  out.reserve(dests.size());
  for (const HostId dst : dests) {
    if (dst == src) continue;
    const NodeId to_sw = topo_.switch_of_host(dst);
    int end_phase = dist[to_sw][0] <= dist[to_sw][1] ? 0 : 1;
    if (to_sw == src_sw) end_phase = 0;
    if (dist[to_sw][end_phase] == kUnreached)
      throw std::logic_error("no legal up/down path");
    std::vector<LinkId> links;
    NodeId n = to_sw;
    int ph = end_phase;
    while (!(n == src_sw && ph == 0)) {
      const Pred& pr = pred[n][ph];
      links.push_back(pr.link);
      n = pr.node;
      ph = pr.phase;
    }
    std::reverse(links.begin(), links.end());
    std::vector<PortId> ports;
    ports.reserve(links.size() + 1);
    NodeId at = src_sw;
    for (const LinkId l : links) {
      ports.push_back(topo_.port_on(l, at));
      at = topo_.peer(l, at);
    }
    const TopoNode& dest_node = topo_.node(topo_.node_of_host(dst));
    ports.push_back(topo_.port_on(dest_node.ports[0].link, to_sw));
    out.push_back({dst, std::move(ports)});
  }
  return out;
}

McastPlan LoadAwareStrategy::plan_multicast(
    GroupId g, HostId src, const std::vector<HostId>& dests) const {
  std::vector<HostId> want;
  want.reserve(dests.size());
  for (const HostId d : dests)
    if (d != src) want.push_back(d);
  if (want.empty())
    throw std::invalid_argument("multicast with no destinations");
  std::sort(want.begin(), want.end());

  const std::uint64_t key = group_host_key(g, src);
  if (const auto it = plan_cache_.find(key); it != plan_cache_.end()) {
    if (it->second.dests == want) {
      ++worms_planned_;
      return it->second;
    }
  }

  const auto penalized = penalized_paths(src, want);
  std::vector<HostPath> paths;
  paths.reserve(penalized.size());
  for (const auto& [host, ports] : penalized)
    paths.push_back(HostPath{host, ports});
  McastPlan plan;
  plan.dests = std::move(want);
  plan.branches = merge_host_paths(paths);
  ++worms_planned_;
  plan_cache_[key] = plan;
  return plan;
}

}  // namespace wormcast::detail

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "net/mcast_route_builder.h"
#include "net/tree_strategy_impl.h"

namespace wormcast::detail {

MultiRootStrategy::MultiRootStrategy(const Topology& topo,
                                     const UpDownRouting& base,
                                     const UpDownOptions& base_opts)
    : TreeStrategy(topo, base) {
  // Candidate 0 is always the general routing's root (so primary_routing()
  // matches the single-root baseline for broadcasts and unknown groups);
  // the rest are the remaining switches by descending degree, id on ties —
  // the same centrality preference the Autonet-style root election uses.
  std::vector<NodeId> others;
  for (NodeId n = 0; n < topo.num_nodes(); ++n) {
    if (topo.node(n).kind != NodeKind::kSwitch) continue;
    if (n == base.root()) continue;
    others.push_back(n);
  }
  std::sort(others.begin(), others.end(), [&](NodeId a, NodeId b) {
    const std::size_t da = topo.node(a).ports.size();
    const std::size_t db = topo.node(b).ports.size();
    return da != db ? da > db : a < b;
  });
  const int k = std::clamp(kCandidateRoots, 1,
                           static_cast<int>(topo.num_switches()));
  roots_.push_back(base.root());
  for (const NodeId n : others) {
    if (static_cast<int>(roots_.size()) >= k) break;
    roots_.push_back(n);
  }
  routings_.reserve(roots_.size());
  for (const NodeId r : roots_) {
    UpDownOptions opts = base_opts;
    opts.root = r;
    opts.tree_links_only = true;
    routings_.push_back(std::make_unique<UpDownRouting>(topo, opts));
  }
}

const UpDownRouting& MultiRootStrategy::group_routing(GroupId g) const {
  return *routings_[assignment(g)];
}

std::size_t MultiRootStrategy::assignment(GroupId g) const {
  const auto it = assignment_.find(g);
  return it == assignment_.end() ? 0 : it->second;
}

std::size_t MultiRootStrategy::best_root(
    const std::vector<HostId>& members) const {
  std::size_t best = 0;
  std::int64_t best_sum = std::numeric_limits<std::int64_t>::max();
  for (std::size_t i = 0; i < routings_.size(); ++i) {
    std::int64_t sum = 0;
    bool reachable = true;
    for (const HostId m : members) {
      const int lv = routings_[i]->level(topo_.switch_of_host(m));
      if (lv < 0) {
        reachable = false;
        break;
      }
      sum += lv;
    }
    if (!reachable) continue;
    if (sum < best_sum) {
      best_sum = sum;
      best = i;
    }
  }
  return best;
}

void MultiRootStrategy::plan_group(GroupId g,
                                   const std::vector<HostId>& members) {
  members_[g] = members;
  assignment_[g] = best_root(members);
}

McastPlan MultiRootStrategy::plan_multicast(
    GroupId g, HostId src, const std::vector<HostId>& dests) const {
  const UpDownRouting& routing = group_routing(g);
  McastPlan plan;
  for (const HostId d : dests)
    if (d != src) plan.dests.push_back(d);
  plan.branches = build_mcast_branches(routing, src, dests);
  ++worms_planned_;
  return plan;
}

void MultiRootStrategy::fail_link(LinkId l) {
  for (auto& r : routings_) r->fail_link(l);
  // Depth sums shifted: every group gets a fresh assignment (each group's
  // choice is independent, so map iteration order doesn't matter).
  for (const auto& [g, members] : members_) assignment_[g] = best_root(members);
}

void MultiRootStrategy::on_root_migrated(NodeId new_root) {
  // Only the primary tree follows the general routing's root; the other
  // candidates keep spreading load from their own anchors.
  roots_[0] = new_root;
  routings_[0]->set_root(new_root);
  for (const auto& [g, members] : members_) assignment_[g] = best_root(members);
}

}  // namespace wormcast::detail

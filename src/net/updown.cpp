#include "net/updown.h"

#include <algorithm>
#include <array>
#include <queue>
#include <stdexcept>
#include <utility>

namespace wormcast {

UpDownRouting::UpDownRouting(const Topology& topo, Options opts)
    : topo_(topo),
      tree_links_only_(opts.tree_links_only),
      level_override_(std::move(opts.level_override)) {
  if (!level_override_.empty() &&
      level_override_.size() != static_cast<std::size_t>(topo_.num_nodes()))
    throw std::logic_error(
        "level_override must label every node (hosts included)");
  // Root: requested; else the lowest (stage, id) switch when stage labels
  // are given; else the highest-degree switch (lowest id on ties).
  preferred_root_ = opts.root;
  if (preferred_root_ == kNoNode && !level_override_.empty()) {
    for (NodeId n = 0; n < topo_.num_nodes(); ++n) {
      if (topo_.node(n).kind != NodeKind::kSwitch) continue;
      if (preferred_root_ == kNoNode ||
          level_override_[static_cast<std::size_t>(n)] <
              level_override_[static_cast<std::size_t>(preferred_root_)])
        preferred_root_ = n;
    }
  }
  if (preferred_root_ == kNoNode) {
    std::size_t best_degree = 0;
    for (NodeId n = 0; n < topo_.num_nodes(); ++n) {
      if (topo_.node(n).kind != NodeKind::kSwitch) continue;
      if (preferred_root_ == kNoNode ||
          topo_.node(n).ports.size() > best_degree) {
        preferred_root_ = n;
        best_degree = topo_.node(n).ports.size();
      }
    }
  }
  if (preferred_root_ == kNoNode ||
      topo_.node(preferred_root_).kind != NodeKind::kSwitch)
    throw std::logic_error("up/down routing requires a switch root");
  link_dead_.assign(static_cast<std::size_t>(topo_.num_links()), false);
  rebuild(/*allow_partial=*/false);
}

void UpDownRouting::rebuild(bool allow_partial) {
  root_ = preferred_root_;

  // BFS levels from the root over the surviving links.
  levels_.assign(static_cast<std::size_t>(topo_.num_nodes()), -1);
  on_tree_.assign(static_cast<std::size_t>(topo_.num_links()), false);
  std::queue<NodeId> frontier;
  levels_[root_] = 0;
  frontier.push(root_);
  while (!frontier.empty()) {
    const NodeId n = frontier.front();
    frontier.pop();
    for (const TopoPort& p : topo_.node(n).ports) {
      if (link_dead_[p.link]) continue;
      const NodeId m = topo_.peer(p.link, n);
      if (levels_[m] == -1) {
        levels_[m] = levels_[n] + 1;
        on_tree_[p.link] = true;
        frontier.push(m);
      }
    }
  }
  if (!allow_partial) {
    for (int lv : levels_)
      if (lv == -1) throw std::logic_error("topology disconnected from root");
  }

  // Up/down labels: the up end is the endpoint with the smaller level;
  // node id breaks ties (lower id counts as higher in the tree). Dead and
  // disconnected links keep kNoNode, and no route may use them. With a
  // level_override the *stage* labels replace the BFS distances (still a
  // total (level, id) order, so still acyclic and deadlock-free); BFS
  // levels keep deciding connectivity either way.
  up_end_.assign(static_cast<std::size_t>(topo_.num_links()), kNoNode);
  for (LinkId l = 0; l < topo_.num_links(); ++l) {
    if (link_dead_[l]) continue;
    const TopoLink& lk = topo_.link(l);
    if (levels_[lk.node_a] == -1 || levels_[lk.node_b] == -1) continue;
    const int la = level_override_.empty()
                       ? levels_[lk.node_a]
                       : level_override_[static_cast<std::size_t>(lk.node_a)];
    const int lb = level_override_.empty()
                       ? levels_[lk.node_b]
                       : level_override_[static_cast<std::size_t>(lk.node_b)];
    if (la != lb)
      up_end_[l] = la < lb ? lk.node_a : lk.node_b;
    else
      up_end_[l] = std::min(lk.node_a, lk.node_b);
  }

  // Every rebuild (failure, root migration) invalidates memoized paths:
  // stale entries would silently route under the old labels.
  route_cache_.clear();
  hop_cache_.clear();
}

void UpDownRouting::fail_link(LinkId l) {
  if (link_dead_[l]) return;
  link_dead_[l] = true;
  ++links_failed_;
  rebuild(/*allow_partial=*/true);
}

void UpDownRouting::set_root(NodeId new_root) {
  if (new_root < 0 || new_root >= topo_.num_nodes() ||
      topo_.node(new_root).kind != NodeKind::kSwitch)
    throw std::logic_error("up/down root must be a switch");
  if (new_root == preferred_root_ && new_root == root_) return;
  preferred_root_ = new_root;
  rebuild(/*allow_partial=*/links_failed_ > 0);
}

UpDownRouting::PathResult UpDownRouting::shortest_legal_path(NodeId from_sw,
                                                             NodeId to_sw) const {
  // BFS over (node, phase): phase 0 = may still go up; phase 1 = has gone
  // down (only down traversals remain legal). Deterministic neighbour order
  // (port index) fixes one path per pair.
  const auto n_nodes = static_cast<std::size_t>(topo_.num_nodes());
  struct Pred {
    NodeId node = kNoNode;
    int phase = -1;
    LinkId link = kNoLink;
  };
  std::vector<std::array<int, 2>> dist(n_nodes, {-1, -1});
  std::vector<std::array<Pred, 2>> pred(n_nodes);
  std::queue<std::pair<NodeId, int>> frontier;
  dist[from_sw][0] = 0;
  frontier.push({from_sw, 0});
  while (!frontier.empty()) {
    const auto [n, ph] = frontier.front();
    frontier.pop();
    for (const TopoPort& p : topo_.node(n).ports) {
      const LinkId l = p.link;
      if (link_dead_[l] || up_end_[l] == kNoNode) continue;
      if (tree_links_only_ && !on_tree_[l]) continue;
      const NodeId m = topo_.peer(l, n);
      if (topo_.node(m).kind != NodeKind::kSwitch) continue;  // hosts are leaves
      const bool up = is_up_traversal(l, n);
      if (up && ph == 1) continue;  // down->up is illegal
      const int nph = up ? 0 : 1;
      if (dist[m][nph] != -1) continue;
      dist[m][nph] = dist[n][ph] + 1;
      pred[m][nph] = Pred{n, ph, l};
      frontier.push({m, nph});
    }
  }
  int end_phase = -1;
  if (dist[to_sw][0] != -1 &&
      (dist[to_sw][1] == -1 || dist[to_sw][0] <= dist[to_sw][1]))
    end_phase = 0;
  else if (dist[to_sw][1] != -1)
    end_phase = 1;
  if (from_sw == to_sw) end_phase = 0;
  if (end_phase == -1) throw std::logic_error("no legal up/down path");

  PathResult out;
  NodeId n = to_sw;
  int ph = end_phase;
  while (!(n == from_sw && dist[n][ph] == 0)) {
    const Pred& pr = pred[n][ph];
    out.nodes.push_back(n);
    out.links.push_back(pr.link);
    n = pr.node;
    ph = pr.phase;
  }
  out.nodes.push_back(from_sw);
  std::reverse(out.nodes.begin(), out.nodes.end());
  std::reverse(out.links.begin(), out.links.end());
  return out;
}

SourceRoute UpDownRouting::path_to_route(HostId src, const PathResult& path,
                                         NodeId final_dest_node) const {
  (void)src;
  std::vector<PortId> ports;
  ports.reserve(path.links.size() + 1);
  for (std::size_t i = 0; i < path.links.size(); ++i)
    ports.push_back(topo_.port_on(path.links[i], path.nodes[i]));
  // Last switch: exit toward the destination host.
  const NodeId last_sw = path.nodes.back();
  const TopoNode& dest = topo_.node(final_dest_node);
  ports.push_back(topo_.port_on(dest.ports[0].link, last_sw));
  return SourceRoute(std::move(ports));
}

SourceRoute UpDownRouting::route(HostId src, HostId dst) const {
  if (src == dst) throw std::logic_error("route to self");
  const std::uint64_t key = pair_key(src, dst);
  if (const auto it = route_cache_.find(key); it != route_cache_.end())
    return it->second;
  const NodeId from_sw = topo_.switch_of_host(src);
  const NodeId to_sw = topo_.switch_of_host(dst);
  if (levels_[from_sw] == -1 || levels_[to_sw] == -1)
    throw std::logic_error("no legal up/down path");
  const PathResult path = shortest_legal_path(from_sw, to_sw);
  SourceRoute out = path_to_route(src, path, topo_.node_of_host(dst));
  route_cache_.emplace(key, out);
  return out;
}

void UpDownRouting::route_into(HostId src, HostId dst, SourceRoute& out) const {
  if (src == dst) throw std::logic_error("route to self");
  const std::uint64_t key = pair_key(src, dst);
  const auto it = route_cache_.find(key);
  if (it != route_cache_.end()) {
    out = it->second;  // vector copy-assign reuses out's allocation
    return;
  }
  out = route(src, dst);
}

int UpDownRouting::hop_count(HostId src, HostId dst) const {
  if (src == dst) return 0;
  const std::uint64_t key = pair_key(src, dst);
  if (const auto it = hop_cache_.find(key); it != hop_cache_.end())
    return it->second;
  const NodeId from_sw = topo_.switch_of_host(src);
  const NodeId to_sw = topo_.switch_of_host(dst);
  if (levels_[from_sw] == -1 || levels_[to_sw] == -1)
    throw std::logic_error("no legal up/down path");
  const PathResult path = shortest_legal_path(from_sw, to_sw);
  // Host link out, switch-to-switch links, host link in.
  const int hops = static_cast<int>(path.links.size()) + 2;
  hop_cache_.emplace(key, hops);
  return hops;
}

std::vector<PortId> UpDownRouting::down_tree_ports(NodeId sw) const {
  std::vector<PortId> out;
  const TopoNode& node = topo_.node(sw);
  for (std::size_t p = 0; p < node.ports.size(); ++p) {
    const LinkId l = node.ports[p].link;
    if (link_dead_[l]) continue;
    if (on_tree_[l] && up_end_[l] == sw) out.push_back(static_cast<PortId>(p));
  }
  return out;
}

SourceRoute UpDownRouting::route_to_root(HostId src) const {
  const NodeId from_sw = topo_.switch_of_host(src);
  if (from_sw == root_) return SourceRoute{};
  if (levels_[from_sw] == -1)
    throw std::logic_error("no legal up/down path");
  const PathResult path = shortest_legal_path(from_sw, root_);
  std::vector<PortId> ports;
  ports.reserve(path.links.size());
  for (std::size_t i = 0; i < path.links.size(); ++i)
    ports.push_back(topo_.port_on(path.links[i], path.nodes[i]));
  return SourceRoute(std::move(ports));
}

}  // namespace wormcast

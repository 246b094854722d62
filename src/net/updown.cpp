#include "net/updown.h"

#include <algorithm>
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
  root_ = opts.root;
  if (root_ == kNoNode && !level_override_.empty()) {
    for (NodeId n = 0; n < topo_.num_nodes(); ++n) {
      if (topo_.node(n).kind != NodeKind::kSwitch) continue;
      if (root_ == kNoNode ||
          level_override_[static_cast<std::size_t>(n)] <
              level_override_[static_cast<std::size_t>(root_)])
        root_ = n;
    }
  }
  if (root_ == kNoNode) {
    std::size_t best_degree = 0;
    for (NodeId n = 0; n < topo_.num_nodes(); ++n) {
      if (topo_.node(n).kind != NodeKind::kSwitch) continue;
      if (root_ == kNoNode || topo_.node(n).ports.size() > best_degree) {
        root_ = n;
        best_degree = topo_.node(n).ports.size();
      }
    }
  }
  if (root_ == kNoNode || topo_.node(root_).kind != NodeKind::kSwitch)
    throw std::logic_error("up/down routing requires a switch root");
  link_dead_.assign(static_cast<std::size_t>(topo_.num_links()), false);
  sw_index_.assign(static_cast<std::size_t>(topo_.num_nodes()), -1);
  std::int32_t next_index = 0;
  for (NodeId n = 0; n < topo_.num_nodes(); ++n)
    if (topo_.node(n).kind == NodeKind::kSwitch) sw_index_[n] = next_index++;
  rebuild(/*allow_partial=*/false);
}

void UpDownRouting::rebuild(bool allow_partial) {
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

  // Every rebuild (a link failure) invalidates the route table:
  // stale rows would silently route under the old labels.
  rows_.assign(static_cast<std::size_t>(topo_.num_switches()), Row{});
  row_bytes_ = 0;
}

void UpDownRouting::fail_link(LinkId l) {
  if (link_dead_[l]) return;
  link_dead_[l] = true;
  ++links_failed_;
  rebuild(/*allow_partial=*/true);
}

const UpDownRouting::Row& UpDownRouting::row_of(NodeId from_sw) const {
  Row& row = rows_[static_cast<std::size_t>(sw_index_[from_sw])];
  if (!row.end_phase.empty()) return row;
  const std::size_t n_sw = rows_.size();
  const std::size_t bytes = n_sw * (2 * sizeof(std::uint16_t) + 1);
  if (row_bytes_ + bytes > kRowBudgetBytes) {
    for (Row& r : rows_) r = Row{};
    row_bytes_ = 0;
  }
  row_bytes_ += bytes;

  // BFS over (switch, phase): phase 0 = may still go up; phase 1 = has gone
  // down (only down traversals remain legal). Deterministic neighbour order
  // (port index) fixes one path per pair; the search never stops early, so
  // it serves every destination at once.
  std::vector<std::int32_t> dist(2 * n_sw, -1);
  row.pred.assign(2 * n_sw, 0);
  std::vector<std::pair<NodeId, int>> frontier;
  frontier.reserve(2 * n_sw);
  dist[slot(from_sw, 0)] = 0;
  frontier.emplace_back(from_sw, 0);
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const auto [n, ph] = frontier[head];
    const std::int32_t d = dist[slot(n, ph)];
    for (const TopoPort& p : topo_.node(n).ports) {
      const LinkId l = p.link;
      const TopoLink& lk = topo_.link(l);
      const NodeId m = lk.node_a == n ? lk.node_b : lk.node_a;
      if (sw_index_[m] < 0) continue;  // hosts are leaves
      if (link_dead_[l] || up_end_[l] == kNoNode) continue;
      if (tree_links_only_ && !on_tree_[l]) continue;
      const bool up = is_up_traversal(l, n);
      if (up && ph == 1) continue;  // down->up is illegal
      const int nph = up ? 0 : 1;
      const std::size_t next = slot(m, nph);
      if (dist[next] != -1) continue;
      dist[next] = d + 1;
      const PortId in_port = lk.node_a == m ? lk.port_a : lk.port_b;
      row.pred[next] = static_cast<std::uint16_t>(in_port << 1 | ph);
      frontier.emplace_back(m, nph);
    }
  }
  // A route ends in the phase reached first, phase 0 on ties.
  row.end_phase.resize(n_sw);
  for (std::size_t i = 0; i < n_sw; ++i) {
    const std::int32_t d0 = dist[2 * i];
    const std::int32_t d1 = dist[2 * i + 1];
    row.end_phase[i] = d0 != -1 && (d1 == -1 || d0 <= d1) ? 0
                       : d1 != -1                         ? 1
                                                          : kUnreachable;
  }
  return row;
}

int UpDownRouting::walk_back(NodeId from_sw, NodeId to_sw,
                             std::vector<PortId>* out) const {
  if (levels_[from_sw] == -1 || levels_[to_sw] == -1)
    throw std::logic_error("no legal up/down path");
  const Row& row = row_of(from_sw);
  int ph = row.end_phase[static_cast<std::size_t>(sw_index_[to_sw])];
  if (ph == kUnreachable) throw std::logic_error("no legal up/down path");
  int links = 0;
  for (NodeId n = to_sw; n != from_sw || ph != 0; ++links) {
    const std::uint16_t pred = row.pred[slot(n, ph)];
    const TopoLink& lk = topo_.link(topo_.node(n).ports[pred >> 1].link);
    const bool from_a = lk.node_b == n;  // the hop ran node_a -> node_b
    n = from_a ? lk.node_a : lk.node_b;
    ph = pred & 1;
    if (out != nullptr) out->push_back(from_a ? lk.port_a : lk.port_b);
  }
  return links;
}

SourceRoute UpDownRouting::route(HostId src, HostId dst) const {
  SourceRoute out;
  route_into(src, dst, out);
  return out;
}

void UpDownRouting::route_into(HostId src, HostId dst, SourceRoute& out) const {
  if (src == dst) throw std::logic_error("route to self");
  const NodeId to_sw = topo_.switch_of_host(dst);
  std::vector<PortId>& ports = out.mutable_ports();
  ports.clear();
  walk_back(topo_.switch_of_host(src), to_sw, &ports);
  std::reverse(ports.begin(), ports.end());
  // Last switch: exit toward the destination host.
  const TopoNode& dest = topo_.node(topo_.node_of_host(dst));
  ports.push_back(topo_.port_on(dest.ports[0].link, to_sw));
}

int UpDownRouting::hop_count(HostId src, HostId dst) const {
  if (src == dst) return 0;
  // Host link out, switch-to-switch links, host link in.
  return walk_back(topo_.switch_of_host(src), topo_.switch_of_host(dst),
                   nullptr) + 2;
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
  std::vector<PortId> ports;
  walk_back(topo_.switch_of_host(src), root_, &ports);
  std::reverse(ports.begin(), ports.end());
  return SourceRoute(std::move(ports));
}

}  // namespace wormcast

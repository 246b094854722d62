#include "net/topology.h"

#include <queue>
#include <stdexcept>

namespace wormcast {

NodeId Topology::add_switch(std::string name) {
  const auto id = static_cast<NodeId>(nodes_.size());
  TopoNode n;
  n.kind = NodeKind::kSwitch;
  n.name = name.empty() ? "sw" + std::to_string(id) : std::move(name);
  nodes_.push_back(std::move(n));
  return id;
}

NodeId Topology::add_host(std::string name) {
  const auto id = static_cast<NodeId>(nodes_.size());
  const auto host = static_cast<HostId>(host_nodes_.size());
  TopoNode n;
  n.kind = NodeKind::kHost;
  n.host = host;
  n.name = name.empty() ? "h" + std::to_string(host) : std::move(name);
  nodes_.push_back(std::move(n));
  host_nodes_.push_back(id);
  return id;
}

LinkId Topology::connect(NodeId a, NodeId b, Time delay) {
  if (a == b) throw std::logic_error("self-link");
  if (delay < 1) throw std::logic_error("link delay must be >= 1 byte-time");
  const auto id = static_cast<LinkId>(links_.size());
  TopoLink l;
  l.node_a = a;
  l.port_a = static_cast<PortId>(nodes_[a].ports.size());
  l.node_b = b;
  l.port_b = static_cast<PortId>(nodes_[b].ports.size());
  l.delay = delay;
  nodes_[a].ports.push_back(TopoPort{id});
  nodes_[b].ports.push_back(TopoPort{id});
  links_.push_back(l);
  return id;
}

NodeId Topology::switch_of_host(HostId h) const {
  const NodeId hn = node_of_host(h);
  const TopoNode& n = nodes_[hn];
  if (n.ports.size() != 1) throw std::logic_error("host must have one port");
  return peer(n.ports[0].link, hn);
}

NodeId Topology::peer(LinkId l, NodeId from) const {
  const TopoLink& lk = links_[l];
  if (lk.node_a == from) return lk.node_b;
  if (lk.node_b == from) return lk.node_a;
  throw std::logic_error("peer(): node not an endpoint of link");
}

PortId Topology::port_on(LinkId l, NodeId from) const {
  const TopoLink& lk = links_[l];
  if (lk.node_a == from) return lk.port_a;
  if (lk.node_b == from) return lk.port_b;
  throw std::logic_error("port_on(): node not an endpoint of link");
}

NodeId Topology::neighbor_via(NodeId from, PortId port) const {
  return peer(link_at(from, port), from);
}

void Topology::validate() const {
  for (NodeId n = 0; n < num_nodes(); ++n) {
    const TopoNode& node = nodes_[n];
    if (node.kind == NodeKind::kHost) {
      if (node.ports.size() != 1)
        throw std::logic_error("host " + node.name + " must have exactly one port");
      const NodeId sw = peer(node.ports[0].link, n);
      if (nodes_[sw].kind != NodeKind::kSwitch)
        throw std::logic_error("host " + node.name + " must attach to a switch");
    }
    for (std::size_t p = 0; p < node.ports.size(); ++p) {
      const TopoLink& lk = links_[node.ports[p].link];
      const bool ok = (lk.node_a == n && lk.port_a == static_cast<PortId>(p)) ||
                      (lk.node_b == n && lk.port_b == static_cast<PortId>(p));
      if (!ok) throw std::logic_error("inconsistent link/port wiring");
    }
  }
  if (num_nodes() == 0) return;
  // Connectivity.
  std::vector<bool> seen(static_cast<std::size_t>(num_nodes()), false);
  std::queue<NodeId> frontier;
  frontier.push(0);
  seen[0] = true;
  int count = 0;
  while (!frontier.empty()) {
    const NodeId n = frontier.front();
    frontier.pop();
    ++count;
    for (const TopoPort& p : nodes_[n].ports) {
      const NodeId m = peer(p.link, n);
      if (!seen[m]) {
        seen[m] = true;
        frontier.push(m);
      }
    }
  }
  if (count != num_nodes()) throw std::logic_error("topology is disconnected");
}

}  // namespace wormcast

// Static description of a wormhole LAN: switches, hosts, full-duplex links.
#pragma once

#include <cassert>
#include <string>
#include <vector>

#include "sim/types.h"

namespace wormcast {

enum class NodeKind : std::uint8_t { kSwitch, kHost };

/// Default link propagation delay in byte-times. A 25 m Myrinet cable is
/// ~125 ns of flight time, i.e. ~10 byte-times at 640 Mb/s; short machine-
/// room cables are faster. Experiments override this (Figure 11 uses 1000).
inline constexpr Time kDefaultLinkDelay = 5;

/// A node's attachment point. Port numbers index into the node's port list
/// and are what source routes are made of.
struct TopoPort {
  LinkId link = kNoLink;
};

struct TopoNode {
  NodeKind kind = NodeKind::kSwitch;
  HostId host = kNoHost;  // valid iff kind == kHost
  std::string name;
  std::vector<TopoPort> ports;
};

/// A full-duplex link between (node_a, port_a) and (node_b, port_b).
struct TopoLink {
  NodeId node_a = kNoNode;
  PortId port_a = kNoPort;
  NodeId node_b = kNoNode;
  PortId port_b = kNoPort;
  Time delay = kDefaultLinkDelay;
};

/// Immutable-after-construction network graph. Hosts must have exactly one
/// port (they hang off a switch, as in Myrinet); switches may have any
/// number of ports.
class Topology {
 public:
  NodeId add_switch(std::string name = {});
  NodeId add_host(std::string name = {});

  /// Connects two nodes with a full-duplex link; allocates the next free
  /// port on each side. Returns the link id.
  LinkId connect(NodeId a, NodeId b, Time delay = kDefaultLinkDelay);

  [[nodiscard]] int num_nodes() const { return static_cast<int>(nodes_.size()); }
  [[nodiscard]] int num_links() const { return static_cast<int>(links_.size()); }
  [[nodiscard]] int num_hosts() const { return static_cast<int>(host_nodes_.size()); }
  [[nodiscard]] int num_switches() const { return num_nodes() - num_hosts(); }

  [[nodiscard]] const TopoNode& node(NodeId n) const { return nodes_[n]; }
  [[nodiscard]] const TopoLink& link(LinkId l) const { return links_[l]; }

  /// Node hosting the given HostId.
  [[nodiscard]] NodeId node_of_host(HostId h) const { return host_nodes_[h]; }
  /// The switch a host hangs off.
  [[nodiscard]] NodeId switch_of_host(HostId h) const;

  /// The node on the far side of `link` from `from`.
  [[nodiscard]] NodeId peer(LinkId l, NodeId from) const;
  /// The port of `from` that `link` plugs into.
  [[nodiscard]] PortId port_on(LinkId l, NodeId from) const;
  /// The node (and its port) reached by leaving `from` through `port`.
  [[nodiscard]] NodeId neighbor_via(NodeId from, PortId port) const;
  [[nodiscard]] LinkId link_at(NodeId from, PortId port) const {
    return nodes_[from].ports[static_cast<std::size_t>(port)].link;
  }

  /// Checks structural invariants (hosts single-ported and attached to
  /// switches, link endpoints consistent, graph connected). Throws
  /// std::logic_error on violation.
  void validate() const;

 private:
  std::vector<TopoNode> nodes_;
  std::vector<TopoLink> links_;
  std::vector<NodeId> host_nodes_;  // index = HostId
};

}  // namespace wormcast

// Deadlock-free up/down routing (Autonet / Myrinet style, Section 2).
//
// A root switch is chosen and a BFS spanning tree computed. Every link
// (tree link or cross link) is labelled: its "up" end is the endpoint
// closer to the root, with node id breaking ties. A legal route traverses
// zero or more up links followed by zero or more down links; this breaks
// every circular wait and hence prevents fabric deadlock.
//
// Autonet's raison d'être was reconfiguration after component failure:
// fail_link() removes a link permanently and recomputes the spanning tree
// and labels over the surviving links, dropping every route table row so
// the next retransmission uses the healed paths.
//
// Routes come from one table row per *source switch*: a single up/down BFS
// from that switch records the predecessor of every (switch, phase) state,
// and each route walks the row back from its destination. The BFS never
// stops early, so the row is the same whichever destination is asked and
// a route does not depend on which routes were asked before it. Rows fill
// lazily and live only while their total stays under kRowBudgetBytes;
// past it all are dropped and refilled on demand, which changes no route.
#pragma once

#include <cstdint>
#include <vector>

#include "net/source_route.h"
#include "net/topology.h"
#include "sim/types.h"

namespace wormcast {

struct UpDownOptions {
  /// Root switch; kNoNode selects the highest-degree switch (lowest id on
  /// ties), mimicking Autonet's preference for a central root — unless
  /// `level_override` is set, in which case the lowest (level, id) switch
  /// wins (a Clos leaf out-degrees a spine, so the degree heuristic would
  /// root the tree in the wrong stage).
  NodeId root = kNoNode;
  /// Restrict routes to spanning-tree links only (switch-level multicast
  /// scheme 1 requires this of *all* worms; Section 3).
  bool tree_links_only = false;
  /// Stage labels by NodeId (must cover every node, hosts included, when
  /// non-empty): the up end of each link becomes the endpoint with the
  /// smaller label, id breaking ties, instead of the BFS-distance rule.
  /// Any total (level, id) order keeps up*/down* deadlock-free (it is an
  /// acyclic orientation, so no circular wait survives); what the stage
  /// labels buy is *path diversity* on multi-stage fabrics — with BFS
  /// levels only the root spine of a Clos sits above the leaves and every
  /// route funnels through it, while stage labels make every leaf->spine
  /// traversal "up" so any spine can turn a route around. Generators emit
  /// these via their `levels_out` parameter (see net/topologies.h).
  std::vector<int> level_override;
};

class UpDownRouting {
 public:
  using Options = UpDownOptions;

  explicit UpDownRouting(const Topology& topo, Options opts = Options());

  [[nodiscard]] NodeId root() const { return root_; }
  /// BFS distance of a node from the root; -1 if the node was cut off by
  /// permanent link deaths (routing to/from it throws).
  [[nodiscard]] int level(NodeId n) const { return levels_[n]; }
  /// The endpoint of `l` that is "up" (closer to the root / lower id).
  [[nodiscard]] NodeId up_end(LinkId l) const { return up_end_[l]; }
  /// True if `l` belongs to the BFS spanning tree.
  [[nodiscard]] bool on_tree(LinkId l) const { return on_tree_[l]; }
  /// True if traversing `l` out of `from` moves toward the root.
  [[nodiscard]] bool is_up_traversal(LinkId l, NodeId from) const {
    return up_end_[l] != from;
  }

  /// Removes `l` from the topology as seen by this routing instance and
  /// recomputes the spanning tree, labels and (lazily) all routes over the
  /// surviving links. The root is always kept; nodes cut off from it get
  /// level -1, and routing to them throws. Idempotent per link.
  void fail_link(LinkId l);
  [[nodiscard]] bool link_alive(LinkId l) const { return !link_dead_[l]; }
  [[nodiscard]] std::int64_t links_failed() const { return links_failed_; }

  /// Source route (switch output ports) from one host to another. The path
  /// is the shortest legal up/down path, with deterministic tie-breaking,
  /// so exactly one path per pair is ever used (as in the paper's
  /// simulations). Throws if src == dst or no surviving legal path exists.
  [[nodiscard]] SourceRoute route(HostId src, HostId dst) const;

  /// Writes route(src, dst) into `out`'s port vector instead of returning
  /// a fresh one; recycled worms pass their previous route here so the
  /// route reuses the existing allocation.
  void route_into(HostId src, HostId dst, SourceRoute& out) const;

  /// Number of switch-to-switch hops on route(src, dst) plus host links;
  /// the "hop count" metric used to weigh host-connectivity edges
  /// (Section 5, Figure 8).
  [[nodiscard]] int hop_count(HostId src, HostId dst) const;

  /// Port to take at `sw` to reach the root's direction is not meaningful
  /// in general; what broadcast needs is the set of *down* tree links at a
  /// switch. Returns output ports of `sw` that are tree links going down.
  [[nodiscard]] std::vector<PortId> down_tree_ports(NodeId sw) const;

  /// Source route from a host up to the root switch (used by the
  /// root-serialized switch-level schemes).
  [[nodiscard]] SourceRoute route_to_root(HostId src) const;

  /// Byte cap on the route table. A row costs 5 bytes per switch, so the
  /// largest benchmarked fabric, large_fabric's 32x32 torus, keeps all
  /// 1024 of its 5 KiB rows (5 MiB) and never refills one; a 64x64 torus
  /// keeps ~300 of its 20 KiB rows. A row larger than the cap alone is
  /// still built and held.
  static constexpr std::size_t kRowBudgetBytes = std::size_t{6} << 20;
  /// Bytes the route table holds now (never above kRowBudgetBytes unless
  /// one row alone exceeds it).
  [[nodiscard]] std::size_t row_bytes() const { return row_bytes_; }

 private:
  /// One source switch's BFS result, by dense switch index: `pred` holds
  /// `in_port << 1 | previous phase` per (switch, phase) slot, where
  /// in_port is the port of that switch the hop arrived on (PortId is 15
  /// bits, so it fits), and `end_phase` the phase a route to that switch
  /// ends in (kUnreachable if none).
  struct Row {
    std::vector<std::uint16_t> pred;
    std::vector<std::uint8_t> end_phase;
  };
  static constexpr std::uint8_t kUnreachable = 0xFF;

  /// (Re)computes BFS levels, tree membership and up/down labels over
  /// the links still alive. `allow_partial` tolerates disconnected nodes
  /// (post-failure); the constructor passes false so a malformed topology
  /// still fails loudly.
  void rebuild(bool allow_partial);
  /// The row of `from_sw`, filled by one BFS if absent (after dropping
  /// every row when it would push the table past the budget).
  const Row& row_of(NodeId from_sw) const;
  /// Walks the legal path from_sw -> to_sw back from its end and returns
  /// its link count; with `out` given, also appends its output ports,
  /// last hop first. Throws if no legal path survives.
  int walk_back(NodeId from_sw, NodeId to_sw, std::vector<PortId>* out) const;
  /// Index of the (switch, phase) slot in a row's `pred`.
  [[nodiscard]] std::size_t slot(NodeId sw, int phase) const {
    return 2 * static_cast<std::size_t>(sw_index_[sw]) +
           static_cast<std::size_t>(phase);
  }

  const Topology& topo_;
  NodeId root_ = kNoNode;
  bool tree_links_only_ = false;
  std::vector<int> level_override_;  // empty = BFS-distance labels
  std::vector<int> levels_;       // by NodeId
  std::vector<NodeId> up_end_;    // by LinkId
  std::vector<bool> on_tree_;     // by LinkId
  std::vector<bool> link_dead_;   // by LinkId
  std::int64_t links_failed_ = 0;
  std::vector<std::int32_t> sw_index_;  // by NodeId; -1 for hosts
  // Route table by switch index; rebuild() drops every row.
  mutable std::vector<Row> rows_;
  mutable std::size_t row_bytes_ = 0;
};

}  // namespace wormcast

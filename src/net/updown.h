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
// and labels over the surviving links, invalidating the route/hop caches so
// the next retransmission uses the healed paths.
#pragma once

#include <cstdint>
#include <unordered_map>
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
  /// surviving links. The root is kept if still reachable. Nodes cut off
  /// entirely get level -1; routing to them throws. Idempotent per link.
  void fail_link(LinkId l);
  [[nodiscard]] bool link_alive(LinkId l) const { return !link_dead_[l]; }
  [[nodiscard]] std::int64_t links_failed() const { return links_failed_; }

  /// Migrates the root to `new_root` (must be a switch; throws otherwise)
  /// and recomputes the spanning tree, labels and route/hop caches in
  /// place. Routes handed out before the call reflect the old labels;
  /// callers holding plans must re-plan (Network::migrate_root does).
  void set_root(NodeId new_root);

  /// Source route (switch output ports) from one host to another. The path
  /// is the shortest legal up/down path, with deterministic tie-breaking,
  /// so exactly one path per pair is ever used (as in the paper's
  /// simulations). Throws if src == dst or no surviving legal path exists.
  [[nodiscard]] SourceRoute route(HostId src, HostId dst) const;

  /// Copies route(src, dst) into `out` instead of returning a fresh
  /// vector; recycled worms pass their previous route here so the copy
  /// reuses the existing allocation (vector copy-assignment).
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

 private:
  struct PathResult {
    std::vector<NodeId> nodes;  // sw path: switch sequence src_sw..dst_sw
    std::vector<LinkId> links;  // links between consecutive switches
  };
  /// (Re)computes root, BFS levels, tree membership and up/down labels over
  /// the links still alive. `allow_partial` tolerates disconnected nodes
  /// (post-failure); the constructor passes false so a malformed topology
  /// still fails loudly.
  void rebuild(bool allow_partial);
  [[nodiscard]] PathResult shortest_legal_path(NodeId from_sw, NodeId to_sw) const;
  [[nodiscard]] SourceRoute path_to_route(HostId src, const PathResult& path,
                                          NodeId final_dest_node) const;
  [[nodiscard]] static std::uint64_t pair_key(HostId src, HostId dst) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
           static_cast<std::uint32_t>(dst);
  }

  const Topology& topo_;
  NodeId root_ = kNoNode;
  NodeId preferred_root_ = kNoNode;  // survives rebuilds while reachable
  bool tree_links_only_ = false;
  std::vector<int> level_override_;  // empty = BFS-distance labels
  std::vector<int> levels_;       // by NodeId
  std::vector<NodeId> up_end_;    // by LinkId
  std::vector<bool> on_tree_;     // by LinkId
  std::vector<bool> link_dead_;   // by LinkId
  std::int64_t links_failed_ = 0;
  // Per-pair memoization; fail_link() clears both so retransmissions pick
  // up the recomputed paths.
  mutable std::unordered_map<std::uint64_t, SourceRoute> route_cache_;
  mutable std::unordered_map<std::uint64_t, int> hop_cache_;
};

}  // namespace wormcast

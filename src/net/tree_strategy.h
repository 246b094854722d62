// Pluggable multicast tree strategies.
//
// The paper serializes every switch-level multicast through one fixed
// up/down spanning tree rooted at a single switch (Section 3). That is the
// structural bottleneck at scale: the root switch carries a share of every
// worm and the slowest branch paces the whole destination set. A
// TreeStrategy owns the group-structure construction instead — which
// routing a group's worm rides and what the host-level greedy tree pays
// per edge — so alternative builders (load-aware branching avoidance,
// multi-root up/down) plug in per run without touching the engine. Every
// strategy sends a multicast as exactly one worm.
//
// Strategies own their tree-restricted UpDownRouting instances; the Network
// keeps the general routing for host-level unicast (splitting unicast
// across roots would void the single-order deadlock argument). All owned
// routings are mutated in place (set_root / fail_link), never re-created:
// the switch-multicast engine holds a reference to primary_routing() for
// the lifetime of the network.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "net/source_route.h"
#include "net/topology.h"
#include "net/updown.h"
#include "sim/types.h"

namespace wormcast {

enum class TreeStrategyKind : std::uint8_t {
  /// The paper's scheme: one spanning tree, one worm per multicast. Built
  /// as kMultiRoot with one candidate, the general routing's root.
  kSingleRoot,
  /// Builds per-send delivery trees over the *full* up/down graph with
  /// per-switch penalties — observed forwarding load plus a static
  /// low-port-capacity surcharge — steering branch points away from hot or
  /// multicast-poor switches (branching-node avoidance, after the WDM
  /// literature). Pair with the interrupt/flush switch schemes: off-tree
  /// branches void the idle-fill scheme's single-tree deadlock argument.
  kLoadAware,
  /// k candidate roots, each with its own spanning tree; every group is
  /// assigned the root minimizing its members' depth sum, spreading root
  /// serialization across the fabric.
  kMultiRoot,
};

inline constexpr int kNumTreeStrategies = 3;

/// Stable lowercase name ("single-root", "load-aware", "multi-root").
[[nodiscard]] const char* tree_strategy_name(TreeStrategyKind k);
/// Parses a tree_strategy_name (or its underscore variant). Returns false
/// and leaves `out` untouched on an unknown name.
[[nodiscard]] bool parse_tree_strategy(std::string_view name,
                                       TreeStrategyKind* out);

struct TreeStrategyConfig {
  TreeStrategyKind kind = TreeStrategyKind::kSingleRoot;
};

/// A switch-level multicast as one worm: the destinations it covers (the
/// source excluded) and the branch forest leaving the source host's switch
/// that reaches exactly them.
struct McastPlan {
  std::vector<HostId> dests;
  std::vector<McastRouteTree> branches;
};

class TreeStrategy {
 public:
  /// Deterministic per-switch load snapshot (e.g. forwarded bytes).
  using LoadProbe = std::function<std::int64_t(NodeId)>;

  TreeStrategy(const Topology& topo, const UpDownRouting& base_routing)
      : topo_(topo), base_routing_(base_routing) {}
  virtual ~TreeStrategy() = default;
  TreeStrategy(const TreeStrategy&) = delete;
  TreeStrategy& operator=(const TreeStrategy&) = delete;

  [[nodiscard]] virtual TreeStrategyKind kind() const = 0;
  [[nodiscard]] const char* name() const { return tree_strategy_name(kind()); }

  /// The routing whose spanning tree carries switch-level *broadcasts*
  /// (climb to root, flood the down-tree links) and the default for
  /// unassigned groups. Mutated in place, never replaced — the multicast
  /// engine references it for the network's lifetime.
  [[nodiscard]] virtual const UpDownRouting& primary_routing() const = 0;

  /// The routing group `g`'s switch-level worms are planned against (and
  /// the one their paths are legal under). primary_routing() for unknown
  /// groups.
  [[nodiscard]] virtual const UpDownRouting& group_routing(GroupId g) const = 0;

  /// Registers or re-plans a group against its current member list. Called
  /// at construction for every group and again after membership changes
  /// (join/leave/repair), invalidating any cached per-group plans.
  virtual void plan_group(GroupId g, const std::vector<HostId>& members) = 0;

  /// Plans one switch-level multicast from `src` to `dests` (the source is
  /// skipped if present). Throws std::invalid_argument when no destination
  /// remains.
  [[nodiscard]] virtual McastPlan plan_multicast(
      GroupId g, HostId src, const std::vector<HostId>& dests) const = 0;

  /// Edge cost the host-level greedy tree construction (GroupTables) pays
  /// for attaching `child` under `parent` in group `g`. The default is the
  /// general routing's unicast hop count — exactly the pre-strategy rule.
  [[nodiscard]] virtual int attach_cost(GroupId g, HostId parent,
                                        HostId child) const;

  /// A link died permanently: recompute every owned routing and drop
  /// cached plans. The Network forwards its fail_link here after the
  /// general routing has recomputed.
  virtual void fail_link(LinkId l) = 0;

  /// The up/down root migrated to `new_root` on the general routing:
  /// follow it on the owned primary routing and drop cached plans.
  virtual void on_root_migrated(NodeId new_root) = 0;

  /// Installs the observed-load snapshot source (used by kLoadAware).
  virtual void set_load_probe(LoadProbe probe) { (void)std::move(probe); }

  /// Re-plans trees against the current load snapshot. Returns true when
  /// any penalty (and hence any future plan) changed. Default: nothing to
  /// re-plan.
  virtual bool replan() { return false; }

  // Counters (serialized by Network::register_counters).
  [[nodiscard]] std::int64_t worms_planned() const { return worms_planned_; }
  [[nodiscard]] std::int64_t replans() const { return replans_; }

 protected:
  const Topology& topo_;
  /// The network-wide general up/down routing (host-level unicast paths);
  /// also the default attach-cost metric.
  const UpDownRouting& base_routing_;
  mutable std::int64_t worms_planned_ = 0;
  std::int64_t replans_ = 0;
};

/// Builds the configured strategy. `base_routing` must outlive the
/// strategy; `base_opts` seeds the owned tree-restricted routings (their
/// root defaults to base_routing.root()).
std::unique_ptr<TreeStrategy> make_tree_strategy(
    const TreeStrategyConfig& config, const Topology& topo,
    const UpDownRouting& base_routing, const UpDownOptions& base_opts);

}  // namespace wormcast

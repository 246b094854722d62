// Pluggable switch-level multicast planners.
//
// The paper serializes every switch-level multicast through one fixed
// up/down spanning tree rooted at a single switch (Section 3). That is the
// structural bottleneck at scale: the root switch carries a share of every
// worm and the slowest branch paces the whole destination set. A
// TreeStrategy plans those worms instead — which branch forest a switch
// multicast rides — so an alternative planner (load-aware branching
// avoidance) plugs in per run without touching the engine. Every strategy
// sends a multicast as exactly one worm. Strategies plan switch
// multicasts only: the host-level circuits and trees (GroupTables) keep
// the paper's unicast hop-count rule whatever strategy runs.
//
// The base class owns the one tree-restricted UpDownRouting, rooted at the
// general routing's root; the Network keeps the general routing for
// host-level unicast. The tree routing is mutated in place (fail_link),
// never re-created: the switch-multicast engine holds a reference to
// primary_routing() for the lifetime of the network.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "net/source_route.h"
#include "net/topology.h"
#include "net/updown.h"
#include "sim/types.h"

namespace wormcast {

enum class TreeStrategyKind : std::uint8_t {
  /// The paper's scheme: one spanning tree at the general routing's root,
  /// one worm per multicast.
  kSingleRoot,
  /// Builds per-send delivery trees over the *full* up/down graph with
  /// per-switch penalties — observed forwarding load plus a static
  /// low-port-capacity surcharge — steering branch points away from hot or
  /// multicast-poor switches (branching-node avoidance, after the WDM
  /// literature). Pair with the interrupt/flush switch schemes: off-tree
  /// branches void the idle-fill scheme's single-tree deadlock argument.
  kLoadAware,
};

inline constexpr int kNumTreeStrategies = 2;

/// Stable lowercase name ("single-root", "load-aware").
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
  /// `base_opts` seeds the owned tree routing, pinned to
  /// base_routing.root() and restricted to the spanning tree.
  TreeStrategy(const Topology& topo, const UpDownRouting& base_routing,
               const UpDownOptions& base_opts);
  virtual ~TreeStrategy() = default;
  TreeStrategy(const TreeStrategy&) = delete;
  TreeStrategy& operator=(const TreeStrategy&) = delete;

  [[nodiscard]] virtual TreeStrategyKind kind() const = 0;
  [[nodiscard]] const char* name() const { return tree_strategy_name(kind()); }

  /// The tree-restricted routing whose spanning tree carries switch-level
  /// *broadcasts* (climb to root, flood the down-tree links). Mutated in
  /// place, never replaced — the multicast engine references it for the
  /// network's lifetime.
  [[nodiscard]] const UpDownRouting& primary_routing() const { return tree_; }

  /// Plans one switch-level multicast from `src` to `dests` (the source is
  /// skipped if present). Plans depend only on their arguments and the
  /// strategy's routing and penalty state, so a membership change needs no
  /// notice: the next call passes the new member list. Throws
  /// std::invalid_argument when no destination remains.
  [[nodiscard]] virtual McastPlan plan_multicast(
      GroupId g, HostId src, const std::vector<HostId>& dests) const = 0;

  /// A link died permanently: recompute the tree routing (overrides also
  /// drop cached plans). The Network forwards its fail_link here after the
  /// general routing has recomputed.
  virtual void fail_link(LinkId l) { tree_.fail_link(l); }

  /// Re-plans against an observed-load snapshot (`load[n]` for every
  /// NodeId n, e.g. forwarded bytes; kLoadAware reads the switches').
  /// Returns true when any penalty (and hence any future plan) changed.
  /// Default: nothing to re-plan.
  virtual bool replan(const std::vector<std::int64_t>& /*load*/) {
    return false;
  }

  // Counters (serialized by Network::register_counters).
  [[nodiscard]] std::int64_t worms_planned() const { return worms_planned_; }
  [[nodiscard]] std::int64_t replans() const { return replans_; }

 protected:
  const Topology& topo_;
  /// The network-wide general up/down routing (host-level unicast paths).
  const UpDownRouting& base_routing_;
  /// The spanning-tree-only routing at base_routing_'s root.
  UpDownRouting tree_;
  mutable std::int64_t worms_planned_ = 0;
  std::int64_t replans_ = 0;
};

/// Builds the configured strategy. `base_routing` must outlive the
/// strategy; `base_opts` seeds its owned tree routing.
std::unique_ptr<TreeStrategy> make_tree_strategy(
    const TreeStrategyConfig& config, const Topology& topo,
    const UpDownRouting& base_routing, const UpDownOptions& base_opts);

}  // namespace wormcast

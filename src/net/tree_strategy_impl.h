// Concrete TreeStrategy implementations (internal header: the factory in
// tree_strategy.cpp is the public entry point; tests may include this to
// poke strategy internals).
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "net/tree_strategy.h"

namespace wormcast::detail {

/// kMultiRoot: candidate root count (clamped to the switch count). The
/// general routing's root is always candidate 0.
inline constexpr int kCandidateRoots = 4;
/// kLoadAware: detour penalty (in hops) charged for routing through the
/// hottest switch; cooler switches scale down linearly.
inline constexpr int kLoadPenaltyHops = 4;
/// kLoadAware: extra hops charged per port a switch falls short of the
/// fabric's maximum switch degree (static "multicast port capacity").
inline constexpr int kCapacityPenaltyHops = 1;

/// Options for a strategy-owned routing: the experiment's routing options
/// pinned to the general routing's root and (by default) restricted to the
/// spanning tree, exactly like the pre-strategy tree_routing_.
[[nodiscard]] inline UpDownOptions owned_tree_opts(const UpDownRouting& base,
                                                   const UpDownOptions& base_opts,
                                                   bool tree_links_only = true) {
  UpDownOptions opts = base_opts;
  opts.root = base.root();
  opts.tree_links_only = tree_links_only;
  return opts;
}

/// Per-send delivery trees over the full up/down graph with per-switch
/// penalties (observed load + static capacity), steering branch points away
/// from hot or multicast-poor switches.
class LoadAwareStrategy : public TreeStrategy {
 public:
  LoadAwareStrategy(const Topology& topo, const UpDownRouting& base,
                    const UpDownOptions& base_opts);

  [[nodiscard]] TreeStrategyKind kind() const override {
    return TreeStrategyKind::kLoadAware;
  }
  [[nodiscard]] const UpDownRouting& primary_routing() const override {
    return *tree_;
  }
  /// Worm paths are planned on the full up/down graph, so their legality
  /// reference is the *general* routing, not the tree-restricted one.
  [[nodiscard]] const UpDownRouting& group_routing(GroupId) const override {
    return base_routing_;
  }
  void plan_group(GroupId g, const std::vector<HostId>& members) override;
  [[nodiscard]] McastPlan plan_multicast(
      GroupId g, HostId src, const std::vector<HostId>& dests) const override;
  [[nodiscard]] int attach_cost(GroupId g, HostId parent,
                                HostId child) const override;
  void fail_link(LinkId l) override;
  void on_root_migrated(NodeId new_root) override;
  void set_load_probe(LoadProbe probe) override { probe_ = std::move(probe); }
  bool replan() override;

  /// Current detour penalty (hops) charged for routing through `sw`.
  [[nodiscard]] std::int64_t penalty(NodeId sw) const {
    return penalty_[static_cast<std::size_t>(sw)];
  }

 private:
  /// Penalized shortest legal up/down port paths from `src` to each dest.
  [[nodiscard]] std::vector<std::pair<HostId, std::vector<PortId>>>
  penalized_paths(HostId src, GroupId g,
                  const std::vector<HostId>& dests) const;
  void recompute_static_penalties();

  std::unique_ptr<UpDownRouting> tree_;  // broadcast flood + root anchor
  LoadProbe probe_;
  std::vector<std::int64_t> penalty_;  // by switch NodeId (hosts stay 0)
  mutable std::unordered_map<std::uint64_t, McastPlan> plan_cache_;
};

/// k spanning trees; each group rides the root minimizing its members'
/// depth sum. With one candidate this is the paper's single-root scheme:
/// one tree-restricted routing at the general routing's root.
class MultiRootStrategy : public TreeStrategy {
 public:
  /// `candidates` is clamped to [1, switch count]; `kind` is what the
  /// strategy reports, whatever the clamped count.
  MultiRootStrategy(const Topology& topo, const UpDownRouting& base,
                    const UpDownOptions& base_opts, TreeStrategyKind kind,
                    int candidates);

  [[nodiscard]] TreeStrategyKind kind() const override { return kind_; }
  [[nodiscard]] const UpDownRouting& primary_routing() const override {
    return *routings_.front();
  }
  [[nodiscard]] const UpDownRouting& group_routing(GroupId g) const override;
  void plan_group(GroupId g, const std::vector<HostId>& members) override;
  [[nodiscard]] McastPlan plan_multicast(
      GroupId g, HostId src, const std::vector<HostId>& dests) const override;
  void fail_link(LinkId l) override;
  void on_root_migrated(NodeId new_root) override;

  [[nodiscard]] const std::vector<NodeId>& candidate_roots() const {
    return roots_;
  }
  /// The candidate index group `g` is assigned to (0 when unknown).
  [[nodiscard]] std::size_t assignment(GroupId g) const;

 private:
  /// Depth-sum-minimizing candidate for `members` (index into routings_).
  [[nodiscard]] std::size_t best_root(const std::vector<HostId>& members) const;

  TreeStrategyKind kind_;
  std::vector<NodeId> roots_;
  std::vector<std::unique_ptr<UpDownRouting>> routings_;
  std::unordered_map<GroupId, std::size_t> assignment_;
  std::unordered_map<GroupId, std::vector<HostId>> members_;
};

}  // namespace wormcast::detail

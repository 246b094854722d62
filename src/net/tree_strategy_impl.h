// Concrete TreeStrategy implementations (internal header: the factory in
// tree_strategy.cpp is the public entry point; tests may include this to
// poke strategy internals).
#pragma once

#include <unordered_map>
#include <utility>
#include <vector>

#include "net/tree_strategy.h"

namespace wormcast::detail {

/// kLoadAware: detour penalty (in hops) charged for routing through the
/// hottest switch; cooler switches scale down linearly.
inline constexpr int kLoadPenaltyHops = 4;
/// kLoadAware: extra hops charged per port a switch falls short of the
/// fabric's maximum switch degree (static "multicast port capacity").
inline constexpr int kCapacityPenaltyHops = 1;

/// The paper's scheme: every multicast rides the one spanning tree.
class SingleRootStrategy : public TreeStrategy {
 public:
  using TreeStrategy::TreeStrategy;

  [[nodiscard]] TreeStrategyKind kind() const override {
    return TreeStrategyKind::kSingleRoot;
  }
  [[nodiscard]] McastPlan plan_multicast(
      GroupId g, HostId src, const std::vector<HostId>& dests) const override;
};

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
  [[nodiscard]] McastPlan plan_multicast(
      GroupId g, HostId src, const std::vector<HostId>& dests) const override;
  void fail_link(LinkId l) override;
  /// Penalty = static capacity term + kLoadPenaltyHops scaled by each
  /// switch's share of the hottest switch's load (rounded half up).
  bool replan(const std::vector<std::int64_t>& load) override;

  /// Current detour penalty (hops) charged for routing through `sw`.
  [[nodiscard]] std::int64_t penalty(NodeId sw) const {
    return penalty_[static_cast<std::size_t>(sw)];
  }

 private:
  /// Penalized shortest legal up/down port paths from `src` to each dest.
  [[nodiscard]] std::vector<std::pair<HostId, std::vector<PortId>>>
  penalized_paths(HostId src, const std::vector<HostId>& dests) const;

  std::vector<std::int64_t> penalty_;  // by switch NodeId (hosts stay 0)
  /// By (group, source). A hit must cover exactly the asked destinations,
  /// so a membership change re-plans on its next send.
  mutable std::unordered_map<std::uint64_t, McastPlan> plan_cache_;
};

}  // namespace wormcast::detail

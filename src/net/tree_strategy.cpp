#include "net/tree_strategy.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "net/mcast_route_builder.h"
#include "net/tree_strategy_impl.h"

namespace wormcast {

const char* tree_strategy_name(TreeStrategyKind k) {
  switch (k) {
    case TreeStrategyKind::kSingleRoot: return "single-root";
    case TreeStrategyKind::kLoadAware: return "load-aware";
  }
  return "?";
}

bool parse_tree_strategy(std::string_view name, TreeStrategyKind* out) {
  std::string canon(name);
  std::replace(canon.begin(), canon.end(), '_', '-');
  for (int k = 0; k < kNumTreeStrategies; ++k) {
    const auto kind = static_cast<TreeStrategyKind>(k);
    if (canon == tree_strategy_name(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

TreeStrategy::TreeStrategy(const Topology& topo,
                           const UpDownRouting& base_routing,
                           const UpDownOptions& base_opts)
    : topo_(topo),
      base_routing_(base_routing),
      tree_(topo, [&] {
        UpDownOptions opts = base_opts;
        opts.root = base_routing.root();
        opts.tree_links_only = true;
        return opts;
      }()) {}

namespace detail {

McastPlan SingleRootStrategy::plan_multicast(
    GroupId g, HostId src, const std::vector<HostId>& dests) const {
  (void)g;
  McastPlan plan;
  for (const HostId d : dests)
    if (d != src) plan.dests.push_back(d);
  plan.branches = build_mcast_branches(tree_, src, dests);
  ++worms_planned_;
  return plan;
}

}  // namespace detail

std::unique_ptr<TreeStrategy> make_tree_strategy(
    const TreeStrategyConfig& config, const Topology& topo,
    const UpDownRouting& base_routing, const UpDownOptions& base_opts) {
  switch (config.kind) {
    case TreeStrategyKind::kSingleRoot:
      return std::make_unique<detail::SingleRootStrategy>(topo, base_routing,
                                                          base_opts);
    case TreeStrategyKind::kLoadAware:
      return std::make_unique<detail::LoadAwareStrategy>(topo, base_routing,
                                                         base_opts);
  }
  throw std::invalid_argument("unknown tree strategy kind");
}

}  // namespace wormcast

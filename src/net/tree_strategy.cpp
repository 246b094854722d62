#include "net/tree_strategy.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "net/tree_strategy_impl.h"

namespace wormcast {

const char* tree_strategy_name(TreeStrategyKind k) {
  switch (k) {
    case TreeStrategyKind::kSingleRoot: return "single-root";
    case TreeStrategyKind::kLoadAware: return "load-aware";
    case TreeStrategyKind::kMultiRoot: return "multi-root";
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

int TreeStrategy::attach_cost(GroupId g, HostId parent, HostId child) const {
  (void)g;
  return base_routing_.hop_count(parent, child);
}

std::unique_ptr<TreeStrategy> make_tree_strategy(
    const TreeStrategyConfig& config, const Topology& topo,
    const UpDownRouting& base_routing, const UpDownOptions& base_opts) {
  switch (config.kind) {
    case TreeStrategyKind::kSingleRoot:
      return std::make_unique<detail::MultiRootStrategy>(
          topo, base_routing, base_opts, config.kind, 1);
    case TreeStrategyKind::kLoadAware:
      return std::make_unique<detail::LoadAwareStrategy>(topo, base_routing,
                                                         base_opts);
    case TreeStrategyKind::kMultiRoot:
      return std::make_unique<detail::MultiRootStrategy>(
          topo, base_routing, base_opts, config.kind, detail::kCandidateRoots);
  }
  throw std::invalid_argument("unknown tree strategy kind");
}

}  // namespace wormcast

// Pluggable tree strategies: plan invariants every strategy must satisfy
// (destination cover, branch-walk destination sets, up/down legality,
// cache invalidation on link death), strategy-specific structure, and the
// network's multicast admission gate — overlapping trees serialize FIFO,
// node-disjoint trees dispatch concurrently, and the scheme (b) burst that
// used to deadlock without the gate drains to zero outstanding.
#include "net/tree_strategy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "core/network.h"
#include "net/topologies.h"
#include "net/tree_strategy_impl.h"
#include "sim/random.h"

namespace wormcast {
namespace {

/// Builds fabric `which`; the folded Clos also fills `opts` with its stage
/// labels, routed the way bench/large_fabric routes its Clos.
Topology make_topo(int which, UpDownOptions* opts) {
  RandomStream rng(4242);
  switch (which) {
    case 0: return make_torus(4, 4);
    case 1: return make_bidir_shufflenet(2, 3);
    case 2: return make_random_mesh(12, 3.0, rng);
    default:
      return make_clos(2, 4, 3, kDefaultLinkDelay, kDefaultLinkDelay,
                       &opts->level_override);
  }
}

TreeStrategyConfig make_cfg(TreeStrategyKind kind) {
  TreeStrategyConfig cfg;
  cfg.kind = kind;
  return cfg;
}

/// Walks one branch tree from `at`, collecting every node it touches and
/// every destination host it terminates at, and checking the up/down rule
/// (never up after down) along each root-to-leaf path under `r`.
void walk_branch(const Topology& t, const UpDownRouting& r, NodeId at,
                 const McastRouteTree& tree, bool gone_down,
                 std::set<NodeId>* nodes, std::multiset<HostId>* hosts) {
  const LinkId l = t.link_at(at, tree.port);
  const NodeId next = t.neighbor_via(at, tree.port);
  nodes->insert(next);
  if (t.node(next).kind == NodeKind::kHost) {
    EXPECT_TRUE(tree.children.empty()) << "host leaf with children";
    hosts->insert(t.node(next).host);
    return;
  }
  const bool up = r.is_up_traversal(l, at);
  EXPECT_FALSE(up && gone_down) << "up traversal after down in branch";
  for (const McastRouteTree& child : tree.children)
    walk_branch(t, r, next, child, gone_down || !up, nodes, hosts);
}

/// Parameters: (fabric index for make_topo, TreeStrategyKind).
class TreeStrategyPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TreeStrategyPropertyTest, PlansCoverLegallyAndDisjointly) {
  const auto kind = static_cast<TreeStrategyKind>(std::get<1>(GetParam()));
  UpDownOptions opts;
  const Topology topo = make_topo(std::get<0>(GetParam()), &opts);
  const UpDownRouting base(topo, opts);
  const auto strategy = make_tree_strategy(make_cfg(kind), topo, base, opts);

  // Every 2nd host is a member; plan from three different sources.
  std::vector<HostId> members;
  for (HostId h = 0; h < topo.num_hosts(); h += 2) members.push_back(h);
  const GroupId g = 0;
  strategy->plan_group(g, members);

  for (const HostId src : {members[0], members[1], members.back()}) {
    const McastPlan plan = strategy->plan_multicast(g, src, members);
    const UpDownRouting& r = strategy->group_routing(g);
    std::set<NodeId> nodes;
    std::multiset<HostId> reached;
    for (const McastRouteTree& br : plan.branches)
      walk_branch(topo, r, topo.switch_of_host(src), br, false, &nodes,
                  &reached);
    // The branches terminate at exactly the stated dests, each once, and
    // those are members \ {src}.
    const std::multiset<HostId> stated(plan.dests.begin(), plan.dests.end());
    EXPECT_EQ(reached, stated);
    std::multiset<HostId> want;
    for (const HostId h : members)
      if (h != src) want.insert(h);
    EXPECT_EQ(reached, want) << "strategy " << strategy->name();
  }
}

TEST_P(TreeStrategyPropertyTest, LinkDeathInvalidatesCachedPlans) {
  const auto kind = static_cast<TreeStrategyKind>(std::get<1>(GetParam()));
  UpDownOptions opts;
  const Topology topo = make_topo(std::get<0>(GetParam()), &opts);
  UpDownRouting base(topo, opts);
  const auto strategy = make_tree_strategy(make_cfg(kind), topo, base, opts);

  std::vector<HostId> members;
  for (HostId h = 0; h < topo.num_hosts(); h += 3) members.push_back(h);
  const GroupId g = 0;
  strategy->plan_group(g, members);
  const HostId src = members[0];
  const McastPlan before = strategy->plan_multicast(g, src, members);

  // Fail a switch-to-switch link the old plan used (if it only used host
  // links the topology is a star and there is nothing to invalidate).
  LinkId victim = kNoLink;
  std::set<NodeId> nodes;
  std::multiset<HostId> hosts;
  for (const McastRouteTree& br : before.branches)
    walk_branch(topo, strategy->group_routing(g), topo.switch_of_host(src), br,
                false, &nodes, &hosts);
  for (LinkId l = 0; l < topo.num_links() && victim == kNoLink; ++l) {
    const TopoLink& tl = topo.link(l);
    if (topo.node(tl.node_a).kind != NodeKind::kSwitch ||
        topo.node(tl.node_b).kind != NodeKind::kSwitch)
      continue;
    if (nodes.count(tl.node_a) > 0 && nodes.count(tl.node_b) > 0)
      victim = l;
  }
  if (victim == kNoLink) GTEST_SKIP() << "plan uses no switch-switch link";

  base.fail_link(victim);
  strategy->fail_link(victim);
  strategy->plan_group(g, members);  // as Network does after repair
  const McastPlan after = strategy->plan_multicast(g, src, members);

  // The new plan is complete, legal, and never crosses the dead link.
  std::set<NodeId> n2;
  std::multiset<HostId> reached;
  for (const McastRouteTree& br : after.branches)
    walk_branch(topo, strategy->group_routing(g), topo.switch_of_host(src), br,
                false, &n2, &reached);
  std::function<void(NodeId, const McastRouteTree&)> no_dead =
      [&](NodeId at, const McastRouteTree& tr) {
        EXPECT_NE(topo.link_at(at, tr.port), victim) << "plan uses dead link";
        const NodeId next = topo.neighbor_via(at, tr.port);
        for (const McastRouteTree& c : tr.children) no_dead(next, c);
      };
  for (const McastRouteTree& br : after.branches)
    no_dead(topo.switch_of_host(src), br);
  std::multiset<HostId> want;
  for (const HostId h : members)
    if (h != src) want.insert(h);
  EXPECT_EQ(reached, want);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategiesAllTopologies, TreeStrategyPropertyTest,
    ::testing::Combine(::testing::Range(0, 4),
                       ::testing::Range(0, kNumTreeStrategies)));

TEST(TreeStrategyStructure, SingleRootEmitsOneOnTreeWorm) {
  const Topology topo = make_torus(4, 4);
  const UpDownRouting base(topo);
  const auto s = make_tree_strategy(make_cfg(TreeStrategyKind::kSingleRoot),
                                    topo, base, UpDownOptions());
  const std::vector<HostId> members{0, 3, 7, 11, 14};
  const McastPlan plan = s->plan_multicast(0, 0, members);
  EXPECT_EQ(plan.dests, (std::vector<HostId>{3, 7, 11, 14}));
  // Single-root is multi-root with one candidate: the base root.
  const auto* sr = dynamic_cast<const detail::MultiRootStrategy*>(s.get());
  ASSERT_NE(sr, nullptr);
  EXPECT_EQ(sr->candidate_roots(), std::vector<NodeId>{base.root()});
  EXPECT_EQ(sr->assignment(0), 0u);
  EXPECT_EQ(s->kind(), TreeStrategyKind::kSingleRoot);
  // Every traversed link lies on the strategy routing's spanning tree.
  const UpDownRouting& r = s->group_routing(0);
  std::function<void(NodeId, const McastRouteTree&)> on_tree =
      [&](NodeId at, const McastRouteTree& tr) {
        EXPECT_TRUE(r.on_tree(topo.link_at(at, tr.port)));
        const NodeId next = topo.neighbor_via(at, tr.port);
        for (const McastRouteTree& c : tr.children) on_tree(next, c);
      };
  for (const McastRouteTree& br : plan.branches)
    on_tree(topo.switch_of_host(0), br);
}

TEST(TreeStrategyStructure, MultiRootAssignsDepthMinimizingCandidate) {
  const Topology topo = make_torus(4, 4);
  const UpDownRouting base(topo);
  TreeStrategyConfig cfg = make_cfg(TreeStrategyKind::kMultiRoot);
  const auto s = make_tree_strategy(cfg, topo, base, UpDownOptions());
  auto* mr = dynamic_cast<detail::MultiRootStrategy*>(s.get());
  ASSERT_NE(mr, nullptr);
  ASSERT_EQ(mr->candidate_roots().size(),
            static_cast<std::size_t>(detail::kCandidateRoots));
  // Candidate 0 is the base root, shared with every single-root strategy.
  EXPECT_EQ(mr->candidate_roots()[0], base.root());
  const std::vector<HostId> members{1, 2, 5, 6};
  mr->plan_group(7, members);
  const std::size_t pick = mr->assignment(7);
  EXPECT_EQ(mr->group_routing(7).root(), mr->candidate_roots()[pick]);
  // Unknown groups ride candidate 0.
  EXPECT_EQ(mr->assignment(99), 0u);
}

TEST(TreeStrategyStructure, KindComesFromConfigNotRootCount) {
  // A one-switch fabric clamps multi-root to one candidate; it still
  // reports the strategy it was configured as.
  const Topology topo = make_star(4);
  const UpDownRouting base(topo);
  const auto s = make_tree_strategy(make_cfg(TreeStrategyKind::kMultiRoot),
                                    topo, base, UpDownOptions());
  const auto* mr = dynamic_cast<const detail::MultiRootStrategy*>(s.get());
  ASSERT_NE(mr, nullptr);
  EXPECT_EQ(mr->candidate_roots().size(), 1u);
  EXPECT_EQ(s->kind(), TreeStrategyKind::kMultiRoot);
  EXPECT_STREQ(s->name(), "multi-root");
}

ExperimentConfig gate_cfg(TreeStrategyKind kind) {
  ExperimentConfig cfg;
  cfg.switch_mcast.scheme = SwitchMcastScheme::kInterrupt;
  cfg.tree.kind = kind;
  return cfg;
}

TEST(McastAdmissionGate, DisjointTreesDispatchConcurrently) {
  // Line of 4 switches, root = sw1: the {h0,h1} tree and the {h2,h3} tree
  // share no node, so both dispatch immediately; a {h1,h2} multicast
  // overlaps both and must queue until they close.
  std::vector<MulticastGroupSpec> groups(3);
  groups[0].id = 0, groups[0].members = {0, 1};
  groups[1].id = 1, groups[1].members = {2, 3};
  groups[2].id = 2, groups[2].members = {1, 2};
  Network net(make_line(4), groups, gate_cfg(TreeStrategyKind::kSingleRoot));
  auto a = net.send_switch_multicast(0, 0, 500);
  auto b = net.send_switch_multicast(2, 1, 500);
  EXPECT_EQ(net.mcast_gate_depth(), 0u) << "disjoint trees must not queue";
  auto c = net.send_switch_multicast(1, 2, 500);
  EXPECT_EQ(net.mcast_gate_depth(), 1u) << "overlapping tree must queue";
  net.run_to_quiescence();
  EXPECT_EQ(net.mcast_gate_depth(), 0u);
  EXPECT_EQ(a->destinations_reached, 1);
  EXPECT_EQ(b->destinations_reached, 1);
  EXPECT_EQ(c->destinations_reached, 1);
  EXPECT_EQ(net.metrics().outstanding(), 0);
}

TEST(McastAdmissionGate, OverlappingSendsSerializeAndAllComplete) {
  // Same group from three members: every tree contains the root, so the
  // gate degenerates to the paper's full scheme (b) serialization.
  MulticastGroupSpec group;
  group.id = 0;
  group.members = {0, 3, 5, 8};
  Network net(make_torus(3, 3), {group}, gate_cfg(TreeStrategyKind::kSingleRoot));
  auto a = net.send_switch_multicast(0, 0, 400);
  auto b = net.send_switch_multicast(3, 0, 400);
  auto c = net.send_switch_multicast(5, 0, 400);
  EXPECT_EQ(net.mcast_gate_depth(), 2u);
  net.run_to_quiescence();
  for (const auto& ctx : {a, b, c}) EXPECT_EQ(ctx->destinations_reached, 3);
  EXPECT_EQ(net.metrics().outstanding(), 0);
  EXPECT_EQ(net.mcast_gate_depth(), 0u);
}

TEST(McastAdmissionGate, EachDispatchPlansItsTreeOnce) {
  // The tree the gate claims is the tree that is sent: a multicast that
  // never queues is planned exactly once, for its footprint and its worm.
  MulticastGroupSpec group;
  group.id = 0;
  group.members = {0, 3, 5, 8};
  Network net(make_torus(3, 3), {group},
              gate_cfg(TreeStrategyKind::kSingleRoot));
  for (const HostId src : group.members) {
    net.send_switch_multicast(src, 0, 400);
    EXPECT_EQ(net.mcast_gate_depth(), 0u) << "the previous send has closed";
    net.run_to_quiescence();
  }
  EXPECT_EQ(net.tree_strategy().worms_planned(),
            static_cast<std::int64_t>(group.members.size()));
  EXPECT_EQ(net.metrics().outstanding(), 0);
}

class GateStrategyTest : public ::testing::TestWithParam<int> {};

TEST_P(GateStrategyTest, ConcurrentBurstDrainsUnderInterruptScheme) {
  // Regression for the scheme (b) port-claim/backpressure deadlock: a
  // burst of overlapping multicasts from many sources used to wedge in
  // claim_pending <-> tx_stopped cycles before the admission gate.
  const auto kind = static_cast<TreeStrategyKind>(GetParam());
  std::vector<MulticastGroupSpec> groups(4);
  for (int g = 0; g < 4; ++g) {
    groups[static_cast<std::size_t>(g)].id = g;
    for (int k = 0; k < 8; ++k)
      groups[static_cast<std::size_t>(g)].members.push_back(
          static_cast<HostId>((g * 3 + k * 2) % 16));
  }
  Network net(make_torus(4, 4), groups, gate_cfg(kind));
  std::vector<std::shared_ptr<MessageContext>> ctxs;
  for (int g = 0; g < 4; ++g)
    for (int s = 0; s < 3; ++s)
      ctxs.push_back(net.send_switch_multicast(
          groups[static_cast<std::size_t>(g)].members[static_cast<std::size_t>(s)],
          g, 600));
  net.run_to_quiescence();
  EXPECT_EQ(net.metrics().outstanding(), 0);
  EXPECT_EQ(net.mcast_gate_depth(), 0u);
  for (const auto& ctx : ctxs)
    EXPECT_EQ(ctx->destinations_reached, ctx->destinations_total);
}

TEST_P(GateStrategyTest, SurvivesMemberDeathAndRootMigration) {
  const auto kind = static_cast<TreeStrategyKind>(GetParam());
  MulticastGroupSpec group;
  group.id = 0;
  group.members = {0, 2, 5, 7, 10, 13};
  Network net(make_torus(4, 4), {group}, gate_cfg(kind));
  auto first = net.send_switch_multicast(0, 0, 300);
  net.run_to_quiescence();
  EXPECT_EQ(first->destinations_reached, 5);

  net.declare_host_dead(7);
  auto second = net.send_switch_multicast(2, 0, 300);
  net.run_to_quiescence();
  EXPECT_EQ(second->destinations_reached, 4) << "dead member still targeted";

  // Migrate the root and multicast again: strategies must follow the new
  // orientation without stale cached plans.
  const NodeId new_root = net.topology().switch_of_host(13);
  net.migrate_root(new_root, net.sim().now() + 10);
  net.run_until(net.sim().now() + 50'000);
  auto third = net.send_switch_multicast(5, 0, 300);
  net.run_to_quiescence();
  EXPECT_EQ(third->destinations_reached, 4);
  EXPECT_EQ(net.metrics().outstanding(), 0);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, GateStrategyTest,
                         ::testing::Range(0, kNumTreeStrategies));

TEST(TreeStrategyConfigTest, NamesRoundTripAndParse) {
  for (int k = 0; k < kNumTreeStrategies; ++k) {
    const auto kind = static_cast<TreeStrategyKind>(k);
    TreeStrategyKind parsed;
    ASSERT_TRUE(parse_tree_strategy(tree_strategy_name(kind), &parsed));
    EXPECT_EQ(parsed, kind);
  }
  TreeStrategyKind out;
  EXPECT_FALSE(parse_tree_strategy("no-such-strategy", &out));
}

}  // namespace
}  // namespace wormcast

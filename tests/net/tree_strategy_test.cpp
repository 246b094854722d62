// Pluggable tree strategies: plan invariants every strategy must satisfy
// (destination cover, branch-walk destination sets, up/down legality,
// cache invalidation on link death), strategy-specific structure,
// load-aware re-planning against a load vector, the contract that host
// trees ignore the strategy, and the network's multicast admission gate —
// overlapping trees serialize FIFO, node-disjoint trees dispatch
// concurrently, and the scheme (b) burst that used to deadlock without the
// gate drains to zero outstanding.
#include "net/tree_strategy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
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

/// The routing `s` plans its worms on, and so the one their paths must be
/// legal under: the spanning tree for single-root, the full up/down graph
/// (the general routing `base`) for load-aware.
const UpDownRouting& planned_on(const TreeStrategy& s,
                                const UpDownRouting& base) {
  return s.kind() == TreeStrategyKind::kSingleRoot ? s.primary_routing()
                                                   : base;
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

  for (const HostId src : {members[0], members[1], members.back()}) {
    const McastPlan plan = strategy->plan_multicast(g, src, members);
    const UpDownRouting& r = planned_on(*strategy, base);
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
  const HostId src = members[0];
  const McastPlan before = strategy->plan_multicast(g, src, members);

  // Fail a switch-to-switch link the old plan used (if it only used host
  // links the topology is a star and there is nothing to invalidate).
  LinkId victim = kNoLink;
  std::set<NodeId> nodes;
  std::multiset<HostId> hosts;
  for (const McastRouteTree& br : before.branches)
    walk_branch(topo, planned_on(*strategy, base), topo.switch_of_host(src),
                br, false, &nodes, &hosts);
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
  const McastPlan after = strategy->plan_multicast(g, src, members);

  // The new plan is complete, legal, and never crosses the dead link.
  std::set<NodeId> n2;
  std::multiset<HostId> reached;
  for (const McastRouteTree& br : after.branches)
    walk_branch(topo, planned_on(*strategy, base), topo.switch_of_host(src),
                br, false, &n2, &reached);
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
  ASSERT_NE(dynamic_cast<const detail::SingleRootStrategy*>(s.get()), nullptr);
  EXPECT_EQ(s->kind(), TreeStrategyKind::kSingleRoot);
  // Every group rides the one tree routing, rooted at the base root.
  const UpDownRouting& r = s->primary_routing();
  EXPECT_EQ(r.root(), base.root());
  // Every traversed link lies on the strategy routing's spanning tree.
  std::function<void(NodeId, const McastRouteTree&)> on_tree =
      [&](NodeId at, const McastRouteTree& tr) {
        EXPECT_TRUE(r.on_tree(topo.link_at(at, tr.port)));
        const NodeId next = topo.neighbor_via(at, tr.port);
        for (const McastRouteTree& c : tr.children) on_tree(next, c);
      };
  for (const McastRouteTree& br : plan.branches)
    on_tree(topo.switch_of_host(0), br);
}

TEST(TreeStrategyStructure, LoadAwareReplansAfterMembershipChange) {
  // Nothing tells the strategy about membership: its (group, source) plan
  // cache must serve a hit only for the exact destination set, so a leave
  // and then a join each get a plan covering exactly the new members.
  const Topology topo = make_torus(4, 4);
  const UpDownRouting base(topo);
  const auto s = make_tree_strategy(make_cfg(TreeStrategyKind::kLoadAware),
                                    topo, base, UpDownOptions());
  const GroupId g = 0;
  const HostId src = 0;
  const auto reached = [&](const McastPlan& plan) {
    std::set<NodeId> nodes;
    std::multiset<HostId> hosts;
    for (const McastRouteTree& br : plan.branches)
      walk_branch(topo, base, topo.switch_of_host(src), br, false, &nodes,
                  &hosts);
    return std::vector<HostId>(hosts.begin(), hosts.end());
  };
  const std::vector<std::vector<HostId>> views = {
      {0, 3, 7, 11, 14},  // initial members
      {0, 3, 11, 14},     // 7 left
      {0, 3, 9, 11, 14},  // 9 joined
  };
  for (const std::vector<HostId>& members : views) {
    const McastPlan plan = s->plan_multicast(g, src, members);
    const std::vector<HostId> want(members.begin() + 1, members.end());
    EXPECT_EQ(plan.dests, want);
    EXPECT_EQ(reached(plan), want);
  }
  EXPECT_EQ(s->worms_planned(), static_cast<std::int64_t>(views.size()));
}

/// Every switch-to-switch link a plan's branches cross.
std::set<LinkId> plan_fabric_links(const Topology& t, HostId src,
                                   const McastPlan& plan) {
  std::set<LinkId> out;
  std::function<void(NodeId, const McastRouteTree&)> walk =
      [&](NodeId at, const McastRouteTree& tr) {
        const NodeId next = t.neighbor_via(at, tr.port);
        if (t.node(next).kind == NodeKind::kSwitch)
          out.insert(t.link_at(at, tr.port));
        for (const McastRouteTree& c : tr.children) walk(next, c);
      };
  for (const McastRouteTree& br : plan.branches)
    walk(t.switch_of_host(src), br);
  return out;
}

TEST(LoadAwareReplan, HottestSwitchGainsTheFullLoadPenalty) {
  // The staged Clos has unequal switch degrees, so the static capacity
  // term is not zero everywhere: the load term is checked as a gain on it.
  UpDownOptions opts;
  const Topology topo = make_topo(3, &opts);
  const UpDownRouting base(topo, opts);
  detail::LoadAwareStrategy s(topo, base, opts);
  const auto n_nodes = static_cast<std::size_t>(topo.num_nodes());
  std::vector<NodeId> switches;
  std::vector<std::int64_t> before(n_nodes);
  for (NodeId n = 0; n < topo.num_nodes(); ++n) {
    before[static_cast<std::size_t>(n)] = s.penalty(n);
    if (topo.node(n).kind == NodeKind::kSwitch) switches.push_back(n);
  }
  ASSERT_GE(switches.size(), 4u);

  // Hosts carry far more bytes than any switch: they must neither set the
  // scale nor take a penalty.
  std::vector<std::int64_t> load(n_nodes, 0);
  for (NodeId n = 0; n < topo.num_nodes(); ++n)
    if (topo.node(n).kind == NodeKind::kHost)
      load[static_cast<std::size_t>(n)] = 1'000'000;
  std::vector<std::int64_t> gain(n_nodes, 0);
  const auto set = [&](NodeId sw, std::int64_t bytes, std::int64_t hops) {
    load[static_cast<std::size_t>(sw)] = bytes;
    gain[static_cast<std::size_t>(sw)] = hops;
  };
  set(switches[0], 8, detail::kLoadPenaltyHops);  // the hottest switch
  set(switches[1], 1, 1);  // 4 * 1/8 = 0.5: half-way rounds up
  set(switches[2], 3, 2);  // 1.5 -> 2
  set(switches[3], 6, 3);  // 3.0 exactly
  static_assert(detail::kLoadPenaltyHops == 4, "gains above assume 4 hops");

  EXPECT_TRUE(s.replan(load));
  for (NodeId n = 0; n < topo.num_nodes(); ++n) {
    const auto i = static_cast<std::size_t>(n);
    if (topo.node(n).kind == NodeKind::kHost)
      EXPECT_EQ(s.penalty(n), 0) << "host node " << n;
    else
      EXPECT_EQ(s.penalty(n) - before[i], gain[i]) << "switch " << n;
  }
  EXPECT_EQ(s.replans(), 1);
}

TEST(LoadAwareReplan, OnlyAChangedLoadDropsCachedPlans) {
  const Topology topo = make_torus(4, 4);
  UpDownRouting base(topo);
  detail::LoadAwareStrategy s(topo, base, UpDownOptions());
  const auto n_nodes = static_cast<std::size_t>(topo.num_nodes());
  const std::vector<HostId> members{0, 5, 10, 15};
  const GroupId g = 0;
  const HostId src = 0;

  // No load leaves the static penalties (all zero on a torus) as they were.
  EXPECT_FALSE(s.replan(std::vector<std::int64_t>(n_nodes, 0)));
  std::vector<std::int64_t> load(n_nodes, 0);
  load[static_cast<std::size_t>(topo.switch_of_host(5))] = 100;
  EXPECT_TRUE(s.replan(load));
  const McastPlan first = s.plan_multicast(g, src, members);

  // Kill a link the plan crosses in the general routing only: a fresh plan
  // would route around it, the cached one still crosses it.
  const std::set<LinkId> used = plan_fabric_links(topo, src, first);
  ASSERT_FALSE(used.empty());
  const LinkId victim = *used.begin();
  base.fail_link(victim);

  EXPECT_FALSE(s.replan(load)) << "an unchanged load changes no penalty";
  const McastPlan kept = s.plan_multicast(g, src, members);
  EXPECT_EQ(plan_fabric_links(topo, src, kept), used)
      << "an unchanged load must keep the cached plan";

  load[static_cast<std::size_t>(topo.switch_of_host(5))] = 0;
  load[static_cast<std::size_t>(topo.switch_of_host(10))] = 100;
  EXPECT_TRUE(s.replan(load));
  const McastPlan fresh = s.plan_multicast(g, src, members);
  EXPECT_EQ(plan_fabric_links(topo, src, fresh).count(victim), 0u)
      << "a changed load must re-plan";
  EXPECT_EQ(fresh.dests, first.dests);
  EXPECT_EQ(s.replans(), 4);
}

TEST(LoadAwareReplan, NextPlanSteersOffTheHotSwitch) {
  const Topology topo = make_torus(4, 4);
  const UpDownRouting base(topo);
  detail::LoadAwareStrategy s(topo, base, UpDownOptions());
  const std::vector<HostId> members{0, 10};  // opposite corners of a 2x2
  const HostId src = 0;
  const auto nodes_on = [&](const McastPlan& plan) {
    std::set<NodeId> nodes;
    std::multiset<HostId> hosts;
    for (const McastRouteTree& br : plan.branches)
      walk_branch(topo, base, topo.switch_of_host(src), br, false, &nodes,
                  &hosts);
    return nodes;
  };
  const McastPlan cold = s.plan_multicast(0, src, members);

  // A transit switch: on the cold plan, but neither endpoint's.
  NodeId hot = kNoNode;
  for (const NodeId n : nodes_on(cold))
    if (topo.node(n).kind == NodeKind::kSwitch &&
        n != topo.switch_of_host(0) && n != topo.switch_of_host(10))
      hot = n;
  ASSERT_NE(hot, kNoNode);
  std::vector<std::int64_t> load(static_cast<std::size_t>(topo.num_nodes()),
                                 0);
  load[static_cast<std::size_t>(hot)] = 1'000;
  EXPECT_TRUE(s.replan(load));
  EXPECT_EQ(s.penalty(hot), detail::kLoadPenaltyHops);

  const McastPlan steered = s.plan_multicast(0, src, members);
  EXPECT_EQ(steered.dests, cold.dests);
  EXPECT_EQ(nodes_on(steered).count(hot), 0u)
      << "the plan still transits the hot switch " << hot;
  EXPECT_EQ(s.replans(), 1);
}

TEST(TreeStrategyContract, HostTreesKeepTheHopCountRule) {
  // Strategies plan switch-level multicasts only: the host-level trees a
  // tree scheme relays over are the same under every strategy, after a
  // failure repair and after a join too. The random mesh's switches have
  // unequal degrees, so a strategy penalty on tree edges would show.
  RandomStream rng(4242);
  const Topology topo = make_random_mesh(12, 3.0, rng);
  std::set<std::size_t> degrees;
  for (NodeId n = 0; n < topo.num_nodes(); ++n)
    if (topo.node(n).kind == NodeKind::kSwitch)
      degrees.insert(topo.node(n).ports.size());
  ASSERT_GT(degrees.size(), 1u);

  std::vector<MulticastGroupSpec> groups(3);
  groups[0].id = 0, groups[0].members = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};
  groups[1].id = 1, groups[1].members = {1, 3, 4, 6, 8, 9, 11};
  groups[2].id = 2, groups[2].members = {0, 2, 5, 7, 10};
  const auto make_net = [&](TreeStrategyKind kind) {
    ExperimentConfig cfg;
    cfg.protocol.scheme = Scheme::kTreeSF;
    cfg.tree.kind = kind;
    return std::make_unique<Network>(topo, groups, cfg);
  };
  const auto single = make_net(TreeStrategyKind::kSingleRoot);
  const auto aware = make_net(TreeStrategyKind::kLoadAware);
  const auto expect_same_trees = [&](const char* when) {
    for (const MulticastGroupSpec& spec : groups) {
      const TreeTable& a = single->tables().tree(spec.id);
      const TreeTable& b = aware->tables().tree(spec.id);
      ASSERT_EQ(a.members(), b.members()) << when << ", group " << spec.id;
      for (const HostId h : a.members()) {
        EXPECT_EQ(a.parent(h), b.parent(h))
            << when << ", group " << spec.id << ", host " << h;
        EXPECT_EQ(a.children(h), b.children(h))
            << when << ", group " << spec.id << ", host " << h;
      }
    }
  };
  expect_same_trees("at construction");

  for (Network* net : {single.get(), aware.get()}) net->declare_host_dead(4);
  expect_same_trees("after declare_host_dead(4)");

  for (Network* net : {single.get(), aware.get()}) {
    net->request_join(2, 9, 1'000);
    net->run_to_quiescence();
    ASSERT_TRUE(net->tables().is_member(2, 9));
  }
  expect_same_trees("after host 9 joined group 2");
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

TEST(LoadAwareReplan, NetworkHookReadsEveryNodesEgress) {
  // Network::replan_trees hands the strategy each node's transmitted bytes
  // (Fabric::node_egress_bytes). After a loaded run those bytes add up over
  // the hosts to the fabric's host egress, and the switches' share changes
  // load-aware's penalties; single-root has nothing to re-plan.
  MulticastGroupSpec group;
  group.id = 0;
  group.members = {0, 5, 10, 15};
  for (const TreeStrategyKind kind :
       {TreeStrategyKind::kSingleRoot, TreeStrategyKind::kLoadAware}) {
    SCOPED_TRACE(tree_strategy_name(kind));
    Network net(make_torus(4, 4), {group}, gate_cfg(kind));
    for (const HostId src : group.members)
      net.send_switch_multicast(src, 0, 600);
    net.run_to_quiescence();
    ASSERT_EQ(net.metrics().outstanding(), 0);
    std::int64_t host_bytes = 0;
    for (HostId h = 0; h < net.num_hosts(); ++h)
      host_bytes +=
          net.fabric().node_egress_bytes(net.topology().node_of_host(h));
    EXPECT_GT(host_bytes, 4 * 600);
    EXPECT_EQ(host_bytes, net.fabric().host_egress_bytes());
    const bool load_aware = kind == TreeStrategyKind::kLoadAware;
    EXPECT_EQ(net.replan_trees(), load_aware);
    EXPECT_FALSE(net.replan_trees()) << "an unchanged load changed a plan";
  }
}

class GateStrategyTest : public ::testing::TestWithParam<int> {};

TEST_P(GateStrategyTest, ConcurrentBurstDrainsUnderInterruptScheme) {
  // Regression for the scheme (b) port-claim/backpressure deadlock: a
  // burst of overlapping multicasts from many sources used to wedge in
  // port-claim <-> tx_stopped cycles before the admission gate.
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

TEST_P(GateStrategyTest, SurvivesMemberDeath) {
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

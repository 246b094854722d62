// Up/down routing: legality (no down->up transition), reachability,
// determinism, spanning-tree restriction. Property-style sweeps over
// several topologies, plus an oracle check of the per-source-switch route
// table against a reference per-pair search.
#include "net/updown.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <utility>

#include "net/topologies.h"
#include "sim/random.h"

namespace wormcast {
namespace {

/// Walks a source route through the topology and returns the node sequence
/// (switches) it traverses; EXPECTs it ends at `dst`'s host node.
std::vector<NodeId> walk_route(const Topology& t, HostId src, HostId dst,
                               const SourceRoute& route) {
  std::vector<NodeId> nodes;
  NodeId at = t.switch_of_host(src);
  for (std::size_t i = 0; i < route.size(); ++i) {
    nodes.push_back(at);
    at = t.neighbor_via(at, route.at(i));
  }
  EXPECT_EQ(at, t.node_of_host(dst)) << "route does not end at destination";
  return nodes;
}

/// Asserts the up/down rule: zero or more up traversals then zero or more
/// down traversals, never up after down.
void expect_legal(const Topology& t, const UpDownRouting& r, HostId src,
                  HostId dst) {
  const SourceRoute route = r.route(src, dst);
  ASSERT_GE(route.size(), 1u);
  NodeId at = t.switch_of_host(src);
  bool gone_down = false;
  for (std::size_t i = 0; i + 1 < route.size(); ++i) {  // last hop = host link
    const LinkId l = t.link_at(at, route.at(i));
    const bool up = r.is_up_traversal(l, at);
    if (up) {
      EXPECT_FALSE(gone_down) << "up traversal after down";
    }
    if (!up) gone_down = true;
    at = t.neighbor_via(at, route.at(i));
  }
}

struct TopoCase {
  const char* name;
  Topology topo;
};

class UpDownPropertyTest : public ::testing::TestWithParam<int> {
 protected:
  static Topology make(int which) {
    RandomStream rng(99);
    switch (which) {
      case 0: return make_torus(4, 4);
      case 1: return make_bidir_shufflenet(2, 3);
      case 2: return make_myrinet_testbed();
      case 3: return make_line(5);
      case 4: return make_star(6);
      default: return make_random_mesh(10, 3.0, rng);
    }
  }
};

TEST_P(UpDownPropertyTest, AllPairsLegalAndTerminate) {
  const Topology t = make(GetParam());
  const UpDownRouting r(t);
  for (HostId s = 0; s < t.num_hosts(); ++s) {
    for (HostId d = 0; d < t.num_hosts(); ++d) {
      if (s == d) continue;
      expect_legal(t, r, s, d);
      walk_route(t, s, d, r.route(s, d));
    }
  }
}

TEST_P(UpDownPropertyTest, RoutesAreDeterministic) {
  const Topology t = make(GetParam());
  const UpDownRouting r1(t);
  const UpDownRouting r2(t);
  for (HostId s = 0; s < t.num_hosts(); ++s)
    for (HostId d = 0; d < t.num_hosts(); ++d) {
      if (s == d) continue;
      EXPECT_EQ(r1.route(s, d).ports(), r2.route(s, d).ports());
    }
}

TEST_P(UpDownPropertyTest, HopCountSymmetryBounds) {
  const Topology t = make(GetParam());
  const UpDownRouting r(t);
  for (HostId s = 0; s < t.num_hosts(); ++s)
    for (HostId d = s + 1; d < t.num_hosts(); ++d) {
      const int ab = r.hop_count(s, d);
      const int ba = r.hop_count(d, s);
      EXPECT_GE(ab, 2);
      // Legal shortest paths in both directions have equal length (the
      // reverse of a legal up*down* path is legal).
      EXPECT_EQ(ab, ba);
    }
}

TEST_P(UpDownPropertyTest, TreeOnlyRoutesStayOnTree) {
  const Topology t = make(GetParam());
  UpDownRouting::Options opts;
  opts.tree_links_only = true;
  const UpDownRouting r(t, opts);
  const UpDownRouting full(t);
  for (HostId s = 0; s < t.num_hosts(); ++s)
    for (HostId d = 0; d < t.num_hosts(); ++d) {
      if (s == d) continue;
      const SourceRoute route = r.route(s, d);
      NodeId at = t.switch_of_host(s);
      for (std::size_t i = 0; i + 1 < route.size(); ++i) {
        const LinkId l = t.link_at(at, route.at(i));
        EXPECT_TRUE(r.on_tree(l));
        at = t.neighbor_via(at, route.at(i));
      }
      // Tree-only paths can never be shorter than unrestricted ones.
      EXPECT_GE(r.hop_count(s, d), full.hop_count(s, d));
    }
}

std::string topo_case_name(const ::testing::TestParamInfo<int>& info) {
  static const char* const names[] = {"torus4x4", "shufflenet", "myrinet",
                                      "line5",    "star6",      "random_mesh"};
  return names[info.param];
}

INSTANTIATE_TEST_SUITE_P(Topologies, UpDownPropertyTest, ::testing::Range(0, 6),
                         topo_case_name);

TEST(UpDown, RootSelectionPrefersHighestDegree) {
  const Topology t = make_star(4);  // hub has degree 4
  const UpDownRouting r(t);
  EXPECT_EQ(r.root(), 0);  // the hub switch
  EXPECT_EQ(r.level(r.root()), 0);
}

TEST(UpDown, ExplicitRootIsHonoured) {
  const Topology t = make_line(4);
  UpDownRouting::Options opts;
  opts.root = 2;
  const UpDownRouting r(t, opts);
  EXPECT_EQ(r.root(), 2);
  EXPECT_EQ(r.level(2), 0);
  EXPECT_EQ(r.level(0), 2);
}

TEST(UpDown, UpEndIsCloserToRoot) {
  const Topology t = make_torus(4, 4);
  const UpDownRouting r(t);
  for (LinkId l = 0; l < t.num_links(); ++l) {
    const NodeId up = r.up_end(l);
    const NodeId down = t.peer(l, up);
    EXPECT_LE(r.level(up), r.level(down));
    if (r.level(up) == r.level(down)) {
      EXPECT_LT(up, down);
    }
  }
}

TEST(UpDown, DownTreePortsPointAwayFromRoot) {
  const Topology t = make_line(3);
  const UpDownRouting r(t);
  const NodeId root = r.root();
  for (const PortId p : r.down_tree_ports(root)) {
    const LinkId l = t.link_at(root, p);
    EXPECT_TRUE(r.on_tree(l));
    EXPECT_EQ(r.up_end(l), root);
  }
  // Every node except the root hangs off exactly one up tree link, so the
  // down-tree ports across all switches + hosts cover n-1 links.
  std::size_t covered = 0;
  for (NodeId n = 0; n < t.num_nodes(); ++n)
    if (t.node(n).kind == NodeKind::kSwitch)
      covered += r.down_tree_ports(n).size();
  EXPECT_EQ(covered, static_cast<std::size_t>(t.num_nodes() - 1));
}

TEST(UpDown, RouteToRootEndsAtRoot) {
  const Topology t = make_torus(3, 3);
  const UpDownRouting r(t);
  for (HostId h = 0; h < t.num_hosts(); ++h) {
    const SourceRoute route = r.route_to_root(h);
    NodeId at = t.switch_of_host(h);
    for (std::size_t i = 0; i < route.size(); ++i)
      at = t.neighbor_via(at, route.at(i));
    EXPECT_EQ(at, r.root());
  }
}

TEST(UpDown, RouteToSelfThrows) {
  const Topology t = make_star(2);
  const UpDownRouting r(t);
  EXPECT_THROW(r.route(1, 1), std::logic_error);
}

TEST(UpDown, HostRootThrows) {
  const Topology t = make_star(3);
  UpDownOptions opts;
  opts.root = t.node_of_host(0);
  EXPECT_THROW(UpDownRouting(t, opts), std::logic_error);
}

TEST(UpDown, LevelOverrideMustLabelEveryNode) {
  std::vector<int> levels;
  const Topology t = make_clos(2, 3, 2, kDefaultLinkDelay, kDefaultLinkDelay,
                               &levels);
  UpDownOptions opts;
  opts.level_override = {0, 1};  // too short: hosts must be labelled too
  EXPECT_THROW(UpDownRouting(t, opts), std::logic_error);
}

TEST(UpDown, LevelOverridePicksLowestStageRoot) {
  // On a Clos the degree heuristic would root at a leaf (leaf degree =
  // spines + hosts > spine degree = leaves); stage labels must put the
  // root in the spine stage instead.
  std::vector<int> levels;
  const Topology t = make_clos(2, 4, 3, kDefaultLinkDelay, kDefaultLinkDelay,
                               &levels);
  const UpDownRouting plain(t);
  EXPECT_GE(plain.root(), 2) << "degree heuristic roots at a leaf";
  UpDownOptions opts;
  opts.level_override = levels;
  const UpDownRouting staged(t, opts);
  EXPECT_EQ(staged.root(), 0) << "lowest (stage, id) switch";
}

TEST(UpDown, LevelOverrideOrientsLinksByStage) {
  std::vector<int> levels;
  const Topology t = make_clos(3, 3, 1, kDefaultLinkDelay, kDefaultLinkDelay,
                               &levels);
  UpDownOptions opts;
  opts.level_override = levels;
  const UpDownRouting r(t, opts);
  for (LinkId l = 0; l < t.num_links(); ++l) {
    const NodeId up = r.up_end(l);
    const NodeId down = t.peer(l, up);
    // The up end always carries the smaller (stage, id): every spine-leaf
    // link points up at the spine, every host link up at the leaf.
    EXPECT_LT(std::make_pair(levels[up], up),
              std::make_pair(levels[down], down))
        << "link " << l;
  }
  // All host pairs remain routable through any spine orientation.
  for (HostId s = 0; s < t.num_hosts(); ++s)
    for (HostId d = 0; d < t.num_hosts(); ++d)
      if (s != d) {
        EXPECT_NO_THROW(r.route(s, d));
      }
}

// ---------------------------------------------------------------------------
// Route-table oracle. The reference is the per-pair search the router used
// before it kept one BFS row per source switch: a fresh BFS over (switch,
// phase) for each (from, to) pair, read only through UpDownRouting's public
// labels. The table must reproduce it exactly, before and after failures
// and at a non-default root.

/// Ports of the reference legal path from_sw -> to_sw (no host exit), or
/// nullopt when no surviving legal path exists.
std::optional<std::vector<PortId>> reference_path(const Topology& t,
                                                  const UpDownRouting& r,
                                                  bool tree_only,
                                                  NodeId from_sw,
                                                  NodeId to_sw) {
  if (r.level(from_sw) == -1 || r.level(to_sw) == -1) return std::nullopt;
  const auto n_nodes = static_cast<std::size_t>(t.num_nodes());
  struct Pred {
    NodeId node = kNoNode;
    int phase = -1;
    LinkId link = kNoLink;
  };
  std::vector<std::array<int, 2>> dist(n_nodes, {-1, -1});
  std::vector<std::array<Pred, 2>> pred(n_nodes);
  std::queue<std::pair<NodeId, int>> frontier;
  dist[from_sw][0] = 0;
  frontier.push({from_sw, 0});
  while (!frontier.empty()) {
    const auto [n, ph] = frontier.front();
    frontier.pop();
    for (const TopoPort& p : t.node(n).ports) {
      const LinkId l = p.link;
      if (!r.link_alive(l) || r.up_end(l) == kNoNode) continue;
      if (tree_only && !r.on_tree(l)) continue;
      const NodeId m = t.peer(l, n);
      if (t.node(m).kind != NodeKind::kSwitch) continue;
      const bool up = r.is_up_traversal(l, n);
      if (up && ph == 1) continue;
      const int nph = up ? 0 : 1;
      if (dist[m][nph] != -1) continue;
      dist[m][nph] = dist[n][ph] + 1;
      pred[m][nph] = Pred{n, ph, l};
      frontier.push({m, nph});
    }
  }
  int end_phase = -1;
  if (dist[to_sw][0] != -1 &&
      (dist[to_sw][1] == -1 || dist[to_sw][0] <= dist[to_sw][1]))
    end_phase = 0;
  else if (dist[to_sw][1] != -1)
    end_phase = 1;
  if (end_phase == -1) return std::nullopt;
  std::vector<PortId> ports;
  NodeId n = to_sw;
  int ph = end_phase;
  while (!(n == from_sw && dist[n][ph] == 0)) {
    const Pred& pr = pred[n][ph];
    ports.push_back(t.port_on(pr.link, pr.node));
    n = pr.node;
    ph = pr.phase;
  }
  std::reverse(ports.begin(), ports.end());
  return ports;
}

/// Calls `f` and expects the router's "no legal up/down path" error.
template <typename F>
::testing::AssertionResult throws_no_path(F&& f) {
  try {
    f();
  } catch (const std::logic_error& e) {
    if (std::string(e.what()) == "no legal up/down path")
      return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure() << "threw: " << e.what();
  }
  return ::testing::AssertionFailure() << "did not throw";
}

/// Checks route(), route_into(), hop_count() for every host pair and
/// route_to_root() for every host against the reference. Reports the
/// first mismatch only (the Clos case has a million pairs).
void expect_matches_reference(const Topology& t, const UpDownRouting& r,
                              bool tree_only) {
  std::map<std::pair<NodeId, NodeId>, std::optional<std::vector<PortId>>>
      memo;  // by switch pair: hosts on one switch share its paths
  auto ref = [&](NodeId from_sw, NodeId to_sw)
      -> const std::optional<std::vector<PortId>>& {
    const auto key = std::make_pair(from_sw, to_sw);
    auto it = memo.find(key);
    if (it == memo.end())
      it = memo.emplace(key, reference_path(t, r, tree_only, from_sw, to_sw))
               .first;
    return it->second;
  };
  SourceRoute reused;
  for (HostId s = 0; s < t.num_hosts(); ++s) {
    for (HostId d = 0; d < t.num_hosts(); ++d) {
      if (s == d) continue;
      const NodeId to_sw = t.switch_of_host(d);
      const auto& path = ref(t.switch_of_host(s), to_sw);
      if (!path) {
        ASSERT_TRUE(throws_no_path([&] { (void)r.route(s, d); }))
            << s << "->" << d;
        ASSERT_TRUE(throws_no_path([&] { r.route_into(s, d, reused); }));
        ASSERT_TRUE(throws_no_path([&] { (void)r.hop_count(s, d); }));
        continue;
      }
      std::vector<PortId> want = *path;
      want.push_back(t.port_on(t.node(t.node_of_host(d)).ports[0].link, to_sw));
      ASSERT_EQ(r.route(s, d).ports(), want) << s << "->" << d;
      r.route_into(s, d, reused);
      ASSERT_EQ(reused.ports(), want) << s << "->" << d;
      ASSERT_EQ(r.hop_count(s, d), static_cast<int>(path->size()) + 2)
          << s << "->" << d;
    }
  }
  for (HostId h = 0; h < t.num_hosts(); ++h) {
    const NodeId from_sw = t.switch_of_host(h);
    if (from_sw == r.root()) {
      ASSERT_TRUE(r.route_to_root(h).empty());
      continue;
    }
    const auto& path = ref(from_sw, r.root());
    if (!path) {
      ASSERT_TRUE(throws_no_path([&] { (void)r.route_to_root(h); })) << h;
      continue;
    }
    ASSERT_EQ(r.route_to_root(h).ports(), *path) << h;
  }
}

struct OracleCase {
  Topology topo;
  UpDownOptions opts;
};

class RouteTableOracleTest : public ::testing::TestWithParam<int> {
 protected:
  static OracleCase make(int which) {
    OracleCase c;
    switch (which) {
      case 0:
        c.topo = make_torus(8, 8);
        break;
      case 1:
        c.topo = make_clos(16, 32, 32, kDefaultLinkDelay, kDefaultLinkDelay,
                           &c.opts.level_override);
        break;
      case 2: {
        RandomStream rng(11);
        c.topo = make_random_mesh(24, 3.0, rng);
        break;
      }
      default:
        c.topo = make_torus(8, 8);
        c.opts.tree_links_only = true;
        break;
    }
    return c;
  }
};

TEST_P(RouteTableOracleTest, MatchesReferenceThroughFailuresAndRootMoves) {
  const OracleCase c = make(GetParam());
  const Topology& t = c.topo;
  const bool tree_only = c.opts.tree_links_only;
  UpDownRouting r(t, c.opts);
  {
    SCOPED_TRACE("fresh");
    expect_matches_reference(t, r, tree_only);
  }

  // Two switch-to-switch links, spread apart: the first and the middle.
  std::vector<LinkId> fabric_links;
  for (LinkId l = 0; l < t.num_links(); ++l)
    if (t.node(t.link(l).node_a).kind == NodeKind::kSwitch &&
        t.node(t.link(l).node_b).kind == NodeKind::kSwitch)
      fabric_links.push_back(l);
  ASSERT_GE(fabric_links.size(), 2u);
  r.fail_link(fabric_links.front());
  r.fail_link(fabric_links[fabric_links.size() / 2]);
  {
    SCOPED_TRACE("after two fail_link calls");
    expect_matches_reference(t, r, tree_only);
  }

  // A non-default root through the same two failures.
  NodeId new_root = kNoNode;
  for (NodeId n = 0; n < t.num_nodes(); ++n)
    if (t.node(n).kind == NodeKind::kSwitch && n != r.root()) new_root = n;
  UpDownOptions moved_opts = c.opts;
  moved_opts.root = new_root;
  UpDownRouting moved(t, moved_opts);
  moved.fail_link(fabric_links.front());
  moved.fail_link(fabric_links[fabric_links.size() / 2]);
  ASSERT_EQ(moved.root(), new_root);
  SCOPED_TRACE("non-default root after two fail_link calls");
  expect_matches_reference(t, moved, tree_only);
}

std::string oracle_case_name(const ::testing::TestParamInfo<int>& info) {
  static const char* const names[] = {"torus8x8", "clos1k_staged",
                                      "random_mesh", "torus8x8_tree_only"};
  return names[info.param];
}

INSTANTIATE_TEST_SUITE_P(Topologies, RouteTableOracleTest,
                         ::testing::Range(0, 4), oracle_case_name);

TEST(UpDown, HostCutOffByFailuresThrowsNoLegalPath) {
  const Topology t = make_line(3);
  UpDownRouting r(t);
  const NodeId cut = t.switch_of_host(2);
  ASSERT_NE(cut, r.root());
  (void)r.route(0, 2);  // fills rows that the failure must drop
  for (const TopoPort& p : t.node(cut).ports)
    if (t.node(t.peer(p.link, cut)).kind == NodeKind::kSwitch)
      r.fail_link(p.link);
  EXPECT_EQ(r.level(cut), -1);
  EXPECT_TRUE(throws_no_path([&] { (void)r.route(0, 2); }));
  EXPECT_TRUE(throws_no_path([&] { (void)r.route(2, 0); }));
  EXPECT_TRUE(throws_no_path([&] { (void)r.hop_count(0, 2); }));
  EXPECT_TRUE(throws_no_path([&] { (void)r.route_to_root(2); }));
  EXPECT_NO_THROW((void)r.route(0, 1));
}

TEST(UpDown, RouteTableHoldsEveryRowOfThe32x32Torus) {
  // large_fabric's torus sends from every switch each period; a budget
  // that dropped rows there would run a BFS per cold source per period.
  const Topology t = make_torus(32, 32);
  const UpDownRouting r(t);
  const std::size_t row = static_cast<std::size_t>(t.num_switches()) * 5;
  for (HostId s = 0; s < t.num_hosts(); ++s)
    (void)r.hop_count(s, (s + 1) % t.num_hosts());
  EXPECT_EQ(r.row_bytes(), static_cast<std::size_t>(t.num_switches()) * row);
}

TEST(UpDown, RouteTableStaysUnderBudgetAndEvictionChangesNoRoute) {
  // 4096 switches: one row is 20 KiB, so the budget holds ~300 rows and
  // routing from 400 source switches must drop the table at least once.
  const Topology t = make_torus(64, 64);
  const UpDownRouting r(t);
  const std::size_t row = static_cast<std::size_t>(t.num_switches()) * 5;
  constexpr int kSources = 400;
  ASSERT_LT(UpDownRouting::kRowBudgetBytes / row,
            static_cast<std::size_t>(kSources));
  const auto dst_of = [&](HostId s) {
    return static_cast<HostId>((s * 977 + 2049) % t.num_hosts());
  };
  std::vector<SourceRoute> first;
  for (HostId s = 0; s < kSources; ++s) {
    first.push_back(r.route(s, dst_of(s)));
    ASSERT_LE(r.row_bytes(), UpDownRouting::kRowBudgetBytes) << s;
  }
  EXPECT_LT(r.row_bytes(), static_cast<std::size_t>(kSources) * row);
  // The first sources' rows were dropped; refilled rows route identically
  // and equal the reference.
  for (HostId s = 0; s < 8; ++s) {
    const HostId d = dst_of(s);
    EXPECT_EQ(r.route(s, d).ports(), first[static_cast<std::size_t>(s)].ports());
    auto want = reference_path(t, r, false, t.switch_of_host(s),
                               t.switch_of_host(d));
    ASSERT_TRUE(want.has_value());
    want->push_back(t.port_on(t.node(t.node_of_host(d)).ports[0].link,
                              t.switch_of_host(d)));
    EXPECT_EQ(r.route(s, d).ports(), *want) << s;
    EXPECT_LE(r.row_bytes(), UpDownRouting::kRowBudgetBytes);
  }
}

}  // namespace
}  // namespace wormcast

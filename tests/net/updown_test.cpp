// Up/down routing: legality (no down->up transition), reachability,
// determinism, spanning-tree restriction. Property-style sweeps over
// several topologies.
#include "net/updown.h"

#include <gtest/gtest.h>

#include <memory>

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

TEST(UpDown, SetRootRecomputesInPlaceToFreshEquivalent) {
  const Topology t = make_torus(4, 4);
  UpDownRouting migrated(t);
  const NodeId new_root = t.switch_of_host(10);
  ASSERT_NE(migrated.root(), new_root);
  migrated.set_root(new_root);
  EXPECT_EQ(migrated.root(), new_root);

  // In-place migration matches a routing built at the new root directly.
  UpDownRouting::Options opts;
  opts.root = new_root;
  const UpDownRouting fresh(t, opts);
  for (HostId s = 0; s < t.num_hosts(); ++s)
    for (HostId d = 0; d < t.num_hosts(); ++d) {
      if (s == d) continue;
      EXPECT_EQ(migrated.route(s, d).ports(), fresh.route(s, d).ports());
    }
  for (NodeId n = 0; n < t.num_nodes(); ++n)
    EXPECT_EQ(migrated.level(n), fresh.level(n));
}

TEST(UpDown, SetRootAllPairsStayLegal) {
  RandomStream rng(5);
  const Topology t = make_random_mesh(10, 3.0, rng);
  UpDownRouting r(t);
  for (HostId h = 0; h < t.num_hosts(); h += 3) {
    r.set_root(t.switch_of_host(h));
    for (HostId s = 0; s < t.num_hosts(); ++s)
      for (HostId d = 0; d < t.num_hosts(); ++d) {
        if (s == d) continue;
        expect_legal(t, r, s, d);
        walk_route(t, s, d, r.route(s, d));
      }
  }
}

TEST(UpDown, SetRootToHostThrows) {
  const Topology t = make_star(3);
  UpDownRouting r(t);
  EXPECT_THROW(r.set_root(t.node_of_host(0)), std::logic_error);
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

}  // namespace
}  // namespace wormcast

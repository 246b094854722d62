// Generators for the topologies used in the paper's evaluation, plus a few
// generic shapes for tests and examples.
#pragma once

#include <cstdint>
#include <vector>

#include "net/topology.h"
#include "sim/random.h"
#include "sim/types.h"

namespace wormcast {

/// k-ary 2-D torus of switches (rows x cols), `hosts_per_switch` hosts on
/// each switch. Figure 10 uses make_torus(8, 8, 1).
Topology make_torus(int rows, int cols, int hosts_per_switch = 1,
                    Time link_delay = kDefaultLinkDelay,
                    Time host_link_delay = kDefaultLinkDelay);

/// Bidirectional (p, k) shufflenet: k columns of p^k switches; switch
/// (c, r) links to ((c+1) mod k, r*p + d mod p^k) for d in [0, p); links are
/// full duplex (the "bidirectional" of [PLG95]). One host per switch.
/// Figure 11 uses make_bidir_shufflenet(2, 3, ...): 24 nodes.
Topology make_bidir_shufflenet(int p, int k,
                               Time link_delay = kDefaultLinkDelay,
                               Time host_link_delay = kDefaultLinkDelay);

/// Three-stage folded Clos (spine/leaf): `spines` top-stage switches, each
/// of the `leaves` bottom-stage switches linked to every spine, and
/// `hosts_per_leaf` hosts per leaf. Switch ids run spines first, then
/// leaves (stage-major). When `levels_out` is non-null it
/// receives the stage label of every node (spines 0, leaves 1, hosts 2) —
/// pass it as UpDownOptions::level_override so *every* spine can turn a
/// route around (the BFS labels would funnel all traffic through the root
/// spine; the degree-based default root would even pick a leaf, since a
/// leaf's degree is spines + hosts_per_leaf).
Topology make_clos(int spines, int leaves, int hosts_per_leaf,
                   Time link_delay = kDefaultLinkDelay,
                   Time host_link_delay = kDefaultLinkDelay,
                   std::vector<int>* levels_out = nullptr);

/// k-ary fat tree (the three-stage Clos folded once more): (k/2)^2 core
/// switches, k pods of k/2 aggregation + k/2 edge switches, k/2 hosts per
/// edge — k^3/4 hosts total. k must be even and >= 2. Aggregation switch j
/// of every pod links to cores [j*k/2, (j+1)*k/2); every edge links to
/// every aggregation switch in its pod. Switch ids run cores first, then
/// pod by pod (aggs, then edges). `levels_out` receives stage labels
/// (cores 0, aggs 1, edges 2, hosts 3) for UpDownOptions::level_override.
Topology make_fat_tree(int k, Time link_delay = kDefaultLinkDelay,
                       Time host_link_delay = kDefaultLinkDelay,
                       std::vector<int>* levels_out = nullptr);

/// The measurement testbed of Section 8.2: four switches in a line, eight
/// hosts (two per switch).
Topology make_myrinet_testbed(Time link_delay = kDefaultLinkDelay,
                              Time host_link_delay = kDefaultLinkDelay);

/// A single switch with n hosts (degenerate star; useful in unit tests).
Topology make_star(int n_hosts, Time link_delay = kDefaultLinkDelay);

/// A line of n switches, one host each.
Topology make_line(int n_switches, Time link_delay = kDefaultLinkDelay,
                   Time host_link_delay = kDefaultLinkDelay);

/// Random connected mesh: n switches, one host each, average switch degree
/// ~degree (a spanning tree plus random extra links). Used by property
/// tests to exercise routing on irregular LAN topologies.
Topology make_random_mesh(int n_switches, double degree, RandomStream& rng,
                          Time link_delay = kDefaultLinkDelay);

}  // namespace wormcast

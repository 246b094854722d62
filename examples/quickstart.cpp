// Quickstart: build a wormhole LAN, form a multicast group, and compare
// the paper's delivery schemes on a single message and under load.
//
//   $ ./quickstart
//
// Walks through the public API: topology generators, ExperimentConfig,
// direct injection, traffic-driven runs, and the metrics summary.
#include <cstdio>

#include "core/network.h"
#include "net/topologies.h"
#include "traffic/groups.h"

using namespace wormcast;

namespace {

void one_message_demo(Scheme scheme) {
  // A 4x4 torus of switches, one host per switch — a small machine-room
  // Myrinet. One multicast group of six members.
  MulticastGroupSpec group;
  group.id = 0;
  group.members = {1, 3, 6, 9, 12, 15};

  ExperimentConfig cfg;
  cfg.protocol.scheme = scheme;

  Network net(make_torus(4, 4), {group}, cfg);

  // Host 6 multicasts 1 KB to the group.
  Demand d;
  d.src = 6;
  d.multicast = true;
  d.group = 0;
  d.length = 1024;
  net.inject(d);
  net.run_to_quiescence();

  std::printf("  %-18s per-destination latency: mean %6.0f bt, max %6.0f bt, "
              "completion %6.0f bt\n",
              scheme_name(scheme), net.metrics().mcast_latency().mean(),
              net.metrics().mcast_latency().stat().max(),
              net.metrics().mcast_completion().mean());
}

void loaded_demo(Scheme scheme) {
  RandomStream rng(7);
  auto groups = make_random_groups(4, 6, 16, rng);
  ExperimentConfig cfg;
  cfg.protocol.scheme = scheme;
  cfg.traffic.offered_load = 0.05;
  cfg.traffic.multicast_fraction = 0.15;
  Network net(make_torus(4, 4), groups, cfg);
  net.run(/*warmup=*/20'000, /*measure=*/150'000);
  const auto s = net.summary();
  std::printf("  %-18s util %.3f  mcast %6.0f bt  unicast %5.0f bt  "
              "nacks %lld  outstanding %lld\n",
              scheme_name(scheme), s.measured_utilization,
              s.mcast_latency_mean, s.unicast_latency_mean,
              static_cast<long long>(s.counts.nacks),
              static_cast<long long>(s.outstanding));
}

}  // namespace

int main() {
  std::printf("wormcast quickstart\n");
  std::printf("===================\n\n");
  std::printf("One 1 KB multicast to 6 members on an idle 4x4 torus "
              "(latency in byte-times; 1 bt = 12.5 ns at 640 Mb/s):\n");
  for (const Scheme s :
       {Scheme::kRepeatedUnicast, Scheme::kHamiltonianSF,
        Scheme::kHamiltonianCT, Scheme::kTreeSF, Scheme::kTreeBroadcast,
        Scheme::kCentralizedCredit})
    one_message_demo(s);

  std::printf("\nUnder Poisson load (offered 0.05, 15%% multicast):\n");
  for (const Scheme s : {Scheme::kRepeatedUnicast, Scheme::kHamiltonianSF,
                         Scheme::kHamiltonianCT, Scheme::kTreeBroadcast})
    loaded_demo(s);

  std::printf("\nSwitch-level broadcast (fabric replication through the "
              "up/down tree):\n");
  {
    ExperimentConfig cfg;
    cfg.routing.tree_links_only = true;
    Network net(make_torus(4, 4), {}, cfg);
    net.send_switch_broadcast(/*src=*/5, /*payload=*/1024);
    net.run_to_quiescence();
    std::printf("  broadcast to %d hosts: mean latency %.0f bt\n",
                net.num_hosts() - 1, net.metrics().mcast_latency().mean());
  }
  return 0;
}

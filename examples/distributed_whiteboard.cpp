// A 'wb'-style distributed whiteboard (the paper demonstrates its Myrinet
// multicast with exactly this application, Section 8.1).
//
// Eight participants on the 4-switch Myrinet testbed share a whiteboard.
// Every stroke is multicast to the group through a class-D IP address
// mapped onto a Myrinet group (low 8 bits). Strokes must appear in the
// same order on every screen, so the totally ordered Hamiltonian circuit
// is used; the example verifies the order property and reports per-stroke
// latency.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "ip_mapping.h"
#include "core/network.h"
#include "net/topologies.h"
#include "sim/random.h"

using namespace wormcast;

int main() {
  std::printf("distributed whiteboard on a 4-switch Myrinet\n");
  std::printf("============================================\n\n");

  // The session's IP multicast group and its fabric-level mapping.
  const std::uint32_t session_ip = ipv4(224, 2, 127, 61);  // a wb session
  const GroupId fabric_group = myrinet_group_of(session_ip);
  std::printf("IP group 224.2.127.61 -> Myrinet multicast group %d\n\n",
              fabric_group);

  MulticastGroupSpec group;
  group.id = fabric_group;
  for (HostId h = 0; h < 8; ++h) group.members.push_back(h);

  ExperimentConfig cfg;
  cfg.protocol.scheme = Scheme::kHamiltonianSF;
  cfg.protocol.total_ordering = true;  // strokes in the same order everywhere
  Network net(make_myrinet_testbed(), {group}, cfg);

  // 60 strokes from users drawing concurrently: Poisson-ish arrivals,
  // small stroke packets (a few hundred bytes of vector data).
  RandomStream rng(42);
  const int strokes = 60;
  for (int i = 0; i < strokes; ++i) {
    const Time when = 1 + i * 400 + rng.uniform(0, 200);
    const auto artist = static_cast<HostId>(rng.uniform(0, 7));
    const auto len = rng.uniform(80, 600);
    net.sim().at(when, [&net, artist, len, fabric_group] {
      Demand d;
      d.src = artist;
      d.multicast = true;
      d.group = fabric_group;
      d.length = len;
      net.inject(d);
    });
  }
  net.run_to_quiescence();

  std::printf("strokes drawn:      %d\n", strokes);
  std::printf("strokes delivered:  %lld (to 7 peers each)\n",
              static_cast<long long>(net.metrics().messages_completed()));
  std::printf("per-peer latency:   mean %.0f bt (%.1f us), p95 %.0f bt\n",
              net.metrics().mcast_latency().mean(),
              net.metrics().mcast_latency().mean() * 0.0125,
              net.metrics().mcast_latency().percentile(95));

  // Verify every participant rendered the strokes in the same order.
  // Artists do not receive their own strokes over the network, so compare
  // each pair of screens on the strokes both actually rendered.
  bool consistent = true;
  for (HostId a = 0; a < 8 && consistent; ++a) {
    const auto* oa = net.metrics().order_of(a, fabric_group);
    if (oa == nullptr) continue;
    for (HostId b = a + 1; b < 8 && consistent; ++b) {
      const auto* ob = net.metrics().order_of(b, fabric_group);
      if (ob == nullptr) continue;
      const auto common = [](const std::vector<std::uint64_t>& xs,
                             const std::vector<std::uint64_t>& ys) {
        std::vector<std::uint64_t> out;
        for (const auto id : xs)
          if (std::find(ys.begin(), ys.end(), id) != ys.end())
            out.push_back(id);
        return out;
      };
      if (common(*oa, *ob) != common(*ob, *oa)) consistent = false;
    }
  }
  std::printf("render order:       %s on all screens\n",
              consistent ? "IDENTICAL" : "DIVERGED");
  return consistent ? 0 : 1;
}

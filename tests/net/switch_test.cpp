// Crossbar switch mechanics: source-route stripping, output arbitration,
// slack-buffer backpressure bounds, wormhole pipelining.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/network.h"
#include "net/topologies.h"

namespace wormcast {
namespace {

ExperimentConfig basic() {
  ExperimentConfig cfg;
  cfg.protocol.scheme = Scheme::kHamiltonianSF;
  return cfg;
}

TEST(Switch, WormholePipeliningBeatsStoreAndForwardAcrossSwitches) {
  // End-to-end latency across 4 switches should be roughly transmission
  // time + per-hop latencies, NOT 4x transmission time (wormhole, not
  // store-and-forward in the fabric).
  Network net(make_line(4), {}, basic());
  Demand d;
  d.src = 0;
  d.dst = 3;
  d.length = 2000;
  net.inject(d);
  net.run_to_quiescence();
  const double lat = net.metrics().unicast_latency().mean();
  // Store-and-forward at each of 4 switches would cost > 4 * 2000.
  EXPECT_LT(lat, 2.0 * 2000);
  EXPECT_GT(lat, 2000);
}

TEST(Switch, ContendersForOnePortAreServedInArrivalOrder) {
  // Hosts 1..4 all send to host 0 on a star: the hub serializes them.
  Network net(make_star(5), {}, basic());
  for (HostId h = 1; h <= 4; ++h) {
    Demand d;
    d.src = h;
    d.dst = 0;
    d.length = 500;
    // Stagger injections slightly so arrival order is deterministic.
    net.sim().at(h, [&net, d] { net.inject(d); });
  }
  net.run_to_quiescence();
  EXPECT_EQ(net.adapter(0).worms_received(), 4);
  EXPECT_EQ(net.adapter(0).payload_bytes_received(), 2000);
  // Completion takes at least 4 serialized transmissions.
  EXPECT_GT(net.sim().now(), 4 * 500);
  EXPECT_EQ(net.fabric().total_overflows(), 0);
}

TEST(Switch, SlackBuffersNeverOverflowUnderHeavyContention) {
  ExperimentConfig cfg = basic();
  cfg.traffic.offered_load = 0.6;  // way past saturation
  cfg.traffic.multicast_fraction = 0.0;
  Network net(make_torus(4, 4), {}, cfg);
  net.run(5'000, 60'000, /*drain_cap=*/0);
  EXPECT_EQ(net.fabric().total_overflows(), 0);
}

TEST(Switch, BlockedWormOccupiesBoundedSlack) {
  // Host 1 sends a long worm to host 2 while host 0's long worm holds the
  // path: host 1's worm must wait with only a slack-bounded prefix inside
  // the fabric (the rest backpressured into the source adapter).
  Network net(make_line(3), {}, basic());
  Demand a;
  a.src = 0;
  a.dst = 2;
  a.length = 4000;
  net.inject(a);
  net.sim().at(50, [&] {
    Demand b;
    b.src = 1;
    b.dst = 2;
    b.length = 4000;
    net.inject(b);
  });
  // Mid-flight: worm B is blocked at switch 1 (output toward switch 2 is
  // busy); its buffered prefix must respect the slack capacity.
  net.run_until(2'000);
  SwitchRt& sw1 = net.fabric().switch_at(net.topology().switch_of_host(1));
  std::int64_t max_buffered = 0;
  for (PortId p = 0; p < static_cast<PortId>(sw1.n_ports()); ++p)
    max_buffered = std::max(max_buffered, sw1.in_port(p).buffered());
  EXPECT_GT(max_buffered, 0);
  EXPECT_LE(max_buffered, sw1.slack_capacity(0));
  net.run_to_quiescence();
  EXPECT_EQ(net.adapter(2).payload_bytes_received(), 8000);
  EXPECT_EQ(net.fabric().total_overflows(), 0);
}

TEST(Switch, RouteStrippingConservesPayload) {
  // Whatever the path length, the payload delivered equals the payload
  // sent (one route byte consumed and one checksum appended per hop).
  for (int n_switches : {2, 4, 8}) {
    Network net(make_line(n_switches), {}, basic());
    Demand d;
    d.src = 0;
    d.dst = static_cast<HostId>(n_switches - 1);
    d.length = 777;
    net.inject(d);
    net.run_to_quiescence();
    EXPECT_EQ(net.adapter(d.dst).payload_bytes_received(), 777)
        << n_switches << " switches";
  }
}

TEST(Switch, LongerPathsCostMoreLatency) {
  Network net(make_line(6), {}, basic());
  Demand near;
  near.src = 0;
  near.dst = 1;
  near.length = 400;
  net.inject(near);
  net.run_to_quiescence();
  const double lat_near = net.metrics().unicast_latency().mean();

  Network net2(make_line(6), {}, basic());
  Demand far;
  far.src = 0;
  far.dst = 5;
  far.length = 400;
  net2.inject(far);
  net2.run_to_quiescence();
  const double lat_far = net2.metrics().unicast_latency().mean();
  EXPECT_GT(lat_far, lat_near);
  // But only by per-hop latency, not by full retransmissions.
  EXPECT_LT(lat_far, lat_near + 400);
}

TEST(Switch, LongLinkRunsKeepStopAndGoOnTheirPerByteTicks) {
  // Host 1 streams a long worm over a 40 bt link into switch 1, whose
  // cut-through input forwards it toward host 2 once host 0's worm has
  // released the output it needs. Until then the input fills, STOPs its
  // transmitter, and GOes again as the worm drains. Burst mode commits
  // runs past any static slack budget on that link, yet every tick's
  // logical occupancy, send count and STOP state must match per-byte
  // stepping, and STOP/GO must land exactly d after the tick the
  // occupancy crossed its threshold.
  constexpr Time kDelay = 40;
  struct Run {
    std::vector<std::int64_t> occupancy;  // after each tick
    std::vector<std::int64_t> sent;       // host 1's link, after each tick
    std::vector<bool> stopped;
    std::int64_t longest_run = 0;
  };
  const auto run_mode = [&](bool burst) {
    ExperimentConfig cfg = basic();
    cfg.fabric.burst_channels = burst;
    Network net(make_line(3, kDelay, kDelay), {}, cfg);
    net.enable_tracing(std::size_t{1} << 16);
    Demand a;
    a.src = 0;
    a.dst = 2;
    a.length = 1500;
    net.inject(a);
    net.sim().at(300, [&net] {
      Demand b;
      b.src = 1;
      b.dst = 2;
      b.length = 3000;
      net.inject(b);
    });
    SwitchRt& sw = net.fabric().switch_at(net.topology().switch_of_host(1));
    Channel& link = net.fabric().host_tx_channel(1);
    PortId in = kNoPort;
    for (PortId p = 0; p < static_cast<PortId>(sw.n_ports()); ++p)
      if (sw.in_channel(p) == &link) in = p;
    Run r;
    for (Time t = 0; t < 8'000; ++t) {
      net.run_until(t);
      r.occupancy.push_back(sw.in_port(in).buffered());
      r.sent.push_back(link.bytes_sent());
      r.stopped.push_back(link.tx_stopped());
    }
    net.run_to_quiescence();
    EXPECT_EQ(net.adapter(2).payload_bytes_received(), 4500);
    const NodeId host1 = net.topology().node_of_host(1);
    for (const TraceEvent& e : net.sim().tracer().snapshot(1 << 16))
      if (e.type == TraceEventType::kChanBurst && e.node == host1)
        r.longest_run = std::max(r.longest_run, e.arg);
    return r;
  };
  const Run burst = run_mode(true);
  const Run per_byte = run_mode(false);
  EXPECT_EQ(burst.occupancy, per_byte.occupancy);
  EXPECT_EQ(burst.sent, per_byte.sent);
  EXPECT_EQ(burst.stopped, per_byte.stopped);
  EXPECT_EQ(per_byte.longest_run, 0);
  const SwitchConfig sw_cfg;
  EXPECT_GT(burst.longest_run, sw_cfg.stop_threshold - 1)
      << "no run longer than the static slack budget";

  const std::vector<std::int64_t>& occ = burst.occupancy;
  const auto tick = [](auto it, auto begin) {
    return static_cast<Time>(it - begin);
  };
  // STOP: decided on the first tick the occupancy reaches the threshold,
  // in effect d later; the transmitter's last byte goes out the tick before.
  const auto full = std::find_if(occ.begin(), occ.end(), [&](std::int64_t o) {
    return o >= sw_cfg.stop_threshold;
  });
  ASSERT_NE(full, occ.end());
  const Time stop_at = tick(full, occ.begin()) + kDelay;
  const auto& stopped = burst.stopped;
  const auto& sent = burst.sent;
  ASSERT_LT(stop_at + 1, static_cast<Time>(stopped.size()));
  EXPECT_FALSE(stopped[stop_at - 1]);
  EXPECT_TRUE(stopped[stop_at]);
  EXPECT_GT(sent[stop_at - 1], sent[stop_at - 2]);
  EXPECT_EQ(sent[stop_at], sent[stop_at - 1]);
  // GO: decided on the first later tick the occupancy falls to the GO
  // threshold, in effect d later, when sending resumes.
  const auto drained =
      std::find_if(full, occ.end(), [&](std::int64_t o) {
        return o <= sw_cfg.go_threshold;
      });
  ASSERT_NE(drained, occ.end());
  const Time go_at = tick(drained, occ.begin()) + kDelay;
  ASSERT_LT(go_at, static_cast<Time>(stopped.size()));
  EXPECT_TRUE(stopped[go_at - 1]);
  EXPECT_FALSE(stopped[go_at]);
  EXPECT_EQ(sent[go_at - 1], sent[stop_at]);
  EXPECT_GT(sent[go_at], sent[go_at - 1]);
}

}  // namespace
}  // namespace wormcast

// Crossbar switch mechanics: source-route stripping, output arbitration,
// slack-buffer backpressure bounds, wormhole pipelining.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <tuple>
#include <utility>
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

/// Every flight-recorder event but the run records, sorted.
std::vector<std::tuple<Time, int, std::int32_t, std::int32_t>> decisions(
    const std::vector<TraceEvent>& trace) {
  std::vector<std::tuple<Time, int, std::int32_t, std::int32_t>> out;
  for (const TraceEvent& e : trace)
    if (e.type != TraceEventType::kChanBurst)
      out.emplace_back(e.t, static_cast<int>(e.type), e.node, e.port);
  std::sort(out.begin(), out.end());
  return out;
}

TEST(Switch, GoDecidedWhileReleasedBytesLeaveKeepsRunsExact) {
  // With K_g = K_s - 1 a port can decide a GO at occupancy K_s - 1 while
  // released bytes still leave, so the next arrival will STOP again. Its
  // slack budget ignores that (DESIGN §6b): the STOP the GO answers still
  // stands at the transmitter and cuts any run there, and a later STOP
  // lands after it. One worm crosses a line of three switches on 3 bt
  // links (no lookahead) with K_s = 4; switch 1's input from switch 0
  // STOPs and GOes as the worm streams, and every tick must match
  // per-byte stepping.
  constexpr std::int64_t kStop = 4;
  constexpr Time kDelay = 3;
  struct Run {
    std::vector<std::int64_t> occupancy;  // switch 1's input, after each tick
    std::vector<std::int64_t> sent;       // switch 0 -> switch 1
    std::vector<bool> stopped;
    std::vector<TraceEvent> trace;
    NodeId sw0 = kNoNode;
    NodeId sw1 = kNoNode;
    PortId sw0_to_sw1 = kNoPort;
    PortId sw1_to_sw2 = kNoPort;
  };
  const auto run_mode = [&](bool burst) {
    ExperimentConfig cfg = basic();
    cfg.fabric.burst_channels = burst;
    cfg.fabric.sw.stop_threshold = kStop;
    cfg.fabric.sw.go_threshold = kStop - 1;
    Network net(make_line(3, kDelay, kDelay), {}, cfg);
    net.enable_tracing(std::size_t{1} << 16);
    Demand d;
    d.src = 0;
    d.dst = 2;
    d.length = 1'500;
    net.inject(d);
    const Topology& topo = net.topology();
    Run r;
    r.sw0 = topo.switch_of_host(0);
    r.sw1 = topo.switch_of_host(1);
    SwitchRt& sw0 = net.fabric().switch_at(r.sw0);
    SwitchRt& sw1 = net.fabric().switch_at(r.sw1);
    for (PortId p = 0; p < static_cast<PortId>(sw0.n_ports()); ++p)
      if (topo.neighbor_via(r.sw0, p) == r.sw1) r.sw0_to_sw1 = p;
    for (PortId p = 0; p < static_cast<PortId>(sw1.n_ports()); ++p)
      if (topo.neighbor_via(r.sw1, p) == topo.switch_of_host(2))
        r.sw1_to_sw2 = p;
    Channel& link = *sw0.out_port(r.sw0_to_sw1).channel;
    PortId in = kNoPort;
    for (PortId p = 0; p < static_cast<PortId>(sw1.n_ports()); ++p)
      if (sw1.in_channel(p) == &link) in = p;
    for (Time t = 0; t < 2'000; ++t) {
      net.run_until(t);
      r.occupancy.push_back(sw1.in_port(in).buffered());
      r.sent.push_back(link.bytes_sent());
      r.stopped.push_back(link.tx_stopped());
    }
    net.run_to_quiescence();
    EXPECT_EQ(net.adapter(2).payload_bytes_received(), 1'500);
    EXPECT_EQ(net.fabric().total_overflows(), 0);
    r.trace = net.sim().tracer().snapshot(std::size_t{1} << 16);
    return r;
  };
  const Run burst = run_mode(true);
  const Run per_byte = run_mode(false);
  EXPECT_EQ(burst.occupancy, per_byte.occupancy);
  EXPECT_EQ(burst.sent, per_byte.sent);
  EXPECT_EQ(burst.stopped, per_byte.stopped);
  EXPECT_EQ(decisions(burst.trace), decisions(per_byte.trace));

  // A GO landing at G on switch 0's link was decided at g = G - d; the
  // STOP it answers, landing at L, was still in flight then when L > g.
  // Count the GOs decided at occupancy K_s - 1 while a run switch 1's
  // output committed by g still sends in g + 1.
  Time stop_landed = -1;
  std::vector<std::pair<Time, Time>> stop_go;  // (STOP landing, GO landing)
  std::map<Time, Time> run_end;  // switch 1's output: run start -> last send
  for (const TraceEvent& e : burst.trace) {
    if (e.node == burst.sw0 && e.port == burst.sw0_to_sw1) {
      if (e.type == TraceEventType::kChanStop) stop_landed = e.t;
      if (e.type == TraceEventType::kChanGo)
        stop_go.emplace_back(stop_landed, e.t);
    }
    if (e.node == burst.sw1 && e.port == burst.sw1_to_sw2 &&
        e.type == TraceEventType::kChanBurst)
      run_end[e.t] = e.t + e.arg - 1;
  }
  int reached = 0;
  for (const auto& [stop_at, go_at] : stop_go) {
    const Time g = go_at - kDelay;
    const auto run = run_end.upper_bound(g);  // first run starting after g
    const bool leaving = run != run_end.begin() && std::prev(run)->second > g;
    if (stop_at > g && leaving &&
        burst.occupancy[static_cast<std::size_t>(g)] == kStop - 1)
      ++reached;
  }
  EXPECT_GT(reached, 0) << "no GO was decided while released bytes left";
}

// Established worms (DESIGN §6b): once a unicast worm holds every output
// from an input port to its receiving adapter, with no STOP sent, in
// effect or in flight on the way, the channel into that port moves the
// rest of its body in one run. Three switches in a line on 5 bt links;
// host 1's worm C to host 2 holds switch 1's output toward switch 2 while
// host 0's worm A to host 2 arrives behind it, so A's prefix backs up
// into switches 1 and 0 (STOP/GO on both links), then streams freely once
// C's tail has passed.
struct LineRun {
  struct Tick {
    std::int64_t occ0 = 0;   // switch 0's input from host 0
    std::int64_t occ1 = 0;   // switch 1's input from switch 0
    std::int64_t sent0 = 0;  // host 0's link
    std::int64_t sent1 = 0;  // switch 0 -> switch 1
    bool stopped0 = false;
    bool stopped1 = false;
    bool operator==(const Tick&) const = default;
  };
  std::vector<Tick> ticks;
  /// Per tick: the input port on switch 0 holding A reports that A drains
  /// freely (the walk that lets its channel commit one long run).
  std::vector<bool> established;
  std::vector<TraceEvent> trace;
  std::uint64_t a_id = 0;
  NodeId host0 = kNoNode;
  NodeId sw0 = kNoNode;
  NodeId sw1 = kNoNode;
  PortId sw0_to_sw1 = kNoPort;
};

constexpr Time kLineTicks = 6'000;
constexpr std::int64_t kWormA = 3'000;

/// Runs the line scenario; `queue_b` adds a worm B from host 0 to host 2
/// that leaves right behind A (no adapter gap), so it queues behind A at
/// switch 0's input.
LineRun run_line(bool burst, bool queue_b = false) {
  ExperimentConfig cfg = basic();
  cfg.fabric.burst_channels = burst;
  if (queue_b) cfg.adapter.tx_overhead = 0;
  Network net(make_line(3), {}, cfg);
  net.enable_tracing(std::size_t{1} << 16);
  const auto send = [&net](HostId src, std::int64_t length) {
    Demand d;
    d.src = src;
    d.dst = 2;
    d.length = length;
    net.inject(d);
  };
  if (!queue_b) send(1, 1'500);  // C
  net.sim().at(50, [&] {
    send(0, kWormA);  // A
    if (queue_b) send(0, 2'000);  // B
  });

  LineRun r;
  const Topology& topo = net.topology();
  r.host0 = topo.node_of_host(0);
  r.sw0 = topo.switch_of_host(0);
  r.sw1 = topo.switch_of_host(1);
  SwitchRt& sw0 = net.fabric().switch_at(r.sw0);
  SwitchRt& sw1 = net.fabric().switch_at(r.sw1);
  Channel& link0 = net.fabric().host_tx_channel(0);
  PortId in0 = kNoPort;
  for (PortId p = 0; p < static_cast<PortId>(sw0.n_ports()); ++p)
    if (sw0.in_channel(p) == &link0) in0 = p;
  PortId in1 = kNoPort;
  for (PortId q = 0; q < static_cast<PortId>(sw0.n_ports()); ++q)
    for (PortId p = 0; p < static_cast<PortId>(sw1.n_ports()); ++p)
      if (sw1.in_channel(p) == sw0.out_port(q).channel) {
        r.sw0_to_sw1 = q;
        in1 = p;
      }
  Channel& link1 = *sw0.out_port(r.sw0_to_sw1).channel;
  WormPtr a;
  for (Time t = 0; t < kLineTicks; ++t) {
    net.run_until(t);
    InPort& port0 = sw0.in_port(in0);
    if (a == nullptr && port0.buffered() > 0) a = port0.front_worm();
    r.established.push_back(a != nullptr && sw0.sink(in0)->drains_freely(*a));
    r.ticks.push_back({port0.buffered(), sw1.in_port(in1).buffered(),
                       link0.bytes_sent(), link1.bytes_sent(),
                       link0.tx_stopped(), link1.tx_stopped()});
  }
  net.run_to_quiescence();
  EXPECT_EQ(net.adapter(2).payload_bytes_received(),
            kWormA + (queue_b ? 2'000 : 1'500));
  EXPECT_EQ(net.fabric().total_overflows(), 0);
  r.a_id = a != nullptr ? a->id : 0;
  r.trace = net.sim().tracer().snapshot(std::size_t{1} << 16);
  return r;
}

TEST(Switch, EstablishedWormCrossesEachHopInOneRun) {
  const LineRun burst = run_line(true);
  const LineRun per_byte = run_line(false);
  // Every tick's occupancy, send count and STOP state, and every STOP,
  // GO, head, tail and grant, match per-byte stepping.
  EXPECT_TRUE(burst.ticks == per_byte.ticks);
  EXPECT_EQ(decisions(burst.trace), decisions(per_byte.trace));
  const SwitchConfig sw_cfg;
  int stops = 0;
  for (const TraceEvent& e : burst.trace)
    if (e.type == TraceEventType::kChanStop && e.node == burst.sw0) ++stops;
  EXPECT_GT(stops, 0) << "A never backed up into switch 0";

  // On each of A's four channels, one run carries at least half of A and
  // is its last run of more than one byte: the body moved in one run per
  // hop once A held its path; only the tail followed.
  std::map<std::int32_t, std::vector<const TraceEvent*>> runs;  // by node
  for (const TraceEvent& e : burst.trace)
    if (e.type == TraceEventType::kChanBurst && e.worm == burst.a_id)
      runs[e.node].push_back(&e);
  EXPECT_EQ(runs.size(), 4u);
  for (const auto& [node, list] : runs) {
    const auto longest = std::max_element(
        list.begin(), list.end(),
        [](const TraceEvent* x, const TraceEvent* y) { return x->arg < y->arg; });
    EXPECT_GE((*longest)->arg, kWormA / 2) << "node " << node;
    EXPECT_EQ(longest, list.end() - 1) << "node " << node;
    EXPECT_GT((*longest)->arg, sw_cfg.stop_threshold - 1);
  }
}

TEST(Switch, WormQueuedBehindAnEstablishedOneKeepsTheSlackBudget) {
  // B leaves host 0 right behind A's tail, so its head reaches switch 0
  // while A's last bytes are still there. Until A's tail has left, B's
  // runs into switch 0 stay within the static slack budget; later B holds
  // its own path and streams too.
  const LineRun burst = run_line(true, /*queue_b=*/true);
  const LineRun per_byte = run_line(false, /*queue_b=*/true);
  EXPECT_TRUE(burst.ticks == per_byte.ticks);
  EXPECT_EQ(decisions(burst.trace), decisions(per_byte.trace));
  Time a_leaves = kTimeNever;
  Time b_arrives = kTimeNever;
  std::uint64_t b_id = 0;
  for (const TraceEvent& e : burst.trace) {
    if (e.type == TraceEventType::kChanTail && e.node == burst.sw0 &&
        e.worm == burst.a_id)
      a_leaves = e.t;
    if (e.type == TraceEventType::kChanHead && e.node == burst.host0 &&
        e.worm != burst.a_id && b_id == 0) {
      b_id = e.worm;
      b_arrives = e.t + kDefaultLinkDelay;
    }
  }
  ASSERT_NE(a_leaves, kTimeNever);
  ASSERT_NE(b_id, 0u);
  ASSERT_LT(b_arrives, a_leaves) << "B never queued behind A";
  const SwitchConfig sw_cfg;
  int queued_runs = 0;
  std::int64_t longest = 0;
  for (const TraceEvent& e : burst.trace) {
    if (e.type != TraceEventType::kChanBurst || e.node != burst.host0 ||
        e.worm != b_id)
      continue;
    longest = std::max(longest, e.arg);
    if (e.t < a_leaves) {
      ++queued_runs;
      EXPECT_LE(e.arg, sw_cfg.stop_threshold - 1) << "at " << e.t;
    }
  }
  EXPECT_GT(queued_runs, 0);
  EXPECT_GE(longest, 1'000) << "B never streamed once A had gone";
}

TEST(Switch, StopSentOrInFlightBlocksWideningUntilTheGoLands) {
  // Downstream of switch 0's input, from the tick switch 1 decides a STOP
  // until the GO that answers it lands on switch 0's output, A is not
  // established at switch 0: switch 1's input holds stop_sent_, then the
  // STOP, the stopped transmitter and the GO stand in the way. At switch
  // 0's own input the window ends when the GO is decided (its input link
  // stays stopped until the GO lands, so nothing can widen there anyway).
  // Once the last GO has landed, A is established.
  const LineRun r = run_line(true);
  int windows = 0;
  Time last_go = -1;
  for (const auto& [node, port, open_until_landing] :
       {std::tuple{r.host0, PortId{0}, false},
        std::tuple{r.sw0, r.sw0_to_sw1, true}}) {
    Time decided = kTimeNever;
    for (const TraceEvent& e : r.trace) {
      if (e.node != node || e.port != port) continue;
      if (e.type == TraceEventType::kChanStop) {
        decided = e.t - kDefaultLinkDelay;
      } else if (e.type == TraceEventType::kChanGo && decided != kTimeNever) {
        ++windows;
        const Time end = open_until_landing ? e.t : e.t - kDefaultLinkDelay;
        for (Time t = decided; t < end; ++t)
          EXPECT_FALSE(r.established[static_cast<std::size_t>(t)])
              << "established at " << t << " inside [" << decided << ", "
              << end << ") on node " << node;
        last_go = std::max(last_go, e.t);
        decided = kTimeNever;
      }
    }
  }
  EXPECT_GE(windows, 2) << "both links must STOP and GO";
  ASSERT_GE(last_go, 0);
  EXPECT_TRUE(std::find(r.established.begin() + last_go, r.established.end(),
                        true) != r.established.end())
      << "A never established after the last GO";
}

}  // namespace
}  // namespace wormcast

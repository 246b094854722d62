// Switch-level multicasting (Section 3): fabric replication along the
// encoded tree, root-flood broadcast, scheme (b) fragmentation, and
// scheme (c) flushing of unicasts blocked on multicast-IDLE ports.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "core/network.h"
#include "net/mcast_route_builder.h"
#include "net/topologies.h"

namespace wormcast {
namespace {

ExperimentConfig switch_cfg(SwitchMcastScheme scheme) {
  ExperimentConfig cfg;
  cfg.switch_mcast.scheme = scheme;
  // Scheme (a) requires every worm to stay on the up/down spanning tree.
  cfg.routing.tree_links_only = true;
  return cfg;
}

TEST(McastRouteBuilder, PathsMergeIntoATree) {
  const Topology topo = make_torus(4, 4);
  UpDownOptions opts;
  opts.tree_links_only = true;
  const UpDownRouting routing(topo, opts);
  const auto branches =
      build_mcast_branches(routing, 0, {0, 3, 7, 11, 14});
  // Encodes and splits without error; total leaf count = 4 destinations.
  const auto enc = EncodedMcastRoute::encode(branches);
  std::function<int(const std::vector<McastRouteTree>&)> leaves =
      [&](const std::vector<McastRouteTree>& ts) {
        int n = 0;
        for (const auto& t : ts)
          n += t.children.empty() ? 1 : leaves(t.children);
        return n;
      };
  EXPECT_EQ(leaves(enc.decode()), 4);
}

TEST(McastRouteBuilder, NoDestinationsThrows) {
  const Topology topo = make_star(3);
  const UpDownRouting routing(topo);
  EXPECT_THROW(build_mcast_branches(routing, 1, {1}),
               std::invalid_argument);
}

class SwitchMcastSchemeTest
    : public ::testing::TestWithParam<SwitchMcastScheme> {};

TEST_P(SwitchMcastSchemeTest, MulticastReachesExactlyTheGroup) {
  MulticastGroupSpec group;
  group.id = 0;
  group.members = {1, 3, 4, 6};
  Network net(make_torus(3, 3), {group}, switch_cfg(GetParam()));
  auto ctx = net.send_switch_multicast(1, 0, 300);
  net.run_to_quiescence();
  EXPECT_EQ(ctx->destinations_reached, 3);
  for (HostId h = 0; h < net.num_hosts(); ++h) {
    const bool member = h == 3 || h == 4 || h == 6;
    EXPECT_EQ(net.adapter(h).payload_bytes_received(), member ? 300 : 0)
        << "host " << h;
  }
  EXPECT_EQ(net.fabric().total_overflows(), 0);
  EXPECT_GE(net.switch_mcast_engine().connections_opened(), 1);
}

TEST_P(SwitchMcastSchemeTest, BroadcastReachesEveryOtherHost) {
  Network net(make_torus(3, 3), {}, switch_cfg(GetParam()));
  auto ctx = net.send_switch_broadcast(4, 250);
  net.run_to_quiescence();
  EXPECT_EQ(ctx->destinations_reached, 8);
  for (HostId h = 0; h < net.num_hosts(); ++h) {
    if (h == 4) continue;
    EXPECT_EQ(net.adapter(h).payload_bytes_received(), 250) << "host " << h;
  }
  EXPECT_EQ(net.metrics().outstanding(), 0);
}

TEST_P(SwitchMcastSchemeTest, BackToBackBroadcastsAllComplete) {
  Network net(make_torus(3, 3), {}, switch_cfg(GetParam()));
  for (int i = 0; i < 6; ++i)
    net.send_switch_broadcast(static_cast<HostId>(i % 9), 100 + i);
  net.run_to_quiescence();
  EXPECT_EQ(net.metrics().outstanding(), 0);
  EXPECT_EQ(net.metrics().messages_completed(), 6);
}

TEST_P(SwitchMcastSchemeTest, MulticastCompetingWithUnicastTraffic) {
  MulticastGroupSpec group;
  group.id = 0;
  group.members = {0, 2, 3};
  Network net(make_line(4), {group}, switch_cfg(GetParam()));
  // A long unicast occupies the s2->s3 link, stalling one multicast branch.
  Demand uni;
  uni.src = 2;
  uni.dst = 3;
  uni.length = 3000;
  net.inject(uni);
  net.run_until(100);
  auto ctx = net.send_switch_multicast(0, 0, 500);
  // A later unicast that needs the port the multicast branch holds.
  net.run_until(400);
  Demand blocked;
  blocked.src = 1;
  blocked.dst = 2;
  blocked.length = 2000;
  net.inject(blocked);
  net.run_to_quiescence();
  // Everything is eventually delivered under every scheme.
  EXPECT_EQ(ctx->destinations_reached, 2);
  EXPECT_EQ(net.metrics().outstanding(), 0)
      << "undelivered with scheme " << static_cast<int>(GetParam());
  EXPECT_EQ(net.fabric().total_overflows(), 0);
}

INSTANTIATE_TEST_SUITE_P(Schemes, SwitchMcastSchemeTest,
                         ::testing::Values(SwitchMcastScheme::kIdleFill,
                                           SwitchMcastScheme::kInterrupt,
                                           SwitchMcastScheme::kFlushUnicast),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case SwitchMcastScheme::kIdleFill:
                               return "idle_fill";
                             case SwitchMcastScheme::kInterrupt:
                               return "interrupt";
                             case SwitchMcastScheme::kFlushUnicast:
                               return "flush_unicast";
                           }
                           return "unknown";
                         });

TEST(SwitchMcast, FlushUnicastActuallyFlushes) {
  MulticastGroupSpec group;
  group.id = 0;
  group.members = {0, 2, 3};
  ExperimentConfig cfg = switch_cfg(SwitchMcastScheme::kFlushUnicast);
  cfg.switch_mcast.idle_flush_threshold = 64;
  Network net(make_line(4), {group}, cfg);
  // Stall the multicast branch toward host 3 with a long unicast.
  Demand uni;
  uni.src = 2;
  uni.dst = 3;
  uni.length = 6000;
  net.inject(uni);
  net.run_until(100);
  net.send_switch_multicast(0, 0, 800);
  // While the multicast idles on the s2->h2 port, a unicast to host 2
  // arrives and must be flushed, then retransmitted and delivered.
  net.run_until(600);
  Demand blocked;
  blocked.src = 1;
  blocked.dst = 2;
  blocked.length = 2000;
  net.inject(blocked);
  net.run_to_quiescence();
  EXPECT_GE(net.switch_mcast_engine().unicasts_flushed(), 1);
  EXPECT_GE(net.metrics().retransmits(), 1);
  EXPECT_EQ(net.metrics().outstanding(), 0);
  // The flushed unicast was still delivered exactly once.
  EXPECT_EQ(net.adapter(2).payload_bytes_received(), 800 + 2000);
}

// Scheme (c)'s flush handler with the fault-injection subsystem armed: the
// switch-side flush is the only fault that fires, so the flushed unicast
// must be retransmitted exactly once, delivered exactly once, and the
// engine's flush counter must agree with the run summary.
TEST(SwitchMcast, FlushedUnicastUnderArmedFaultsRetransmitsOnce) {
  MulticastGroupSpec group;
  group.id = 0;
  group.members = {0, 2, 3};
  ExperimentConfig cfg = switch_cfg(SwitchMcastScheme::kFlushUnicast);
  cfg.switch_mcast.idle_flush_threshold = 64;
  cfg.protocol.retry_jitter = 0;
  // Back off past the stalling unicast so the single retry finds the port
  // clean instead of being flushed a second time.
  cfg.protocol.retry_backoff = 8'000;
  Network net(make_line(4), {group}, cfg);
  // Arm the injector without any probabilistic fault: a momentary outage
  // window before traffic exists keeps every hook site live for the run.
  net.faults().schedule_outage(nullptr, 0, 1);
  Demand uni;
  uni.src = 2;
  uni.dst = 3;
  uni.length = 6000;
  net.inject(uni);
  net.run_until(100);
  net.send_switch_multicast(0, 0, 800);
  net.run_until(600);
  Demand blocked;
  blocked.src = 1;
  blocked.dst = 2;
  blocked.length = 2000;
  net.inject(blocked);
  net.run_to_quiescence();

  ASSERT_TRUE(net.faults().armed());
  const Network::Summary s = net.summary();
  EXPECT_EQ(s.unicasts_flushed, 1);
  EXPECT_EQ(net.switch_mcast_engine().unicasts_flushed(), 1)
      << "summary must mirror the engine counter";
  EXPECT_EQ(s.counts.retransmits, 1) << "the flush retry, and only it";
  EXPECT_EQ(s.outstanding, 0);
  // Exactly once: the multicast copy plus the one retried unicast.
  EXPECT_EQ(net.adapter(2).payload_bytes_received(), 800 + 2000);
}

TEST(SwitchMcast, InterruptProducesFragmentsUnderContention) {
  MulticastGroupSpec group;
  group.id = 0;
  group.members = {0, 2, 3};
  ExperimentConfig cfg = switch_cfg(SwitchMcastScheme::kInterrupt);
  cfg.switch_mcast.interrupt_check = 16;
  Network net(make_line(4), {group}, cfg);
  Demand uni;
  uni.src = 2;
  uni.dst = 3;
  uni.length = 6000;
  net.inject(uni);
  net.run_until(100);
  auto ctx = net.send_switch_multicast(0, 0, 800);
  net.run_to_quiescence();
  EXPECT_EQ(ctx->destinations_reached, 2);
  // The stalled branch forced at least one extra fragment beyond the
  // initial per-branch fragments.
  EXPECT_GT(net.switch_mcast_engine().fragments_sent(),
            net.switch_mcast_engine().connections_opened());
  EXPECT_EQ(net.metrics().outstanding(), 0);
}

// Established switch multicasts (DESIGN §6b): once every branch of a
// connection is mid-body and drains freely down to the adapters, the
// channel into the connection's input, and every branch channel below it,
// moves the rest of the body in one run. Four switches in a line on 5 bt
// links; host 0 multicasts to hosts 2 and 3, so switches 0 and 1 forward
// one branch each and switch 2 replicates toward host 2 and switch 3.
// `contended` first sends a long unicast from host 1 to host 3, which
// holds switch 1's output toward switch 2: the multicast backs up into
// switches 1 and 0 (STOP/GO on both links), then streams once the
// unicast's tail has passed.
struct TreeRun {
  /// Per tick, for every switch port: input occupancy, output bytes sent
  /// and output STOP state.
  std::vector<std::vector<std::int64_t>> ticks;
  /// Events dispatched by the end of each tick.
  std::vector<std::int64_t> events;
  /// Per tick: switch 0's input from host 0 reports that the multicast
  /// drains freely.
  std::vector<bool> established;
  std::vector<TraceEvent> trace;
  NodeId host0 = kNoNode;
  NodeId sw0 = kNoNode;
  NodeId sw1 = kNoNode;
  PortId sw0_to_sw1 = kNoPort;
  std::uint64_t mcast_id = 0;
};

constexpr std::int64_t kTreeBody = 1'000;

TreeRun run_tree(bool burst, bool contended) {
  MulticastGroupSpec group;
  group.id = 0;
  group.members = {0, 2, 3};
  ExperimentConfig cfg = switch_cfg(contended ? SwitchMcastScheme::kIdleFill
                                              : SwitchMcastScheme::kInterrupt);
  cfg.fabric.burst_channels = burst;
  Network net(make_line(4), {group}, cfg);
  net.enable_tracing(std::size_t{1} << 16);
  if (contended) {
    Demand uni;
    uni.src = 1;
    uni.dst = 3;
    uni.length = 3'000;
    net.inject(uni);
  }
  auto ctx = net.send_switch_multicast(0, 0, kTreeBody);

  TreeRun r;
  const Topology& topo = net.topology();
  r.host0 = topo.node_of_host(0);
  r.sw0 = topo.switch_of_host(0);
  r.sw1 = topo.switch_of_host(1);
  std::vector<SwitchRt*> switches;
  for (NodeId n = 0; n < topo.num_nodes(); ++n)
    if (topo.node(n).kind == NodeKind::kSwitch)
      switches.push_back(&net.fabric().switch_at(n));
  SwitchRt& sw0 = net.fabric().switch_at(r.sw0);
  Channel& link0 = net.fabric().host_tx_channel(0);
  PortId in0 = kNoPort;
  for (PortId p = 0; p < static_cast<PortId>(sw0.n_ports()); ++p) {
    if (sw0.in_channel(p) == &link0) in0 = p;
    if (topo.neighbor_via(r.sw0, p) == r.sw1) r.sw0_to_sw1 = p;
  }
  WormPtr worm;
  for (Time t = 0; t < 5'000; ++t) {
    net.run_until(t);
    std::vector<std::int64_t> tick;
    for (SwitchRt* sw : switches) {
      for (PortId p = 0; p < static_cast<PortId>(sw->n_ports()); ++p) {
        const Channel& out = *sw->out_port(p).channel;
        tick.push_back(sw->in_port(p).buffered());
        tick.push_back(out.bytes_sent());
        tick.push_back(out.tx_stopped() ? 1 : 0);
      }
    }
    r.ticks.push_back(std::move(tick));
    r.events.push_back(net.sim().events_dispatched());
    InPort& port0 = sw0.in_port(in0);
    if (worm == nullptr && port0.buffered() > 0) worm = port0.front_worm();
    r.established.push_back(worm != nullptr &&
                            sw0.sink(in0)->drains_freely(*worm));
  }
  net.run_to_quiescence();
  EXPECT_EQ(ctx->destinations_reached, 2);
  EXPECT_EQ(net.adapter(2).payload_bytes_received(), kTreeBody);
  EXPECT_EQ(net.adapter(3).payload_bytes_received(),
            kTreeBody + (contended ? 3'000 : 0));
  EXPECT_EQ(net.fabric().total_overflows(), 0);
  r.mcast_id = worm != nullptr ? worm->id : 0;
  r.trace = net.sim().tracer().snapshot(std::size_t{1} << 16);
  return r;
}

/// Every flight-recorder event but the run records, sorted.
std::vector<std::tuple<Time, int, std::int32_t, std::int32_t>> tree_decisions(
    const std::vector<TraceEvent>& trace) {
  std::vector<std::tuple<Time, int, std::int32_t, std::int32_t>> out;
  for (const TraceEvent& e : trace)
    if (e.type != TraceEventType::kChanBurst)
      out.emplace_back(e.t, static_cast<int>(e.type), e.node, e.port);
  std::sort(out.begin(), out.end());
  return out;
}

TEST(SwitchMcast, EstablishedTreeCrossesEachBranchHopInOneBodyRun) {
  const TreeRun burst = run_tree(true, /*contended=*/false);
  const TreeRun per_byte = run_tree(false, /*contended=*/false);
  // Every tick's occupancy, send count and STOP state, and every head,
  // tail, STOP, GO and fragment decision, match per-byte stepping.
  EXPECT_TRUE(burst.ticks == per_byte.ticks);
  EXPECT_EQ(tree_decisions(burst.trace), tree_decisions(per_byte.trace));

  // The multicast's runs on each switch output: a head, then (toward a
  // switch) the rest of the subroute prefix as one run in the next tick,
  // then a body whose last run of more than one byte is its longest and
  // carries at least half of it, then the tail.
  struct Hop {
    Time head = kTimeNever;
    bool to_switch = false;
    std::vector<std::pair<Time, std::int64_t>> runs;
    bool tail = false;
  };
  std::map<std::pair<std::int32_t, std::int32_t>, Hop> hops;
  for (const TraceEvent& e : burst.trace) {
    if (e.worm != burst.mcast_id || e.node == burst.host0 ||
        (e.type != TraceEventType::kChanHead &&
         e.type != TraceEventType::kChanBurst &&
         e.type != TraceEventType::kChanTail))
      continue;
    Hop& hop = hops[{e.node, e.port}];
    if (e.type == TraceEventType::kChanHead) {
      hop.head = e.t;
      // Fragments toward a switch carry their subroute ahead of the body.
      hop.to_switch = e.arg > kTreeBody + 1;
    } else if (e.type == TraceEventType::kChanBurst) {
      hop.runs.emplace_back(e.t, e.arg);
    } else if (e.type == TraceEventType::kChanTail) {
      hop.tail = true;
    }
  }
  ASSERT_EQ(hops.size(), 5u) << "switches 0, 1 and 3 forward one branch, "
                                "switch 2 two";
  int to_switch = 0;
  for (const auto& [where, hop] : hops) {
    SCOPED_TRACE(testing::Message() << "node " << where.first << " port "
                                    << where.second);
    ASSERT_NE(hop.head, kTimeNever);
    ASSERT_FALSE(hop.runs.empty());
    EXPECT_TRUE(hop.tail);
    if (hop.to_switch) {
      ++to_switch;
      EXPECT_EQ(hop.runs.front().first, hop.head + 1)
          << "the prefix did not leave as one run right after the head";
    }
    const auto longest = std::max_element(
        hop.runs.begin(), hop.runs.end(),
        [](const auto& x, const auto& y) { return x.second < y.second; });
    EXPECT_GE(longest->second, kTreeBody / 2);
    EXPECT_EQ(longest, hop.runs.end() - 1);
  }
  EXPECT_EQ(to_switch, 3);
}

TEST(SwitchMcast, StopOnABranchBlocksWideningUntilTheGoLands) {
  // From the tick switch 1's input decides a STOP until the GO that
  // answers it lands on switch 0's branch channel, the multicast is not
  // established at switch 0's input: switch 1's input holds stop_sent_,
  // then the STOP, the stopped transmitter and the GO stand in the way. At
  // switch 0's own input the window ends when its GO is decided. Once the
  // last GO has landed, the multicast is established.
  const TreeRun r = run_tree(true, /*contended=*/true);
  const TreeRun per_byte = run_tree(false, /*contended=*/true);
  EXPECT_TRUE(r.ticks == per_byte.ticks);
  EXPECT_EQ(tree_decisions(r.trace), tree_decisions(per_byte.trace));
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
      << "the multicast never established after the last GO";
  // Until then, runs into switch 0 stay within the static slack budget.
  const SwitchConfig sw_cfg;
  for (const TraceEvent& e : r.trace) {
    if (e.type == TraceEventType::kChanBurst && e.node == r.host0 &&
        e.t < last_go) {
      EXPECT_LE(e.arg, sw_cfg.stop_threshold - 1) << "at " << e.t;
    }
  }
}

TEST(SwitchMcast, BranchWaitingForABufferedEncodingSchedulesNoPump) {
  // The route encoding reaches switch 0 in one run, so when the
  // connection opens its last bytes are buffered but still arriving. The
  // branch pumps once, in the tick the encoding's last byte arrives, and
  // sends its head there; nothing fires at any tick in between.
  const TreeRun r = run_tree(true, /*contended=*/false);
  Time start = kTimeNever;
  Time head = kTimeNever;
  for (const TraceEvent& e : r.trace) {
    if (e.node != r.sw0) continue;
    if (e.type == TraceEventType::kMcastStart && start == kTimeNever)
      start = e.t;
    if (e.type == TraceEventType::kChanHead && e.port == r.sw0_to_sw1 &&
        head == kTimeNever)
      head = e.t;
  }
  ASSERT_NE(start, kTimeNever);
  ASSERT_NE(head, kTimeNever);
  ASSERT_GT(head, start + 1) << "the encoding was not still arriving";
  for (Time t = start + 1; t < head; ++t)
    EXPECT_EQ(r.events[static_cast<std::size_t>(t)],
              r.events[static_cast<std::size_t>(start)])
        << "an event fired at " << t;
}

TEST(SwitchMcast, KickToALockstepLeaderInsertsNoEvent) {
  // Line of four under scheme (a): host 2's long unicast to host 3 holds
  // switch 2's output toward switch 3, so when host 0's multicast reaches
  // switch 2 its branch toward host 2 sends one body byte and then leads
  // the stalled branch toward switch 3 by that byte. The leader's channel
  // pump stays parked: a kick inserts no event, and nothing is sent until
  // the unicast's tail frees the port.
  MulticastGroupSpec group;
  group.id = 0;
  group.members = {0, 2, 3};
  Network net(make_line(4), {group}, switch_cfg(SwitchMcastScheme::kIdleFill));
  Demand uni;
  uni.src = 2;
  uni.dst = 3;
  uni.length = 3'000;
  net.inject(uni);
  auto ctx = net.send_switch_multicast(0, 0, 200);
  const Topology& topo = net.topology();
  const NodeId sw2 = topo.switch_of_host(2);
  SwitchRt& sw = net.fabric().switch_at(sw2);
  PortId to_host = kNoPort;
  PortId to_sw3 = kNoPort;
  for (PortId p = 0; p < static_cast<PortId>(sw.n_ports()); ++p) {
    if (topo.neighbor_via(sw2, p) == topo.node_of_host(2)) to_host = p;
    if (topo.neighbor_via(sw2, p) == topo.switch_of_host(3)) to_sw3 = p;
  }
  Channel& leader = *sw.out_port(to_host).channel;
  Time led = kTimeNever;
  for (Time t = 0; t < 2'000 && led == kTimeNever; ++t) {
    net.run_until(t);
    if (sw.out_port(to_host).held_by_mcast && leader.bytes_sent() == 1 &&
        sw.out_port(to_sw3).busy)
      led = t;
  }
  ASSERT_NE(led, kTimeNever) << "the branch toward host 2 never led";
  for (Time t = led + 1; t < led + 100; ++t) {
    const std::size_t pending = net.sim().pending_events();
    leader.kick();
    EXPECT_EQ(net.sim().pending_events(), pending) << "at " << t;
    net.run_until(t);
    EXPECT_EQ(leader.bytes_sent(), 1) << "the leader sent at " << t;
  }
  net.run_to_quiescence();
  EXPECT_EQ(ctx->destinations_reached, 2);
  EXPECT_EQ(net.adapter(2).payload_bytes_received(), 200);
}

// Scheme (c) with a unicast short enough to be fully buffered when its
// port turns multicast-IDLE: the flush retires the whole worm at once, and
// the worm queued behind it at the same input is routed next. Host 2's
// long unicast holds switch 2's output toward switch 3, so the multicast
// from host 0 stalls there and idles on switch 1's output toward switch 2.
// Host 1 sends a short unicast to host 2, which blocks on that port, and
// right behind it one to host 0, whose port is free.
struct ShortFlushRun {
  Network::Summary summary;
  std::vector<TraceEvent> trace;
  NodeId host1 = kNoNode;
  NodeId sw1 = kNoNode;
  std::int64_t host0_bytes = 0;
};

constexpr std::int64_t kShortUnicast = 8;
constexpr std::int64_t kNextUnicast = 200;

ShortFlushRun run_short_flush(bool burst) {
  MulticastGroupSpec group;
  group.id = 0;
  group.members = {0, 2, 3};
  ExperimentConfig cfg = switch_cfg(SwitchMcastScheme::kFlushUnicast);
  cfg.switch_mcast.idle_flush_threshold = 64;
  cfg.fabric.burst_channels = burst;
  Network net(make_line(4), {group}, cfg);
  net.enable_tracing(std::size_t{1} << 16);
  const auto send = [&net](HostId src, HostId dst, std::int64_t length) {
    Demand d;
    d.src = src;
    d.dst = dst;
    d.length = length;
    net.inject(d);
  };
  send(2, 3, 6'000);
  net.send_switch_multicast(0, 0, 800);
  net.sim().at(30, [&] {
    send(1, 2, kShortUnicast);
    send(1, 0, kNextUnicast);
  });
  net.run_to_quiescence();
  ShortFlushRun r;
  r.summary = net.summary();
  r.trace = net.sim().tracer().snapshot(std::size_t{1} << 16);
  r.host1 = net.topology().node_of_host(1);
  r.sw1 = net.topology().switch_of_host(1);
  r.host0_bytes = net.adapter(0).payload_bytes_received();
  return r;
}

TEST(SwitchMcast, FlushOfAFullyBufferedUnicastRoutesTheNextWorm) {
  const ShortFlushRun burst = run_short_flush(true);
  const ShortFlushRun per_byte = run_short_flush(false);
  EXPECT_TRUE(burst.summary == per_byte.summary);
  EXPECT_EQ(tree_decisions(burst.trace), tree_decisions(per_byte.trace));

  const ShortFlushRun& r = burst;
  EXPECT_GE(r.summary.unicasts_flushed, 1);
  EXPECT_EQ(r.summary.outstanding, 0);
  EXPECT_EQ(r.host0_bytes, kNextUnicast);
  // Host 1's first two worms: the short unicast, then the next one.
  std::vector<std::uint64_t> sent;
  for (const TraceEvent& e : r.trace)
    if (e.type == TraceEventType::kChanHead && e.node == r.host1 &&
        std::find(sent.begin(), sent.end(), e.worm) == sent.end())
      sent.push_back(e.worm);
  ASSERT_GE(sent.size(), 2u);
  const std::uint64_t short_id = sent[0];
  const std::uint64_t next_id = sent[1];
  Time tail_lands = kTimeNever;
  Time flushed = kTimeNever;
  Time next_granted = kTimeNever;
  for (const TraceEvent& e : r.trace) {
    if (e.type == TraceEventType::kChanTail && e.node == r.host1 &&
        e.worm == short_id && tail_lands == kTimeNever)
      tail_lands = e.t + kDefaultLinkDelay;
    if (e.type == TraceEventType::kMcastIdleFlush && e.node == r.sw1 &&
        e.worm == short_id && flushed == kTimeNever)
      flushed = e.t;
    if (e.type == TraceEventType::kArbGrant && e.node == r.sw1 &&
        e.worm == next_id)
      next_granted = e.t;
  }
  ASSERT_NE(flushed, kTimeNever) << "the short unicast was never flushed";
  ASSERT_NE(tail_lands, kTimeNever);
  EXPECT_LE(tail_lands, flushed) << "the flushed unicast was still arriving";
  EXPECT_EQ(next_granted, flushed + kRoutingLatency)
      << "the next worm was not routed right after the flush";
}

}  // namespace
}  // namespace wormcast

// Dynamic membership under load: join splice-in with the view floor,
// voluntary leave as a clean (suspicion-free) departure, rejoin with a
// fresh dedup epoch, shed-under-overload degradation of the bounded
// membership coordinator, flap recovery with zero lost payloads, and
// bit-identical replay of a full churn + chaos schedule.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/chaos_schedule.h"
#include "chaos/churn_engine.h"
#include "core/network.h"
#include "net/topologies.h"
#include "sim/random.h"

namespace wormcast {
namespace {

ExperimentConfig churn_config(Scheme scheme) {
  ExperimentConfig cfg;
  cfg.protocol.scheme = scheme;
  cfg.protocol.ack_timeout = 8'000;
  cfg.protocol.retry_backoff = 2'000;
  cfg.protocol.retry_jitter = 1'000;
  cfg.protocol.max_attempts = 10;
  cfg.protocol.suspicion_timeout = 60'000;
  cfg.protocol.pool_bytes = 128 * 1024;
  cfg.seed = 42;
  return cfg;
}

void inject_group_mcast(Network& net, GroupId group, HostId src,
                        std::int64_t length) {
  Demand d;
  d.src = src;
  d.multicast = true;
  d.group = group;
  d.length = length;
  net.inject(d);
}

/// Exactly-once at every surviving member of `group`.
void expect_exactly_once(Network& net, GroupId group) {
  for (HostId h = 0; h < net.num_hosts(); ++h) {
    const auto* order = net.metrics().order_of(h, group);
    if (order == nullptr) continue;
    std::set<std::uint64_t> distinct(order->begin(), order->end());
    EXPECT_EQ(order->size(), distinct.size())
        << "duplicate delivery at host " << h << " group " << group;
  }
}

class ChurnSchemeTest : public ::testing::TestWithParam<Scheme> {};

// A joiner spliced in mid-experiment receives exactly the messages
// originated after its join (the view floor), while the incumbents keep
// receiving everything.
TEST_P(ChurnSchemeTest, JoinSpliceDeliversOnlyPostJoinTraffic) {
  MulticastGroupSpec g0{0, {0, 1, 2, 3}};
  Network net(make_myrinet_testbed(), {g0}, churn_config(GetParam()));
  for (int i = 0; i < 5; ++i) inject_group_mcast(net, 0, i % 4, 300);
  net.run_until(60'000);  // pre-join traffic fully drained
  ASSERT_EQ(net.metrics().outstanding(), 0);

  net.request_join(0, 5, 60'000);
  net.run_until(100'000);  // join applied (one op through the queue)
  ASSERT_TRUE(net.tables().is_member(0, 5));
  EXPECT_TRUE(net.tables().tree(0).contains(5));
  EXPECT_EQ(net.tables().circuit(0).order(),
            (std::vector<HostId>{0, 1, 2, 3, 5}));

  for (int i = 0; i < 6; ++i) {
    const HostId src = static_cast<HostId>(i % 4);
    net.sim().at(100'000 + i * 2'000,
                 [&net, src] { inject_group_mcast(net, 0, src, 300); });
  }
  net.run_to_quiescence();

  const Network::Summary s = net.summary();
  EXPECT_EQ(s.counts.joins_requested, 1);
  EXPECT_EQ(s.counts.joins_applied, 1);
  EXPECT_EQ(s.counts.joins_shed, 0);
  EXPECT_EQ(s.counts.messages_completed, 11);
  EXPECT_EQ(net.metrics().outstanding(), 0) << net.debug_report();
  // The view floor: the joiner saw the 6 post-join messages, nothing else.
  const auto* joiner_order = net.metrics().order_of(5, 0);
  ASSERT_NE(joiner_order, nullptr);
  EXPECT_EQ(joiner_order->size(), 6u);
  // Incumbents saw all 11 (minus their own originations).
  const auto* h1_order = net.metrics().order_of(1, 0);
  ASSERT_NE(h1_order, nullptr);
  EXPECT_GE(h1_order->size(), 8u);
  expect_exactly_once(net, 0);
}

// A voluntary leave is a clean departure: no suspicion, no repair-grace
// burn, no removed host — and the whole causal history passes the
// expectation pack, including leave-no-suspect against a live detector.
TEST_P(ChurnSchemeTest, VoluntaryLeaveProducesNoSuspicion) {
  MulticastGroupSpec g0{0, {0, 1, 2, 3, 4, 5}};
  Network net(make_myrinet_testbed(), {g0}, churn_config(GetParam()));
  net.enable_tracing(std::size_t{1} << 18);
  for (int i = 0; i < 16; ++i) {
    const HostId src = static_cast<HostId>(i % 6);
    net.sim().at(1'000 + i * 2'000,
                 [&net, src] { inject_group_mcast(net, 0, src, 300); });
  }
  net.request_leave(0, 4, 12'000);  // mid-flight departure
  net.run_to_quiescence();

  const Network::Summary s = net.summary();
  EXPECT_EQ(s.counts.leaves, 1);
  EXPECT_EQ(s.counts.suspicions, 0)
      << "a clean leave must not look like a crash";
  EXPECT_EQ(s.hosts_removed, 0);
  EXPECT_FALSE(net.tables().is_member(0, 4));
  EXPECT_EQ(net.metrics().outstanding(), 0) << net.debug_report();
  expect_exactly_once(net, 0);

  const check::CheckReport rep = net.check_expectations();
  EXPECT_TRUE(rep.ok()) << rep.format();
  EXPECT_GT(rep.obligations, 0);
}

// Leave then rejoin: the member is readmitted, its dedup epoch advances
// (the rejoin-fresh-dedup rule sees the reset), and post-rejoin traffic
// reaches it exactly once.
TEST_P(ChurnSchemeTest, RejoinReadmitsWithFreshDedupEpoch) {
  MulticastGroupSpec g0{0, {0, 1, 2, 3, 4}};
  Network net(make_myrinet_testbed(), {g0}, churn_config(GetParam()));
  net.enable_tracing(std::size_t{1} << 18);
  for (int i = 0; i < 4; ++i) inject_group_mcast(net, 0, i, 300);
  net.request_leave(0, 4, 30'000);
  net.request_join(0, 4, 90'000);  // well after the leave settled
  for (int i = 0; i < 4; ++i) {
    const HostId src = static_cast<HostId>(i);
    net.sim().at(140'000 + i * 2'000,
                 [&net, src] { inject_group_mcast(net, 0, src, 300); });
  }
  net.run_to_quiescence();

  const Network::Summary s = net.summary();
  EXPECT_EQ(s.counts.leaves, 1);
  EXPECT_EQ(s.counts.joins_applied, 1);
  EXPECT_EQ(s.counts.rejoins, 1)
      << "a returning ex-member must count as a rejoin";
  EXPECT_TRUE(net.tables().is_member(0, 4));
  EXPECT_EQ(net.metrics().outstanding(), 0) << net.debug_report();
  expect_exactly_once(net, 0);

  // The trace carries the rejoin and its same-site dedup reset, and the
  // whole history (incl. rejoin-fresh-dedup) judges clean.
  bool saw_rejoin = false;
  bool saw_reset = false;
  for (const TraceEvent& e : net.sim().tracer().snapshot()) {
    if (e.type == TraceEventType::kProtoRejoin && e.node == 4) saw_rejoin = true;
    if (e.type == TraceEventType::kProtoDedupReset && e.node == 4)
      saw_reset = true;
  }
  EXPECT_TRUE(saw_rejoin);
  EXPECT_TRUE(saw_reset);
  const check::CheckReport rep = net.check_expectations();
  EXPECT_TRUE(rep.ok()) << rep.format();
}

INSTANTIATE_TEST_SUITE_P(Schemes, ChurnSchemeTest,
                         ::testing::Values(Scheme::kHamiltonianSF,
                                           Scheme::kTreeSF),
                         [](const ::testing::TestParamInfo<Scheme>& param) {
                           std::string s = scheme_name(param.param);
                           for (char& c : s)
                             if (c == '-') c = '_';
                           return s;
                         });

// Graceful degradation: a one-slot coordinator hit by a burst of joins
// sheds the overflow with capped retries instead of growing the queue,
// and every shed is explicit (the join-grace expectation holds).
TEST(ChurnOverload, BoundedQueueShedsJoinBurst) {
  ExperimentConfig cfg = churn_config(Scheme::kHamiltonianSF);
  cfg.membership.queue_limit = 1;
  cfg.membership.op_cost = 30'000;  // slow drain: the burst must shed
  cfg.membership.max_join_attempts = 2;
  cfg.membership.retry_backoff = 5'000;
  cfg.membership.retry_jitter = 2'000;
  MulticastGroupSpec g0{0, {0, 1}};
  Network net(make_myrinet_testbed(), {g0}, cfg);
  net.enable_tracing(std::size_t{1} << 18);
  for (HostId h = 2; h < 8; ++h) net.request_join(0, h, 1'000);
  net.run_to_quiescence();

  const Network::Summary s = net.summary();
  EXPECT_EQ(s.counts.joins_requested, 6);
  EXPECT_GT(s.counts.joins_shed, 0) << "the burst never overloaded the queue";
  EXPECT_GT(s.counts.joins_abandoned, 0)
      << "attempts must cap out, not retry forever";
  EXPECT_LE(s.membership_queue_peak, 1);
  EXPECT_EQ(s.counts.joins_applied + s.counts.joins_abandoned, 6)
      << "every join intent must resolve: applied or finally shed";
  const check::CheckReport rep = net.check_expectations();
  EXPECT_TRUE(rep.ok()) << rep.format();
}

// Satellite regression: a flapping link is a *transient* fault cycle —
// every down window is followed by recovery, routing never recomputes,
// and no payload is lost across any number of cycles.
TEST(ChurnChaos, FlappingLinkRecoversEveryWindowZeroLost) {
  Topology topo = make_myrinet_testbed();
  LinkId victim = kNoLink;
  for (LinkId l = 0; l < topo.num_links(); ++l) {
    const TopoLink& link = topo.link(l);
    if (topo.node(link.node_a).kind == NodeKind::kSwitch &&
        topo.node(link.node_b).kind == NodeKind::kSwitch) {
      victim = l;
      break;
    }
  }
  ASSERT_NE(victim, kNoLink);

  Network net(std::move(topo), {make_full_group(8)},
              churn_config(Scheme::kHamiltonianSF));
  const int windows = net.flap_link(victim, 5'000, 120'000, 6'000, 20'000);
  EXPECT_GT(windows, 1) << "the flap must cycle, not fail once";
  for (int i = 0; i < 20; ++i) {
    const HostId src = static_cast<HostId>((i * 3) % 8);
    net.sim().at(1'000 + i * 4'000,
                 [&net, src] { inject_group_mcast(net, 0, src, 300); });
  }
  net.run_to_quiescence();

  const Network::Summary s = net.summary();
  // Unlike fail_link, a flap never declares the link dead to routing.
  EXPECT_TRUE(net.routing().link_alive(victim));
  EXPECT_EQ(s.counts.links_failed, 0);
  // Both directions of the link flap on the shared schedule, so the
  // injector counts each window twice (once per channel).
  EXPECT_EQ(s.flap_windows, 2 * windows);
  EXPECT_EQ(s.counts.messages_completed, 20)
      << "payloads lost across flap cycles";
  EXPECT_EQ(net.metrics().outstanding(), 0) << net.debug_report();
  EXPECT_EQ(s.hosts_removed, 0)
      << "a flap shorter than suspicion must not get anyone killed";
  expect_exactly_once(net, 0);
}

// A full churn + chaos schedule replays bit-identically: same seed, same
// verdict, same delivery orders, same membership arithmetic.
TEST(ChurnChaos, ScheduleReplaysBitIdentically) {
  const auto run_once = [] {
    ExperimentConfig cfg = churn_config(Scheme::kHamiltonianSF);
    cfg.traffic.offered_load = 0.02;
    cfg.traffic.mean_worm_len = 300.0;
    cfg.traffic.multicast_fraction = 1.0;
    cfg.membership.queue_limit = 4;
    cfg.membership.op_cost = 10'000;
    MulticastGroupSpec g0{0, {0, 1, 2, 3, 4, 5, 6, 7}};
    Network net(make_myrinet_testbed(), {g0}, cfg);
    ChaosSchedule chaos(net, RandomStream::seed_mix(42, 0xC4A05));
    chaos.flap_random_links(2, 10'000, 150'000, 6'000, 25'000);
    ChurnConfig churn;
    churn.mean_gap = 12'000;
    churn.from = 5'000;
    churn.until = 160'000;
    ChurnEngine engine(net, {0}, churn,
                       RandomStream(RandomStream::seed_mix(42, 0x4C42)));
    engine.start();
    net.run(2'000, 170'000, /*drain_cap=*/400'000);

    const Network::Summary s = net.summary();
    std::ostringstream digest;
    const RunCounters& c = s.counts;
    digest << c.messages_created << ' ' << c.messages_completed << ' '
           << c.retransmits << ' ' << c.joins_requested << ' '
           << c.joins_applied << ' ' << c.joins_shed << ' ' << c.rejoins
           << ' ' << c.leaves << ' ' << s.membership_queue_peak << ' '
           << s.flap_windows << ' ' << engine.ops_issued() << '\n';
    for (HostId h = 0; h < net.num_hosts(); ++h) {
      const auto* order = net.metrics().order_of(h, 0);
      if (order == nullptr) continue;
      digest << h << ':';
      for (const std::uint64_t id : *order) digest << ' ' << id;
      digest << '\n';
    }
    return digest.str();
  };
  const std::string first = run_once();
  EXPECT_GT(first.size(), 20u);
  EXPECT_EQ(first, run_once());
}

}  // namespace
}  // namespace wormcast

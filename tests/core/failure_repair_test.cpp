// Failure detection + self-healing structures: crash-stop hosts are
// detected through ACK/probe suspicion, spliced out of every Hamiltonian
// circuit, re-parented around in every rooted tree, and permanent link
// deaths force an up/down recompute — all while in-flight traffic is
// rescued by the end-to-end retry machinery.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/network.h"
#include "net/topologies.h"
#include "sim/random.h"

namespace wormcast {
namespace {

ExperimentConfig repair_config(Scheme scheme) {
  ExperimentConfig cfg;
  cfg.protocol.scheme = scheme;
  cfg.protocol.ack_timeout = 8'000;
  cfg.protocol.retry_backoff = 2'000;
  cfg.protocol.retry_jitter = 1'000;
  cfg.protocol.max_attempts = 10;
  cfg.protocol.suspicion_timeout = 30'000;
  cfg.protocol.pool_bytes = 128 * 1024;
  cfg.seed = 42;
  return cfg;
}

MulticastGroupSpec full_group(int n, GroupId id = 0) {
  return make_full_group(n, id);
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

/// Survivors hold no buffers, no tasks, no queued transmissions; every
/// (host, group) delivery log is duplicate-free.
void expect_survivors_clean(Network& net, const std::set<HostId>& dead) {
  for (HostId h = 0; h < net.num_hosts(); ++h) {
    if (dead.count(h) > 0) continue;
    EXPECT_EQ(net.protocol(h).pool().total_used(), 0) << "host " << h;
    EXPECT_EQ(net.protocol(h).active_tasks(), 0u) << "host " << h;
    EXPECT_TRUE(net.adapter(h).tx_idle()) << "host " << h;
  }
  EXPECT_EQ(net.metrics().outstanding(), 0) << net.debug_report();
  EXPECT_EQ(net.fabric().total_overflows(), 0);
}

/// Exactly-once at every surviving member of `group`.
void expect_exactly_once(Network& net, GroupId group,
                         const std::set<HostId>& dead) {
  for (HostId h = 0; h < net.num_hosts(); ++h) {
    if (dead.count(h) > 0) continue;
    const auto* order = net.metrics().order_of(h, group);
    if (order == nullptr) continue;
    std::set<std::uint64_t> distinct(order->begin(), order->end());
    EXPECT_EQ(order->size(), distinct.size())
        << "duplicate delivery at host " << h << " group " << group;
  }
}

// --- direct repair (tables + in-flight rescue, detector bypassed) ----------

TEST(FailureRepair, CircuitSpliceKeepsAscendingOrder) {
  Network net(make_myrinet_testbed(), {full_group(8)},
              repair_config(Scheme::kHamiltonianSF));
  for (int i = 0; i < 6; ++i) inject_group_mcast(net, 0, (i * 3) % 8, 400);
  net.run_until(3'000);  // some messages mid-flight
  net.declare_host_dead(3);

  const auto& order = net.tables().circuit(0).order();
  EXPECT_EQ(order, (std::vector<HostId>{0, 1, 2, 4, 5, 6, 7}));
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()))
      << "splice must preserve the ID-order invariant";
  EXPECT_EQ(net.repair_stats().circuits_spliced, 1);
  EXPECT_TRUE(net.host_removed(3));

  // Messages injected after the repair ride the spliced circuit.
  for (int i = 0; i < 4; ++i)
    inject_group_mcast(net, 0, static_cast<HostId>(2 * i), 300);
  net.run_to_quiescence();
  expect_survivors_clean(net, {3});
  expect_exactly_once(net, 0, {3});
  EXPECT_GT(net.summary().counts.messages_completed, 0);
}

TEST(FailureRepair, TreeReparentingPreservesParentIdInvariant) {
  Network net(make_myrinet_testbed(), {full_group(8)},
              repair_config(Scheme::kTreeSF));
  for (int i = 0; i < 6; ++i) inject_group_mcast(net, 0, (i * 3) % 8, 400);
  net.run_until(3'000);
  net.declare_host_dead(2);  // internal member: its subtree must re-attach

  const TreeTable& tree = net.tables().tree(0);
  EXPECT_FALSE(tree.contains(2));
  for (const HostId m : tree.members()) {
    if (m == tree.root()) continue;
    EXPECT_LT(tree.parent(m), m) << "child " << m;
  }
  // Every reattachment record names a surviving adopter with a lower ID.
  for (const auto& r : net.repair_stats().reattachments) {
    EXPECT_LT(r.new_parent, r.orphan);
    EXPECT_TRUE(tree.contains(r.new_parent));
  }

  for (int i = 0; i < 4; ++i) inject_group_mcast(net, 0, (i == 2) ? 5 : i, 300);
  net.run_to_quiescence();
  expect_survivors_clean(net, {2});
  expect_exactly_once(net, 0, {2});
}

TEST(FailureRepair, RootDeathPromotesLowestSurvivor) {
  Network net(make_myrinet_testbed(), {full_group(8)},
              repair_config(Scheme::kTreeSF));
  ASSERT_EQ(net.tables().tree(0).root(), 0);
  for (int i = 1; i < 5; ++i) inject_group_mcast(net, 0, i, 400);
  net.run_until(3'000);
  net.declare_host_dead(0);  // the serializer itself dies

  EXPECT_EQ(net.tables().tree(0).root(), 1);
  EXPECT_GE(net.repair_stats().roots_promoted, 1);

  for (int i = 1; i < 5; ++i) inject_group_mcast(net, 0, i + 1, 300);
  net.run_to_quiescence();
  expect_survivors_clean(net, {0});
  expect_exactly_once(net, 0, {0});
  EXPECT_GT(net.summary().counts.messages_completed, 0);
}

TEST(FailureRepair, RepairIsIdempotent) {
  Network net(make_myrinet_testbed(), {full_group(8)},
              repair_config(Scheme::kHamiltonianSF));
  net.declare_host_dead(5);
  net.declare_host_dead(5);
  EXPECT_EQ(net.summary().hosts_removed, 1);
  EXPECT_EQ(net.repair_stats().circuits_spliced, 1);
}

// --- detection (silent crash, the suspicion machinery must notice) ----------

class CrashDetectionTest : public ::testing::TestWithParam<Scheme> {};

TEST_P(CrashDetectionTest, SilentCrashMidStreamIsDetectedAndRepaired) {
  Network net(make_myrinet_testbed(), {full_group(8)},
              repair_config(GetParam()));
  const Time crash_at = 5'000;
  net.crash_host(3, crash_at);
  // Steady stream bracketing the crash keeps senders talking to host 3 so
  // the ACK-timeout suspicion path has something to time out on.
  for (int i = 0; i < 30; ++i) {
    const HostId src = static_cast<HostId>((i * 3) % 8 == 3 ? 1 : (i * 3) % 8);
    net.sim().at(1'000 + i * 2'000,
                 [&net, src] { inject_group_mcast(net, 0, src, 300); });
  }
  net.run_to_quiescence();

  const Network::Summary s = net.summary();
  EXPECT_EQ(s.hosts_crashed, 1);
  EXPECT_EQ(s.hosts_removed, 1) << "the detector never accused the dead host";
  EXPECT_GE(s.counts.suspicions, 1);
  EXPECT_TRUE(net.host_removed(3));
  // Detection + repair inside the budget: suspicion timeout plus retry
  // schedule slack (first_tx of the oldest wedged send may predate death).
  EXPECT_LE(s.last_repair_time,
            crash_at + 2 * repair_config(GetParam()).protocol.suspicion_timeout +
                50'000);
  expect_survivors_clean(net, {3});
  expect_exactly_once(net, 0, {3});
  EXPECT_GT(s.counts.messages_completed, 0);
}

INSTANTIATE_TEST_SUITE_P(Schemes, CrashDetectionTest,
                         ::testing::Values(Scheme::kHamiltonianSF,
                                           Scheme::kTreeSF),
                         [](const ::testing::TestParamInfo<Scheme>& param) {
                           std::string s = scheme_name(param.param);
                           for (char& c : s)
                             if (c == '-') c = '_';
                           return s;
                         });

// --- fault x repair composition (loss recovery + crash repair together) -----

class CrashDuringBackoffTest : public ::testing::TestWithParam<Scheme> {};

// Transient faults and a permanent failure composed: heavy ACK loss keeps
// senders in retransmit back-off, and the crash lands while retry timers
// to the victim are pending. The rescue must retarget those sends onto the
// repaired structures, deliver everything to the survivors exactly once,
// and the whole causal history must satisfy the standard protocol
// expectations (NACK/timeout resolution, suspicion evidence, repair
// grace, no duplicate delivery, every reservation returned).
TEST_P(CrashDuringBackoffTest, RescueLandsOnRepairedStructureNoDuplicates) {
  ExperimentConfig cfg = repair_config(GetParam());
  cfg.faults.ctrl_loss_rate = 0.1;  // lost ACKs arm retransmit back-off
  // Loss this heavy makes live peers look silent to a 30k detector; the
  // longer deadline keeps the accusation rate at exactly the real crash.
  cfg.protocol.suspicion_timeout = 60'000;
  Network net(make_myrinet_testbed(), {full_group(8)}, cfg);
  net.enable_tracing(std::size_t{1} << 18);
  // Crash after the first ACK-timeout rounds (ack_timeout 8k) have put
  // senders into back-off: retry timers to host 3 are pending when it dies.
  const Time crash_at = 20'000;
  net.crash_host(3, crash_at);
  for (int i = 0; i < 24; ++i) {
    const HostId src = static_cast<HostId>((i * 3) % 8 == 3 ? 1 : (i * 3) % 8);
    net.sim().at(1'000 + i * 2'000,
                 [&net, src] { inject_group_mcast(net, 0, src, 300); });
  }
  net.run_to_quiescence();

  const Network::Summary s = net.summary();
  ASSERT_GT(s.counts.retransmits, 0) << "loss recovery was never exercised";
  EXPECT_EQ(s.hosts_removed, 1) << "the detector never accused the dead host";
  EXPECT_GT(s.counts.sends_rerouted, 0)
      << "no in-flight send was rescued onto the repaired structure";
  expect_survivors_clean(net, {3});
  expect_exactly_once(net, 0, {3});
  EXPECT_GT(s.counts.messages_completed, 0);

  const check::CheckReport rep = net.check_expectations();
  EXPECT_TRUE(rep.ok()) << rep.format();
  EXPECT_GT(rep.obligations, 0);
}

INSTANTIATE_TEST_SUITE_P(Schemes, CrashDuringBackoffTest,
                         ::testing::Values(Scheme::kHamiltonianSF,
                                           Scheme::kTreeSF),
                         [](const ::testing::TestParamInfo<Scheme>& param) {
                           std::string s = scheme_name(param.param);
                           for (char& c : s)
                             if (c == '-') c = '_';
                           return s;
                         });

TEST(FailureRepair, ProbesDetectIdleNeighborDeath) {
  // Two groups: group 0 carries all the traffic; group 1 exchanges one
  // message and then goes idle. Host 5 (group 1 only) crashes afterwards:
  // with no pending send ever targeting it, only the explicit liveness
  // probes of its circuit neighbours can expose the death.
  ExperimentConfig cfg = repair_config(Scheme::kHamiltonianSF);
  MulticastGroupSpec busy;
  busy.id = 0;
  busy.members = {0, 1, 2, 3};
  MulticastGroupSpec idle;
  idle.id = 1;
  idle.members = {4, 5, 6, 7};
  Network net(make_myrinet_testbed(), {busy, idle}, cfg);
  net.sim().at(500, [&net] { inject_group_mcast(net, 1, 4, 200); });
  net.crash_host(5, 6'000);
  // Keep messages outstanding long enough for probes to mature: the prober
  // only runs while the network has traffic in flight.
  for (int i = 0; i < 60; ++i) {
    const HostId src = static_cast<HostId>(i % 4);
    net.sim().at(1'000 + i * 1'500,
                 [&net, src] { inject_group_mcast(net, 0, src, 300); });
  }
  net.run_to_quiescence();

  const Network::Summary s = net.summary();
  EXPECT_EQ(s.hosts_removed, 1) << "probes failed to expose the idle death";
  EXPECT_TRUE(net.host_removed(5));
  EXPECT_GE(s.counts.suspicions, 1);
  const auto& order = net.tables().circuit(1).order();
  EXPECT_EQ(order, (std::vector<HostId>{4, 6, 7}));
  expect_survivors_clean(net, {5});
}

// --- permanent link death ---------------------------------------------------

TEST(FailureRepair, PermanentLinkDeathRecomputesRoutes) {
  // 3x3 torus, one host per switch: killing any single switch-switch link
  // leaves the fabric connected, so the up/down recompute must reroute
  // everything over the survivors.
  Topology topo = make_torus(3, 3, 1);
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

  Network net(std::move(topo), {full_group(9)},
              repair_config(Scheme::kHamiltonianSF));
  net.fail_link(victim, 2'000);
  for (int i = 0; i < 12; ++i) {
    const HostId src = static_cast<HostId>((i * 4) % 9);
    net.sim().at(500 + i * 2'500,
                 [&net, src] { inject_group_mcast(net, 0, src, 300); });
  }
  net.run_to_quiescence();

  EXPECT_FALSE(net.routing().link_alive(victim));
  EXPECT_EQ(net.summary().counts.links_failed, 1);
  // All hosts still mutually reachable over the healed up/down labels.
  for (HostId a = 0; a < 9; ++a)
    for (HostId b = 0; b < 9; ++b)
      if (a != b) {
        EXPECT_GT(net.routing().hop_count(a, b), 0);
      }
  expect_survivors_clean(net, {});
  expect_exactly_once(net, 0, {});
  EXPECT_EQ(net.summary().counts.messages_completed, 12);
}

// --- the acceptance scenario ------------------------------------------------

// 64-host torus, 10 groups x 10 members: one member of every group crashes
// mid-stream (silently) and one up/down link dies permanently. Every group
// must resume delivery to its survivors within the suspicion + repair
// budget, exactly-once must hold, and no buffer may leak.
TEST(FailureRepair, Acceptance64HostTenGroups) {
  RandomStream rng(7);
  auto groups = make_random_groups(10, 10, 64, rng);
  ExperimentConfig cfg = repair_config(Scheme::kHamiltonianSF);
  cfg.protocol.pool_bytes = 256 * 1024;

  Topology topo = make_torus(8, 8, 1);
  // A switch-switch link: its death reroutes but cannot partition a torus.
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

  Network net(std::move(topo), groups, cfg);

  // One crash victim per group (a host may cover several groups).
  std::set<HostId> dead;
  for (const auto& g : groups) dead.insert(g.members[1]);
  const Time crash_at = 20'000;
  Time t = crash_at;
  for (const HostId h : dead) net.crash_host(h, t += 700);
  const Time last_crash = t;
  net.fail_link(victim, crash_at + 5'000);

  // Streams bracketing the crashes: survivors keep multicasting in every
  // group before, during and after the failures.
  for (const auto& g : groups) {
    for (int i = 0; i < 10; ++i) {
      HostId src = g.members[static_cast<std::size_t>(i) % g.members.size()];
      if (dead.count(src) > 0) src = g.members[0];
      if (dead.count(src) > 0) src = g.members[2];
      const GroupId group = g.id;
      net.sim().at(2'000 + i * 9'000 + group * 400,
                   [&net, group, src] { inject_group_mcast(net, group, src, 256); });
    }
  }
  net.run_to_quiescence();

  const Network::Summary s = net.summary();
  EXPECT_EQ(s.hosts_crashed, static_cast<std::int64_t>(dead.size()));
  EXPECT_EQ(s.hosts_removed, static_cast<std::int64_t>(dead.size()))
      << "every silent crash must be detected and repaired";
  EXPECT_EQ(s.counts.links_failed, 1);
  for (const HostId h : dead) EXPECT_TRUE(net.host_removed(h));

  // Every repaired circuit: dead members gone, ascending IDs (the one wrap
  // reversal lives between highest and lowest, never inside the order).
  for (const auto& g : groups) {
    const auto& order = net.tables().circuit(g.id).order();
    EXPECT_TRUE(std::is_sorted(order.begin(), order.end())) << "group " << g.id;
    for (const HostId h : order)
      EXPECT_EQ(dead.count(h), 0u) << "dead host " << h << " still on circuit";
    std::size_t survivors = 0;
    for (const HostId m : g.members)
      if (dead.count(m) == 0) ++survivors;
    EXPECT_EQ(order.size(), survivors) << "group " << g.id;
  }

  // Detection + repair bounded by the suspicion budget (plus retry slack).
  EXPECT_GT(s.last_repair_time, crash_at);
  EXPECT_LE(s.last_repair_time,
            last_crash + 2 * cfg.protocol.suspicion_timeout + 100'000);

  // Survivors resumed in every group and delivered exactly once; nothing
  // leaked.
  EXPECT_GT(s.counts.messages_completed, 0);
  for (const auto& g : groups) expect_exactly_once(net, g.id, dead);
  expect_survivors_clean(net, dead);
}

// --- membership churn racing failures ---------------------------------------

// A host crashes while its join request is still queued in the membership
// coordinator: the apply step must notice the death and finally shed the
// join (never splicing a corpse into the circuit), and the join-grace
// expectation must still account for the request.
TEST(FailureRepair, CrashMidJoinShedsInsteadOfSplicingACorpse) {
  ExperimentConfig cfg = repair_config(Scheme::kHamiltonianSF);
  cfg.membership.op_cost = 20'000;  // the join sits queued past the crash
  MulticastGroupSpec g0{0, {0, 1, 2, 3}};
  Network net(make_myrinet_testbed(), {g0}, cfg);
  net.enable_tracing(std::size_t{1} << 18);
  net.request_join(0, 5, 1'000);
  net.crash_host(5, 5'000);  // dies with the join still in the queue
  for (int i = 0; i < 8; ++i) {
    const HostId src = static_cast<HostId>(i % 4);
    net.sim().at(1'000 + i * 2'000,
                 [&net, src] { inject_group_mcast(net, 0, src, 300); });
  }
  net.run_to_quiescence();

  const Network::Summary s = net.summary();
  EXPECT_EQ(s.counts.joins_requested, 1);
  EXPECT_EQ(s.counts.joins_applied, 0);
  EXPECT_EQ(s.counts.joins_abandoned, 1)
      << "the dead joiner must be finally shed";
  EXPECT_FALSE(net.tables().is_member(0, 5));
  EXPECT_EQ(net.tables().circuit(0).order(), (std::vector<HostId>{0, 1, 2, 3}));
  expect_survivors_clean(net, {5});
  expect_exactly_once(net, 0, {5});

  const check::CheckReport rep = net.check_expectations();
  EXPECT_TRUE(rep.ok()) << rep.format();
}

// A voluntary leave races an in-flight failure repair: host 3 crashes
// under load (detector path), and host 5 leaves the same group while the
// suspicion/repair machinery is working on the corpse. The leave must stay
// a clean departure (never suspected), the crash must still be repaired,
// and the causal history must satisfy the full expectation pack.
TEST(FailureRepair, LeaveRacingInFlightRepairStaysClean) {
  ExperimentConfig cfg = repair_config(Scheme::kHamiltonianSF);
  cfg.protocol.suspicion_timeout = 40'000;
  Network net(make_myrinet_testbed(), {full_group(8)}, cfg);
  net.enable_tracing(std::size_t{1} << 18);
  const Time crash_at = 15'000;
  net.crash_host(3, crash_at);
  // The leave lands inside the detection window: suspicion of host 3 is
  // pending while the coordinator splices host 5 out.
  net.request_leave(0, 5, crash_at + 10'000);
  for (int i = 0; i < 24; ++i) {
    const HostId src = static_cast<HostId>((i * 3) % 8 == 3 ? 1 : (i * 3) % 8);
    net.sim().at(1'000 + i * 2'000,
                 [&net, src] { inject_group_mcast(net, 0, src, 300); });
  }
  net.run_to_quiescence();

  const Network::Summary s = net.summary();
  EXPECT_EQ(s.hosts_removed, 1) << "the real crash must still be repaired";
  EXPECT_TRUE(net.host_removed(3));
  EXPECT_FALSE(net.host_removed(5)) << "the leaver is alive, not a corpse";
  EXPECT_EQ(s.counts.leaves, 1);
  EXPECT_FALSE(net.tables().is_member(0, 5));
  // Circuit healed around both departures, in order.
  EXPECT_EQ(net.tables().circuit(0).order(),
            (std::vector<HostId>{0, 1, 2, 4, 6, 7}));
  expect_survivors_clean(net, {3, 5});
  expect_exactly_once(net, 0, {3, 5});

  const check::CheckReport rep = net.check_expectations();
  EXPECT_TRUE(rep.ok()) << rep.format();
  EXPECT_GT(rep.obligations, 0);
}

// --- total ordering across repair --------------------------------------------

/// Every pair of hosts agrees on the order of the messages both delivered.
void expect_common_order(Network& net, GroupId group,
                         const std::set<HostId>& dead) {
  const std::vector<std::uint64_t>* reference = nullptr;
  HostId ref_host = kNoHost;
  for (HostId h = 0; h < net.num_hosts(); ++h) {
    if (dead.count(h) > 0) continue;
    const auto* order = net.metrics().order_of(h, group);
    if (order == nullptr) continue;
    if (reference == nullptr) {
      reference = order;
      ref_host = h;
      continue;
    }
    const std::set<std::uint64_t> in_ref(reference->begin(), reference->end());
    const std::set<std::uint64_t> in_order(order->begin(), order->end());
    std::vector<std::uint64_t> a;
    std::vector<std::uint64_t> b;
    for (const auto id : *reference)
      if (in_order.count(id) > 0) a.push_back(id);
    for (const auto id : *order)
      if (in_ref.count(id) > 0) b.push_back(id);
    EXPECT_EQ(a, b) << "hosts " << ref_host << " and " << h
                    << " disagree on order";
  }
}

enum class RepairEvent { kCrashHost3, kCrashSerializer, kLeaveHost4, kLeaveHost0 };

const char* repair_event_name(RepairEvent e) {
  switch (e) {
    case RepairEvent::kCrashHost3: return "crash_host3";
    case RepairEvent::kCrashSerializer: return "crash_serializer";
    case RepairEvent::kLeaveHost4: return "leave_host4";
    case RepairEvent::kLeaveHost0: return "leave_host0";
  }
  return "unknown";
}

class OrderedRepairTest
    : public ::testing::TestWithParam<std::tuple<Scheme, RepairEvent>> {};

// A crash or a leave lands mid-stream while total ordering is on. Every
// retargeted ordered send must join its new successor's window (at most
// one un-ACKed ordered send per group and successor), so the survivors
// still agree on one order and every message arrives exactly once.
TEST_P(OrderedRepairTest, TotalOrderSurvivesRepair) {
  const auto [scheme, event] = GetParam();
  ExperimentConfig cfg = repair_config(scheme);
  cfg.protocol.total_ordering = true;
  Network net(make_myrinet_testbed(), {full_group(8)}, cfg);
  const Time event_at = 9'000;
  std::set<HostId> dead;
  switch (event) {
    case RepairEvent::kCrashHost3:
      net.crash_host(3, event_at);
      dead = {3};
      break;
    case RepairEvent::kCrashSerializer:
      net.crash_host(0, event_at);
      dead = {0};
      break;
    case RepairEvent::kLeaveHost4:
      net.request_leave(0, 4, event_at);
      break;
    case RepairEvent::kLeaveHost0:
      net.request_leave(0, 0, event_at);
      break;
  }
  for (int i = 0; i < 30; ++i) {
    const auto src = static_cast<HostId>((i * 3) % 8);
    net.sim().at(1'000 + i * 1'500,
                 [&net, src] { inject_group_mcast(net, 0, src, 300); });
  }
  net.run_to_quiescence();

  expect_survivors_clean(net, dead);
  expect_exactly_once(net, 0, dead);
  expect_common_order(net, 0, dead);
  EXPECT_GT(net.metrics().messages_completed(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, OrderedRepairTest,
    ::testing::Combine(::testing::Values(Scheme::kHamiltonianSF,
                                         Scheme::kHamiltonianCT,
                                         Scheme::kTreeSF, Scheme::kTreeCT),
                       ::testing::Values(RepairEvent::kCrashHost3,
                                         RepairEvent::kCrashSerializer,
                                         RepairEvent::kLeaveHost4,
                                         RepairEvent::kLeaveHost0)),
    [](const ::testing::TestParamInfo<std::tuple<Scheme, RepairEvent>>& p) {
      std::string s = std::string(scheme_name(std::get<0>(p.param))) + "_" +
                      repair_event_name(std::get<1>(p.param));
      for (char& c : s)
        if (c == '-') c = '_';
      return s;
    });

}  // namespace
}  // namespace wormcast

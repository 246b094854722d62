// End-to-end loss recovery under injected faults: worm kills, ACK/NACK
// loss, adapter RX drops and link outages on the Section 8.2 testbed, with
// the ack_timeout / dedup / bounded-retry machinery doing the repair.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/network.h"
#include "net/topologies.h"

namespace wormcast {
namespace {

constexpr GroupId kGroup = 0;

MulticastGroupSpec all_hosts_group(int n) {
  MulticastGroupSpec group;
  group.id = kGroup;
  for (HostId h = 0; h < n; ++h) group.members.push_back(h);
  return group;
}

ExperimentConfig recovery_config(Scheme scheme) {
  ExperimentConfig cfg;
  cfg.protocol.scheme = scheme;
  cfg.protocol.ack_timeout = 20'000;
  cfg.protocol.retry_backoff = 2'000;
  cfg.protocol.retry_jitter = 1'000;
  // Ample pool so faults, not reservations, dominate the experiment.
  cfg.protocol.pool_bytes = 128 * 1024;
  cfg.seed = 42;
  return cfg;
}

void inject_multicasts(Network& net, int count, std::int64_t length) {
  for (int i = 0; i < count; ++i) {
    Demand d;
    d.src = static_cast<HostId>((i * 3) % net.num_hosts());
    d.multicast = true;
    d.group = kGroup;
    d.length = length;
    net.inject(d);
  }
}

/// Every message delivered exactly once to every member, every pool back to
/// zero, no task or un-ACKed send left behind.
void expect_fully_recovered(Network& net, int n_messages) {
  const int dests = net.num_hosts() - 1;
  EXPECT_EQ(net.metrics().messages_completed(), n_messages)
      << net.debug_report();
  EXPECT_EQ(net.metrics().outstanding(), 0);
  EXPECT_EQ(net.summary().counts.deliveries_failed, 0);
  EXPECT_EQ(net.metrics().mcast_latency().count(), n_messages * dests);
  for (HostId h = 0; h < net.num_hosts(); ++h) {
    EXPECT_EQ(net.protocol(h).pool().total_used(), 0) << "host " << h;
    EXPECT_EQ(net.protocol(h).active_tasks(), 0u) << "host " << h;
    EXPECT_TRUE(net.adapter(h).tx_idle()) << "host " << h;
    // Exactly-once at each member: the delivery-order audit saw every
    // message id once (Metrics::on_delivered would also assert on a dup).
    const auto* order = net.metrics().order_of(h, kGroup);
    std::set<std::uint64_t> distinct;
    std::size_t deliveries = 0;
    if (order != nullptr) {
      distinct.insert(order->begin(), order->end());
      deliveries = order->size();
    }
    EXPECT_EQ(deliveries, distinct.size()) << "duplicate delivery at " << h;
  }
  EXPECT_EQ(net.fabric().total_overflows(), 0);
}

class FaultRecoveryTest : public ::testing::TestWithParam<Scheme> {};

// The acceptance scenario: >= 5% worm-kill and ACK-loss on every link of
// the 8-host Myrinet testbed; unbounded retries must deliver everything
// exactly once and drain every buffer.
TEST_P(FaultRecoveryTest, LossyLinksEventuallyDeliverExactlyOnce) {
  ExperimentConfig cfg = recovery_config(GetParam());
  cfg.faults.worm_kill_rate = 0.05;
  cfg.faults.ctrl_loss_rate = 0.05;
  Network net(make_myrinet_testbed(), {all_hosts_group(8)}, cfg);
  inject_multicasts(net, 20, 512);
  net.run_to_quiescence();
  EXPECT_GT(net.summary().faults_injected, 0);
  expect_fully_recovered(net, 20);
}

TEST_P(FaultRecoveryTest, AdapterRxDropsAreRecovered) {
  ExperimentConfig cfg = recovery_config(GetParam());
  cfg.faults.rx_drop_rate = 0.10;
  Network net(make_myrinet_testbed(), {all_hosts_group(8)}, cfg);
  inject_multicasts(net, 10, 300);
  net.run_to_quiescence();
  EXPECT_GT(net.summary().faults_injected, 0);
  expect_fully_recovered(net, 10);
}

// Pure control-plane loss: data always arrives, so recovery shows up as
// re-ACKed duplicates, never as extra deliveries.
TEST_P(FaultRecoveryTest, LostAcksAreReAckedNotRedelivered) {
  ExperimentConfig cfg = recovery_config(GetParam());
  cfg.faults.ctrl_loss_rate = 0.25;
  Network net(make_myrinet_testbed(), {all_hosts_group(8)}, cfg);
  inject_multicasts(net, 12, 256);
  net.run_to_quiescence();
  const Network::Summary s = net.summary();
  EXPECT_GT(s.faults_injected, 0);
  EXPECT_GT(s.counts.ack_timeouts, 0);
  EXPECT_GT(s.counts.duplicates_suppressed, 0);
  expect_fully_recovered(net, 12);
}

TEST_P(FaultRecoveryTest, TransientLinkOutageHealsAfterItEnds) {
  ExperimentConfig cfg = recovery_config(GetParam());
  Network net(make_myrinet_testbed(), {all_hosts_group(8)}, cfg);
  // Every link dead for the first 30k byte-times; traffic injected during
  // the blackout must be delivered once the links come back.
  net.faults().schedule_outage(nullptr, 0, 30'000);
  inject_multicasts(net, 5, 200);
  net.run_to_quiescence();
  EXPECT_GT(net.faults().outage_drops(), 0);
  expect_fully_recovered(net, 5);
}

INSTANTIATE_TEST_SUITE_P(ReservationSchemes, FaultRecoveryTest,
                         ::testing::Values(Scheme::kHamiltonianSF,
                                           Scheme::kHamiltonianCT,
                                           Scheme::kTreeSF, Scheme::kTreeCT),
                         [](const ::testing::TestParamInfo<Scheme>& p) {
                           std::string s = scheme_name(p.param);
                           for (char& c : s)
                             if (c == '-') c = '_';
                           return s;
                         });

// A single forced ACK loss, fully deterministic: the sender times out, the
// receiver recognizes the retransmitted copy and re-ACKs from its dedup
// memory without delivering it twice.
TEST(FaultRecovery, ForcedAckLossIsDeduplicated) {
  ExperimentConfig cfg = recovery_config(Scheme::kHamiltonianSF);
  cfg.protocol.retry_jitter = 0;
  Network net(make_myrinet_testbed(), {all_hosts_group(8)}, cfg);
  net.faults().force_drop_control(1);
  inject_multicasts(net, 1, 400);
  net.run_to_quiescence();
  const Network::Summary s = net.summary();
  EXPECT_EQ(s.faults_injected, 1);
  EXPECT_GE(s.counts.ack_timeouts, 1);
  EXPECT_GE(s.counts.duplicates_suppressed, 1);
  expect_fully_recovered(net, 1);
}

// A single forced worm kill: the truncated stub is discarded wherever it
// lands, the reservation it briefly held drains, and the timeout delivers
// a fresh copy.
TEST(FaultRecovery, ForcedWormKillIsRetransmitted) {
  ExperimentConfig cfg = recovery_config(Scheme::kHamiltonianSF);
  cfg.protocol.retry_jitter = 0;
  Network net(make_myrinet_testbed(), {all_hosts_group(8)}, cfg);
  net.faults().force_kill_data(1);
  inject_multicasts(net, 1, 400);
  net.run_to_quiescence();
  EXPECT_EQ(net.summary().faults_injected, 1);
  EXPECT_GE(net.summary().counts.ack_timeouts, 1);
  expect_fully_recovered(net, 1);
}

// Bounded retries: with every link permanently dead, max_attempts stops the
// retry loop, the reservation-less originator task drains, and the message
// is abandoned (counted, not leaked).
TEST(FaultRecovery, BoundedRetriesGiveUpCleanly) {
  ExperimentConfig cfg = recovery_config(Scheme::kHamiltonianSF);
  cfg.protocol.max_attempts = 3;
  cfg.protocol.retry_jitter = 0;
  Network net(make_myrinet_testbed(), {all_hosts_group(8)}, cfg);
  net.faults().schedule_outage(nullptr, 0, kTimeNever);
  inject_multicasts(net, 2, 200);
  net.run_to_quiescence();
  const Network::Summary s = net.summary();
  EXPECT_GE(s.counts.deliveries_failed, 2);
  EXPECT_EQ(s.outstanding, 0) << "abandoned messages must not stay outstanding";
  EXPECT_EQ(net.metrics().messages_completed(), 0);
  for (HostId h = 0; h < net.num_hosts(); ++h) {
    EXPECT_EQ(net.protocol(h).pool().total_used(), 0) << "host " << h;
    EXPECT_EQ(net.protocol(h).active_tasks(), 0u) << "host " << h;
  }
}

// Loss without recovery wedges the run (the lossless protocol has no
// timers to notice); the attached watchdog must detect the stall and dump
// the per-host diagnostics naming what was stuck.
TEST(FaultRecovery, WatchdogDumpsDiagnosticsOnStall) {
  ExperimentConfig cfg;  // ack_timeout left 0: no recovery
  cfg.protocol.scheme = Scheme::kHamiltonianSF;
  Network net(make_myrinet_testbed(), {all_hosts_group(8)}, cfg);
  DeadlockWatchdog& dog = net.attach_watchdog(50'000);
  net.faults().force_kill_data(1);
  inject_multicasts(net, 1, 400);
  net.run_until(500'000);
  ASSERT_TRUE(dog.deadlock_detected());
  EXPECT_NE(dog.report().find("outstanding=1"), std::string::npos)
      << dog.report();
  EXPECT_NE(dog.report().find("host 0:"), std::string::npos) << dog.report();
}

// The zero-fault configuration must behave exactly like the lossless
// fabric: recovery arms timers but none may fire.
TEST(FaultRecovery, NoFaultsMeansNoTimeoutsOrDuplicates) {
  ExperimentConfig cfg = recovery_config(Scheme::kTreeSF);
  Network net(make_myrinet_testbed(), {all_hosts_group(8)}, cfg);
  inject_multicasts(net, 10, 256);
  net.run_to_quiescence();
  const Network::Summary s = net.summary();
  EXPECT_EQ(s.faults_injected, 0);
  EXPECT_EQ(s.counts.ack_timeouts, 0);
  EXPECT_EQ(s.counts.duplicates_suppressed, 0);
  EXPECT_EQ(s.counts.retransmits, 0);
  expect_fully_recovered(net, 10);
}

}  // namespace
}  // namespace wormcast

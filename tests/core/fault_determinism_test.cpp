// Seed stability under fault injection: the injector draws from its own
// forked stream, so the same seed must reproduce the same faults, the same
// recoveries and the same statistics, bit for bit.
#include <gtest/gtest.h>

#include "core/network.h"
#include "net/topologies.h"

namespace wormcast {
namespace {

Network::Summary run_faulted(std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.protocol.scheme = Scheme::kHamiltonianSF;
  cfg.protocol.ack_timeout = 20'000;
  cfg.protocol.retry_backoff = 2'000;
  cfg.protocol.retry_jitter = 1'000;
  cfg.protocol.pool_bytes = 128 * 1024;
  cfg.faults.worm_kill_rate = 0.05;
  cfg.faults.ctrl_loss_rate = 0.05;
  cfg.faults.rx_drop_rate = 0.02;
  cfg.traffic.offered_load = 0.05;
  cfg.traffic.multicast_fraction = 0.3;
  cfg.seed = seed;
  MulticastGroupSpec group;
  group.id = 0;
  for (HostId h = 0; h < 8; ++h) group.members.push_back(h);
  Network net(make_myrinet_testbed(), {group}, cfg);
  net.run(/*warmup=*/2'000, /*measure=*/30'000, /*drain_cap=*/300'000);
  return net.summary();
}

TEST(FaultDeterminism, SameSeedSameStatistics) {
  const Network::Summary a = run_faulted(1234);
  const Network::Summary b = run_faulted(1234);
  // Every counter and fault tally; latencies are sums of integer
  // byte-times, so identical runs give bitwise-identical doubles.
  EXPECT_EQ(a, b);
  EXPECT_GT(a.faults_injected, 0) << "scenario must actually exercise faults";
}

// link_down() is a pure predicate: callers may query it any number of
// times (e.g. once per byte) without inflating the drop counter; only the
// site that actually discards a worm calls note_outage_drop().
TEST(FaultDeterminism, LinkDownQueryNeverCounts) {
  FaultInjector faults(RandomStream(1));
  const int channel_tag = 0;  // address used as the channel identity key
  faults.schedule_outage(&channel_tag, 10, 20);
  EXPECT_FALSE(faults.link_down(&channel_tag, 5));
  EXPECT_TRUE(faults.link_down(&channel_tag, 15));
  EXPECT_TRUE(faults.link_down(&channel_tag, 15));  // double query, no effect
  EXPECT_FALSE(faults.link_down(&channel_tag, 25));
  EXPECT_EQ(faults.outage_drops(), 0);
  faults.note_outage_drop();
  EXPECT_EQ(faults.outage_drops(), 1);
  // Permanent death: an outage that never ends, counted separately.
  faults.kill_link(&channel_tag);
  EXPECT_TRUE(faults.link_down(&channel_tag, 1'000'000'000));
  EXPECT_EQ(faults.links_killed(), 1);
  EXPECT_EQ(faults.outage_drops(), 1);
}

TEST(FaultDeterminism, DifferentSeedDifferentFaults) {
  const Network::Summary a = run_faulted(1234);
  const Network::Summary b = run_faulted(987654321);
  // With tens of fault rolls per run the chance of a full collision across
  // these fields is negligible.
  EXPECT_TRUE(a.faults_injected != b.faults_injected ||
              a.mcast_latency_mean != b.mcast_latency_mean ||
              a.counts.messages_created != b.counts.messages_created);
}

}  // namespace
}  // namespace wormcast

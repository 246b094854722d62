// Burst mode against per-byte stepping on short links: 3 and 5 bt switch
// links with 3, 4 and 5 bt host links, on the 4x4 torus and the small
// folded Clos. Around kRoutingLatency (4 bt) the channel's run rules
// change: a link longer than it takes lookahead runs and merges
// back-to-back body runs into one delivery, a shorter one does neither,
// so these fabrics put both kinds of link side by side. Each scenario is
// one of burst_equivalence_test's link-delay sweep; every observable
// result and the sorted decision stream must match. 4 bt switch links are
// left out: burst and per-byte stepping still differ there (ROADMAP).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/network.h"
#include "net/topologies.h"

namespace wormcast {
namespace {

/// One flight-recorder event as a tuple: (t, type, node, port, worm, arg).
using Decision = std::tuple<Time, int, std::int32_t, std::int32_t,
                            std::uint64_t, std::int64_t>;

struct Outcome {
  Network::Summary summary;
  std::vector<double> mcast_latency;
  std::vector<double> unicast_latency;
  std::int64_t adapter_payload_bytes = 0;
  std::int64_t mcast_connections = 0;
  std::int64_t mcast_fragments = 0;
  Time end_time = 0;
  std::int64_t events = 0;  // not compared: burst mode has fewer
  /// Every flight-recorder event but the run records, sorted.
  std::vector<Decision> decisions;
};

constexpr std::size_t kRing = std::size_t{1} << 18;

struct LinkCase {
  std::string name;
  bool clos;
  Time switch_delay;
  Time host_delay;
};

void PrintTo(const LinkCase& c, std::ostream* os) { *os << c.name; }

Topology make_topo(const LinkCase& c, ExperimentConfig& cfg) {
  if (!c.clos) return make_torus(4, 4, 1, c.switch_delay, c.host_delay);
  return make_clos(2, 4, 3, c.switch_delay, c.host_delay,
                   &cfg.routing.level_override);
}

Outcome collect(Network& net) {
  Outcome r;
  r.summary = net.summary();
  r.mcast_latency = net.metrics().mcast_latency().sorted_values();
  r.unicast_latency = net.metrics().unicast_latency().sorted_values();
  for (HostId h = 0; h < net.num_hosts(); ++h)
    r.adapter_payload_bytes += net.adapter(h).payload_bytes_received();
  r.mcast_connections = net.switch_mcast_engine().connections_opened();
  r.mcast_fragments = net.switch_mcast_engine().fragments_sent();
  r.end_time = net.sim().now();
  r.events = net.sim().events_dispatched();
  EXPECT_EQ(net.trace_dropped(), 0) << "raise the ring";
  for (const TraceEvent& e : net.sim().tracer().snapshot(kRing))
    if (e.type != TraceEventType::kChanBurst)
      r.decisions.emplace_back(e.t, static_cast<int>(e.type), e.node, e.port,
                               e.worm, e.arg);
  std::sort(r.decisions.begin(), r.decisions.end());
  return r;
}

/// Poisson traffic over one group of eight hosts, or (`switch_mcast`)
/// twelve switch-level multicasts to two groups over Poisson unicast, as
/// burst_equivalence_test's run_traffic and run_switch_mcast run them.
Outcome run(ExperimentConfig cfg, const LinkCase& c, bool burst,
            bool switch_mcast) {
  cfg.fabric.burst_channels = burst;
  Topology topo = make_topo(c, cfg);
  const int n = topo.num_hosts();
  std::vector<MulticastGroupSpec> groups(switch_mcast ? 2 : 1);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    groups[g].id = static_cast<GroupId>(g);
    for (HostId h = 0; h < (switch_mcast ? std::min(8, n / 2) : 8); ++h)
      groups[g].members.push_back(
          switch_mcast ? static_cast<HostId>((h * 2 + g * 3) % n) : h);
  }
  Network net(std::move(topo), groups, cfg);
  net.enable_tracing(kRing);
  if (switch_mcast) {
    for (int i = 0; i < 12; ++i)
      net.sim().at(1'000 + 2'500 * i, [&net, i, n] {
        net.send_switch_multicast(static_cast<HostId>((5 * i) % n), i % 2,
                                  1'000);
      });
    net.run(/*warmup=*/1'000, /*measure=*/30'000, /*drain_cap=*/300'000);
  } else {
    net.run(/*warmup=*/2'000, /*measure=*/30'000, /*drain_cap=*/300'000);
  }
  return collect(net);
}

class BurstEquivalenceShortLinks : public ::testing::TestWithParam<LinkCase> {
 protected:
  /// Runs the scenario in both modes, requires every observable result to
  /// match, and returns the burst-mode outcome.
  Outcome expect_modes_identical(const ExperimentConfig& cfg,
                                 bool switch_mcast = false) {
    const Outcome a = run(cfg, GetParam(), true, switch_mcast);
    const Outcome b = run(cfg, GetParam(), false, switch_mcast);
    EXPECT_EQ(a.summary, b.summary);
    EXPECT_EQ(a.mcast_latency, b.mcast_latency);
    EXPECT_EQ(a.unicast_latency, b.unicast_latency);
    EXPECT_EQ(a.adapter_payload_bytes, b.adapter_payload_bytes);
    EXPECT_EQ(a.mcast_connections, b.mcast_connections);
    EXPECT_EQ(a.mcast_fragments, b.mcast_fragments);
    EXPECT_EQ(a.end_time, b.end_time);
    EXPECT_TRUE(a.decisions == b.decisions)
        << "a head, tail, flow-control or multicast decision moved in time";
    EXPECT_GT(a.summary.counts.messages_completed, 0);
    EXPECT_LT(a.events, b.events) << "burst mode never burst";
    return a;
  }
};

TEST_P(BurstEquivalenceShortLinks, HostProtocolCutThrough) {
  ExperimentConfig cfg;
  cfg.protocol.scheme = Scheme::kHamiltonianCT;
  cfg.traffic.offered_load = 0.15;
  cfg.traffic.multicast_fraction = 0.5;
  cfg.seed = 42;
  expect_modes_identical(cfg);
}

TEST_P(BurstEquivalenceShortLinks, StoreAndForwardUnderBackpressure) {
  ExperimentConfig cfg;
  cfg.protocol.scheme = Scheme::kHamiltonianSF;
  cfg.traffic.offered_load = 0.30;
  cfg.traffic.multicast_fraction = 0.3;
  cfg.seed = 7;
  expect_modes_identical(cfg);
}

TEST_P(BurstEquivalenceShortLinks, TightSlackUnderBackpressure) {
  ExperimentConfig cfg;
  cfg.protocol.scheme = Scheme::kHamiltonianSF;
  cfg.fabric.sw.stop_threshold = 12;
  cfg.fabric.sw.go_threshold = 4;
  cfg.traffic.offered_load = 0.30;
  cfg.traffic.multicast_fraction = 0.3;
  cfg.seed = 11;
  expect_modes_identical(cfg);
}

TEST_P(BurstEquivalenceShortLinks, ArmedFaultInjector) {
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
  cfg.seed = 1234;
  const Outcome a = expect_modes_identical(cfg);
  EXPECT_GT(a.summary.faults_injected, 0);
  EXPECT_GT(a.summary.bytes_swallowed, 0);
}

TEST_P(BurstEquivalenceShortLinks, SwitchMcastInterruptUnderPoissonUnicast) {
  ExperimentConfig cfg;
  cfg.protocol.scheme = Scheme::kHamiltonianSF;
  cfg.switch_mcast.scheme = SwitchMcastScheme::kInterrupt;
  cfg.traffic.offered_load = 0.25;
  cfg.traffic.multicast_fraction = 0.0;
  cfg.seed = 17;
  const Outcome a = expect_modes_identical(cfg, /*switch_mcast=*/true);
  EXPECT_GT(a.mcast_connections, 0);
  EXPECT_EQ(a.summary.outstanding, 0);
}

std::string case_name(const ::testing::TestParamInfo<LinkCase>& info) {
  return info.param.name;
}

INSTANTIATE_TEST_SUITE_P(
    ShortLinks, BurstEquivalenceShortLinks,
    ::testing::Values(LinkCase{"torus_sw3_host5", false, 3, 5},
                      LinkCase{"torus_sw5_host4", false, 5, 4},
                      LinkCase{"clos_sw3_host5", true, 3, 5},
                      LinkCase{"clos_sw5_host3", true, 5, 3}),
    case_name);

}  // namespace
}  // namespace wormcast

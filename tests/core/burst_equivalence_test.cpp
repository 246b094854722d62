// Burst-mode channels (the simulation hot path) must be a pure performance
// optimization: every observable result — summary counters, latency sample
// streams, fault sequences, per-adapter counters — must be bit-for-bit
// identical to per-byte stepping. These tests run the same experiment twice,
// once with FabricConfig::burst_channels on and once off, across schemes,
// topologies, load levels and armed fault injectors, and require equality.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <tuple>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/network.h"
#include "net/topologies.h"

namespace wormcast {
namespace {

/// One flight-recorder event as a tuple: (t, type, node, port, worm, arg).
using Decision = std::tuple<Time, int, std::int32_t, std::int32_t,
                            std::uint64_t, std::int64_t>;

struct RunResult {
  Network::Summary summary;
  std::vector<double> mcast_latency;
  std::vector<double> mcast_completion;
  std::vector<double> unicast_latency;
  std::int64_t adapter_worms_received = 0;
  std::int64_t adapter_payload_bytes = 0;
  std::int64_t adapter_worms_truncated = 0;
  Time end_time = 0;
  std::int64_t events = 0;  // events dispatched: not compared, burst has fewer
  /// Traced runs only: every flight-recorder event but kChanBurst (heads,
  /// tails, STOP/GO, grants, fragment and adapter decisions), sorted. Each
  /// must happen at the same byte-time in both modes; only same-tick order
  /// may differ.
  std::vector<Decision> decisions;
};

/// Flight ring of the traced runs; every run must fit it whole.
constexpr std::size_t kRing = std::size_t{1} << 18;

void collect(Network& net, RunResult& r, std::size_t ring = kRing) {
  r.summary = net.summary();
  r.mcast_latency = net.metrics().mcast_latency().sorted_values();
  r.mcast_completion = net.metrics().mcast_completion().sorted_values();
  r.unicast_latency = net.metrics().unicast_latency().sorted_values();
  for (HostId h = 0; h < net.num_hosts(); ++h) {
    r.adapter_worms_received += net.adapter(h).worms_received();
    r.adapter_payload_bytes += net.adapter(h).payload_bytes_received();
    r.adapter_worms_truncated += net.adapter(h).worms_truncated();
  }
  r.end_time = net.sim().now();
  r.events = net.sim().events_dispatched();
  if (!net.sim().tracer().enabled()) return;
  EXPECT_EQ(net.trace_dropped(), 0) << "raise the ring";
  for (const TraceEvent& e : net.sim().tracer().snapshot(ring))
    if (e.type != TraceEventType::kChanBurst)
      r.decisions.emplace_back(e.t, static_cast<int>(e.type), e.node, e.port,
                               e.worm, e.arg);
  std::sort(r.decisions.begin(), r.decisions.end());
}

/// Poisson traffic over one group of `group_size` hosts; `traced` records
/// the decision stream.
RunResult run_traffic(ExperimentConfig cfg, Topology topo, int group_size,
                      bool burst, bool traced = false) {
  cfg.fabric.burst_channels = burst;
  MulticastGroupSpec group;
  group.id = 0;
  for (HostId h = 0; h < group_size; ++h) group.members.push_back(h);
  Network net(std::move(topo), {group}, cfg);
  if (traced) net.enable_tracing(kRing);
  net.run(/*warmup=*/2'000, /*measure=*/30'000, /*drain_cap=*/300'000);
  RunResult r;
  collect(net, r);
  return r;
}

void expect_identical(const RunResult& a, const RunResult& b) {
  // The whole Summary: every counter, and latency means that are exact
  // sums of integer byte-times over their counts, so runs that record the
  // same samples in any order give bitwise-identical doubles.
  EXPECT_EQ(a.summary, b.summary);
  // Whole sample streams, not just their moments.
  EXPECT_EQ(a.mcast_latency, b.mcast_latency);
  EXPECT_EQ(a.mcast_completion, b.mcast_completion);
  EXPECT_EQ(a.unicast_latency, b.unicast_latency);
  EXPECT_EQ(a.adapter_worms_received, b.adapter_worms_received);
  EXPECT_EQ(a.adapter_payload_bytes, b.adapter_payload_bytes);
  EXPECT_EQ(a.adapter_worms_truncated, b.adapter_worms_truncated);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_TRUE(a.decisions == b.decisions)
      << "a head, tail, flow-control or multicast decision moved in time";
}

TEST(BurstEquivalence, StoreAndForwardUnderBackpressure) {
  // High offered load on the small testbed exercises STOP/GO constantly.
  for (const std::uint64_t seed : {1ull, 7ull}) {
    ExperimentConfig cfg;
    cfg.protocol.scheme = Scheme::kHamiltonianSF;
    cfg.traffic.offered_load = 0.30;
    cfg.traffic.multicast_fraction = 0.3;
    cfg.seed = seed;
    const RunResult a = run_traffic(cfg, make_myrinet_testbed(), 8, true);
    const RunResult b = run_traffic(cfg, make_myrinet_testbed(), 8, false);
    expect_identical(a, b);
    EXPECT_GT(a.summary.counts.messages_completed, 0);
  }
}

TEST(BurstEquivalence, CutThroughForwarding) {
  // Cut-through plans stream payload from in-progress receptions: the
  // logical-arrival accounting on both the RX and TX side is on trial here.
  ExperimentConfig cfg;
  cfg.protocol.scheme = Scheme::kHamiltonianCT;
  cfg.traffic.offered_load = 0.15;
  cfg.traffic.multicast_fraction = 0.5;
  cfg.seed = 42;
  const RunResult a = run_traffic(cfg, make_myrinet_testbed(), 8, true);
  const RunResult b = run_traffic(cfg, make_myrinet_testbed(), 8, false);
  expect_identical(a, b);
  EXPECT_GT(a.summary.counts.messages_completed, 0);
}

TEST(BurstEquivalence, TreeSchemeOnTorus) {
  ExperimentConfig cfg;
  cfg.protocol.scheme = Scheme::kTreeCT;
  cfg.traffic.offered_load = 0.10;
  cfg.traffic.multicast_fraction = 0.4;
  cfg.seed = 3;
  const RunResult a = run_traffic(cfg, make_torus(4, 4), 8, true);
  const RunResult b = run_traffic(cfg, make_torus(4, 4), 8, false);
  expect_identical(a, b);
  EXPECT_GT(a.summary.counts.messages_completed, 0);
}

TEST(BurstEquivalence, ArmedFaultInjector) {
  // Keyed fault draws must fire on the same worms at the same times in both
  // modes; truncation boundaries and swallowed runs must account equally.
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
  const RunResult a = run_traffic(cfg, make_myrinet_testbed(), 8, true);
  const RunResult b = run_traffic(cfg, make_myrinet_testbed(), 8, false);
  expect_identical(a, b);
  EXPECT_GT(a.summary.faults_injected, 0)
      << "scenario must actually exercise faults";
  EXPECT_GT(a.summary.bytes_swallowed, 0);
}

TEST(BurstEquivalence, SwitchLevelMulticast) {
  // Switch-level multicast worms burst as lockstep gangs and share ports and
  // slack buffers with unicast traffic that bursts too.
  RunResult first;
  for (const bool burst : {true, false}) {
    ExperimentConfig cfg;
    cfg.fabric.burst_channels = burst;
    // No run(): the generator never starts; traffic is the explicit sends.
    cfg.seed = 9;
    MulticastGroupSpec group;
    group.id = 0;
    for (HostId h = 0; h < 6; ++h) group.members.push_back(h);
    Network net(make_myrinet_testbed(), {group}, cfg);
    // Two concurrent switch-level multicasts deadlock in the fabric (each
    // holds output ports the other needs — the hazard that motivates the
    // paper's software protocols), so the broadcast runs in a second phase.
    net.send_switch_multicast(0, 0, 512);
    for (HostId h = 0; h < 4; ++h) {
      Demand d;
      d.src = h;
      d.dst = static_cast<HostId>(7 - h);
      d.length = 800;
      net.inject(d);
    }
    net.run_to_quiescence();
    net.send_switch_broadcast(3, 256);
    for (HostId h = 4; h < 6; ++h) {
      Demand d;
      d.src = h;
      d.dst = static_cast<HostId>(7 - h);
      d.length = 800;
      net.inject(d);
    }
    net.run_to_quiescence();
    RunResult r;
    collect(net, r);
    if (burst) {
      first = r;
    } else {
      // The quiescence end time may differ by lingering self-scheduled pump
      // events; every delivered byte and sample must not.
      first.end_time = r.end_time;
      expect_identical(first, r);
      EXPECT_GT(r.adapter_worms_received, 0);
    }
  }
}

struct SwitchMcastRun {
  RunResult result;
  std::int64_t connections = 0;
  std::int64_t fragments = 0;
  std::int64_t unicasts_flushed = 0;
  std::int64_t mcast_bursts = 0;  // kChanBurst records of multicast worms
};

/// Switch-level multicasts (or broadcast floods) every 2,500 byte-times
/// over generator-driven Poisson unicast, flight-recorded. `topo` has an
/// even host count; its two groups are the even and the odd hosts (at most
/// eight each), and the senders alternate between them.
SwitchMcastRun run_switch_mcast(ExperimentConfig cfg, Topology topo,
                                SwitchMcastScheme scheme, bool broadcast,
                                bool burst) {
  cfg.fabric.burst_channels = burst;
  cfg.protocol.scheme = Scheme::kHamiltonianSF;
  cfg.switch_mcast.scheme = scheme;
  cfg.traffic.offered_load = 0.25;
  cfg.traffic.multicast_fraction = 0.0;
  cfg.seed = 17;
  const int n = topo.num_hosts();
  std::vector<MulticastGroupSpec> groups(2);
  for (int g = 0; g < 2; ++g) {
    groups[static_cast<std::size_t>(g)].id = g;
    for (HostId h = 0; h < std::min(8, n / 2); ++h)
      groups[static_cast<std::size_t>(g)].members.push_back(
          static_cast<HostId>((h * 2 + g * 3) % n));
  }
  Network net(std::move(topo), groups, cfg);
  net.enable_tracing(kRing);
  std::unordered_set<std::uint64_t> mcast_ids;
  for (int i = 0; i < 12; ++i) {
    net.sim().at(1'000 + 2'500 * i, [&net, &mcast_ids, broadcast, i, n] {
      const auto src = static_cast<HostId>((5 * i) % n);
      const auto ctx =
          broadcast ? net.send_switch_broadcast(src, 700)
                    : net.send_switch_multicast(src, i % 2, 1'000);
      mcast_ids.insert(ctx->message_id);
    });
  }
  net.run(/*warmup=*/1'000, /*measure=*/30'000, /*drain_cap=*/300'000);
  SwitchMcastRun r;
  collect(net, r.result);
  r.connections = net.switch_mcast_engine().connections_opened();
  r.fragments = net.switch_mcast_engine().fragments_sent();
  r.unicasts_flushed = net.switch_mcast_engine().unicasts_flushed();
  for (const TraceEvent& e : net.sim().tracer().snapshot(kRing))
    if (e.type == TraceEventType::kChanBurst && mcast_ids.count(e.worm) > 0)
      ++r.mcast_bursts;
  return r;
}

/// Burst (`a`) against per-byte (`b`) runs of one switch-multicast scenario.
void expect_switch_mcast_runs_identical(const SwitchMcastRun& a,
                                        const SwitchMcastRun& b) {
  expect_identical(a.result, b.result);
  EXPECT_EQ(a.connections, b.connections);
  EXPECT_EQ(a.fragments, b.fragments);
  EXPECT_EQ(a.unicasts_flushed, b.unicasts_flushed);
  EXPECT_GT(a.connections, 0);
  EXPECT_EQ(a.result.summary.outstanding, 0);
  EXPECT_GT(a.result.summary.mcast_samples, 0);
  EXPECT_EQ(b.mcast_bursts, 0);
  // Burst mode must actually burst: a silent fallback to per-byte stepping
  // fails here, not just slows down.
  EXPECT_LT(a.result.events, b.result.events);
}

void expect_switch_mcast_identical(SwitchMcastScheme scheme, bool broadcast) {
  const SwitchMcastRun a =
      run_switch_mcast({}, make_torus(4, 4), scheme, broadcast, true);
  const SwitchMcastRun b =
      run_switch_mcast({}, make_torus(4, 4), scheme, broadcast, false);
  expect_switch_mcast_runs_identical(a, b);
  EXPECT_GT(a.mcast_bursts, 0) << "switch-multicast worms never burst";
}

TEST(BurstEquivalence, SwitchMcastIdleFillUnderPoissonUnicast) {
  expect_switch_mcast_identical(SwitchMcastScheme::kIdleFill, false);
}

TEST(BurstEquivalence, SwitchMcastInterruptUnderPoissonUnicast) {
  expect_switch_mcast_identical(SwitchMcastScheme::kInterrupt, false);
  // With a 43 bt check period an interrupt releases branches that have
  // sent nothing yet while their route encoding is still arriving in a
  // run; each such branch channel has a pump scheduled for the encoding's
  // last byte. The worm granted the released port next must still start
  // in the tick per-byte stepping starts it, not at that stale pump.
  ExperimentConfig cfg;
  cfg.switch_mcast.interrupt_check = 43;
  const SwitchMcastRun a = run_switch_mcast(
      cfg, make_torus(4, 4), SwitchMcastScheme::kInterrupt, false, true);
  const SwitchMcastRun b = run_switch_mcast(
      cfg, make_torus(4, 4), SwitchMcastScheme::kInterrupt, false, false);
  expect_switch_mcast_runs_identical(a, b);
}

TEST(BurstEquivalence, SwitchMcastFlushUnicastUnderPoissonUnicast) {
  expect_switch_mcast_identical(SwitchMcastScheme::kFlushUnicast, false);
}

TEST(BurstEquivalence, SwitchBroadcastFloodUnderPoissonUnicast) {
  expect_switch_mcast_identical(SwitchMcastScheme::kInterrupt, true);
}

/// One fabric of the link-delay sweep: a 4x4 torus or the small folded
/// Clos (2 spines, 4 leaves, 3 hosts per leaf, routed by stage labels),
/// with its switch-to-switch and host link delays.
struct LinkCase {
  const char* name;
  bool clos;
  Time switch_delay;
  Time host_delay;
};

/// Builds the case's fabric; the Clos also writes its stage labels into
/// `cfg.routing`.
Topology make_link_topo(const LinkCase& c, ExperimentConfig& cfg) {
  if (!c.clos) return make_torus(4, 4, 1, c.switch_delay, c.host_delay);
  return make_clos(2, 4, 3, c.switch_delay, c.host_delay,
                   &cfg.routing.level_override);
}

// Every case above runs on the default 5 bt links. These sweep the delays
// that decide how long a run may be: a switch-bound channel commits up to
// its link delay (the lookahead) on a link longer than kRoutingLatency,
// and otherwise only what the receiver's slack buffer provably absorbs
// without a STOP. At 40 bt every hop bursts through streaming
// worms, so STOP, GO and overflow decisions fall inside runs and the input
// ports must take them at their per-byte ticks; at 1 bt runs stay within
// the slack budget.
class BurstEquivalenceLinks : public ::testing::TestWithParam<LinkCase> {
 protected:
  /// Both modes of one Poisson scenario on the case's fabric, traced;
  /// returns them (burst first) after requiring them identical.
  std::pair<RunResult, RunResult> expect_modes_identical(
      ExperimentConfig cfg) {
    const Topology topo = make_link_topo(GetParam(), cfg);
    RunResult a = run_traffic(cfg, topo, 8, true, /*traced=*/true);
    RunResult b = run_traffic(cfg, topo, 8, false, /*traced=*/true);
    expect_identical(a, b);
    EXPECT_GT(a.summary.counts.messages_completed, 0);
    EXPECT_LT(a.events, b.events) << "burst mode never burst";
    return {std::move(a), std::move(b)};
  }
};

TEST_P(BurstEquivalenceLinks, HostProtocolCutThrough) {
  ExperimentConfig cfg;
  cfg.protocol.scheme = Scheme::kHamiltonianCT;
  cfg.traffic.offered_load = 0.15;
  cfg.traffic.multicast_fraction = 0.5;
  cfg.seed = 42;
  const auto [a, b] = expect_modes_identical(cfg);
  // Long links burst through every hop, not just at worm starts.
  const LinkCase& c = GetParam();
  if (c.switch_delay == 40 && c.host_delay == 40) {
    EXPECT_LE(3 * a.events, b.events)
        << "40 bt runs: " << a.events << " events vs " << b.events
        << " per-byte";
  }
}

TEST_P(BurstEquivalenceLinks, StoreAndForwardUnderBackpressure) {
  // STOP/GO fire constantly; on long links inside committed runs.
  ExperimentConfig cfg;
  cfg.protocol.scheme = Scheme::kHamiltonianSF;
  cfg.traffic.offered_load = 0.30;
  cfg.traffic.multicast_fraction = 0.3;
  cfg.seed = 7;
  expect_modes_identical(cfg);
}

TEST_P(BurstEquivalenceLinks, TightSlackUnderBackpressure) {
  // Thresholds closer together and nearer the bottom of the buffer put
  // more STOP and GO decisions inside each run.
  ExperimentConfig cfg;
  cfg.protocol.scheme = Scheme::kHamiltonianSF;
  cfg.fabric.sw.stop_threshold = 12;
  cfg.fabric.sw.go_threshold = 4;
  cfg.traffic.offered_load = 0.30;
  cfg.traffic.multicast_fraction = 0.3;
  cfg.seed = 11;
  expect_modes_identical(cfg);
}

TEST_P(BurstEquivalenceLinks, ArmedFaultInjector) {
  // Truncation boundaries and swallowed runs inside long-link runs.
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
  const RunResult a = expect_modes_identical(cfg).first;
  EXPECT_GT(a.summary.faults_injected, 0)
      << "scenario must actually exercise faults";
  EXPECT_GT(a.summary.bytes_swallowed, 0);
}

class BurstEquivalenceLinksSwitchMcast : public BurstEquivalenceLinks {};

TEST_P(BurstEquivalenceLinksSwitchMcast, InterruptUnderPoissonUnicast) {
  ExperimentConfig cfg;
  const Topology topo = make_link_topo(GetParam(), cfg);
  expect_switch_mcast_runs_identical(
      run_switch_mcast(cfg, topo, SwitchMcastScheme::kInterrupt, false, true),
      run_switch_mcast(cfg, topo, SwitchMcastScheme::kInterrupt, false, false));
}

std::string link_case_name(const ::testing::TestParamInfo<LinkCase>& info) {
  return info.param.name;
}

constexpr LinkCase kTorus1{"torus_sw1_host1", false, 1, 1};
constexpr LinkCase kTorus40{"torus_sw40_host40", false, 40, 40};
constexpr LinkCase kTorus40Host1{"torus_sw40_host1", false, 40, 1};
constexpr LinkCase kTorus1Host40{"torus_sw1_host40", false, 1, 40};
constexpr LinkCase kClos1{"clos_sw1_host1", true, 1, 1};
constexpr LinkCase kClos40{"clos_sw40_host40", true, 40, 40};
constexpr LinkCase kClos40Host1{"clos_sw40_host1", true, 40, 1};
constexpr LinkCase kClos1Host40{"clos_sw1_host40", true, 1, 40};

INSTANTIATE_TEST_SUITE_P(LinkDelays, BurstEquivalenceLinks,
                         ::testing::Values(kTorus1, kTorus40, kTorus40Host1,
                                           kTorus1Host40, kClos1, kClos40,
                                           kClos40Host1, kClos1Host40),
                         link_case_name);

INSTANTIATE_TEST_SUITE_P(LinkDelays, BurstEquivalenceLinksSwitchMcast,
                         ::testing::Values(kTorus1, kTorus40, kTorus40Host1,
                                           kTorus1Host40, kClos1, kClos40,
                                           kClos40Host1, kClos1Host40),
                         link_case_name);

// Scale points: the fabrics and traffic shapes the repository benchmark
// (perfbench) and large_fabric measure, at spans short enough for ctest.
// The cases above run on 4x4 tori and an 8-switch Clos; these are where
// long runs of bytes and long paths meet.

/// Flight ring of the scale runs.
constexpr std::size_t kScaleRing = std::size_t{1} << 20;

/// `n_groups` groups of `size` distinct hosts, each a partial shuffle of
/// the hosts drawn from one fixed stream (the way perfbench draws its
/// groups).
std::vector<MulticastGroupSpec> draw_groups(int n_hosts, int n_groups,
                                            int size) {
  RandomStream rng(1996);
  std::vector<HostId> pool(static_cast<std::size_t>(n_hosts));
  for (HostId h = 0; h < n_hosts; ++h) pool[static_cast<std::size_t>(h)] = h;
  std::vector<MulticastGroupSpec> groups;
  for (int g = 0; g < n_groups; ++g) {
    for (int i = 0; i < size; ++i)
      std::swap(pool[static_cast<std::size_t>(i)],
                pool[static_cast<std::size_t>(rng.uniform(i, n_hosts - 1))]);
    MulticastGroupSpec spec;
    spec.id = g;
    spec.members.assign(pool.begin(), pool.begin() + size);
    groups.push_back(std::move(spec));
  }
  return groups;
}

/// One traced run of a scale point: generator traffic over `measure`
/// byte-times plus whatever `drive` schedules on the network.
RunResult run_scale(ExperimentConfig cfg, const Topology& topo,
                    const std::vector<MulticastGroupSpec>& groups, bool burst,
                    Time measure,
                    const std::function<void(Network&)>& drive = {}) {
  cfg.fabric.burst_channels = burst;
  Network net(topo, groups, cfg);
  net.enable_tracing(kScaleRing);
  if (drive) drive(net);
  net.run(/*warmup=*/2'000, measure, /*drain_cap=*/200'000);
  RunResult r;
  collect(net, r, kScaleRing);
  EXPECT_EQ(r.summary.outstanding, 0);
  return r;
}

/// Both modes of one scale point, required identical.
void expect_scale_identical(const ExperimentConfig& cfg, const Topology& topo,
                            const std::vector<MulticastGroupSpec>& groups,
                            Time measure,
                            const std::function<void(Network&)>& drive = {}) {
  const RunResult a = run_scale(cfg, topo, groups, true, measure, drive);
  const RunResult b = run_scale(cfg, topo, groups, false, measure, drive);
  expect_identical(a, b);
  EXPECT_GT(a.summary.counts.messages_completed, 0);
  EXPECT_LT(a.events, b.events) << "burst mode never burst";
}

TEST(BurstEquivalenceScale, HostMulticastTorus64) {
  // perfbench's host_mcast_torus64: 8x8 torus on 5 bt links, ten groups of
  // ten, Hamiltonian store-and-forward over Poisson traffic.
  ExperimentConfig cfg;
  cfg.protocol.scheme = Scheme::kHamiltonianSF;
  cfg.protocol.reservation = true;
  cfg.traffic.offered_load = 0.03;
  cfg.traffic.multicast_fraction = 0.10;
  cfg.seed = 1;
  expect_scale_identical(cfg, make_torus(8, 8), draw_groups(64, 10, 10),
                         250'000);
}

TEST(BurstEquivalenceScale, SwitchMulticastTorus64) {
  // perfbench's switch_mcast_torus64: a 1 KB scheme (b) switch-level
  // multicast every 12k bt, rotating through twelve groups of sixteen and
  // their members, over Poisson unicast.
  ExperimentConfig cfg;
  cfg.protocol.scheme = Scheme::kHamiltonianSF;
  cfg.protocol.reservation = true;
  cfg.switch_mcast.scheme = SwitchMcastScheme::kInterrupt;
  cfg.traffic.offered_load = 0.02;
  cfg.traffic.multicast_fraction = 0.0;
  cfg.seed = 1;
  const std::vector<MulticastGroupSpec> groups = draw_groups(64, 12, 16);
  expect_scale_identical(
      cfg, make_torus(8, 8), groups, 240'000, [&groups](Network& net) {
        for (int i = 0; i < 19; ++i) {
          const MulticastGroupSpec& g = groups[static_cast<std::size_t>(i) %
                                               groups.size()];
          const HostId src = g.members[static_cast<std::size_t>(
              i / static_cast<int>(groups.size())) % g.members.size()];
          net.sim().at(12'000 * (i + 1), [&net, &g, src] {
            (void)net.send_switch_multicast(src, g.id, 1'024);
          });
        }
      });
}

TEST(BurstEquivalenceScale, StageLabelledClos1k) {
  // perfbench's clos_1k: 16 spines x 32 leaves x 32 hosts on 40 bt links,
  // routed by stage labels, 128 groups of eight.
  ExperimentConfig cfg;
  cfg.protocol.scheme = Scheme::kHamiltonianSF;
  cfg.protocol.reservation = true;
  cfg.traffic.offered_load = 0.002;
  cfg.traffic.multicast_fraction = 0.25;
  cfg.seed = 1;
  const Topology topo =
      make_clos(16, 32, 32, 40, 40, &cfg.routing.level_override);
  expect_scale_identical(cfg, topo, draw_groups(1024, 128, 8), 200'000);
}

TEST(BurstEquivalenceScale, LargeFabricTorus32) {
  // large_fabric's 32x32 torus on 40 bt links, one host per switch, in
  // groups of eight consecutive hosts: the first host of each group
  // multicasts a 2 KB packet to it, the senders staggered by 7 bt.
  ExperimentConfig cfg;
  cfg.protocol.scheme = Scheme::kHamiltonianSF;
  cfg.traffic.offered_load = 1e-9;  // the generator idles; sends below
  cfg.seed = 1;
  std::vector<MulticastGroupSpec> groups(128);
  for (int g = 0; g < 128; ++g) {
    groups[static_cast<std::size_t>(g)].id = g;
    for (HostId h = 8 * g; h < 8 * g + 8; ++h)
      groups[static_cast<std::size_t>(g)].members.push_back(h);
  }
  expect_scale_identical(
      cfg, make_torus(32, 32, 1, 40, 40), groups, 20'000,
      [](Network& net) {
        for (HostId h = 0; h < net.num_hosts(); h += 8) {
          net.sim().at(2'000 + 7 * h, [&net, h] {
            Demand d;
            d.src = h;
            d.multicast = true;
            d.group = h / 8;
            d.length = 2'048;
            net.inject(d);
          });
        }
      });
}

}  // namespace
}  // namespace wormcast

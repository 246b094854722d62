// Cross-cutting properties, swept over (scheme x topology) with random
// groups and demand mixes:
//  * reliability: every message created is eventually fully delivered;
//  * conservation: delivered payload equals what the destinations expect;
//  * determinism: identical seeds give event-for-event identical results;
//  * fabric health: slack buffers never overflow.
#include <gtest/gtest.h>

#include <tuple>

#include "core/network.h"
#include "net/topologies.h"

namespace wormcast {
namespace {

Topology topo_by_index(int i) {
  RandomStream rng(77);
  switch (i) {
    case 0: return make_torus(3, 3);
    case 1: return make_bidir_shufflenet(2, 2);
    case 2: return make_myrinet_testbed();
    default: return make_random_mesh(8, 3.0, rng);
  }
}

int hosts_of(int i) {
  switch (i) {
    case 0: return 9;
    case 1: return 8;
    case 2: return 8;
    default: return 8;
  }
}

class SchemeTopoTest
    : public ::testing::TestWithParam<std::tuple<Scheme, int>> {};

TEST_P(SchemeTopoTest, MixedTrafficIsFullyDelivered) {
  const auto [scheme, topo_idx] = GetParam();
  const int n = hosts_of(topo_idx);
  RandomStream rng(31 + static_cast<std::uint64_t>(topo_idx));
  auto groups = make_random_groups(2, std::min(5, n), n, rng);
  ExperimentConfig cfg;
  cfg.protocol.scheme = scheme;
  cfg.traffic.offered_load = 0.03;
  cfg.traffic.multicast_fraction = 0.3;
  cfg.traffic.mean_worm_len = 250.0;
  Network net(topo_by_index(topo_idx), groups, cfg);
  net.run(/*warmup=*/5'000, /*measure=*/80'000, /*drain_cap=*/2'000'000);
  const auto s = net.summary();
  EXPECT_GT(s.counts.messages_created, 10);
  EXPECT_EQ(s.outstanding, 0) << "oldest age " << s.oldest_outstanding_age;
  EXPECT_EQ(s.fabric_overflows, 0);
}

TEST_P(SchemeTopoTest, RunsAreDeterministic) {
  const auto [scheme, topo_idx] = GetParam();
  auto run_once = [&](std::uint64_t seed) {
    const int n = hosts_of(topo_idx);
    RandomStream rng(5);
    auto groups = make_random_groups(2, std::min(4, n), n, rng);
    ExperimentConfig cfg;
    cfg.protocol.scheme = scheme;
    cfg.traffic.offered_load = 0.04;
    cfg.traffic.multicast_fraction = 0.25;
    cfg.seed = seed;
    Network net(topo_by_index(topo_idx), groups, cfg);
    net.run(2'000, 40'000, 1'000'000);
    return std::tuple(net.metrics().messages_created(), net.sim().progress(),
                      net.metrics().mcast_latency().mean(),
                      net.metrics().unicast_latency().mean(), net.sim().now());
  };
  EXPECT_EQ(run_once(11), run_once(11));
  EXPECT_NE(std::get<1>(run_once(11)), std::get<1>(run_once(12)));
}

std::string scheme_topo_name(
    const ::testing::TestParamInfo<std::tuple<Scheme, int>>& info) {
  static const char* const topos[] = {"torus", "shufflenet", "myrinet", "mesh"};
  std::string n = scheme_name(std::get<0>(info.param));
  for (char& c : n)
    if (c == '-') c = '_';
  return n + "_" + topos[std::get<1>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SchemeTopoTest,
    ::testing::Combine(::testing::Values(Scheme::kRepeatedUnicast,
                                         Scheme::kHamiltonianSF,
                                         Scheme::kHamiltonianCT,
                                         Scheme::kTreeSF,
                                         Scheme::kTreeBroadcast),
                       ::testing::Range(0, 4)),
    scheme_topo_name);

TEST(NetworkProperties, MeasuredUtilizationTracksOfferedLoad) {
  ExperimentConfig cfg;
  cfg.protocol.scheme = Scheme::kHamiltonianSF;
  cfg.traffic.offered_load = 0.04;
  cfg.traffic.multicast_fraction = 0.0;  // unicast only: util ~ load
  Network net(make_torus(4, 4), {}, cfg);
  net.run(10'000, 150'000);
  const auto s = net.summary();
  // Output-link utilization = offered load plus route/trailer overhead.
  EXPECT_NEAR(s.measured_utilization, 0.04, 0.012);
}

TEST(NetworkProperties, PayloadConservationUnderReliableSchemes) {
  MulticastGroupSpec g{0, {0, 1, 2, 3, 4}};
  ExperimentConfig cfg;
  cfg.protocol.scheme = Scheme::kTreeBroadcast;
  Network net(make_torus(3, 3), {g}, cfg);
  std::int64_t injected_expectation = 0;
  for (int i = 0; i < 12; ++i) {
    Demand d;
    d.src = static_cast<HostId>(i % 5);
    d.multicast = true;
    d.group = 0;
    d.length = 100 + 17 * i;
    injected_expectation += d.length * 4;  // 4 destinations each
    net.inject(d);
  }
  net.run_to_quiescence();
  std::int64_t received = 0;
  for (HostId h = 0; h < net.num_hosts(); ++h)
    received += net.adapter(h).payload_bytes_received();
  EXPECT_EQ(received, injected_expectation);
}

TEST(NetworkProperties, SummaryFieldsAreConsistent) {
  RandomStream rng(13);
  auto groups = make_random_groups(2, 4, 9, rng);
  ExperimentConfig cfg;
  cfg.traffic.offered_load = 0.03;
  cfg.traffic.multicast_fraction = 0.2;
  Network net(make_torus(3, 3), groups, cfg);
  net.run(5'000, 60'000);
  const auto s = net.summary();
  EXPECT_GE(s.mcast_latency_p95, s.mcast_latency_mean * 0.5);
  EXPECT_GE(s.mcast_completion_mean, s.mcast_latency_mean);
  EXPECT_GT(s.throughput_per_host, 0.0);
  EXPECT_EQ(s.offered_load, 0.03);
}

}  // namespace
}  // namespace wormcast

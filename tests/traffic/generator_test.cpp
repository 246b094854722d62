#include "traffic/generator.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.h"

namespace wormcast {
namespace {

struct Collected {
  std::vector<Demand> demands;
};

TEST(TrafficGenerator, OfferedLoadMatchesConfiguredRate) {
  Simulator sim;
  TrafficConfig cfg;
  cfg.offered_load = 0.05;
  cfg.mean_worm_len = 400.0;
  cfg.multicast_fraction = 0.0;
  Collected got;
  TrafficGenerator gen(sim, cfg, {}, 8, RandomStream(1),
                       [&](const Demand& d) { got.demands.push_back(d); });
  const Time span = 2'000'000;
  gen.start(span);
  sim.run();
  double bytes = 0;
  for (const auto& d : got.demands) bytes += static_cast<double>(d.length);
  const double rate = bytes / static_cast<double>(span) / 8.0;
  EXPECT_NEAR(rate, 0.05, 0.005);
}

TEST(TrafficGenerator, WormLengthsHaveConfiguredMeanAndBounds) {
  Simulator sim;
  TrafficConfig cfg;
  cfg.offered_load = 0.2;
  cfg.mean_worm_len = 400.0;
  Collected got;
  TrafficGenerator gen(sim, cfg, {}, 4, RandomStream(2),
                       [&](const Demand& d) { got.demands.push_back(d); });
  gen.start(1'000'000);
  sim.run();
  ASSERT_GT(got.demands.size(), 300u);
  double total = 0;
  for (const auto& d : got.demands) {
    EXPECT_GE(d.length, kMinWormLen);
    EXPECT_LE(d.length, kMaxWormLen);
    total += static_cast<double>(d.length);
  }
  EXPECT_NEAR(total / static_cast<double>(got.demands.size()), 400.0, 40.0);
}

TEST(TrafficGenerator, MulticastFractionRespected) {
  Simulator sim;
  TrafficConfig cfg;
  cfg.offered_load = 0.2;
  cfg.multicast_fraction = 0.25;
  MulticastGroupSpec g0{0, {0, 1, 2}};
  MulticastGroupSpec g1{1, {1, 2, 3}};
  Collected got;
  TrafficGenerator gen(sim, cfg, {g0, g1}, 4, RandomStream(3),
                       [&](const Demand& d) { got.demands.push_back(d); });
  gen.start(800'000);
  sim.run();
  int mcast = 0;
  for (const auto& d : got.demands) {
    if (d.multicast) {
      ++mcast;
      // Only groups the source belongs to.
      if (d.group == 0) {
        EXPECT_LE(d.src, 2);
      }
      if (d.group == 1) {
        EXPECT_GE(d.src, 1);
      }
    } else {
      EXPECT_NE(d.dst, d.src);
    }
  }
  const double frac = static_cast<double>(mcast) /
                      static_cast<double>(got.demands.size());
  EXPECT_NEAR(frac, 0.25, 0.04);
}

TEST(TrafficGenerator, HostsOutsideAllGroupsNeverMulticast) {
  Simulator sim;
  TrafficConfig cfg;
  cfg.offered_load = 0.2;
  cfg.multicast_fraction = 0.9;
  MulticastGroupSpec g{0, {0, 1}};
  Collected got;
  TrafficGenerator gen(sim, cfg, {g}, 4, RandomStream(4),
                       [&](const Demand& d) { got.demands.push_back(d); });
  gen.start(400'000);
  sim.run();
  for (const auto& d : got.demands)
    if (d.src >= 2) {
      EXPECT_FALSE(d.multicast);
    }
}

TEST(TrafficGenerator, DeterministicForSameSeed) {
  auto run = [] {
    Simulator sim;
    TrafficConfig cfg;
    cfg.offered_load = 0.1;
    Collected got;
    TrafficGenerator gen(sim, cfg, {}, 4, RandomStream(9),
                         [&](const Demand& d) { got.demands.push_back(d); });
    gen.start(200'000);
    sim.run();
    return got.demands;
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].src, b[i].src);
    EXPECT_EQ(a[i].length, b[i].length);
    EXPECT_EQ(a[i].multicast, b[i].multicast);
  }
}

TEST(TrafficGenerator, StopsAtHorizon) {
  Simulator sim;
  TrafficConfig cfg;
  cfg.offered_load = 0.1;
  std::int64_t count = 0;
  TrafficGenerator gen(sim, cfg, {}, 2, RandomStream(5),
                       [&](const Demand&) { ++count; });
  gen.start(50'000);
  sim.run();
  EXPECT_LE(sim.now(), 50'000);
  EXPECT_EQ(gen.demands_issued(), count);
  EXPECT_GT(count, 0);
}

}  // namespace
}  // namespace wormcast

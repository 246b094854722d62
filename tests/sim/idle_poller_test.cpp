#include "idle_poller.h"

#include <gtest/gtest.h>

#include <vector>

#include "myrinet_testbed.h"
#include "sim/simulator.h"

namespace wormcast {
namespace {

// --- grid semantics on a bare simulator --------------------------------

TEST(IdlePoller, FastForwardParksOnNeverAndWakeReArmsStrictlyAfter) {
  Simulator sim;
  std::vector<Time> at;
  IdlePoller p(sim, 100, 50,
               [&] {
                 at.push_back(sim.now());
                 return kTimeNever;
               },
               /*stop_at=*/1000);
  p.start();
  // An event at t=220 unblocks the condition: the first naive poll that
  // could observe the new state is the grid point strictly after 220.
  sim.at(220, [&] { p.wake(); });
  sim.run();
  EXPECT_EQ(at, (std::vector<Time>{100, 250}));
  EXPECT_TRUE(p.parked());
}

TEST(IdlePoller, WakeExactlyOnGridPointSkipsToNext) {
  Simulator sim;
  std::vector<Time> at;
  IdlePoller p(sim, 100, 50,
               [&] {
                 at.push_back(sim.now());
                 return kTimeNever;
               },
               /*stop_at=*/1000);
  p.start();
  // Waking AT a grid point must arm the NEXT one: a naive poll queued at
  // t=150 was inserted before the waking event and fired ahead of it,
  // still seeing the old state.
  sim.at(150, [&] { p.wake(); });
  sim.run();
  EXPECT_EQ(at, (std::vector<Time>{100, 200}));
}

TEST(IdlePoller, FastForwardJumpsToFirstGridPointAtOrAfterBound) {
  Simulator sim;
  std::vector<Time> at;
  IdlePoller p(sim, 100, 50,
               [&]() -> Time {
                 at.push_back(sim.now());
                 // Deadline at 430: first grid point >= 430 is 450 (a naive
                 // poll at exactly the deadline sees it as passed).
                 return sim.now() == 100 ? Time{430} : kTimeNever;
               },
               /*stop_at=*/1000);
  p.start();
  sim.run();
  EXPECT_EQ(at, (std::vector<Time>{100, 450}));
}

TEST(IdlePoller, BoundOnGridPointIsTakenExactly) {
  Simulator sim;
  std::vector<Time> at;
  IdlePoller p(sim, 100, 50,
               [&]() -> Time {
                 at.push_back(sim.now());
                 return sim.now() == 100 ? Time{400} : kTimeNever;
               },
               /*stop_at=*/1000);
  p.start();
  sim.run();
  EXPECT_EQ(at, (std::vector<Time>{100, 400}));
}

TEST(IdlePoller, StaleBoundMeansPollNextPeriod) {
  Simulator sim;
  std::vector<Time> at;
  IdlePoller p(sim, 100, 50,
               [&]() -> Time {
                 at.push_back(sim.now());
                 // A bound at or below now: condition was true but there may
                 // be more work; keep polling on the plain grid.
                 return at.size() < 3 ? sim.now() : kTimeNever;
               },
               /*stop_at=*/1000);
  p.start();
  sim.run();
  EXPECT_EQ(at, (std::vector<Time>{100, 150, 200}));
}

TEST(IdlePoller, WakeWhileArmedIsANoOp) {
  Simulator sim;
  std::vector<Time> at;
  IdlePoller p(sim, 100, 50,
               [&]() -> Time {
                 at.push_back(sim.now());
                 return sim.now() == 100 ? Time{300} : kTimeNever;
               },
               /*stop_at=*/1000);
  p.start();
  // The poller is armed for t=300 off a valid bound; a wake at 120 must
  // not add an extra poll or move the armed one.
  sim.at(120, [&] { p.wake(); });
  sim.run();
  EXPECT_EQ(at, (std::vector<Time>{100, 300}));
}

TEST(IdlePoller, StopAtBoundsBothArmsAndWakes) {
  Simulator sim;
  int polls = 0;
  IdlePoller p(sim, 100, 50,
               [&] {
                 ++polls;
                 return kTimeNever;
               },
               /*stop_at=*/120);
  p.start();
  sim.at(130, [&] { p.wake(); });  // next grid point 150 > stop_at: ignored
  sim.run();
  EXPECT_EQ(polls, 1);
  EXPECT_EQ(p.polls(), 1);
}

TEST(IdlePoller, StopCancelsPendingPoll) {
  Simulator sim;
  int polls = 0;
  // A bound of 0 (<= now) re-arms every period, never parking.
  IdlePoller p(sim, 100, 50, [&] {
    ++polls;
    return Time{0};
  });
  p.start();
  sim.at(160, [&] { p.stop(); });
  sim.run_until(500);
  EXPECT_EQ(polls, 2);  // 100 and 150; the 200 poll was cancelled
}

// --- observable equivalence on the full testbed ------------------------
//
// Fast-forward must change how fast the simulation runs, never what it
// computes: identical throughput, loss, wire bytes, and worm-pool traffic
// versus the reference that polls every grid point (the testbed discards
// the body's bound when fast_forward is off) — while actually skipping
// idle polls. Covers both application shapes: saturating
// (park-until-drain-wake) and rate-limited (deadline jumps), plus a
// 256-host torus at rest.

bench::TestbedResult run_mode(bool fast_forward, Time inject_period) {
  bench::TestbedOptions opts;
  opts.senders = 8;
  opts.packet_size = 1024;
  opts.span = 300'000;
  opts.fast_forward = fast_forward;
  opts.inject_period = inject_period;
  return bench::run_testbed(opts);
}

bench::TestbedResult run_torus(bool fast_forward) {
  bench::TestbedOptions opts;
  opts.torus = 16;
  opts.senders = 16 * 16;
  opts.packet_size = 512;
  opts.group_size = 4;
  opts.inject_period = 500'000;
  opts.span = 2'000'000;
  opts.fast_forward = fast_forward;
  return bench::run_testbed(opts);
}

void expect_same_physics(const bench::TestbedResult& a,
                         const bench::TestbedResult& b) {
  EXPECT_EQ(a.throughput_mbps, b.throughput_mbps);
  EXPECT_EQ(a.loss_rate, b.loss_rate);
  EXPECT_EQ(a.bytes_on_wire, b.bytes_on_wire);
  EXPECT_EQ(a.pool_fresh, b.pool_fresh);
  EXPECT_EQ(a.pool_reused, b.pool_reused);
}

TEST(IdlePollerEquivalence, SaturatingTestbedMatchesLegacy) {
  const auto legacy = run_mode(/*fast_forward=*/false, /*inject_period=*/0);
  const auto ff = run_mode(/*fast_forward=*/true, /*inject_period=*/0);
  expect_same_physics(legacy, ff);
  EXPECT_GT(legacy.bytes_on_wire, 0);
  // Fast-forward must have skipped at least some idle polls.
  EXPECT_LT(ff.app_polls, legacy.app_polls);
}

TEST(IdlePollerEquivalence, RateLimitedTestbedMatchesLegacy) {
  // Lightly loaded: one packet per 50k byte-times; the body parks on the
  // in-flight packet and deadline-jumps between sends.
  const auto legacy = run_mode(/*fast_forward=*/false, /*inject_period=*/50'000);
  const auto ff = run_mode(/*fast_forward=*/true, /*inject_period=*/50'000);
  expect_same_physics(legacy, ff);
  EXPECT_GT(legacy.bytes_on_wire, 0);
  // In the at-rest shape nearly every poll is idle: the reduction is large,
  // not marginal.
  EXPECT_LT(ff.app_polls * 10, legacy.app_polls);
}

TEST(IdlePollerEquivalence, TorusAtRestMatchesLegacy) {
  // Every host of a 16x16 torus multicasts to its 4-host group once per
  // 500k byte-times: the scale shape sim_hotpath times, at a quarter of
  // the hosts.
  const auto legacy = run_torus(/*fast_forward=*/false);
  const auto ff = run_torus(/*fast_forward=*/true);
  expect_same_physics(legacy, ff);
  EXPECT_GT(legacy.bytes_on_wire, 0);
  EXPECT_LT(ff.app_polls * 100, legacy.app_polls);
}

}  // namespace
}  // namespace wormcast

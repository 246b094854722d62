#include "sim/watchdog.h"

#include <gtest/gtest.h>

namespace wormcast {
namespace {

TEST(DeadlockWatchdog, DetectsStallWithOutstandingWork) {
  Simulator sim;
  std::int64_t outstanding = 1;
  bool alarmed = false;
  DeadlockWatchdog dog(
      sim, 100, [&] { return outstanding; }, [&] { alarmed = true; });
  dog.arm();
  // No progress ever happens.
  sim.run_until(1000);
  EXPECT_TRUE(dog.deadlock_detected());
  EXPECT_TRUE(alarmed);
  EXPECT_LE(dog.detection_time(), 200);
}

TEST(DeadlockWatchdog, QuiescenceIsNotDeadlock) {
  Simulator sim;
  bool alarmed = false;
  DeadlockWatchdog dog(
      sim, 100, [] { return 0; }, [&] { alarmed = true; });
  dog.arm();
  sim.run_until(1000);
  EXPECT_FALSE(dog.deadlock_detected());
  EXPECT_FALSE(alarmed);
}

TEST(DeadlockWatchdog, ProgressSuppressesAlarm) {
  Simulator sim;
  bool alarmed = false;
  DeadlockWatchdog dog(
      sim, 100, [] { return 5; }, [&] { alarmed = true; });
  dog.arm();
  // Keep making progress every 50 byte-times.
  for (Time t = 50; t <= 2000; t += 50)
    sim.at(t, [&sim] { sim.note_progress(); });
  sim.run_until(2000);
  EXPECT_FALSE(dog.deadlock_detected());
  EXPECT_FALSE(alarmed);
}

TEST(DeadlockWatchdog, CapturesDiagnosticsAtDetection) {
  Simulator sim;
  int dumps = 0;
  DeadlockWatchdog dog(
      sim, 100, [] { return 1; }, [] {});
  dog.set_diagnostics([&] {
    ++dumps;
    return std::string("host 0: tasks=1 pool_used=64\n");
  });
  dog.arm();
  sim.run_until(1000);
  ASSERT_TRUE(dog.deadlock_detected());
  EXPECT_EQ(dumps, 1) << "diagnostics must run exactly once, at detection";
  EXPECT_EQ(dog.report(), "host 0: tasks=1 pool_used=64\n");
}

TEST(DeadlockWatchdog, ReportIncludesTraceTailWhenTracerArmed) {
  Simulator sim;
  sim.tracer().enable(64);
  sim.at(40, [&sim] {
    WORMTRACE(sim, kArbGrant, 2, 1, 7, 0);
  });
  DeadlockWatchdog dog(
      sim, 100, [] { return 1; }, [] {});
  dog.set_diagnostics([] { return std::string("host state\n"); });
  dog.arm();
  sim.run_until(1000);
  ASSERT_TRUE(dog.deadlock_detected());
  EXPECT_NE(dog.report().find("host state"), std::string::npos);
  // The flight-recorder tail rides along with the state dump.
  EXPECT_NE(dog.report().find("trace tail (last 1 of 1 recorded):"),
            std::string::npos);
  EXPECT_NE(dog.report().find("arb.grant worm=7"), std::string::npos);
}

TEST(DeadlockWatchdog, NoDiagnosticsWithoutStall) {
  Simulator sim;
  int dumps = 0;
  DeadlockWatchdog dog(
      sim, 100, [] { return 0; }, [] {});
  dog.set_diagnostics([&] {
    ++dumps;
    return std::string("unused");
  });
  dog.arm();
  sim.run_until(1000);
  EXPECT_EQ(dumps, 0);
  EXPECT_TRUE(dog.report().empty());
}

TEST(DeadlockWatchdog, DetectsStallAfterProgressStops) {
  Simulator sim;
  bool alarmed = false;
  DeadlockWatchdog dog(
      sim, 100, [] { return 1; }, [&] { alarmed = true; });
  dog.arm();
  for (Time t = 10; t <= 500; t += 10)
    sim.at(t, [&sim] { sim.note_progress(); });
  sim.run_until(5000);
  EXPECT_TRUE(alarmed);
  EXPECT_GE(dog.detection_time(), 500);
  EXPECT_LE(dog.detection_time(), 800);
}

}  // namespace
}  // namespace wormcast

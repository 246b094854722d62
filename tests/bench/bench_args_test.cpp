// The shared bench flags fail fast: a count flag (--jobs, --reps,
// --trace-cap) that is not a whole number >= 1 prints the usage line and
// exits 2, like an unknown --strategy, instead of silently running with a
// default. --strategy itself is taken only by the bench that reads it
// (tree_strategies); every other bench rejects it the same way.
#include <gtest/gtest.h>

#include <vector>

#include "bench_util.h"

namespace wormcast::bench {
namespace {

BenchArgs parse(std::vector<const char*> flags,
                bool accepts_strategy = false) {
  std::vector<char*> argv = {const_cast<char*>("bench")};
  for (const char* f : flags) argv.push_back(const_cast<char*>(f));
  return parse_bench_args(static_cast<int>(argv.size()), argv.data(),
                          accepts_strategy);
}

TEST(BenchArgs, AcceptsValidCounts) {
  const BenchArgs a =
      parse({"--jobs", "4", "--reps", "3", "--trace-cap", "5000"});
  EXPECT_EQ(a.jobs, 4);
  EXPECT_EQ(a.reps, 3);
  EXPECT_EQ(a.trace_cap, 5000u);
  EXPECT_TRUE(a.trace_cap_explicit);
}

TEST(BenchArgs, RejectsNonNumericJobs) {
  EXPECT_EXIT(parse({"--jobs", "abc"}), testing::ExitedWithCode(2), "usage:");
}

TEST(BenchArgs, RejectsZeroJobs) {
  EXPECT_EXIT(parse({"--jobs", "0"}), testing::ExitedWithCode(2), "usage:");
}

TEST(BenchArgs, RejectsNegativeReps) {
  EXPECT_EXIT(parse({"--reps", "-1"}), testing::ExitedWithCode(2), "usage:");
}

TEST(BenchArgs, RejectsNonNumericReps) {
  EXPECT_EXIT(parse({"--reps", "2x"}), testing::ExitedWithCode(2), "usage:");
}

TEST(BenchArgs, RejectsNonNumericTraceCap) {
  EXPECT_EXIT(parse({"--trace-cap", "x"}), testing::ExitedWithCode(2),
              "usage:");
}

TEST(BenchArgs, RejectsZeroTraceCap) {
  EXPECT_EXIT(parse({"--trace-cap", "0"}), testing::ExitedWithCode(2),
              "usage:");
}

TEST(BenchArgs, RejectsDeletedStrategyName) {
  for (const char* name : {"partition-merge", "multi-root"})
    EXPECT_EXIT(parse({"--strategy", name}, /*accepts_strategy=*/true),
                testing::ExitedWithCode(2), "unknown tree strategy")
        << name;
}

TEST(BenchArgs, AcceptsUnderscoreStrategyName) {
  const BenchArgs a =
      parse({"--strategy", "load_aware"}, /*accepts_strategy=*/true);
  EXPECT_EQ(a.strategy, TreeStrategyKind::kLoadAware);
  EXPECT_TRUE(a.strategy_explicit);
}

TEST(BenchArgs, TreeStrategiesTakesStrategy) {
  const BenchArgs a = parse({"--quick", "--strategy", "load-aware"},
                            /*accepts_strategy=*/true);
  EXPECT_TRUE(a.quick);
  EXPECT_EQ(a.strategy, TreeStrategyKind::kLoadAware);
  EXPECT_TRUE(a.strategy_explicit);
}

TEST(BenchArgs, OtherBenchesRejectStrategy) {
  // A valid name too: a bench that never reads the flag must not run as
  // if it had honoured it.
  for (const char* name : {"load-aware", "single-root"})
    EXPECT_EXIT(parse({"--quick", "--strategy", name}),
                testing::ExitedWithCode(2), "usage:")
        << name;
}

TEST(BenchArgs, UsageNamesStrategyOnlyWhereTaken) {
  EXPECT_EXIT(parse({"--bogus"}, /*accepts_strategy=*/true),
              testing::ExitedWithCode(2), "\\[--strategy NAME\\]");
  EXPECT_EXIT(parse({"--jobs", "0"}, /*accepts_strategy=*/true),
              testing::ExitedWithCode(2), "\\[--strategy NAME\\]");
}

}  // namespace
}  // namespace wormcast::bench

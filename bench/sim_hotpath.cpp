// Simulation hot-path benchmark: how fast does the simulator itself run?
//
// Two sections, both on the shared Myrinet testbed harness:
//
//  1. Fig12-scale mode matrix (8 hosts, 8 KB packets): burst fast path,
//     forced per-byte, and burst with the flight recorder enabled. All
//     modes produce bit-for-bit identical simulation results (pinned by
//     the burst_equivalence ctest); only event counts and wall time move.
//
//  2. Scale point (32x32 torus, 1024 hosts, LAN at rest): every host
//     runs a rate-limited app multicasting a 512-byte packet to its own
//     4-host group once per 10M byte-times, under idle fast-forward
//     (bench/idle_poller.h). Without it the 512-byte-time app-poll grid IS
//     the event stream at this duty cycle: a thousand mostly-idle hosts
//     burn ~2 events per byte-time asking "anything to do?". The last
//     measured comparison against that naive polling is frozen in
//     DESIGN.md §6b2; idle_poller_test pins that both compute the same
//     physics.
//
// Timing discipline: each mode runs one discarded warm-up (page cache,
// allocator, branch predictors) and then best-of-K timed repetitions, so
// the reported walls measure the steady state, not cold-start order. The
// burst and burst_traced modes share one job and alternate repetitions;
// the tracing overhead is the median of the per-repetition ratios, so load
// that drifts or spikes during the run does not skew it.
// The matrices run on a SweepRunner (--jobs N) like every other sweep;
// note that with --jobs > 1 the modes time each other's cache and core
// contention, so scaling studies should keep the default --jobs 1 for
// this bench and spend their cores on the *sweep* benches instead.
//
// CI runs `--quick` as a smoke test and archives BENCH_sim_hotpath.json;
// tools/perf_gate.py compares the deterministic columns exactly and the
// wall-ratio columns within a band (see bench/baselines/README.md).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "myrinet_testbed.h"

using namespace wormcast;

namespace {

constexpr int kRepetitions = 3;  // best-of-K after one warm-up
// The tracing-overhead pair (burst vs burst_traced) is timed alternately
// in one job: short runs, so a larger K is cheap.
constexpr int kPairRepetitions = 7;
// Established worms move a fig12 span in a few thousand events, so the
// flight ring's set-up would dominate a traced run of that span; the
// overhead pair runs this many spans instead.
constexpr Time kOverheadSpans = 100;

struct Timed {
  bench::TestbedResult result;
  double wall_ms = 0.0;      // best full-run wall of `reps`
  double sim_wall_ms = 0.0;  // best event-loop wall of `reps`
  std::vector<double> walls;  // every repetition's full-run wall, in order
};

/// Times each of `configs` best-of-`reps`, interleaved (ABAB...) after one
/// warm-up each, so drift in machine load hits every config alike and the
/// ratio of their walls stays fair.
std::vector<Timed> timed_alternating(
    const std::vector<bench::TestbedOptions>& configs, int reps) {
  std::vector<Timed> out(configs.size());
  for (const auto& opts : configs) bench::run_testbed(opts);  // warm-up
  for (int k = 0; k < reps; ++k) {
    for (std::size_t i = 0; i < configs.size(); ++i) {
      Timed& t = out[i];
      const auto t0 = std::chrono::steady_clock::now();
      auto result = bench::run_testbed(configs[i]);
      const auto t1 = std::chrono::steady_clock::now();
      const double wall =
          std::chrono::duration<double, std::milli>(t1 - t0).count();
      t.walls.push_back(wall);
      if (k == 0 || result.sim_wall_ms < t.sim_wall_ms)
        t.sim_wall_ms = result.sim_wall_ms;
      if (k == 0 || wall < t.wall_ms) {
        t.wall_ms = wall;
        t.result = std::move(result);
      }
    }
  }
  return out;
}

/// Median over repetitions of b's wall over a's, each ratio taken from
/// one adjacent (a, b) pair of timed_alternating(): a load spike or a
/// lucky run on one side moves one ratio, not the result.
double median_paired_ratio(const Timed& a, const Timed& b) {
  std::vector<double> ratios;
  for (std::size_t k = 0; k < a.walls.size(); ++k)
    if (a.walls[k] > 0) ratios.push_back(b.walls[k] / a.walls[k]);
  if (ratios.empty()) return 0.0;
  std::sort(ratios.begin(), ratios.end());
  return ratios[ratios.size() / 2];
}

Timed timed_run(const bench::TestbedOptions& opts, int reps) {
  return std::move(timed_alternating({opts}, reps).front());
}

double per_sec(double count, double wall_ms) {
  return wall_ms > 0 ? count / (wall_ms / 1000.0) : 0.0;
}

void report(const char* mode, const Timed& t, bench::JsonBench& json,
            std::size_t row, bool burst, bool tracing) {
  const double events_per_s =
      per_sec(static_cast<double>(t.result.events_dispatched), t.wall_ms);
  const double bytes_per_s =
      per_sec(static_cast<double>(t.result.bytes_on_wire), t.wall_ms);
  std::printf("%s,%.1f,%lld,%.3g,%lld,%.3g,%lld,%.1f\n", mode, t.wall_ms,
              static_cast<long long>(t.result.events_dispatched), events_per_s,
              static_cast<long long>(t.result.bytes_on_wire), bytes_per_s,
              static_cast<long long>(t.result.event_queue_peak),
              t.result.throughput_mbps);
  json.set_row(row,
               {{"burst", burst ? 1.0 : 0.0},
                {"tracing", tracing ? 1.0 : 0.0},
                {"wall_ms", t.wall_ms},
                {"events", static_cast<double>(t.result.events_dispatched)},
                {"events_per_sec", events_per_s},
                {"sim_bytes", static_cast<double>(t.result.bytes_on_wire)},
                {"sim_bytes_per_wall_sec", bytes_per_s},
                {"event_queue_peak",
                 static_cast<double>(t.result.event_queue_peak)},
                {"throughput_mbps", t.result.throughput_mbps}});
}

void report_scale(const Timed& t, bench::JsonBench& json, std::size_t row) {
  const double bytes_per_s =
      per_sec(static_cast<double>(t.result.bytes_on_wire), t.sim_wall_ms);
  std::printf("ff,%.1f,%.1f,%lld,%lld,%.3g,%lld,%lld,%lld,%.2f\n",
              t.sim_wall_ms, t.wall_ms,
              static_cast<long long>(t.result.events_dispatched),
              static_cast<long long>(t.result.app_polls), bytes_per_s,
              static_cast<long long>(t.result.event_queue_peak),
              static_cast<long long>(t.result.pool_fresh),
              static_cast<long long>(t.result.pool_reused),
              t.result.throughput_mbps);
  json.set_row(row,
               {{"fast_forward", 1.0},
                {"sim_wall_ms", t.sim_wall_ms},
                {"wall_ms", t.wall_ms},
                {"events", static_cast<double>(t.result.events_dispatched)},
                {"app_polls", static_cast<double>(t.result.app_polls)},
                {"sim_bytes", static_cast<double>(t.result.bytes_on_wire)},
                {"sim_bytes_per_wall_sec", bytes_per_s},
                {"event_queue_peak",
                 static_cast<double>(t.result.event_queue_peak)},
                {"pool_fresh", static_cast<double>(t.result.pool_fresh)},
                {"pool_reused", static_cast<double>(t.result.pool_reused)},
                {"throughput_mbps", t.result.throughput_mbps}});
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_bench_args(argc, argv);
  const Time span = args.quick ? 600'000 : 3'000'000;
  const std::int64_t packet = 8 * 1024;

  std::printf("# Simulation hot path: fig12-scale all-send run (8 hosts, "
              "%lld-byte packets, %lld byte-times, warm-up + best of %d; "
              "burst and burst_traced alternate, best of %d)\n",
              static_cast<long long>(packet), static_cast<long long>(span),
              kRepetitions, kPairRepetitions);
  bench::print_header("mode", {"wall_ms", "events", "events_per_sec",
                               "sim_bytes", "sim_bytes_per_wall_sec",
                               "event_queue_peak", "throughput_mbps"});
  bench::JsonBench json("sim_hotpath");

  // --- Section 1: fig12-scale mode matrix (burst, tracing). The third
  // mode is the overhead guard — the same burst run with the flight
  // recorder on. The runtime-disabled path must stay within noise; the
  // enabled path's cost is reported so regressions are visible.
  struct Mode {
    const char* name;
    bool burst;
    bool tracing;
  };
  const std::vector<Mode> modes = {{"burst", true, false},
                                   {"per_byte", false, false},
                                   {"burst_traced", true, true}};

  // --- Section 2: the 1k-host scale point (LAN at rest; see header).
  const int torus = 32;  // 1024 hosts
  const std::int64_t scale_packet = 512;
  const int scale_group = 4;
  const Time scale_period = 10'000'000;
  const Time scale_span = args.quick ? 9'000'000 : 20'000'000;
  const int scale_reps = args.quick ? 2 : kRepetitions;

  // Rows: modes, mode-ratio row, scale point.
  json.resize_rows(modes.size() + 2);

  const auto mode_opts = [&](const Mode& m) {
    bench::TestbedOptions opts;
    opts.senders = 8;
    opts.packet_size = packet;
    opts.span = span;
    opts.burst_channels = m.burst;
    opts.tracing = m.tracing;
    opts.trace_cap = args.trace_cap;
    return opts;
  };

  // Jobs: the burst/burst_traced pair (timed alternately, so the tracing
  // overhead ratio compares like with like), per_byte, the scale point.
  const harness::WallTimer sweep;
  harness::SweepRunner pool(args.jobs);
  std::vector<Timed> timed(modes.size());
  Timed scale;
  double tracing_overhead = 0.0;
  const auto walls = pool.run_indexed(3, [&](std::size_t i) {
    if (i == 0) {
      auto pair = timed_alternating({mode_opts(modes[0]), mode_opts(modes[2])},
                                    kPairRepetitions);
      timed[0] = std::move(pair[0]);
      timed[2] = std::move(pair[1]);
      std::vector<bench::TestbedOptions> long_pair = {mode_opts(modes[0]),
                                                      mode_opts(modes[2])};
      for (bench::TestbedOptions& opts : long_pair) opts.span *= kOverheadSpans;
      const auto overhead = timed_alternating(long_pair, kPairRepetitions);
      tracing_overhead = median_paired_ratio(overhead[0], overhead[1]);
    } else if (i == 1) {
      timed[1] = timed_run(mode_opts(modes[1]), kRepetitions);
    } else {
      bench::TestbedOptions opts;
      opts.torus = torus;
      opts.senders = torus * torus;
      opts.packet_size = scale_packet;
      opts.span = scale_span;
      opts.group_size = scale_group;
      opts.inject_period = scale_period;
      scale = timed_run(opts, scale_reps);
    }
  });
  for (std::size_t i = 0; i < modes.size(); ++i)
    report(modes[i].name, timed[i], json, i, modes[i].burst, modes[i].tracing);

  const Timed& burst = timed[0];
  const Timed& per_byte = timed[1];
  const Timed& traced = timed[2];
  const double speedup =
      burst.wall_ms > 0 ? per_byte.wall_ms / burst.wall_ms : 0.0;
  const double event_ratio =
      burst.result.events_dispatched > 0
          ? static_cast<double>(per_byte.result.events_dispatched) /
                static_cast<double>(burst.result.events_dispatched)
          : 0.0;
  std::printf("# burst speedup: %.2fx wall clock, %.2fx fewer events\n",
              speedup, event_ratio);
  std::printf("# tracing overhead: %.2fx wall clock, %lld events recorded "
              "(%lld dropped; raise --trace-cap to keep them)\n",
              tracing_overhead,
              static_cast<long long>(traced.result.trace_events),
              static_cast<long long>(traced.result.trace_dropped));
  if (burst.result.throughput_mbps != per_byte.result.throughput_mbps)
    std::printf("# WARNING: modes disagree on throughput — burst bug!\n");
  if (burst.result.throughput_mbps != traced.result.throughput_mbps)
    std::printf("# WARNING: tracing changed the results — observer bug!\n");
  json.set_row(modes.size(),
               {{"speedup_wall", speedup},
                {"event_ratio", event_ratio},
                {"tracing_overhead_wall", tracing_overhead},
                // Repetitions of the burst pair only (baselines README).
                {"best_of", static_cast<double>(kPairRepetitions)},
                {"trace_events",
                 static_cast<double>(traced.result.trace_events)},
                {"trace_dropped",
                 static_cast<double>(traced.result.trace_dropped)}});

  std::printf("# Scale point: %dx%d torus at rest (%d hosts, %lld-byte "
              "packets to %d-host groups every %lld byte-times, %lld "
              "byte-times, idle fast-forward, warm-up + best of %d)\n",
              torus, torus, torus * torus,
              static_cast<long long>(scale_packet), scale_group,
              static_cast<long long>(scale_period),
              static_cast<long long>(scale_span), scale_reps);
  bench::print_header("engine", {"sim_wall_ms", "wall_ms", "events",
                                 "app_polls", "sim_bytes_per_wall_sec",
                                 "event_queue_peak", "pool_fresh",
                                 "pool_reused", "throughput_mbps"});
  report_scale(scale, json, modes.size() + 1);

  json.set_counters(traced.result.counters);
  bench::stamp_sweep_meta(json, pool, walls, sweep);
  json.write();
  return 0;
}

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
// the reported walls measure the steady state, not cold-start order.
// The matrices run on a SweepRunner (--jobs N) like every other sweep;
// note that with --jobs > 1 the modes time each other's cache and core
// contention, so scaling studies should keep the default --jobs 1 for
// this bench and spend their cores on the *sweep* benches instead.
//
// CI runs `--quick` as a smoke test and archives BENCH_sim_hotpath.json;
// tools/perf_gate.py compares the deterministic columns exactly and the
// wall-ratio columns within a band (see bench/baselines/README.md).
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "myrinet_testbed.h"

using namespace wormcast;

namespace {

constexpr int kRepetitions = 3;  // best-of-K after one warm-up

struct Timed {
  bench::TestbedResult result;
  double wall_ms = 0.0;      // best full-run wall of `reps`
  double sim_wall_ms = 0.0;  // best event-loop wall of `reps`
};

Timed timed_run(const bench::TestbedOptions& opts, int reps) {
  Timed t;
  // Warm-up: identical run, result and time discarded.
  bench::run_testbed(opts);
  t.wall_ms = -1.0;
  t.sim_wall_ms = -1.0;
  for (int k = 0; k < reps; ++k) {
    const auto t0 = std::chrono::steady_clock::now();
    auto result = bench::run_testbed(opts);
    const auto t1 = std::chrono::steady_clock::now();
    const double wall =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (t.sim_wall_ms < 0 || result.sim_wall_ms < t.sim_wall_ms)
      t.sim_wall_ms = result.sim_wall_ms;
    if (t.wall_ms < 0 || wall < t.wall_ms) {
      t.wall_ms = wall;
      t.result = std::move(result);
    }
  }
  return t;
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
              "%lld-byte packets, %lld byte-times, warm-up + best of %d)\n",
              static_cast<long long>(packet), static_cast<long long>(span),
              kRepetitions);
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

  const harness::WallTimer sweep;
  harness::SweepRunner pool(args.jobs);
  std::vector<Timed> timed(modes.size());
  Timed scale;
  const auto walls = pool.run_indexed(modes.size() + 1, [&](std::size_t i) {
    if (i < modes.size()) {
      bench::TestbedOptions opts;
      opts.senders = 8;
      opts.packet_size = packet;
      opts.span = span;
      opts.burst_channels = modes[i].burst;
      opts.tracing = modes[i].tracing;
      opts.trace_cap = args.trace_cap;
      timed[i] = timed_run(opts, kRepetitions);
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
  const double tracing_overhead =
      burst.wall_ms > 0 ? traced.wall_ms / burst.wall_ms : 0.0;
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
                {"best_of", static_cast<double>(kRepetitions)},
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

// Ablation A: what the two-buffer-class rule buys (Figures 6 and 7).
//
// The paper's closing section reports "work in progress" on measuring
// buffer contention and the probability of deadlocks. A saturated steady
// state cannot distinguish deadlock from backlog, so this bench uses a
// burst design: every member of every group injects one multicast at t=0,
// then the network drains with *no further arrivals*. With the class rule
// (and low-to-high ID propagation) reservation waits are acyclic, so the
// burst always drains completely. With the rule disabled, reservations can
// cycle (two adapters holding full pools NACK each other forever,
// Figure 6): those runs end with messages that never complete no matter
// how long the drain — a permanent livelock. We report, per configuration:
// runs that wedged, messages still undelivered at the horizon, and the
// NACK/retry churn spent.
//
// Every (burst, classes, seed) run is an independent sweep point on a
// SweepRunner pool (--jobs N); per-configuration outcomes merge in seed
// order, and the diagnostic dump for a wedged configuration always comes
// from its lowest wedged seed — deterministic at any job count.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "net/topologies.h"
#include "sim/random.h"
#include "sim/trace_export.h"
#include "traffic/groups.h"

using namespace wormcast;

namespace {

struct RunResult {
  bool wedged = false;
  std::int64_t undelivered = 0;
  std::int64_t nacks = 0;
  Time drain_time = 0;        // valid when !wedged
  std::string wedge_report;   // debug report + trace tail when wedged
};

RunResult run_one(bool classes, int burst_per_member, int seed, Time horizon,
                  std::size_t trace_cap, bench::CheckCollector& checks,
                  std::size_t slot, std::string label) {
  RandomStream grng(7000 + seed);
  auto groups = make_random_groups(6, 8, 16, grng);
  ExperimentConfig cfg;
  cfg.protocol.scheme = Scheme::kHamiltonianSF;
  cfg.protocol.buffer_classes = classes;
  // Two max-size worms of memory in both configurations; the ablation
  // removes only the class discipline, not capacity.
  cfg.protocol.pool_bytes = 1800;
  cfg.protocol.retry_backoff = 1500;
  cfg.protocol.retry_jitter = 1000;
  cfg.traffic.offered_load = 1e-9;  // burst only
  cfg.seed = static_cast<std::uint64_t>(seed);
  Network net(make_torus(4, 4), groups, cfg);
  // Flight recorder + watchdog: a wedged run (the classes-off livelock
  // this bench exists to show) dumps per-host state AND the trace tail,
  // so the stall explains *how* it happened, not just where it stands.
  // Under --check the ring must hold the whole run (a wrapped ring makes
  // the checker refuse), so it takes the checking capacity instead.
  net.enable_tracing(checks.enabled() ? trace_cap : 8192);
  bench::arm_watchdog(net, 400'000);

  RandomStream lens(200 + static_cast<std::uint64_t>(seed));
  for (const auto& g : groups) {
    for (const HostId m : g.members) {
      for (int i = 0; i < burst_per_member; ++i) {
        const Time when = 1 + lens.uniform(0, 500);
        const auto len = lens.geometric_length(400.0, 16);
        net.sim().at(when, [&net, m, g = g.id, len] {
          Demand d;
          d.src = m;
          d.multicast = true;
          d.group = g;
          d.length = std::min<std::int64_t>(len, 850);
          net.inject(d);
        });
      }
    }
  }
  net.run_until(horizon);
  checks.collect(slot, net, std::move(label));
  const auto s = net.summary();
  RunResult r;
  r.nacks = s.counts.nacks;
  if (s.outstanding > 0) {
    // A wedged run explains itself: per-host state plus the recorder's
    // last decisions. The NACK livelock keeps *events* flowing, so the
    // stall watchdog stays quiet — capture at the horizon instead. The
    // caller prints one report per configuration; the rest just count.
    r.wedged = true;
    r.undelivered = s.outstanding;
    r.wedge_report =
        net.debug_report() + format_trace_tail(net.sim().tracer());
  } else {
    r.drain_time = net.metrics().last_completion_time();
  }
  return r;
}

struct Outcome {
  int wedged_runs = 0;
  std::int64_t undelivered = 0;
  std::int64_t nacks = 0;
  double mean_drain_time = 0.0;  // over runs that completed
  int completed_runs = 0;
};

/// Folds per-seed results in seed order; prints the first wedged seed's
/// diagnostic dump (one per configuration is enough to diagnose).
Outcome merge_seeds(const std::vector<RunResult>& runs, bool classes,
                    int first_seed) {
  Outcome out;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunResult& r = runs[i];
    if (r.wedged) {
      if (out.wedged_runs == 0)
        std::fprintf(stderr,
                     "# wedged run (classes=%d seed=%d): %lld undelivered\n%s",
                     classes ? 1 : 0, first_seed + static_cast<int>(i),
                     static_cast<long long>(r.undelivered),
                     r.wedge_report.c_str());
      ++out.wedged_runs;
      out.undelivered += r.undelivered;
    } else {
      ++out.completed_runs;
      out.mean_drain_time += static_cast<double>(r.drain_time);
    }
    out.nacks += r.nacks;
  }
  if (out.completed_runs > 0) out.mean_drain_time /= out.completed_runs;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_bench_args(argc, argv);
  const int seeds = args.quick ? 2 : 5;
  const Time horizon = args.quick ? 1'500'000 : 2'500'000;
  std::printf("# Ablation A: burst drain with the two-buffer-class rule "
              "on/off (equal memory; 6 groups x 8 members on 16 hosts; "
              "%d seeds)\n",
              seeds);
  bench::print_header("burst_per_member",
                      {"on_wedged_runs", "on_undelivered", "on_nacks",
                       "on_drain_bt", "off_wedged_runs", "off_undelivered",
                       "off_nacks", "off_drain_bt"});
  const std::vector<int> bursts =
      args.quick ? std::vector<int>{2} : std::vector<int>{1, 2, 4};

  // Task layout: for each burst intensity, `seeds` classes-on runs then
  // `seeds` classes-off runs. Seeds are the historical 1..seeds.
  const std::size_t per_cfg = static_cast<std::size_t>(seeds);
  const std::size_t n_tasks = bursts.size() * 2 * per_cfg;
  std::vector<RunResult> raw(n_tasks);
  bench::JsonBench json("ablation_deadlock");
  json.resize_rows(bursts.size());
  bench::CheckCollector checks(args.check);
  checks.resize(n_tasks);
  const harness::WallTimer sweep;
  harness::SweepRunner pool(args.jobs);
  const auto walls = pool.run_indexed(n_tasks, [&](std::size_t i) {
    const std::size_t cfg_idx = i / per_cfg;
    const int seed = 1 + static_cast<int>(i % per_cfg);
    const int burst = bursts[cfg_idx / 2];
    const bool classes = (cfg_idx % 2) == 0;
    char label[64];
    std::snprintf(label, sizeof label, "burst=%d classes=%s seed=%d", burst,
                  classes ? "on" : "off", seed);
    raw[i] = run_one(classes, burst, seed, horizon, args.trace_cap, checks, i,
                     label);
  });

  for (std::size_t b = 0; b < bursts.size(); ++b) {
    auto cfg_runs = [&](std::size_t cfg_idx) {
      return std::vector<RunResult>(
          raw.begin() + static_cast<std::ptrdiff_t>(cfg_idx * per_cfg),
          raw.begin() + static_cast<std::ptrdiff_t>((cfg_idx + 1) * per_cfg));
    };
    const Outcome on = merge_seeds(cfg_runs(b * 2), true, 1);
    const Outcome off = merge_seeds(cfg_runs(b * 2 + 1), false, 1);
    std::printf("%d,%d,%lld,%lld,%.0f,%d,%lld,%lld,%.0f\n", bursts[b],
                on.wedged_runs, static_cast<long long>(on.undelivered),
                static_cast<long long>(on.nacks), on.mean_drain_time,
                off.wedged_runs, static_cast<long long>(off.undelivered),
                static_cast<long long>(off.nacks), off.mean_drain_time);
    json.set_row(b,
                 {{"burst_per_member", static_cast<double>(bursts[b])},
                  {"on_wedged_runs", static_cast<double>(on.wedged_runs)},
                  {"on_undelivered", static_cast<double>(on.undelivered)},
                  {"on_nacks", static_cast<double>(on.nacks)},
                  {"on_drain_bt", on.mean_drain_time},
                  {"off_wedged_runs", static_cast<double>(off.wedged_runs)},
                  {"off_undelivered", static_cast<double>(off.undelivered)},
                  {"off_nacks", static_cast<double>(off.nacks)},
                  {"off_drain_bt", off.mean_drain_time}});
  }
  std::fflush(stdout);
  bench::stamp_sweep_meta(json, pool, walls, sweep);
  const int check_rc = checks.finalize(&json);
  json.write();
  return check_rc;
}

// Failure detection + self-healing repair: time from a *silent* crash-stop
// host failure to the completed in-place structure repair (circuit splice,
// tree re-parenting), as a function of the suspicion timeout, on the
// Section 8.2 testbed under steady multicast traffic.
//
// The crash is never announced: survivors must notice it through ACK
// timeouts (active senders) or unanswered liveness probes (idle
// neighbours), accuse the host, and repair around it. Expected shape:
// repair latency tracks the suspicion timeout roughly linearly (the
// detector cannot accuse before the timeout matures), while rerouted
// sends and disrupted messages stay flat — they depend on what was in
// flight at the crash, not on how long detection took.
//
// Sweep points (timeout x scheme x replication) run on a SweepRunner pool
// (--jobs N); --reps N merges N seeds per point with RunningStat::merge.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "net/topologies.h"

using namespace wormcast;

namespace {

constexpr std::uint64_t kBaseSeed = 11;

struct Point {
  double repair_latency = 0.0;  // crash -> structures healed (byte-times)
  bool detected = false;        // false: the detector never fired
  double rerouted = 0.0;        // sends retargeted by the repair
  double disrupted = 0.0;       // messages written off at repair time
  double delivered = 0.0;       // completed / created over the whole run
};

Point run_crash(Scheme scheme, Time suspicion, Time measure,
                std::uint64_t seed, std::size_t trace_cap,
                bench::CheckCollector& checks, std::size_t slot,
                std::string label) {
  // Load 0.02: sustainable by both schemes on this testbed. (The
  // root-serialized tree saturates its root link near 0.05 even without
  // faults — the serializer bottleneck of Section 6 — which would swamp
  // the repair signal this bench measures.)
  ExperimentConfig cfg = bench::sim_defaults(scheme, 0.02, 1.0, seed);
  cfg.protocol.ack_timeout = 10'000;
  cfg.protocol.retry_backoff = 2'000;
  cfg.protocol.retry_jitter = 1'000;
  cfg.protocol.max_attempts = 10;
  cfg.protocol.suspicion_timeout = suspicion;
  auto group = make_full_group(8);
  Network net(make_myrinet_testbed(), {group}, cfg);
  if (checks.enabled()) net.enable_tracing(trace_cap);
  bench::arm_watchdog(net);

  const Time crash_at = 2'000 + measure / 2;
  net.crash_host(3, crash_at);
  net.run(/*warmup=*/2'000, measure, /*drain_cap=*/600'000);
  checks.collect(slot, net, std::move(label));

  const Network::Summary s = net.summary();
  Point p;
  p.detected = s.hosts_removed > 0;
  p.repair_latency = p.detected
                         ? static_cast<double>(s.last_repair_time - crash_at)
                         : -1.0;  // CSV sentinel; the JSON cell goes null
  p.rerouted = static_cast<double>(s.counts.sends_rerouted);
  p.disrupted = static_cast<double>(s.counts.messages_disrupted);
  if (s.counts.messages_created > 0)
    p.delivered = static_cast<double>(s.counts.messages_completed) /
                  static_cast<double>(s.counts.messages_created);
  return p;
}

/// Replication-merged view of one sweep point (merge order = rep order).
struct Merged {
  RunningStat repair_latency;  // over the replications that detected
  RunningStat rerouted;
  RunningStat disrupted;
  RunningStat delivered;
};

Merged merge_reps(const std::vector<Point>& reps) {
  Merged m;
  for (const Point& p : reps) {
    RunningStat rerouted, disrupted, delivered;
    rerouted.add(p.rerouted);
    disrupted.add(p.disrupted);
    delivered.add(p.delivered);
    m.rerouted.merge(rerouted);
    m.disrupted.merge(disrupted);
    m.delivered.merge(delivered);
    if (p.detected) {
      RunningStat latency;
      latency.add(p.repair_latency);
      m.repair_latency.merge(latency);
    }
  }
  return m;
}

/// CSV keeps the historical -1 sentinel when no replication detected.
double latency_or_sentinel(const Merged& m) {
  return m.repair_latency.count() > 0 ? m.repair_latency.mean() : -1.0;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_bench_args(argc, argv);
  const Time measure = args.quick ? 300'000 : 1'000'000;

  std::printf("# Silent crash-stop repair on the 8-host testbed: detection + "
              "repair latency vs suspicion timeout\n");
  std::printf("# (host 3 crashes mid-run; ack_timeout=10k, max_attempts=10; "
              "latency in byte-times; %d rep(s)/point)\n", args.reps);
  bench::print_header("suspicion_timeout",
                      {"circuit_repair_latency", "circuit_rerouted",
                       "circuit_disrupted", "circuit_delivered",
                       "tree_repair_latency", "tree_rerouted",
                       "tree_disrupted", "tree_delivered"});
  const std::vector<Time> timeouts =
      args.quick ? std::vector<Time>{60'000}
                 : std::vector<Time>{30'000, 60'000, 120'000};

  const std::size_t reps = static_cast<std::size_t>(args.reps);
  const std::size_t n_points = timeouts.size() * 2;
  const std::size_t n_tasks = n_points * reps;
  std::vector<Point> raw(n_tasks);
  bench::JsonBench json("failure_repair");
  json.resize_rows(timeouts.size());
  bench::CheckCollector checks(args.check);
  checks.resize(n_tasks);
  const harness::WallTimer sweep;
  harness::SweepRunner pool(args.jobs);
  const auto walls = pool.run_indexed(n_tasks, [&](std::size_t i) {
    const std::size_t point = i / reps;
    const std::size_t rep = i % reps;
    const Time suspicion = timeouts[point / 2];
    const Scheme scheme =
        (point % 2) == 0 ? Scheme::kHamiltonianSF : Scheme::kTreeSF;
    char label[64];
    std::snprintf(label, sizeof label, "suspicion=%lld scheme=%s rep=%zu",
                  static_cast<long long>(suspicion),
                  (point % 2) == 0 ? "circuit" : "tree", rep);
    raw[i] = run_crash(scheme, suspicion, measure,
                       harness::point_seed(kBaseSeed, rep), args.trace_cap,
                       checks, i, label);
  });

  for (std::size_t t = 0; t < timeouts.size(); ++t) {
    auto reps_of = [&](std::size_t point) {
      return std::vector<Point>(
          raw.begin() + static_cast<std::ptrdiff_t>(point * reps),
          raw.begin() + static_cast<std::ptrdiff_t>((point + 1) * reps));
    };
    const Merged circuit = merge_reps(reps_of(t * 2));
    const Merged tree = merge_reps(reps_of(t * 2 + 1));
    std::printf("%lld,%.0f,%.0f,%.0f,%.4f,%.0f,%.0f,%.0f,%.4f\n",
                static_cast<long long>(timeouts[t]),
                latency_or_sentinel(circuit), circuit.rerouted.mean(),
                circuit.disrupted.mean(), circuit.delivered.mean(),
                latency_or_sentinel(tree), tree.rerouted.mean(),
                tree.disrupted.mean(), tree.delivered.mean());
    json.set_row(
        t, {{"suspicion_timeout", static_cast<double>(timeouts[t])},
            {"circuit_repair_latency",
             bench::opt(circuit.repair_latency.mean(),
                        circuit.repair_latency.count() > 0)},
            {"circuit_rerouted", circuit.rerouted.mean()},
            {"circuit_disrupted", circuit.disrupted.mean()},
            {"circuit_delivered", circuit.delivered.mean()},
            {"tree_repair_latency",
             bench::opt(tree.repair_latency.mean(),
                        tree.repair_latency.count() > 0)},
            {"tree_rerouted", tree.rerouted.mean()},
            {"tree_disrupted", tree.disrupted.mean()},
            {"tree_delivered", tree.delivered.mean()}});
  }
  std::fflush(stdout);
  bench::stamp_sweep_meta(json, pool, walls, sweep);
  json.set_meta("reps", static_cast<double>(args.reps));
  const int check_rc = checks.finalize(&json);
  json.write();
  return check_rc;
}

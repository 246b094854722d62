// Loss-recovery sweep: delivered fraction and tail latency vs injected
// link loss on the Section 8.2 testbed, for the Hamiltonian circuit and
// rooted-tree reservation schemes.
//
// Worm kills and control-worm loss are applied at the same per-link rate;
// senders recover via ACK timeouts with capped exponential backoff and a
// bounded retry budget. Expected shape: delivered fraction starts at 1.0
// and decays monotonically as loss grows (retry budget exhaustion), while
// p99 per-destination latency climbs as more deliveries need one or more
// timeout+retransmit rounds.
//
// Sweep points (loss rate x scheme x replication) run on a SweepRunner
// pool (--jobs N). --reps N runs N independent seeds per point
// (harness::point_seed-derived) and merges them with RunningStat::merge in
// replication order, so the reported means are identical at any job count.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "net/topologies.h"

using namespace wormcast;

namespace {

constexpr std::uint64_t kBaseSeed = 7;

struct Point {
  double delivered = 0.0;  // completed / created
  double p99 = 0.0;        // per-destination mcast latency
  bool has_p99 = false;    // false: no mcast delivery was sampled
  double retx_per_msg = 0.0;
};

Point run_lossy(Scheme scheme, double loss, Time measure, std::uint64_t seed,
                std::size_t trace_cap, bench::CheckCollector& checks,
                std::size_t slot, std::string label) {
  ExperimentConfig cfg = bench::sim_defaults(scheme, 0.05, 0.3, seed);
  cfg.protocol.ack_timeout = 20'000;
  cfg.protocol.retry_backoff = 2'000;
  cfg.protocol.retry_jitter = 1'000;
  cfg.protocol.max_attempts = 8;
  cfg.faults.worm_kill_rate = loss;
  cfg.faults.ctrl_loss_rate = loss;
  MulticastGroupSpec group;
  group.id = 0;
  for (HostId h = 0; h < 8; ++h) group.members.push_back(h);
  Network net(make_myrinet_testbed(), {group}, cfg);
  if (checks.enabled()) net.enable_tracing(trace_cap);
  bench::arm_watchdog(net);
  net.run(/*warmup=*/2'000, measure, /*drain_cap=*/500'000);
  checks.collect(slot, net, std::move(label));
  const Network::Summary s = net.summary();
  Point p;
  if (s.counts.messages_created > 0) {
    p.delivered = static_cast<double>(s.counts.messages_completed) /
                  static_cast<double>(s.counts.messages_created);
    p.retx_per_msg =
        static_cast<double>(s.counts.retransmits) /
        static_cast<double>(s.counts.messages_created);
  }
  p.has_p99 = net.metrics().mcast_latency().count() > 0;
  p.p99 = net.metrics().mcast_latency().percentile(99.0);
  return p;
}

/// Replication-merged view of one sweep point. Merge order is replication
/// order (RunningStat::merge is sequential after the sweep completes), so
/// the means are a pure function of (point, reps) — never of scheduling.
struct Merged {
  RunningStat delivered;
  RunningStat p99;  // over the replications that sampled a delivery
  RunningStat retx;
};

Merged merge_reps(const std::vector<Point>& reps) {
  Merged m;
  for (const Point& p : reps) {
    RunningStat delivered, p99, retx;
    delivered.add(p.delivered);
    retx.add(p.retx_per_msg);
    m.delivered.merge(delivered);
    m.retx.merge(retx);
    if (p.has_p99) {
      p99.add(p.p99);
      m.p99.merge(p99);
    }
  }
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_bench_args(argc, argv);
  const Time measure = args.quick ? 200'000 : 1'500'000;

  std::printf("# Loss recovery on the 8-host testbed: delivered fraction and "
              "p99 latency vs per-link fault rate\n");
  std::printf("# (worm kill + ctrl loss at equal rates; ack_timeout=20k, "
              "max_attempts=8; %d rep(s)/point)\n", args.reps);
  bench::print_header("loss_rate",
                      {"circuit_delivered", "circuit_p99", "circuit_retx",
                       "tree_delivered", "tree_p99", "tree_retx"});
  const std::vector<double> rates =
      args.quick ? std::vector<double>{0.0, 0.05, 0.10}
                 : std::vector<double>{0.0, 0.01, 0.02, 0.05, 0.10, 0.15};

  // Flattened task list: (rate, scheme, replication). Rep r of every point
  // uses harness::point_seed(kBaseSeed, r) — rep 0 is the historical
  // single-seed run, so --reps 1 output matches the pre-replication bench.
  const std::size_t reps = static_cast<std::size_t>(args.reps);
  const std::size_t n_points = rates.size() * 2;
  const std::size_t n_tasks = n_points * reps;
  std::vector<Point> raw(n_tasks);
  bench::JsonBench json("fault_recovery");
  json.resize_rows(rates.size());
  bench::CheckCollector checks(args.check);
  checks.resize(n_tasks);
  const harness::WallTimer sweep;
  harness::SweepRunner pool(args.jobs);
  const auto walls = pool.run_indexed(n_tasks, [&](std::size_t i) {
    const std::size_t point = i / reps;
    const std::size_t rep = i % reps;
    const double rate = rates[point / 2];
    const Scheme scheme =
        (point % 2) == 0 ? Scheme::kHamiltonianSF : Scheme::kTreeSF;
    char label[64];
    std::snprintf(label, sizeof label, "loss=%.2f scheme=%s rep=%zu", rate,
                  (point % 2) == 0 ? "circuit" : "tree", rep);
    raw[i] = run_lossy(scheme, rate, measure,
                       harness::point_seed(kBaseSeed, rep), args.trace_cap,
                       checks, i, label);
  });

  for (std::size_t r = 0; r < rates.size(); ++r) {
    auto reps_of = [&](std::size_t point) {
      return std::vector<Point>(raw.begin() + static_cast<std::ptrdiff_t>(point * reps),
                                raw.begin() + static_cast<std::ptrdiff_t>((point + 1) * reps));
    };
    const Merged circuit = merge_reps(reps_of(r * 2));
    const Merged tree = merge_reps(reps_of(r * 2 + 1));
    std::printf("%.2f,%.4f,%.0f,%.2f,%.4f,%.0f,%.2f\n", rates[r],
                circuit.delivered.mean(), circuit.p99.mean(),
                circuit.retx.mean(), tree.delivered.mean(), tree.p99.mean(),
                tree.retx.mean());
    json.set_row(
        r, {{"loss_rate", rates[r]},
            {"circuit_delivered", circuit.delivered.mean()},
            {"circuit_p99",
             bench::opt(circuit.p99.mean(), circuit.p99.count() > 0)},
            {"circuit_retx", circuit.retx.mean()},
            {"tree_delivered", tree.delivered.mean()},
            {"tree_p99", bench::opt(tree.p99.mean(), tree.p99.count() > 0)},
            {"tree_retx", tree.retx.mean()}});
  }
  std::fflush(stdout);
  bench::stamp_sweep_meta(json, pool, walls, sweep);
  json.set_meta("reps", static_cast<double>(args.reps));
  const int check_rc = checks.finalize(&json);
  json.write();
  return check_rc;
}

// Membership churn under chaos: dynamic join/leave/rejoin driven through
// the bounded membership coordinator while scripted fault patterns
// (flapping links, correlated multi-link outages, partition-then-heal,
// rolling host outages) batter the fabric, on the Section 8.2 testbed.
//
// Sweep: churn rate (mean gap between membership ops) x overlapping group
// count x chaos pattern. Reported per point: the join shed rate (overload
// degradation), join latency percentiles (request -> applied, null when no
// join completed), coordinator queue high-water mark, delivered fraction,
// and the lost-forever count — which must be ZERO: every message either
// completes, or is explicitly written off as disrupted by a repair/settle
// sweep. Any point with lost > 0 fails the bench (exit 1) even without
// --check.
//
// Sweep points run on a SweepRunner pool (--jobs N) with per-point seeds;
// all chaos windows and churn draws are deterministic per point, so CSV,
// JSON, and --check verdicts are bit-identical at any job count.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "chaos/chaos_schedule.h"
#include "chaos/churn_engine.h"
#include "net/topologies.h"

using namespace wormcast;

namespace {

constexpr std::uint64_t kBaseSeed = 23;
constexpr Time kWarmup = 2'000;

struct Combo {
  int n_groups;
  bool storm;  // false: flapping links only; true: the full storm
  const char* name;
};

constexpr Combo kCombos[] = {
    {2, false, "g2_flaps"},
    {2, true, "g2_storm"},
    {4, false, "g4_flaps"},
    {4, true, "g4_storm"},
};
constexpr std::size_t kNumCombos = std::size(kCombos);

struct Point {
  double shed_rate = 0.0;   // shed events per join intent
  double join_mean = -1.0;  // request -> applied (byte-times)
  double join_p95 = -1.0;
  bool joins_measured = false;
  double queue_peak = 0.0;
  double delivered = 0.0;  // completed / created
  double lost = 0.0;       // outstanding after drain: MUST be zero
  double rejoins = 0.0;
  double leaves = 0.0;
  double flap_windows = 0.0;
};

Point run_point(const Combo& combo, Time gap, Time measure, std::uint64_t seed,
                TreeStrategyKind strategy, std::size_t trace_cap,
                bench::CheckCollector& checks, std::size_t slot,
                std::string label) {
  // Circuit scheme at a load both the splice-in and the hop-window patch
  // paths see steady traffic; recovery + suspicion on so the chaos is
  // survivable and leave-no-suspect is checked against a live detector.
  ExperimentConfig cfg = bench::sim_defaults(Scheme::kHamiltonianSF, 0.02,
                                             1.0, seed);
  cfg.tree.kind = strategy;
  cfg.protocol.ack_timeout = 10'000;
  cfg.protocol.retry_backoff = 2'000;
  cfg.protocol.retry_jitter = 1'000;
  cfg.protocol.max_attempts = 10;
  cfg.protocol.suspicion_timeout = 60'000;
  // A deliberately slow coordinator so the storm actually sheds: four
  // queue slots drained one per 20k byte-times — slower than the fastest
  // churn gaps, so the queue saturates and joins shed/retry while leaves
  // (never shed) keep flowing through.
  cfg.membership.queue_limit = 4;
  cfg.membership.op_cost = 20'000;
  // Overlapping ring-window groups covering every host: host h belongs to
  // the windows containing it, so no host ever falls back to plain
  // unicast traffic (which has no retransmission path — a flap-swallowed
  // unicast would be lost by design, drowning the churn signal this
  // bench gates on).
  std::vector<MulticastGroupSpec> groups;
  for (int g = 0; g < combo.n_groups; ++g) {
    MulticastGroupSpec spec;
    spec.id = g;
    const int start = g * (8 / combo.n_groups);
    for (int k = 0; k < 5; ++k)
      spec.members.push_back(static_cast<HostId>((start + k) % 8));
    groups.push_back(std::move(spec));
  }
  Network net(make_myrinet_testbed(), groups, cfg);
  if (checks.enabled()) net.enable_tracing(trace_cap);
  bench::arm_watchdog(net);

  // Chaos: flap windows stay well under the suspicion timeout, so a live
  // peer behind a flapping link retries through it instead of being
  // accused; the storm adds a correlated burst, a healed partition, and
  // rolling (leave + rejoin) host outages on top.
  ChaosSchedule chaos(net, RandomStream::seed_mix(seed, 0xC4A05));
  chaos.flap_random_links(combo.storm ? 3 : 2, kWarmup + measure / 10,
                          kWarmup + (9 * measure) / 10, 6'000, 25'000);
  if (combo.storm) {
    chaos.correlated_link_outage(3, kWarmup + measure / 3, 20'000);
    chaos.partition_then_heal(kWarmup + (2 * measure) / 3, 25'000);
    chaos.rolling_host_outages({1, 4}, kWarmup + measure / 4, 30'000,
                               40'000);
  }

  std::vector<GroupId> group_ids;
  group_ids.reserve(groups.size());
  for (const MulticastGroupSpec& g : groups) group_ids.push_back(g.id);
  ChurnConfig churn;
  churn.mean_gap = gap;
  churn.from = kWarmup;
  churn.until = kWarmup + measure;
  ChurnEngine engine(net, group_ids, churn,
                     RandomStream(RandomStream::seed_mix(seed, 0x4C42)));
  engine.start();

  net.run(kWarmup, measure, /*drain_cap=*/600'000);
  checks.collect(slot, net, std::move(label));

  const Network::Summary s = net.summary();
  if (s.outstanding > 0) {
    std::fprintf(stderr, "churn_storm: %lld message(s) lost forever:\n%s",
                 static_cast<long long>(s.outstanding),
                 net.debug_report().c_str());
    for (const auto& ctx : net.metrics().outstanding_messages())
      std::fprintf(stderr,
                   "  msg=%llu group=%d origin=%d created=%lld reached=%d/%d\n",
                   static_cast<unsigned long long>(ctx->message_id),
                   ctx->group, ctx->origin,
                   static_cast<long long>(ctx->created_at),
                   ctx->destinations_reached, ctx->destinations_total);
  }
  Point p;
  if (s.counts.joins_requested > 0)
    p.shed_rate = static_cast<double>(s.counts.joins_shed) /
                  static_cast<double>(s.counts.joins_requested);
  p.joins_measured = s.join_samples > 0;
  if (p.joins_measured) {
    p.join_mean = s.join_latency_mean;
    p.join_p95 = s.join_latency_p95;
  }
  p.queue_peak = static_cast<double>(s.membership_queue_peak);
  if (s.counts.messages_created > 0)
    p.delivered = static_cast<double>(s.counts.messages_completed) /
                  static_cast<double>(s.counts.messages_created);
  p.lost = static_cast<double>(s.outstanding);
  p.rejoins = static_cast<double>(s.counts.rejoins);
  p.leaves = static_cast<double>(s.counts.leaves);
  p.flap_windows = static_cast<double>(s.flap_windows);
  return p;
}

struct Merged {
  RunningStat shed_rate;
  RunningStat join_mean;  // over reps that applied at least one join
  RunningStat join_p95;
  RunningStat queue_peak;
  RunningStat delivered;
  RunningStat lost;
  RunningStat rejoins;
  RunningStat leaves;
  RunningStat flap_windows;
};

Merged merge_reps(const std::vector<Point>& reps) {
  Merged m;
  for (const Point& p : reps) {
    const auto one = [](double v) {
      RunningStat s;
      s.add(v);
      return s;
    };
    m.shed_rate.merge(one(p.shed_rate));
    m.queue_peak.merge(one(p.queue_peak));
    m.delivered.merge(one(p.delivered));
    m.lost.merge(one(p.lost));
    m.rejoins.merge(one(p.rejoins));
    m.leaves.merge(one(p.leaves));
    m.flap_windows.merge(one(p.flap_windows));
    if (p.joins_measured) {
      m.join_mean.merge(one(p.join_mean));
      m.join_p95.merge(one(p.join_p95));
    }
  }
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_bench_args(argc, argv);
  const Time measure = args.quick ? 300'000 : 800'000;

  std::printf("# Membership churn under chaos schedules on the 8-host "
              "testbed (circuit scheme, %s trees)\n",
              tree_strategy_name(args.strategy));
  std::printf("# (coordinator queue=4 slots @ 20k/op; suspicion=60k; flaps "
              "6k down / 25k up; %d rep(s)/point; lost must be 0)\n",
              args.reps);
  std::vector<std::string> cols;
  for (const Combo& c : kCombos) {
    cols.push_back(std::string(c.name) + "_shed_rate");
    cols.push_back(std::string(c.name) + "_join_p95");
    cols.push_back(std::string(c.name) + "_lost");
  }
  bench::print_header("churn_gap", cols);
  const std::vector<Time> gaps = args.quick
                                     ? std::vector<Time>{15'000}
                                     : std::vector<Time>{30'000, 15'000, 7'500};

  const std::size_t reps = static_cast<std::size_t>(args.reps);
  const std::size_t n_tasks = gaps.size() * kNumCombos * reps;
  std::vector<Point> raw(n_tasks);
  bench::JsonBench json("churn_storm");
  json.resize_rows(gaps.size());
  bench::CheckCollector checks(args.check);
  checks.resize(n_tasks);
  const harness::WallTimer sweep;
  harness::SweepRunner pool(args.jobs);
  const auto walls = pool.run_indexed(n_tasks, [&](std::size_t i) {
    const std::size_t point = i / reps;
    const std::size_t rep = i % reps;
    const Time gap = gaps[point / kNumCombos];
    const Combo& combo = kCombos[point % kNumCombos];
    char label[96];
    std::snprintf(label, sizeof label, "gap=%lld combo=%s rep=%zu",
                  static_cast<long long>(gap), combo.name, rep);
    raw[i] = run_point(combo, gap, measure,
                       harness::point_seed(kBaseSeed, rep), args.strategy,
                       args.trace_cap, checks, i, label);
  });

  bool lost_any = false;
  for (std::size_t r = 0; r < gaps.size(); ++r) {
    std::printf("%lld", static_cast<long long>(gaps[r]));
    bench::JsonBench::Row cells{{"churn_gap", static_cast<double>(gaps[r])}};
    for (std::size_t c = 0; c < kNumCombos; ++c) {
      const std::size_t point = r * kNumCombos + c;
      const std::vector<Point> rep_points(
          raw.begin() + static_cast<std::ptrdiff_t>(point * reps),
          raw.begin() + static_cast<std::ptrdiff_t>((point + 1) * reps));
      const Merged m = merge_reps(rep_points);
      if (m.lost.mean() > 0.0) lost_any = true;
      std::printf(",%.4f,%.0f,%.0f", m.shed_rate.mean(),
                  m.join_p95.count() > 0 ? m.join_p95.mean() : -1.0,
                  m.lost.mean());
      const std::string n = kCombos[c].name;
      cells.push_back({n + "_shed_rate", m.shed_rate.mean()});
      cells.push_back({n + "_join_latency_mean",
                       bench::opt(m.join_mean.mean(), m.join_mean.count() > 0)});
      cells.push_back({n + "_join_latency_p95",
                       bench::opt(m.join_p95.mean(), m.join_p95.count() > 0)});
      cells.push_back({n + "_queue_peak", m.queue_peak.mean()});
      cells.push_back({n + "_delivered", m.delivered.mean()});
      cells.push_back({n + "_lost", m.lost.mean()});
      cells.push_back({n + "_rejoins", m.rejoins.mean()});
      cells.push_back({n + "_leaves", m.leaves.mean()});
      cells.push_back({n + "_flap_windows", m.flap_windows.mean()});
    }
    std::printf("\n");
    json.set_row(r, cells);
  }
  std::fflush(stdout);
  bench::stamp_sweep_meta(json, pool, walls, sweep);
  json.set_meta("reps", static_cast<double>(args.reps));
  json.set_meta("strategy", std::string(tree_strategy_name(args.strategy)));
  if (lost_any)
    std::fprintf(stderr,
                 "churn_storm: FAIL -- lost-forever payloads detected "
                 "(outstanding after drain); every send must complete or be "
                 "explicitly shed\n");
  const int check_rc = checks.finalize(&json);
  json.write();
  return lost_any ? 1 : check_rc;
}

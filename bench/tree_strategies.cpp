// Tree-strategy ablation sweep.
//
// Section 3 serializes every switch-level multicast through one spanning
// tree: the root switch carries a share of every worm. This bench measures
// how the pluggable strategies spread that load: for each topology x group
// shape x strategy it drives a fixed, deterministic burst of switch-level
// multicasts through an otherwise idle fabric and reports
//
//   throughput          delivered payload bytes per byte-time
//   completion_mean     whole-group completion latency (byte-times)
//   peak_switch_share   hottest switch's share of measured egress bytes
//   root_share          the general up/down root's share of that egress
//   stretch             mean planned path length / shortest legal path
//
// Both strategies run under the interrupt switch scheme (scheme (b)): the
// load-aware planner emits off-tree branches, which void idle-fill's
// single-tree deadlock argument; interrupt fragments stay deadlock-safe on
// any legal up/down path set. Send schedules, group draws and irregular
// topologies are pure functions of the point index, so rows are
// bit-identical at any --jobs. The perf gate compares the --quick rows
// exactly; their torus and shufflenet load-aware rows hold load-aware's
// throughput win over single-root (bench/baselines/README.md).
#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "net/topologies.h"
#include "traffic/groups.h"

using namespace wormcast;

namespace {

constexpr std::uint64_t kBaseSeed = 29;
constexpr std::int64_t kPayload = 1'024;
constexpr Time kSendGap = 600;        // byte-times between successive sends
constexpr Time kPhaseDrain = 400'000; // settle budget after each burst

struct TopoSpec {
  const char* name;
  int approx_hosts;  // documentation only
};
constexpr TopoSpec kTopos[] = {
    {"torus8x8", 64},
    {"shufflenet23", 24},
    {"rmesh16", 16},
};

struct GroupShape {
  int size;
  int count;
};
constexpr GroupShape kShapes[] = {{8, 4}, {8, 12}, {16, 4}, {16, 12}};
constexpr GroupShape kQuickShapes[] = {{8, 4}};

struct StrategySpec {
  TreeStrategyKind kind;
  // Seeds each point and fills the `strategy` column. It is the kind's
  // enum value from before partition-merge (then 1) and multi-root (then
  // 3) were deleted, so the rows stay byte-identical to sweeps recorded
  // before either deletion.
  int key;
};
constexpr StrategySpec kStrategies[] = {
    {TreeStrategyKind::kSingleRoot, 0},
    {TreeStrategyKind::kLoadAware, 2},
};

Topology build_topo(int t, std::uint64_t shape_seed) {
  switch (t) {
    case 0:
      return make_torus(8, 8);
    case 1:
      return make_bidir_shufflenet(2, 3);
    default: {
      // Same irregular mesh for every strategy at this (shape, rep):
      // seeded by the shape, never by the strategy, or the comparison
      // would be across different fabrics.
      RandomStream rng(RandomStream::seed_mix(0x7EE57090ull, shape_seed));
      return make_random_mesh(16, 3.0, rng);
    }
  }
}

/// Depth (ports traversed from the source's switch, host link included) of
/// every host delivered by `t`, starting at switch `at`.
void walk_branch(const Topology& topo, NodeId at, const McastRouteTree& t,
                 int depth, std::unordered_map<HostId, int>* out) {
  const NodeId next = topo.neighbor_via(at, t.port);
  const TopoNode& nn = topo.node(next);
  if (nn.kind == NodeKind::kHost) {
    (*out)[nn.host] = depth + 1;
    return;
  }
  for (const McastRouteTree& c : t.children)
    walk_branch(topo, next, c, depth + 1, out);
}

struct PointResult {
  double throughput = 0.0;
  double completion_mean = 0.0;
  bool has_completion = false;
  double peak_switch_share = 0.0;
  double root_share = 0.0;
  double stretch = 0.0;
  std::int64_t outstanding = 0;
};

PointResult run_point(int topo_idx, GroupShape shape, TreeStrategyKind strat,
                      int rep, int rounds, std::uint64_t seed,
                      std::size_t trace_cap, bench::CheckCollector& checks,
                      std::size_t slot, const std::string& label) {
  const std::uint64_t shape_seed =
      RandomStream::seed_mix(kBaseSeed, (std::uint64_t(topo_idx) << 16) |
                              (std::uint64_t(shape.size) << 8) |
                              std::uint64_t(shape.count)) +
      std::uint64_t(rep);
  Topology topo = build_topo(topo_idx, shape_seed);
  const int n_hosts = topo.num_hosts();
  const int gsize = shape.size < n_hosts ? shape.size : n_hosts;
  RandomStream grng(RandomStream::seed_mix(shape_seed, 0x6709ull));
  std::vector<MulticastGroupSpec> groups =
      make_random_groups(shape.count, gsize, n_hosts, grng);

  ExperimentConfig cfg;
  cfg.switch_mcast.scheme = SwitchMcastScheme::kInterrupt;
  cfg.tree.kind = strat;
  cfg.seed = seed;
  Network net(std::move(topo), groups, cfg);
  if (checks.enabled()) net.enable_tracing(trace_cap);
  bench::arm_watchdog(net);

  const Topology& t = net.topology();
  const int n_groups = static_cast<int>(groups.size());
  const auto src_of = [&](int round, GroupId g) {
    const auto& order = net.tables().circuit(g).order();
    return order[std::size_t(round) % order.size()];
  };

  // Priming burst: two rounds so the load-aware probe sees real forwarding
  // bytes before it re-plans. Excluded from the measurement window.
  Time now = 0;
  for (int r = 0; r < 2; ++r)
    for (GroupId g = 0; g < n_groups; ++g) {
      const HostId src = src_of(r, g);
      net.sim().at(now, [&net, src, g] {
        (void)net.send_switch_multicast(src, g, kPayload);
      });
      now += kSendGap;
    }
  const Time t0 = now + kPhaseDrain;
  net.run_until(t0);
  (void)net.replan_trees();

  // Egress baseline at the window start, per switch.
  std::vector<std::int64_t> base(static_cast<std::size_t>(t.num_nodes()), 0);
  for (NodeId n = 0; n < t.num_nodes(); ++n)
    if (t.node(n).kind == NodeKind::kSwitch)
      base[std::size_t(n)] = net.fabric().node_egress_bytes(n);
  net.metrics().set_window_start(t0);

  // Measured burst: `rounds` rounds, every group sends once per round from
  // a rotating member, sends kSendGap apart (dense enough to overlap).
  now = t0;
  std::int64_t expected_payload = 0;
  for (int r = 0; r < rounds; ++r)
    for (GroupId g = 0; g < n_groups; ++g) {
      const HostId src = src_of(r + 2, g);
      net.sim().at(now, [&net, src, g] {
        (void)net.send_switch_multicast(src, g, kPayload);
      });
      now += kSendGap;
      expected_payload +=
          kPayload * (net.tables().circuit(g).size() - 1);
    }
  // Adaptive drain: the heaviest shapes are congestion-bound, not stuck, so
  // keep extending the window while messages are still completing. A true
  // deadlock makes no progress and exits after one extra chunk (and trips
  // the watchdog); only then does the point flag OUTSTANDING.
  net.run_until(now + kPhaseDrain);
  for (int chunk = 0; chunk < 16 && net.metrics().outstanding() > 0; ++chunk) {
    const std::int64_t before = net.metrics().outstanding();
    net.run_until(net.sim().now() + kPhaseDrain);
    if (net.metrics().outstanding() >= before) break;  // no progress: stuck
  }

  PointResult out;
  out.outstanding =
      static_cast<std::int64_t>(net.metrics().outstanding_messages().size());
  const Time t_end = net.metrics().last_completion_time();
  if (t_end > t0)
    out.throughput = static_cast<double>(net.metrics().payload_delivered()) /
                     static_cast<double>(t_end - t0);
  const SampleSet& comp = net.metrics().mcast_completion();
  out.has_completion = comp.count() > 0;
  out.completion_mean = comp.mean();

  std::int64_t total = 0, peak = 0, root_bytes = 0;
  for (NodeId n = 0; n < t.num_nodes(); ++n) {
    if (t.node(n).kind != NodeKind::kSwitch) continue;
    const std::int64_t d = net.fabric().node_egress_bytes(n) - base[std::size_t(n)];
    total += d;
    if (d > peak) peak = d;
    if (n == net.routing().root()) root_bytes = d;
  }
  if (total > 0) {
    out.peak_switch_share = static_cast<double>(peak) / static_cast<double>(total);
    out.root_share = static_cast<double>(root_bytes) / static_cast<double>(total);
  }

  // Plan-shape metrics from the strategy's own plans (post-replan state).
  double stretch_sum = 0.0;
  std::int64_t stretch_n = 0;
  for (GroupId g = 0; g < n_groups; ++g) {
    const auto& order = net.tables().circuit(g).order();
    const HostId src = order.front();
    const McastPlan plan = net.tree_strategy().plan_multicast(g, src, order);
    std::unordered_map<HostId, int> depth;
    const NodeId src_sw = t.switch_of_host(src);
    for (const McastRouteTree& b : plan.branches)
      walk_branch(t, src_sw, b, 0, &depth);
    for (const auto& [dst, d] : depth) {
      const int base_ports =
          static_cast<int>(net.routing().route(src, dst).ports().size());
      if (base_ports > 0) {
        stretch_sum += static_cast<double>(d) / base_ports;
        ++stretch_n;
      }
    }
  }
  if (stretch_n > 0) out.stretch = stretch_sum / static_cast<double>(stretch_n);

  checks.collect(slot, net, label);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args =
      bench::parse_bench_args(argc, argv, /*accepts_strategy=*/true);
  const int rounds = args.quick ? 4 : 8;
  const int n_topos = args.quick ? 2 : 3;  // quick: torus + shufflenet
  const auto* shapes = args.quick ? kQuickShapes : kShapes;
  const std::size_t n_shapes =
      args.quick ? std::size(kQuickShapes) : std::size(kShapes);
  const std::size_t trace_cap = args.check && !args.trace_cap_explicit
                                    ? bench::kCheckTraceCapacity
                                    : args.trace_cap;

  std::printf("# Tree-strategy ablation: %d rounds x group burst per point, "
              "interrupt switch scheme, payload %lld B\n",
              rounds, static_cast<long long>(kPayload));
  bench::print_header("topo,strategy,gsize,gcount,rep",
                      {"throughput", "completion_mean", "peak_switch_share",
                       "root_share", "stretch"});

  // --strategy restricts the sweep to one builder; per-point seeds are
  // keyed by (topo, shape, strategy, rep), so a restricted run's rows are
  // byte-identical to the same rows of the full sweep.
  std::vector<StrategySpec> strategies;
  for (const StrategySpec& spec : kStrategies)
    if (!args.strategy_explicit || spec.kind == args.strategy)
      strategies.push_back(spec);
  const std::size_t n_strats = strategies.size();
  const std::size_t n_tasks =
      std::size_t(n_topos) * n_shapes * n_strats * std::size_t(args.reps);
  bench::JsonBench json("tree_strategies");
  json.resize_rows(n_tasks);
  bench::CheckCollector checks(args.check);
  checks.resize(n_tasks);
  std::vector<PointResult> results(n_tasks);
  std::vector<std::string> point_labels(n_tasks);

  harness::WallTimer sweep;
  harness::SweepRunner pool(args.jobs);
  const auto walls = pool.run_indexed(n_tasks, [&](std::size_t i) {
    std::size_t rem = i;
    const int rep = static_cast<int>(rem % std::size_t(args.reps));
    rem /= std::size_t(args.reps);
    const std::size_t s = rem % n_strats;
    rem /= n_strats;
    const std::size_t sh = rem % n_shapes;
    const int topo_idx = static_cast<int>(rem / n_shapes);
    const StrategySpec strat = strategies[s];
    const GroupShape shape = shapes[sh];
    const std::string label =
        std::string(kTopos[topo_idx].name) + "/" +
        tree_strategy_name(strat.kind) + "/g" + std::to_string(shape.size) +
        "x" + std::to_string(shape.count) +
        "/rep" + std::to_string(rep);
    point_labels[i] = label;
    const std::size_t stable_point =
        ((std::size_t(topo_idx) * 100 + std::size_t(shape.size)) * 100 +
         std::size_t(shape.count)) *
            100 +
        std::size_t(strat.key) * 10 + std::size_t(rep);
    const std::uint64_t seed = harness::point_seed(kBaseSeed, stable_point);
    results[i] = run_point(topo_idx, shape, strat.kind, rep, rounds, seed,
                           trace_cap, checks, i, label);
    const PointResult& r = results[i];
    json.set_row(i, {{"topo", double(topo_idx)},
                     {"strategy", double(strat.key)},
                     {"group_size", double(shape.size)},
                     {"group_count", double(shape.count)},
                     {"rep", double(rep)},
                     {"throughput", r.throughput},
                     {"completion_mean",
                      bench::opt(r.completion_mean, r.has_completion)},
                     {"peak_switch_share", r.peak_switch_share},
                     {"root_share", r.root_share},
                     {"stretch", r.stretch},
                     {"outstanding", double(r.outstanding)}});
  });

  bool lost_any = false;
  for (std::size_t i = 0; i < n_tasks; ++i) {
    const PointResult& r = results[i];
    std::printf("%s,%.4f,%.0f,%.3f,%.3f,%.3f%s\n", point_labels[i].c_str(),
                r.throughput, r.completion_mean, r.peak_switch_share,
                r.root_share, r.stretch,
                r.outstanding > 0 ? ",OUTSTANDING" : "");
    if (r.outstanding > 0) lost_any = true;
  }
  if (lost_any)
    std::fprintf(stderr, "# ERROR: some points left messages outstanding\n");

  bench::stamp_sweep_meta(json, pool, walls, sweep);
  json.set_meta("rounds", double(rounds));
  json.set_meta("reps", double(args.reps));
  const int check_rc = checks.finalize(&json);
  json.write();
  return lost_any ? 1 : check_rc;
}

// Large-fabric scaling bench: thousand-host networks driven end to end,
// one run per fabric.
//
// Two fabrics, both 1024 hosts:
//
//  - a 32x32 torus, one host per switch (the hot-path bench's scale
//    point, grown to a campus-length LAN), and
//  - a 3-stage folded Clos: 16 spines x 32 leaves x 32 hosts per leaf,
//    routed up/down with stage labels (net/topologies.h) so every spine
//    carries traffic instead of just the root.
//
// Links are 40 byte-times long — ~100 m of cable at 640 Mb/s (see
// net/topology.h's 25 m ~ 10 bt rationale), the building-scale runs the
// paper's Section 7 multi-campus discussion contemplates.
//
// Workload: every host multicasts 2 KB packets to its own 8-host group on
// a fixed period — busy enough that channel/switch events dominate the
// event loop, group-local so a packet's Hamiltonian circuit stays short.
//
// Each fabric is one run on one Simulator; --jobs runs the two fabrics
// in parallel. The event-loop wall of each run lands in meta
// (sim_wall_ms_<fabric>), never in rows, which the perf gate diffs.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "myrinet_testbed.h"

using namespace wormcast;

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_bench_args(argc, argv);
  const Time span = args.quick ? 1'000'000 : 6'000'000;
  const Time link_delay = 40;  // byte-times; ~100 m of cable
  const std::int64_t packet = 2048;
  const int group_size = 8;
  const Time period = args.quick ? 80'000 : 40'000;

  std::vector<int> clos_levels;
  const Topology torus = make_torus(32, 32, 1, link_delay, link_delay);
  const Topology clos =
      make_clos(16, 32, 32, link_delay, link_delay, &clos_levels);
  struct Fabric {
    const char* name;
    const Topology* topo;
    const std::vector<int>* levels;
  };
  const std::vector<Fabric> fabrics = {{"torus32", &torus, nullptr},
                                       {"clos16x32", &clos, &clos_levels}};

  std::printf("# Large fabrics: 1024 hosts (%s), %lld-byte packets to "
              "%d-host groups every %lld byte-times, %lld byte-times, "
              "%lld-bt links\n",
              "32x32 torus; 16x32x32 Clos", static_cast<long long>(packet),
              group_size, static_cast<long long>(period),
              static_cast<long long>(span), static_cast<long long>(link_delay));
  bench::print_header(
      "fabric",
      {"hosts", "switches", "throughput_mbps", "loss_rate", "sim_bytes"});

  const std::size_t n_points = fabrics.size();
  bench::JsonBench json("large_fabric");
  json.resize_rows(n_points);
  bench::CheckCollector checks(args.check);
  checks.resize(n_points);
  const harness::WallTimer sweep;
  harness::SweepRunner pool(args.jobs);
  std::vector<bench::TestbedResult> results(n_points);
  const auto walls = pool.run_indexed(n_points, [&](std::size_t i) {
    const Fabric& f = fabrics[i];
    bench::TestbedOptions opts;
    opts.topology = f.topo;
    opts.topology_levels = f.levels;
    opts.senders = f.topo->num_hosts();
    opts.packet_size = packet;
    opts.span = span;
    opts.group_size = group_size;
    opts.inject_period = period;
    opts.trace_cap = args.trace_cap;
    opts.checks = &checks;
    opts.check_slot = i;
    opts.check_label = f.name;
    results[i] = bench::run_testbed(opts);
  });

  for (std::size_t i = 0; i < n_points; ++i) {
    const Fabric& f = fabrics[i];
    const bench::TestbedResult& r = results[i];
    std::printf("%s,%d,%d,%.2f,%.4f,%lld\n", f.name, f.topo->num_hosts(),
                f.topo->num_switches(), r.throughput_mbps, r.loss_rate,
                static_cast<long long>(r.bytes_on_wire));
    json.set_row(i, {{"fabric", static_cast<double>(i)},
                     {"hosts", static_cast<double>(f.topo->num_hosts())},
                     {"switches", static_cast<double>(f.topo->num_switches())},
                     {"throughput_mbps", r.throughput_mbps},
                     {"loss_rate", r.loss_rate},
                     {"sim_bytes", static_cast<double>(r.bytes_on_wire)}});
    json.set_meta(std::string("sim_wall_ms_") + f.name, r.sim_wall_ms);
    std::printf("# %s: sim wall %.0f ms\n", f.name, r.sim_wall_ms);
  }
  std::fflush(stdout);
  json.set_counters(results[0].counters);
  bench::stamp_sweep_meta(json, pool, walls, sweep);
  const int check_rc = checks.finalize(&json);
  json.write();
  return check_rc;
}

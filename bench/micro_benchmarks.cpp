// Self-timed microbenchmarks of the simulator's hot paths: event queue
// operations, up/down route computation (fresh, arena-reusing, and a cold
// router on the 1k-host Clos), multicast route encoding, and byte-level
// end-to-end channel throughput.
// Useful when tuning the engine; not part of the paper reproduction.
//
// Each benchmark body runs once as warm-up, then repeats until a minimum
// timed window has accumulated; the CSV/JSON report the mean ns per
// operation and the derived items/second. All columns are wall-derived,
// so the CI perf gate treats them as informational (see
// tools/perf_gate.py) — this bench exists for humans tuning the engine,
// and for the BENCH_micro_benchmarks.json trail it leaves behind.
#include <chrono>
#include <cstdio>
#include <functional>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/network.h"
#include "net/mcast_route_builder.h"
#include "net/topologies.h"
#include "sim/event_queue.h"
#include "sim/random.h"

using namespace wormcast;

namespace {

template <typename T>
inline void do_not_optimize(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

struct Micro {
  double ns_per_op = 0.0;
  double items_per_sec = 0.0;
};

/// Runs `body` (one "operation" of `items` items) until `min_ms` of wall
/// time has accumulated, after one discarded warm-up call.
template <typename F>
Micro run_micro(F&& body, std::int64_t items, double min_ms) {
  body();  // warm-up, untimed
  std::int64_t iters = 0;
  double total_ms = 0.0;
  while (total_ms < min_ms) {
    const auto t0 = std::chrono::steady_clock::now();
    body();
    const auto t1 = std::chrono::steady_clock::now();
    total_ms += std::chrono::duration<double, std::milli>(t1 - t0).count();
    ++iters;
  }
  Micro m;
  m.ns_per_op = total_ms * 1e6 / static_cast<double>(iters);
  m.items_per_sec =
      static_cast<double>(items) * static_cast<double>(iters) /
      (total_ms / 1000.0);
  return m;
}

void queue_schedule_dispatch() {
  EventQueue q;
  int fired = 0;
  for (int i = 0; i < 1024; ++i)
    q.schedule(i % 97, [&fired] { ++fired; });
  while (!q.empty()) q.pop().action();
  do_not_optimize(fired);
}

void queue_cancel_heavy() {
  EventQueue q;
  std::vector<EventHandle> handles;
  handles.reserve(1024);
  for (int i = 0; i < 1024; ++i) handles.push_back(q.schedule(i, [] {}));
  for (std::size_t i = 0; i < handles.size(); i += 2) q.cancel(handles[i]);
  while (!q.empty()) q.pop().action();
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_bench_args(argc, argv);
  const double min_ms = args.quick ? 20.0 : 200.0;

  std::printf("# Engine microbenchmarks (self-timed, window >= %.0f ms "
              "per benchmark)\n", min_ms);
  bench::print_header("benchmark", {"ns_per_op", "items_per_sec"});
  bench::JsonBench json("micro_benchmarks");

  struct Case {
    const char* name;
    std::function<void()> body;
    std::int64_t items;  // per operation, for the items/sec column
  };
  const Topology torus = make_torus(8, 8);
  const UpDownRouting routing(torus);
  UpDownOptions tree_opts;
  tree_opts.tree_links_only = true;
  const UpDownRouting tree_routing(torus, tree_opts);
  std::vector<HostId> dests;
  for (HostId h = 1; h < 64; h += 4) dests.push_back(h);
  const auto branches = build_mcast_branches(tree_routing, 0, dests);
  // The 1k-host scale point: stage-labelled 16-spine, 32-leaf Clos.
  UpDownOptions clos_opts;
  const Topology clos = make_clos(16, 32, 32, kDefaultLinkDelay,
                                  kDefaultLinkDelay, &clos_opts.level_override);
  std::vector<std::pair<HostId, HostId>> clos_pairs;
  RandomStream pair_rng(1);
  while (clos_pairs.size() < 256) {
    const auto src = static_cast<HostId>(pair_rng.uniform(0, clos.num_hosts() - 1));
    const auto dst = static_cast<HostId>(pair_rng.uniform(0, clos.num_hosts() - 1));
    if (src != dst) clos_pairs.emplace_back(src, dst);
  }

  const std::vector<Case> cases = {
      {"event_queue_schedule_dispatch", queue_schedule_dispatch, 1024},
      {"event_queue_cancel_heavy", queue_cancel_heavy, 1024},
      {"updown_route_fresh",
       [&routing] {
         HostId src = 0, dst = 1;
         for (int i = 0; i < 256; ++i) {
           do_not_optimize(routing.route(src, dst));
           dst = static_cast<HostId>((dst + 7) % 64);
           if (dst == src) dst = static_cast<HostId>((dst + 1) % 64);
           src = static_cast<HostId>((src + 13) % 64);
           if (dst == src) src = static_cast<HostId>((src + 1) % 64);
         }
       },
       256},
      {"updown_route_into_reused",
       [&routing] {
         // The worm-arena path: route_into() copy-assigns into a recycled
         // SourceRoute, reusing its port-vector capacity.
         SourceRoute out;
         HostId src = 0, dst = 1;
         for (int i = 0; i < 256; ++i) {
           routing.route_into(src, dst, out);
           do_not_optimize(out);
           dst = static_cast<HostId>((dst + 7) % 64);
           if (dst == src) dst = static_cast<HostId>((dst + 1) % 64);
           src = static_cast<HostId>((src + 13) % 64);
           if (dst == src) src = static_cast<HostId>((src + 1) % 64);
         }
       },
       256},
      {"updown_route_cold_clos1k",
       [&clos, &clos_opts, &clos_pairs] {
         // A fresh router per operation: every pair routes from an empty
         // table, as at set-up and on first sends.
         const UpDownRouting cold(clos, clos_opts);
         for (const auto& [src, dst] : clos_pairs)
           do_not_optimize(cold.route(src, dst));
       },
       256},
      {"mcast_route_encode_split",
       [&branches] {
         const auto enc = EncodedMcastRoute::encode(branches);
         do_not_optimize(enc.split());
       },
       1},
      {"simulated_byte_throughput_16k",
       [] {
         // End-to-end cost of simulating one payload byte across the full
         // stack (network construction included; dominated by the run).
         ExperimentConfig cfg;
         cfg.protocol.scheme = Scheme::kHamiltonianSF;
         Network net(make_line(3), {}, cfg);
         Demand d;
         d.src = 0;
         d.dst = 2;
         d.length = 16 * 1024;
         net.inject(d);
         net.run_to_quiescence();
         do_not_optimize(net.metrics().messages_completed());
       },
       16 * 1024},
  };

  json.resize_rows(cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Micro m = run_micro(cases[i].body, cases[i].items, min_ms);
    std::printf("%s,%.1f,%.3g\n", cases[i].name, m.ns_per_op,
                m.items_per_sec);
    std::fflush(stdout);
    json.set_row(i, {{"ns_per_op", m.ns_per_op},
                     {"items_per_sec", m.items_per_sec}});
  }
  json.set_meta("min_ms", min_ms);
  json.write();
  return 0;
}

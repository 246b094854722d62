// Figure 12: measured throughput (per host) vs packet size for a
// Hamiltonian circuit of eight hosts on a four-switch Myrinet.
//
// Upper curve: a single host multicasting to the other seven members;
// lower curve: all eight hosts multicasting simultaneously (received data
// rate per host, lost packets excluded). Expected shape (paper):
// throughput grows with packet size as the fixed per-packet adapter cost
// amortizes — roughly 20 Mb/s at 1 KB to ~120 Mb/s at 8 KB for the single
// sender; the all-send curve sits below it, and the gap widens as input-
// buffer losses grow (Figure 13). No loss occurs in the single-sender case.
//
// The sweep runs (packet size, sender mode) points on a SweepRunner pool
// (--jobs N); each point is an independent Network, and the CSV/JSON rows
// are bit-identical at any job count (the CI determinism gate diffs
// --jobs 1 against --jobs 4).
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "myrinet_testbed.h"

using namespace wormcast;

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_bench_args(argc, argv);
  const Time span = args.quick ? 3'000'000 : 12'000'000;

  std::printf("# Figure 12: per-host throughput (Mb/s) vs packet size, "
              "8-host Hamiltonian circuit on 4-switch Myrinet\n");
  bench::print_header("packet_bytes", {"single_sender", "all_send_receive"});
  const std::vector<std::int64_t> sizes =
      args.quick ? std::vector<std::int64_t>{1024, 4096, 8192}
                 : std::vector<std::int64_t>{1024, 2048, 3072, 4096, 5120,
                                             6144, 7168, 8192};

  // One sweep point per (size, mode): twice the parallel width of a
  // per-size point, and the single/all runs of one size need not wait on
  // each other. Even index = single sender, odd = all-send.
  const std::size_t n_points = sizes.size() * 2;
  bench::JsonBench json("fig12_myrinet_throughput");
  json.resize_rows(sizes.size());
  bench::CheckCollector checks(args.check);
  checks.resize(n_points);
  const harness::WallTimer sweep;
  harness::SweepRunner pool(args.jobs);
  std::vector<bench::TestbedResult> results(n_points);
  const auto walls = pool.run_indexed(n_points, [&](std::size_t i) {
    const std::int64_t size = sizes[i / 2];
    const bool single = (i % 2) == 0;
    // --trace-out captures the first-size single-sender run: small enough
    // to load in Perfetto, yet it exercises every layer end to end.
    const bool traced = single && i == 0 && !args.trace_out.empty();
    char label[64];
    std::snprintf(label, sizeof label, "packet=%lld mode=%s",
                  static_cast<long long>(size), single ? "single" : "all");
    bench::TestbedOptions opts;
    opts.senders = single ? 1 : 8;
    opts.packet_size = size;
    opts.span = span;
    if (traced) opts.trace_out = args.trace_out;
    opts.trace_cap = args.trace_cap;
    opts.checks = &checks;
    opts.check_slot = i;
    opts.check_label = label;
    results[i] = bench::run_testbed(opts);
  });

  for (std::size_t s = 0; s < sizes.size(); ++s) {
    const auto& single = results[s * 2];
    const auto& all = results[s * 2 + 1];
    std::printf("%lld,%.1f,%.1f\n", static_cast<long long>(sizes[s]),
                single.throughput_mbps, all.throughput_mbps);
    json.set_row(s, {{"packet_bytes", static_cast<double>(sizes[s])},
                     {"single_sender", single.throughput_mbps},
                     {"all_send_receive", all.throughput_mbps},
                     {"all_send_loss_rate", all.loss_rate}});
  }
  std::fflush(stdout);
  bench::stamp_sweep_meta(json, pool, walls, sweep);
  const int check_rc = checks.finalize(&json);
  json.write();
  return check_rc;
}

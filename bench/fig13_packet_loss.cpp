// Figure 13: packet loss rate per host vs packet size on the Section 8.2
// testbed, all-send/receive case.
//
// Loss occurs only at the adapter input buffer (the implementation has no
// reservation protocol and cannot backpressure the fabric without risking
// deadlock — the point the paper uses to motivate its schemes). Expected
// shape: significant loss whenever hosts originate as well as forward,
// growing with packet size (fewer packets fit in the ~25 KB LANai buffer);
// the single-sender case loses nothing.
//
// The sweep runs (packet size, sender mode) points on a SweepRunner pool
// (--jobs N); each point is an independent Network, and the CSV/JSON rows
// are bit-identical at any job count.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "myrinet_testbed.h"

using namespace wormcast;

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_bench_args(argc, argv);
  const Time span = args.quick ? 3'000'000 : 12'000'000;

  std::printf("# Figure 13: packet loss per host vs packet size, all hosts "
              "sending+receiving (single-sender shown as control)\n");
  bench::print_header("packet_bytes",
                      {"loss_all_send_receive", "loss_single_sender"});
  const std::vector<std::int64_t> sizes =
      args.quick ? std::vector<std::int64_t>{1024, 4096, 8192}
                 : std::vector<std::int64_t>{1024, 2048, 3072, 4096, 5120,
                                             6144, 7168, 8192};

  // One sweep point per (size, mode); even index = all-send, odd = single.
  const std::size_t n_points = sizes.size() * 2;
  bench::JsonBench json("fig13_packet_loss");
  json.resize_rows(sizes.size());
  bench::CheckCollector checks(args.check);
  checks.resize(n_points);
  const harness::WallTimer sweep;
  harness::SweepRunner pool(args.jobs);
  std::vector<bench::TestbedResult> results(n_points);
  const auto walls = pool.run_indexed(n_points, [&](std::size_t i) {
    const std::int64_t size = sizes[i / 2];
    const bool all = (i % 2) == 0;
    char label[64];
    std::snprintf(label, sizeof label, "packet=%lld mode=%s",
                  static_cast<long long>(size), all ? "all" : "single");
    bench::TestbedOptions opts;
    opts.senders = all ? 8 : 1;
    opts.packet_size = size;
    opts.span = span;
    opts.trace_cap = args.trace_cap;
    opts.checks = &checks;
    opts.check_slot = i;
    opts.check_label = label;
    results[i] = bench::run_testbed(opts);
  });

  for (std::size_t s = 0; s < sizes.size(); ++s) {
    const auto& all = results[s * 2];
    const auto& single = results[s * 2 + 1];
    std::printf("%lld,%.3f,%.3f\n", static_cast<long long>(sizes[s]),
                all.loss_rate, single.loss_rate);
    json.set_row(s, {{"packet_bytes", static_cast<double>(sizes[s])},
                     {"loss_all_send_receive", all.loss_rate},
                     {"loss_single_sender", single.loss_rate},
                     {"all_send_throughput_mbps", all.throughput_mbps}});
  }
  std::fflush(stdout);
  bench::stamp_sweep_meta(json, pool, walls, sweep);
  const int check_rc = checks.finalize(&json);
  json.write();
  return check_rc;
}

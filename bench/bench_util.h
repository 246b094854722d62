// Shared helpers for the figure-regeneration benches.
//
// Each bench binary regenerates one figure of the paper: it sweeps the
// figure's x-axis, runs the simulator at each point, and prints the same
// series the paper plots as CSV rows (plus a human-readable header).
// Sweep points are independent simulations, so every bench accepts a
// shared --jobs N flag and executes its points on a harness::SweepRunner
// thread pool; results land in pre-sized slots, so the CSV/JSON rows are
// bit-identical no matter how many workers ran them.
#pragma once

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/network.h"
#include "harness/sweep_runner.h"

namespace wormcast::bench {

/// Command-line arguments shared by the sweep benches.
///
///   --quick           small sweep for CI smoke tests
///   --jobs N          worker threads for sweep points (default 1)
///   --reps N          replications (seeds) per sweep point, merged with
///                     RunningStat::merge (benches that support it)
///   --trace-cap N     flight-recorder ring capacity in events (benches
///                     that trace; default Tracer::kDefaultCapacity)
///   (N must be an integer >= 1; anything else fails fast with exit 2)
///   --trace-out FILE  export Chrome trace-event JSON (benches that trace)
///   --check           run wormcheck protocol expectations over every sweep
///                     point's trace; any violation (or checker refusal)
///                     fails the run with exit 1 and a deterministic report
///   --strategy NAME   run only this tree strategy (single-root |
///                     load-aware); only benches that pass
///                     `accepts_strategy` (tree_strategies) take it, the
///                     rest reject it like any unknown flag, and an unknown
///                     name is rejected here so a typo fails fast
struct BenchArgs {
  bool quick = false;
  bool check = false;
  int jobs = 1;
  int reps = 1;
  std::size_t trace_cap = Tracer::kDefaultCapacity;
  /// True when --trace-cap was passed: --check then respects the user's
  /// capacity (and refuses loudly if the ring wraps) instead of auto-sizing.
  bool trace_cap_explicit = false;
  std::string trace_out;
  TreeStrategyKind strategy = TreeStrategyKind::kSingleRoot;
  bool strategy_explicit = false;
};

/// Ring capacity --check auto-sizes to when --trace-cap is not given:
/// large enough that no standard sweep point wraps (a wrapped ring makes
/// the checker refuse — absence of evidence is not evidence). The busiest
/// standard point (full fig12, 8 KB all-send) records ~2.2M events; 4M
/// slots (~160 MB per concurrently-live point) leaves headroom.
inline constexpr std::size_t kCheckTraceCapacity = std::size_t{1} << 22;

/// Prints the usage line to stderr and exits(2).
[[noreturn]] inline void bench_usage_exit(const char* argv0,
                                          bool accepts_strategy) {
  std::fprintf(stderr,
               "usage: %s [--quick] [--check] [--jobs N] [--reps N] "
               "[--trace-cap N] [--trace-out <file.trace.json>]%s\n",
               argv0, accepts_strategy ? " [--strategy NAME]" : "");
  std::exit(2);
}

/// Parses the value of a count flag (`--jobs`, `--reps`, `--trace-cap`):
/// a whole decimal integer in [1, max], or 0 after saying why not.
inline long long parse_count_flag(const char* flag, const char* text,
                                  long long max) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || v < 1 || v > max) {
    std::fprintf(stderr, "invalid %s value '%s' (expected an integer >= 1)\n",
                 flag, text);
    return 0;
  }
  return v;
}

/// Parses the shared flags; prints usage and exits(2) on anything else.
/// `--strategy` is a shared flag only where `accepts_strategy` is set.
inline BenchArgs parse_bench_args(int argc, char** argv,
                                  bool accepts_strategy = false) {
  BenchArgs args;
  const auto usage = [&] { bench_usage_exit(argv[0], accepts_strategy); };
  constexpr long long kIntMax = std::numeric_limits<int>::max();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    // Parses argv[i]'s value and steps past it.
    const auto count = [&](long long max) {
      const long long v = parse_count_flag(argv[i], argv[i + 1], max);
      if (v == 0) usage();
      ++i;
      return v;
    };
    if (arg == "--quick") {
      args.quick = true;
    } else if (arg == "--check") {
      args.check = true;
    } else if (arg == "--jobs" && has_value) {
      args.jobs = static_cast<int>(count(kIntMax));
    } else if (arg == "--reps" && has_value) {
      args.reps = static_cast<int>(count(kIntMax));
    } else if (arg == "--trace-cap" && has_value) {
      args.trace_cap = static_cast<std::size_t>(
          count(std::numeric_limits<long long>::max()));
      args.trace_cap_explicit = true;
    } else if (arg == "--trace-out" && has_value) {
      args.trace_out = argv[++i];
    } else if (arg == "--strategy" && has_value && accepts_strategy) {
      const char* name = argv[++i];
      if (!parse_tree_strategy(name, &args.strategy)) {
        std::fprintf(stderr,
                     "unknown tree strategy '%s' (expected single-root or "
                     "load-aware)\n",
                     name);
        std::exit(2);
      }
      args.strategy_explicit = true;
    } else {
      usage();
    }
  }
  if (args.check && !args.trace_cap_explicit)
    args.trace_cap = kCheckTraceCapacity;
  return args;
}

/// Prints a CSV header line: x_name,series1,series2,...
inline void print_header(const std::string& x_name,
                         const std::vector<std::string>& series) {
  std::printf("%s", x_name.c_str());
  for (const auto& s : series) std::printf(",%s", s.c_str());
  std::printf("\n");
}

/// Common experiment defaults shared by the simulation figures
/// (Section 7.1): geometric worm lengths with mean 400 bytes.
inline ExperimentConfig sim_defaults(Scheme scheme, double load,
                                     double mcast_fraction,
                                     std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.protocol.scheme = scheme;
  cfg.traffic.offered_load = load;
  cfg.traffic.multicast_fraction = mcast_fraction;
  cfg.traffic.mean_worm_len = 400.0;
  // Ample forwarding buffers: the paper's simulations study latency, not
  // loss; reservations virtually always succeed (NACKs stay possible).
  cfg.protocol.pool_bytes = 128 * 1024;
  cfg.seed = seed;
  return cfg;
}

/// Arms the network's deadlock watchdog with a bench-appropriate interval:
/// a sweep point that wedges (faulted run, pathological config) dumps its
/// per-host state to stderr instead of spinning silently until the job
/// timeout. Bounded runs only — the armed watchdog keeps the simulator
/// non-idle, so never pair it with run_to_quiescence().
inline DeadlockWatchdog& arm_watchdog(Network& net, Time interval = 250'000) {
  return net.attach_watchdog(interval);
}

/// Wraps a statistic whose sample set may be empty: `has == false` turns
/// the JSON cell into an explicit null instead of a fake zero.
inline std::optional<double> opt(double v, bool has) {
  return has ? std::optional<double>(v) : std::nullopt;
}

/// Formats a double for BENCH_*.json. %.17g guarantees bit-exact
/// round-trip through any correct JSON parser (so the perf gate compares
/// values, never formatting artifacts); the decimal separator is forced
/// to '.' in case a host library dragged in a comma locale; non-finite
/// values become JSON null (Infinity/NaN are not JSON).
inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  for (char* c = buf; *c != '\0'; ++c)
    if (*c == ',') *c = '.';
  return std::string(buf);
}

/// Quotes a string for BENCH_*.json (escapes quotes and backslashes).
inline std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + '"';
}

// The bench CMake target passes these in; anything else that includes
// this header (tests) gets placeholders.
#ifndef WORMCAST_BUILD_TYPE
#define WORMCAST_BUILD_TYPE "unknown"
#endif
#ifndef WORMCAST_COMPILER
#define WORMCAST_COMPILER "unknown"
#endif

/// Accumulates numeric result rows and writes them as BENCH_<name>.json —
/// a machine-readable mirror of the CSV stdout so CI and plotting scripts
/// need not parse the human-oriented format. A nullopt cell serializes as
/// JSON null (a statistic over zero samples is not a measurement).
///
/// Thread safety: rows live in pre-sized slots (resize_rows + set_row), so
/// parallel sweep workers each write their own slot under the mutex and
/// the serialized row order is the sweep order, never completion order.
/// Wall-clock measurements go in the "meta" object — NOT in rows — so the
/// rows stay bit-identical across --jobs values (CI gates on this). The
/// meta object always opens with the host that produced the numbers:
/// nproc, build type and compiler.
class JsonBench {
 public:
  using Row = std::vector<std::pair<std::string, std::optional<double>>>;

  explicit JsonBench(std::string name) : name_(std::move(name)) {
    set_meta("nproc", static_cast<double>(std::thread::hardware_concurrency()));
    set_meta("build_type", std::string(WORMCAST_BUILD_TYPE));
    set_meta("compiler", std::string(WORMCAST_COMPILER));
  }

  /// Pre-sizes the row slots for a sweep of `n` points.
  void resize_rows(std::size_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    rows_.resize(n);
  }

  /// Stores point `i`'s row into its slot (race-free across workers).
  void set_row(std::size_t i, Row kv) {
    std::lock_guard<std::mutex> lock(mu_);
    if (i >= rows_.size()) rows_.resize(i + 1);
    rows_[i] = std::move(kv);
  }

  /// Appends a row (sequential emitters; takes the same lock).
  void add_row(Row kv) {
    std::lock_guard<std::mutex> lock(mu_);
    rows_.push_back(std::move(kv));
  }

  /// Attaches a uniform counter dump (see CounterRegistry::snapshot()),
  /// serialized once as a top-level "counters" object.
  void set_counters(std::vector<std::pair<std::string, double>> counters) {
    std::lock_guard<std::mutex> lock(mu_);
    counters_ = std::move(counters);
  }

  /// Run metadata (jobs, sweep wall-clock, ...): serialized as a
  /// top-level "meta" object, deliberately outside "rows" because wall
  /// times differ run to run while rows must not.
  void set_meta(const std::string& key, double value) {
    std::lock_guard<std::mutex> lock(mu_);
    meta_.emplace_back(key, json_number(value));
  }
  void set_meta(const std::string& key, const std::string& value) {
    std::lock_guard<std::mutex> lock(mu_);
    meta_.emplace_back(key, json_string(value));
  }

  /// Per-point wall-clock (ms), indexed like rows; lands in meta as
  /// "point_wall_ms": [...].
  void set_point_walls(std::vector<double> wall_ms) {
    std::lock_guard<std::mutex> lock(mu_);
    point_wall_ms_ = std::move(wall_ms);
  }

  /// Writes BENCH_<name>.json in the current directory.
  void write() const {
    std::lock_guard<std::mutex> lock(mu_);
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "# could not write %s\n", path.c_str());
      return;
    }
    std::fprintf(f, "{\"bench\": \"%s\", \"rows\": [", name_.c_str());
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      std::fprintf(f, "%s\n  {", r == 0 ? "" : ",");
      for (std::size_t i = 0; i < rows_[r].size(); ++i) {
        std::fprintf(f, "%s\"%s\": ", i == 0 ? "" : ", ",
                     rows_[r][i].first.c_str());
        if (rows_[r][i].second.has_value())
          std::fputs(json_number(*rows_[r][i].second).c_str(), f);
        else
          std::fputs("null", f);
      }
      std::fprintf(f, "}");
    }
    std::fprintf(f, "\n]");
    if (!counters_.empty()) {
      std::fprintf(f, ", \"counters\": {");
      for (std::size_t i = 0; i < counters_.size(); ++i)
        std::fprintf(f, "%s\"%s\": %s", i == 0 ? "" : ", ",
                     counters_[i].first.c_str(),
                     json_number(counters_[i].second).c_str());
      std::fprintf(f, "}");
    }
    std::fprintf(f, ", \"meta\": {");
    for (std::size_t i = 0; i < meta_.size(); ++i)
      std::fprintf(f, "%s\"%s\": %s", i == 0 ? "" : ", ",
                   meta_[i].first.c_str(), meta_[i].second.c_str());
    if (!point_wall_ms_.empty()) {
      std::fprintf(f, ", \"point_wall_ms\": [");
      for (std::size_t i = 0; i < point_wall_ms_.size(); ++i)
        std::fprintf(f, "%s%s", i == 0 ? "" : ", ",
                     json_number(point_wall_ms_[i]).c_str());
      std::fprintf(f, "]");
    }
    std::fprintf(f, "}}\n");
    std::fclose(f);
    std::fprintf(stderr, "# wrote %s\n", path.c_str());
  }

 private:
  std::string name_;
  mutable std::mutex mu_;
  std::vector<Row> rows_;
  std::vector<std::pair<std::string, double>> counters_;
  /// Meta values, already serialized as JSON (numbers or strings).
  std::vector<std::pair<std::string, std::string>> meta_;
  std::vector<double> point_wall_ms_;
};

/// Stamps the standard sweep metadata on a bench's JSON: worker count,
/// per-point wall-clock, and total sweep wall-clock, so BENCH_*.json
/// tracks the multi-core scaling win over time.
inline void stamp_sweep_meta(JsonBench& json, const harness::SweepRunner& pool,
                             const std::vector<double>& point_wall_ms,
                             const harness::WallTimer& sweep) {
  json.set_meta("jobs", static_cast<double>(pool.jobs()));
  json.set_point_walls(point_wall_ms);
  json.set_meta("sweep_wall_ms", sweep.elapsed_ms());
}

/// Gathers per-sweep-point wormcheck reports behind --check and renders a
/// single deterministic verdict at the end of the sweep.
///
/// Like JsonBench rows, reports live in pre-sized slots keyed by point
/// index, so the verdict (and wormcheck_report.txt) is identical no matter
/// how many --jobs workers ran the points. `collect` is called inside the
/// point body while its Network is still alive; `finalize` prints every
/// failing report to stderr, writes them to wormcheck_report.txt (the CI
/// artifact), stamps summary counts into the bench JSON meta, and returns
/// the process exit code: 0 clean, 1 on any violation or checker refusal.
class CheckCollector {
 public:
  explicit CheckCollector(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  void resize(std::size_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    reports_.resize(n);
    labels_.resize(n);
  }

  /// Checks `net`'s trace against the standard rules and stores the report
  /// in slot `i` (race-free across sweep workers).
  void collect(std::size_t i, Network& net, std::string label) {
    if (!enabled_) return;
    check::CheckReport rep = net.check_expectations();
    std::lock_guard<std::mutex> lock(mu_);
    if (i >= reports_.size()) {
      reports_.resize(i + 1);
      labels_.resize(i + 1);
    }
    reports_[i] = std::move(rep);
    labels_[i] = std::move(label);
  }

  int finalize(JsonBench* json) {
    if (!enabled_) return 0;
    std::lock_guard<std::mutex> lock(mu_);
    std::int64_t violations = 0;
    std::int64_t obligations = 0;
    std::int64_t unterminated = 0;
    std::int64_t refused = 0;
    std::size_t checked = 0;
    std::string failures;
    for (std::size_t i = 0; i < reports_.size(); ++i) {
      if (!reports_[i].has_value()) continue;  // point not run (skipped)
      const check::CheckReport& r = *reports_[i];
      ++checked;
      obligations += r.obligations;
      unterminated += r.unterminated;
      violations += static_cast<std::int64_t>(r.violations.size());
      if (!r.usable) ++refused;
      if (!r.ok())
        failures += "== " + labels_[i] + " ==\n" + r.format() + "\n";
    }
    if (json != nullptr) {
      json->set_meta("check_points", static_cast<double>(checked));
      json->set_meta("check_obligations", static_cast<double>(obligations));
      json->set_meta("check_unterminated", static_cast<double>(unterminated));
      json->set_meta("check_violations", static_cast<double>(violations));
      json->set_meta("check_refused", static_cast<double>(refused));
    }
    if (failures.empty()) {
      std::fprintf(stderr,
                   "# wormcheck: OK -- %zu point(s) clean, %lld obligation(s)"
                   ", %lld unterminated at horizon\n",
                   checked, static_cast<long long>(obligations),
                   static_cast<long long>(unterminated));
      return 0;
    }
    std::fprintf(stderr, "%s", failures.c_str());
    std::FILE* f = std::fopen("wormcheck_report.txt", "w");
    if (f != nullptr) {
      std::fwrite(failures.data(), 1, failures.size(), f);
      std::fclose(f);
    }
    std::fprintf(stderr,
                 "# wormcheck: FAIL -- %lld violation(s), %lld refusal(s) "
                 "across %zu point(s); wrote wormcheck_report.txt\n",
                 static_cast<long long>(violations),
                 static_cast<long long>(refused), checked);
    return 1;
  }

 private:
  bool enabled_;
  std::mutex mu_;
  std::vector<std::optional<check::CheckReport>> reports_;
  std::vector<std::string> labels_;
};

}  // namespace wormcast::bench

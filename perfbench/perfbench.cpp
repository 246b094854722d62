// perfbench: the repository benchmark for wormcast.
//
// One workload per invocation, one thread, the library's default engine.
// Every input (groups, Poisson arrivals, geometric lengths, destinations,
// the switch-level multicast schedule) is generated here from --seed with
// the benchmark's own generator; the library only sees the resulting
// demands through Network::inject and Network::send_switch_multicast.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--scale F] [--spans-out PATH] [--commit SHA]
//
// --trace 0 runs one whole untraced pass, then repeats its first chunks
// while S seconds last, and reports the end-to-end metrics. --trace 1 runs
// an untraced pass and the same pass span-traced, then a shorter untraced
// pass and the same shorter pass flight-recorded, and reports the
// per-layer metrics. Both print every metric with its unit
// and sample count, then one JSON line {correct, attempted, failed,
// metrics}, and exit non-zero when a correctness gate fails. See
// perfbench/README.md.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <queue>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/network.h"
#include "net/topologies.h"
#include "sim/counters.h"
#include "sim/stats.h"

using namespace wormcast;

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ------------------------------------------------------------------ inputs

/// SplitMix64: the benchmark's own generator, so the inputs are a function
/// of the seed alone and never of the library's random streams.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n).
  std::int64_t below(std::int64_t n) {
    return static_cast<std::int64_t>(next() % static_cast<std::uint64_t>(n));
  }
  bool chance(double p) { return unit() < p; }
  /// Exponential gap of a Poisson process, at least one byte-time.
  Time exp_gap(double mean) {
    return std::max<Time>(
        1, static_cast<Time>(std::ceil(-std::log1p(-unit()) * mean)));
  }
  /// Geometric length with the given mean, clamped to [lo, hi].
  std::int64_t geometric(double mean, std::int64_t lo, std::int64_t hi) {
    const double k = std::ceil(std::log1p(-unit()) / std::log1p(-1.0 / mean));
    return std::clamp(static_cast<std::int64_t>(k), lo, hi);
  }

 private:
  std::uint64_t state_;
};

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  Rng r(seed ^ (salt * 0xD1B54A32D192ED03ull));
  r.next();
  return r.next();
}

// Section 7.1's traffic: geometric worm lengths with a 400-byte mean,
// bounded by a 16-byte minimum and Myrinet's 9 KB worm cap.
constexpr double kMeanWormLen = 400.0;
constexpr std::int64_t kMinWormLen = 16;
constexpr std::int64_t kMaxWormLen = 9 * 1024;
constexpr std::int64_t kSwitchMcastPayload = 1024;
constexpr Time kClosLinkDelay = 40;  // ~100 m of cable
constexpr int kChunks = 100;         // measured window = kChunks equal chunks
// Timing passes repeat the first kTimedChunks chunks of the window; the
// host-time metrics take each chunk's least wall time over the passes.
constexpr int kTimedChunks = 25;
constexpr Time kDrainStep = 10'000;
constexpr Time kDrainCap = 2'000'000;
// Flight-recorder ring for the gate pass (40-byte events: 84 MB). Each
// workload's flight_scale keeps its whole run, drain included, at about
// 70% of the ring, so the ring never wraps and the check sees every event.
constexpr std::size_t kFlightRing = std::size_t{1} << 21;

// The groups are part of a workload's definition, drawn once from this
// fixed seed; --seed drives the traffic. Redrawing the groups per seed
// moves the simulated latency medians by up to 4x (switch-level p50 from
// 4.1k to 17.8k bt over six seeds), so no run-to-run bound could hold.
constexpr std::uint64_t kGroupSeed = 1996;

enum class FabricKind { kTorus8x8, kClos1k };

struct Workload {
  const char* name;
  FabricKind fabric;
  int n_groups;
  int group_size;
  double load;            // Poisson offered load per host (bytes per bt)
  double mcast_share;     // share of Poisson messages that are host multicasts
  Time switch_mcast_gap;  // one switch-level multicast per gap; 0 = none
  Time warmup;
  Time window;
  double flight_scale;  // the flight-recorded pass runs at this scale
};

// Each workload is read below its saturation knee (see README.md for why
// each one was chosen and what it stresses).
constexpr Workload kWorkloads[] = {
    {"host_mcast_torus64", FabricKind::kTorus8x8, 10, 10, 0.03, 0.10, 0,
     50'000, 6'000'000, 0.2},
    {"switch_mcast_torus64", FabricKind::kTorus8x8, 12, 16, 0.02, 0.0, 12'000,
     50'000, 6'000'000, 0.4},
    {"clos_1k", FabricKind::kClos1k, 128, 8, 0.002, 0.25, 0, 20'000,
     2'000'000, 0.6},
};

Topology build_topology(const Workload& w, std::vector<int>* levels) {
  if (w.fabric == FabricKind::kClos1k)
    return make_clos(16, 32, 32, kClosLinkDelay, kClosLinkDelay, levels);
  return make_torus(8, 8);
}

int hosts_of(const Workload& w) {
  return w.fabric == FabricKind::kClos1k ? 32 * 32 : 64;
}

ExperimentConfig make_config(const Workload& w, std::uint64_t seed,
                             std::vector<int> levels) {
  ExperimentConfig cfg;
  cfg.seed = derive_seed(seed, 0x5EED);
  cfg.protocol.scheme = Scheme::kHamiltonianSF;
  cfg.protocol.reservation = true;
  if (w.switch_mcast_gap > 0)
    cfg.switch_mcast.scheme = SwitchMcastScheme::kInterrupt;
  cfg.tree.kind = TreeStrategyKind::kSingleRoot;
  cfg.routing.level_override = std::move(levels);
  return cfg;
}

/// `n_groups` groups of `group_size` distinct hosts, drawn uniformly.
std::vector<MulticastGroupSpec> make_groups(const Workload& w) {
  Rng rng(kGroupSeed);
  const int n = hosts_of(w);
  std::vector<HostId> pool(static_cast<std::size_t>(n));
  for (int h = 0; h < n; ++h) pool[static_cast<std::size_t>(h)] = h;
  std::vector<MulticastGroupSpec> groups;
  for (int g = 0; g < w.n_groups; ++g) {
    for (int i = 0; i < w.group_size; ++i) {
      const auto j = static_cast<std::size_t>(i + rng.below(n - i));
      std::swap(pool[static_cast<std::size_t>(i)], pool[j]);
    }
    MulticastGroupSpec spec;
    spec.id = g;
    spec.members.assign(pool.begin(), pool.begin() + w.group_size);
    groups.push_back(std::move(spec));
  }
  return groups;
}

// ------------------------------------------------------------------- spans

/// In-memory span log: (name, start, end, parent) around the benchmark's
/// own calls into the library, written out once the run ends.
class SpanLog {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;
  };

  std::int32_t open(const char* name, std::int32_t parent) {
    spans_.push_back(Span{name, now_ns(), -1, parent});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void close(std::int32_t id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Adds the duration (us) of every span called `name` to `out`.
  void durations_us(std::string_view name, SampleSet* out) const {
    for (const Span& s : spans_)
      if (name == s.name)
        out->add(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
  }

  /// Chrome trace-event JSON (complete events; args carry id and parent).
  bool write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                    "\"parent\":%d}}",
                    i == 0 ? "" : ",\n", s.name,
                    static_cast<double>(s.start_ns) / 1e3,
                    static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                    s.parent);
      out << buf;
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }
  std::vector<Span> spans_;
};

// ----------------------------------------------------------------- traffic

/// Open-loop traffic on a fixed simulated-time schedule. Each host keeps at
/// most one pending arrival event (plus one global switch-multicast timer),
/// so the benchmark adds almost nothing to the event queue it measures.
/// Messages are injected at their scheduled time, so the latency the
/// library records counts from the scheduled creation time.
class TrafficSource {
 public:
  TrafficSource(Network& net, const Workload& w,
                const std::vector<MulticastGroupSpec>& groups,
                std::uint64_t seed, Time until, SpanLog* spans)
      : net_(net), w_(w), groups_(groups), until_(until), spans_(spans) {
    const int n = net.num_hosts();
    groups_of_host_.resize(static_cast<std::size_t>(n));
    for (const MulticastGroupSpec& g : groups_)
      for (const HostId h : g.members)
        groups_of_host_[static_cast<std::size_t>(h)].push_back(g.id);
    rngs_.reserve(static_cast<std::size_t>(n));
    for (int h = 0; h < n; ++h)
      rngs_.emplace_back(derive_seed(seed, 0x10000 + static_cast<std::uint64_t>(h)));
  }

  void start() {
    for (HostId h = 0; h < net_.num_hosts(); ++h) schedule_arrival(h, 0);
    if (w_.switch_mcast_gap > 0) schedule_switch_mcast(w_.switch_mcast_gap);
  }

  /// Span the callbacks of the current chunk hang under.
  void set_parent(std::int32_t parent) { parent_ = parent; }
  /// Destination deliveries the injected messages call for.
  [[nodiscard]] std::int64_t deliveries_expected() const { return deliveries_; }

 private:
  void schedule_arrival(HostId h, Time from) {
    const Time t =
        from + rngs_[static_cast<std::size_t>(h)].exp_gap(kMeanWormLen / w_.load);
    if (t < until_) net_.sim().at(t, [this, h] { on_arrival(h); });
  }

  void on_arrival(HostId h) {
    const std::int32_t cb = spans_ ? spans_->open("bench.arrival", parent_) : -1;
    Rng& rng = rngs_[static_cast<std::size_t>(h)];
    Demand d;
    d.src = h;
    d.length = rng.geometric(kMeanWormLen, kMinWormLen, kMaxWormLen);
    const auto& mine = groups_of_host_[static_cast<std::size_t>(h)];
    const bool mcast = rng.chance(w_.mcast_share) && !mine.empty();
    if (mcast) {
      d.multicast = true;
      d.group = mine[static_cast<std::size_t>(
          rng.below(static_cast<std::int64_t>(mine.size())))];
      deliveries_ += w_.group_size - 1;
    } else {
      HostId dst = static_cast<HostId>(rng.below(net_.num_hosts() - 1));
      if (dst >= h) ++dst;
      d.dst = dst;
      deliveries_ += 1;
    }
    if (spans_ != nullptr) {
      const std::int32_t s = spans_->open("core.inject", cb);
      net_.inject(d);
      spans_->close(s);
    } else {
      net_.inject(d);
    }
    schedule_arrival(h, net_.sim().now());
    if (spans_ != nullptr) spans_->close(cb);
  }

  void schedule_switch_mcast(Time t) {
    if (t < until_) net_.sim().at(t, [this] { on_switch_mcast(); });
  }

  /// Rotates through the groups, and through each group's members as the
  /// source, one send per gap.
  void on_switch_mcast() {
    const std::int32_t cb = spans_ ? spans_->open("bench.arrival", parent_) : -1;
    const auto n_groups = static_cast<std::int64_t>(groups_.size());
    const MulticastGroupSpec& g =
        groups_[static_cast<std::size_t>(sent_ % n_groups)];
    const HostId src = g.members[static_cast<std::size_t>(
        (sent_ / n_groups) % static_cast<std::int64_t>(g.members.size()))];
    ++sent_;
    deliveries_ += static_cast<std::int64_t>(g.members.size()) - 1;
    if (spans_ != nullptr) {
      const std::int32_t s = spans_->open("core.send_switch_multicast", cb);
      (void)net_.send_switch_multicast(src, g.id, kSwitchMcastPayload);
      spans_->close(s);
    } else {
      (void)net_.send_switch_multicast(src, g.id, kSwitchMcastPayload);
    }
    schedule_switch_mcast(net_.sim().now() + w_.switch_mcast_gap);
    if (spans_ != nullptr) spans_->close(cb);
  }

  Network& net_;
  const Workload& w_;
  const std::vector<MulticastGroupSpec>& groups_;
  std::vector<std::vector<GroupId>> groups_of_host_;
  std::vector<Rng> rngs_;
  Time until_;
  SpanLog* spans_;
  std::int32_t parent_ = -1;
  std::int64_t sent_ = 0;
  std::int64_t deliveries_ = 0;
};

// ------------------------------------------------------------ fingerprints

class Fingerprint {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ull;
    }
  }
  void add_i(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  void add_d(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

/// Simulated state a correct engine reproduces exactly at a chunk boundary.
std::uint64_t state_fingerprint(std::uint64_t prev, Network& net) {
  Fingerprint f;
  f.add(prev);
  Metrics& m = net.metrics();
  f.add_i(net.sim().now());
  f.add_i(net.events_dispatched());
  f.add_i(net.fabric().fabric_bytes_sent());
  f.add_i(net.fabric().host_egress_bytes());
  f.add_i(m.messages_created());
  f.add_i(m.messages_completed());
  f.add_i(m.payload_delivered());
  f.add_i(m.outstanding());
  f.add_i(m.nacks());
  f.add_i(m.retransmits());
  f.add_i(m.relays());
  f.add_i(m.mcast_latency().count());
  f.add_d(m.mcast_latency().mean());
  f.add_i(m.unicast_latency().count());
  f.add_d(m.unicast_latency().mean());
  f.add_i(net.switch_mcast_engine().fragments_sent());
  f.add_i(static_cast<std::int64_t>(net.mcast_gate_depth()));
  return f.value();
}

// -------------------------------------------------------------------- runs

enum class PassKind { kPlain, kSpans, kFlight };

const char* pass_name(PassKind k) {
  switch (k) {
    case PassKind::kPlain: return "untraced";
    case PassKind::kSpans: return "span-traced";
    case PassKind::kFlight: return "flight-recorded";
  }
  return "?";
}

double counter(const CounterRegistry& reg, std::string_view name) {
  for (const auto& [n, v] : reg.snapshot())
    if (n == name) return v;
  std::fprintf(stderr, "perfbench: library counter %.*s is missing\n",
               static_cast<int>(name.size()), name.data());
  std::exit(2);
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
  std::int64_t samples = 1;
  bool in_json = true;  // false: printed for people, not a declared metric
};

struct PassResult {
  PassKind kind = PassKind::kPlain;
  double scale = 1.0;
  // Wall clock.
  double window_ms = 0.0;
  std::vector<double> chunk_ms;
  // Simulated results (deterministic for a seed).
  std::vector<std::uint64_t> chunk_fp;  // state fingerprint per chunk end
  std::uint64_t final_fp = 0;           // whole run, drain included
  bool complete = false;                // ran every chunk and the drain
  Time window = 0;
  std::int64_t created = 0;
  std::int64_t completed = 0;
  std::int64_t overflows = 0;
  std::int64_t deliveries = 0;
  std::int64_t events = 0;
  std::int64_t window_events = 0;
  // Per-destination latency percentiles (bt) and their sample counts.
  double mcast_p50 = 0.0, mcast_p99 = 0.0, ucast_p50 = 0.0, ucast_p99 = 0.0;
  std::int64_t mcast_n = 0, ucast_n = 0;
  std::int64_t gate_depth_max = 0;
  double mem_queues_peak = 0.0;  // bytes, sampled at chunk ends
  // Steady state: the two halves of the window.
  double rate_half[2] = {0.0, 0.0};         // delivered payload per bt
  double outstanding_half[2] = {0.0, 0.0};  // mean outstanding per chunk
  std::vector<Metric> layer;  // public counters, per layer
  // Flight recorder.
  std::int64_t trace_recorded = 0;
  bool check_usable = false;
  std::int64_t check_violations = 0;
  std::string check_refusal;
};

/// One simulation of the workload: warm-up, then up to `max_chunks` chunks
/// of the window, then (when every chunk ran) the drain.
PassResult run_pass(const Workload& w, std::uint64_t seed, double scale,
                    PassKind kind, SpanLog* spans, int max_chunks = kChunks) {
  PassResult r;
  r.kind = kind;
  r.scale = scale;
  const Time warmup = std::max<Time>(1, static_cast<Time>(w.warmup * scale));
  const Time chunk =
      std::max<Time>(1, static_cast<Time>(w.window * scale) / kChunks);
  r.window = chunk * kChunks;
  const Time until = warmup + r.window;
  SpanLog* sl = kind == PassKind::kSpans ? spans : nullptr;
  const std::vector<MulticastGroupSpec> groups = make_groups(w);

  const std::int32_t root = sl ? sl->open("bench.pass", -1) : -1;
  std::int32_t s = sl ? sl->open("net.topology_build", root) : -1;
  std::vector<int> levels;
  Topology topo = build_topology(w, &levels);
  if (sl) sl->close(s);
  s = sl ? sl->open("core.network_build", root) : -1;
  Network net(std::move(topo), groups, make_config(w, seed, levels));
  if (sl) sl->close(s);

  if (kind == PassKind::kFlight) net.enable_tracing(kFlightRing);
  net.metrics().set_window_start(warmup);
  TrafficSource traffic(net, w, groups, seed, until, sl);
  traffic.start();

  s = sl ? sl->open("sim.warmup", root) : -1;
  traffic.set_parent(s);
  net.run_until(warmup);
  if (sl) sl->close(s);

  Metrics& m = net.metrics();
  const std::int64_t events0 = net.events_dispatched();
  std::int64_t payload_mark = m.payload_delivered();
  std::int64_t outstanding_sum[2] = {0, 0};
  std::uint64_t fp = 0;
  r.chunk_ms.reserve(kChunks);
  for (int i = 0; i < max_chunks; ++i) {
    s = sl ? sl->open("sim.chunk", root) : -1;
    traffic.set_parent(s);
    const auto c0 = Clock::now();
    net.run_until(warmup + chunk * (i + 1));
    const auto c1 = Clock::now();
    if (sl) sl->close(s);
    r.chunk_ms.push_back(ms_between(c0, c1));
    const int half = i < kChunks / 2 ? 0 : 1;
    outstanding_sum[half] += m.outstanding();
    if (i == kChunks / 2 - 1 || i == kChunks - 1) {
      r.rate_half[half] = static_cast<double>(m.payload_delivered() -
                                              payload_mark) /
                          static_cast<double>(chunk * (kChunks / 2));
      payload_mark = m.payload_delivered();
    }
    r.gate_depth_max = std::max(r.gate_depth_max,
                                static_cast<std::int64_t>(net.mcast_gate_depth()));
    r.mem_queues_peak = std::max(
        r.mem_queues_peak, static_cast<double>(net.sim().event_queue_heap_bytes()));
    fp = state_fingerprint(fp, net);
    r.chunk_fp.push_back(fp);
  }
  for (const double c : r.chunk_ms) r.window_ms += c;
  r.window_events = net.events_dispatched() - events0;
  for (int h = 0; h < 2; ++h)
    r.outstanding_half[h] =
        static_cast<double>(outstanding_sum[h]) / (kChunks / 2);

  r.complete = static_cast<int>(r.chunk_fp.size()) == kChunks;
  if (r.complete) {
    s = sl ? sl->open("sim.drain", root) : -1;
    traffic.set_parent(s);
    while (m.outstanding() > 0 && net.sim().now() < until + kDrainCap)
      net.run_until(net.sim().now() + kDrainStep);
    if (sl) sl->close(s);
  }

  r.created = m.messages_created();
  r.completed = m.messages_completed();
  r.overflows = net.fabric().total_overflows();
  r.deliveries = traffic.deliveries_expected();
  r.events = net.events_dispatched();
  const SampleSet& mcast_lat = m.mcast_latency();
  const SampleSet& ucast_lat = m.unicast_latency();
  r.mcast_p50 = mcast_lat.percentile(50);
  r.mcast_p99 = mcast_lat.percentile(99);
  r.ucast_p50 = ucast_lat.percentile(50);
  r.ucast_p99 = ucast_lat.percentile(99);
  r.mcast_n = mcast_lat.count();
  r.ucast_n = ucast_lat.count();

  std::int64_t sent = 0, received = 0, dropped = 0;
  Fingerprint f;
  f.add(state_fingerprint(fp, net));
  for (HostId h = 0; h < net.num_hosts(); ++h) {
    HostAdapter& a = net.adapter(h);
    sent += a.worms_sent();
    received += a.worms_received();
    dropped += a.worms_dropped();
    f.add_i(a.worms_sent());
    f.add_i(a.worms_received());
    f.add_i(a.worms_dropped());
  }
  for (const double v : mcast_lat.sorted_values()) f.add_d(v);
  for (const double v : ucast_lat.sorted_values()) f.add_d(v);
  for (const double v : m.mcast_completion().sorted_values()) f.add_d(v);
  f.add_i(net.event_queue_peak());
  f.add_i(net.switch_mcast_engine().connections_opened());
  f.add_i(net.tree_strategy().worms_planned());
  f.add_i(r.overflows);
  r.final_fp = f.value();

  CounterRegistry reg;
  net.register_counters(reg);
  const double fabric_bytes = static_cast<double>(net.fabric().fabric_bytes_sent());
  r.layer = {
      {"sim.events", static_cast<double>(r.events), "count"},
      {"sim.queue_peak", static_cast<double>(net.event_queue_peak()), "count"},
      {"sim.mem_queues_bytes", r.mem_queues_peak, "B"},
      {"sim.arena_fresh", static_cast<double>(net.worm_pool().fresh_allocs()), "count"},
      {"sim.arena_reused", static_cast<double>(net.worm_pool().reuses()), "count"},
      {"sim.events_per_delivery", static_cast<double>(r.events) / static_cast<double>(std::max<std::int64_t>(1, r.deliveries)), "ratio"},
      {"net.fabric_bytes", fabric_bytes, "B"},
      {"net.bytes_per_event", fabric_bytes / static_cast<double>(std::max<std::int64_t>(1, r.events)), "B"},
      {"net.goodput_ratio", static_cast<double>(m.payload_delivered()) / std::max(1.0, fabric_bytes), "ratio"},
      {"net.mcast_fragments", static_cast<double>(net.switch_mcast_engine().fragments_sent()), "count"},
      {"net.mcast_connections", static_cast<double>(net.switch_mcast_engine().connections_opened()), "count"},
      {"net.tree_worms_planned", static_cast<double>(net.tree_strategy().worms_planned()), "count"},
      {"net.mem_fabric_bytes", counter(reg, "mem_fabric_bytes"), "B"},
      {"net.overflows", static_cast<double>(r.overflows), "count"},
      {"adapter.worms_sent", static_cast<double>(sent), "count"},
      {"adapter.worms_received", static_cast<double>(received), "count"},
      {"adapter.worms_dropped", static_cast<double>(dropped), "count"},
      {"adapter.mem_bytes", counter(reg, "mem_adapters_bytes"), "B"},
      {"core.messages", static_cast<double>(r.created), "count"},
      {"core.completed", static_cast<double>(r.completed), "count"},
      {"core.nacks", static_cast<double>(m.nacks()), "count"},
      {"core.retransmits", static_cast<double>(m.retransmits()), "count"},
      {"core.gate_depth_max", static_cast<double>(r.gate_depth_max), "count"},
      {"core.mem_protocols_bytes", counter(reg, "mem_protocols_bytes"), "B"},
      {"core.mem_tables_bytes", counter(reg, "mem_tables_bytes"), "B"},
  };

  if (kind == PassKind::kFlight) {
    r.trace_recorded = net.trace_recorded();
    const check::CheckReport rep = net.check_expectations();
    r.check_usable = rep.usable;
    r.check_violations = static_cast<std::int64_t>(rep.violations.size());
    r.check_refusal = rep.refusal;
  }

  if (sl) {
    // Per-call costs of the planning and routing layers, probed after the
    // fingerprint so the extra plans cannot perturb it.
    const std::int32_t probes = sl->open("bench.probes", root);
    s = sl->open("net.routing_build", probes);
    {
      UpDownRouting fresh(net.topology(), make_config(w, seed, levels).routing);
      (void)fresh.root();
    }
    sl->close(s);
    for (const MulticastGroupSpec& g : groups) {
      const std::vector<HostId>& order = net.tables().circuit(g.id).order();
      for (std::size_t i = 0; i < order.size() && i < 4; ++i) {
        s = sl->open("net.plan", probes);
        const McastPlan plan =
            net.tree_strategy().plan_multicast(g.id, order[i], order);
        sl->close(s);
        (void)plan;
      }
    }
    Rng rng(derive_seed(seed, 0x9007E));
    for (int i = 0; i < 1000; ++i) {
      const auto src = static_cast<HostId>(rng.below(net.num_hosts()));
      auto dst = static_cast<HostId>(rng.below(net.num_hosts() - 1));
      if (dst >= src) ++dst;
      s = sl->open("net.route", probes);
      const SourceRoute route = net.routing().route(src, dst);
      sl->close(s);
      (void)route;
    }
    sl->close(probes);
  }
  if (sl) sl->close(root);
  return r;
}

/// Topology build plus Network construction, in seconds.
double time_setup(const Workload& w, std::uint64_t seed,
                  const std::vector<MulticastGroupSpec>& groups) {
  const auto t0 = Clock::now();
  std::vector<int> levels;
  Topology topo = build_topology(w, &levels);
  Network net(std::move(topo), groups, make_config(w, seed, std::move(levels)));
  const auto t1 = Clock::now();
  return ms_between(t0, t1) / 1e3;
}

// -------------------------------------------------------------- host speed

// A shared host runs the same pass up to 1.5x slower for tens of seconds
// at a time, longer than a run, so no least-of-N filter can hide it. The
// host-time metrics are therefore rescaled by a probe: a fixed amount of
// the benchmark's own work, timed between passes. Its wall time over this
// nominal (its fast-host time) is the host's current slowdown.
constexpr int kProbeSteps = 500'000;
constexpr double kProbeNominalMs = 90.0;

/// Random gathers over a 32 MB table feeding a binary heap: the mix of
/// memory latency and queue work the simulator does, in code of the
/// benchmark's own, so a faster library never makes the probe faster.
class HostProbe {
 public:
  HostProbe() : table_(std::size_t{1} << 23) {
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (std::uint32_t& v : table_) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      v = static_cast<std::uint32_t>(x);
    }
  }

  /// Wall milliseconds of one probe.
  double run_ms() {
    std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                        std::greater<>>
        heap;
    for (std::size_t i = 0; i < 4096; ++i) heap.push(table_[i]);
    const auto t0 = Clock::now();
    std::uint64_t acc = 0, idx = 1;
    for (int i = 0; i < kProbeSteps; ++i) {
      idx = table_[(idx * 2654435761u + acc) & (table_.size() - 1)];
      acc += idx;
      heap.push(heap.top() + (idx & 1023));
      heap.pop();
    }
    const double ms = ms_between(t0, Clock::now());
    sink_ = acc + heap.top();
    return ms;
  }

 private:
  std::vector<std::uint32_t> table_;
  static inline volatile std::uint64_t sink_ = 0;
};

// ----------------------------------------------------------------- metrics

struct Report {
  std::vector<Metric> metrics;
  std::vector<std::string> failures;

  void add(std::string name, double value, const char* unit,
           std::int64_t samples, bool in_json = true) {
    metrics.push_back(Metric{std::move(name), value, unit, samples, in_json});
  }
  void require(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// Gates every pass shares: full delivery, no overflow and, at full size
/// (`sized`), a steady state.
void gate_pass(const PassResult& r, bool sized, Report* rep) {
  const std::string tag = std::string(pass_name(r.kind)) + " pass: ";
  rep->require(r.created > 0, tag + "no messages were created");
  rep->require(r.completed == r.created,
               tag + std::to_string(r.created - r.completed) + " of " +
                   std::to_string(r.created) +
                   " messages were not delivered to every destination");
  rep->require(r.overflows == 0,
               tag + std::to_string(r.overflows) + " slack-buffer overflows");
  if (!sized) return;
  // Steady state: delivered rate and outstanding count may not drift
  // between the halves of the window (a saturated run's backlog grows).
  const double r0 = r.rate_half[0], r1 = r.rate_half[1];
  const double o0 = r.outstanding_half[0], o1 = r.outstanding_half[1];
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "not steady: delivered %.4f vs %.4f B/bt, outstanding %.1f vs "
                "%.1f between the window halves",
                r0, r1, o0, o1);
  const bool rate_ok = r0 > 0 && std::abs(r1 / r0 - 1.0) <= 0.25;
  const bool out_ok = o1 <= 1.5 * o0 + 4.0 && o0 <= 1.5 * o1 + 4.0;
  rep->require(rate_ok && out_ok, tag + buf);
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  double scale = 1.0;
  std::string spans_out;
  std::string commit = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--scale F] [--spans-out PATH] "
               "[--commit SHA]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view k = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const char* v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
    } else if (k == "--trace") {
      a.trace = static_cast<int>(std::strtol(v, &end, 10));
    } else if (k == "--scale") {
      a.scale = std::strtod(v, &end);
    } else if (k == "--spans-out") {
      a.spans_out = v;
    } else if (k == "--commit") {
      a.commit = v;
    } else {
      usage("unknown argument");
    }
    if (end != nullptr && *end != '\0') usage("malformed number");
  }
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  if (!(a.seconds > 0) || !(a.scale > 0 && a.scale <= 1)) usage("bad range");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads)
    if (args.workload == cand.name) w = &cand;
  if (w == nullptr) usage("unknown --workload");
  if (std::string_view(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "perfbench: refusing a %s build; build Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d scale=%g\n",
              w->name, static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace, args.scale);
  std::printf("# host nproc=%ld build=%s compiler=%s commit=%s\n",
              sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_BUILD_TYPE,
              PERFBENCH_COMPILER, args.commit.c_str());
  std::fflush(stdout);

  Report rep;
  const auto started = Clock::now();
  const auto elapsed_s = [&] { return ms_between(started, Clock::now()) / 1e3; };
  std::vector<PassResult> passes;
  SpanLog spans;

  if (args.trace == 0) {
    // Pass 1 runs the whole window and the drain: it gives the simulated
    // metrics, feeds the gates and alone sets the peak memory (later passes
    // and set-ups reuse freed memory in a pattern that depends on how many
    // ran).
    passes.push_back(run_pass(*w, args.seed, args.scale, PassKind::kPlain, nullptr));
    const double rss = peak_rss_mb();
    // Set-up is timed in batches between passes. Each batch keeps its least
    // time, as the chunks do, and the median over batches spans the run.
    const std::vector<MulticastGroupSpec> groups = make_groups(*w);
    SampleSet setup_s;
    const auto setup_batch = [&] {
      double spent = 0.0, best = HUGE_VAL;
      for (int n = 0; n < 3 || spent < 0.2; ++n) {
        const double t = time_setup(*w, args.seed, groups);
        best = std::min(best, t);
        spent += t;
      }
      setup_s.add(best);
    };
    HostProbe probe;
    (void)probe.run_ms();  // warm the table
    std::vector<double> probe_ms;
    setup_batch();
    probe_ms.push_back(probe.run_ms());
    // Timing passes repeat the first chunks while another one fits.
    for (double last = 0.0; elapsed_s() + last <= args.seconds;) {
      const double t0 = elapsed_s();
      passes.push_back(run_pass(*w, args.seed, args.scale, PassKind::kPlain,
                                nullptr, kTimedChunks));
      setup_batch();
      probe_ms.push_back(probe.run_ms());
      last = elapsed_s() - t0;
    }
    // Least-of filtering on both sides, so the ratio compares the host's
    // best moments in this run with its nominal speed.
    const double probe_best = *std::min_element(probe_ms.begin(), probe_ms.end());
    const double host_scale = kProbeNominalMs / probe_best;

    // Each timed chunk is the same simulated work in every pass; its least
    // wall time filters out what other tenants of the host cost it.
    std::vector<double> best(kTimedChunks, HUGE_VAL);
    std::int64_t timed = 0;
    for (const PassResult& p : passes)
      for (std::size_t i = 0; i < best.size(); ++i, ++timed)
        best[i] = std::min(best[i], p.chunk_ms[i]);
    SampleSet best_chunks;
    double best_ms = 0.0;
    for (const double b : best) {
      best_chunks.add(b);
      best_ms += b;
    }
    const PassResult& first = passes.front();
    const Time timed_bt = first.window / kChunks * kTimedChunks;
    const double bt_per_s = static_cast<double>(timed_bt) / (best_ms / 1e3);
    rep.add("sim_bt_per_s", bt_per_s / host_scale, "bt/s", timed);
    rep.add("chunk_ms_p50", best_chunks.percentile(50) * host_scale, "ms", timed);
    rep.add("chunk_ms_p90", best_chunks.percentile(90) * host_scale, "ms", timed);
    rep.add("setup_s", setup_s.percentile(50) * host_scale, "s", setup_s.count());
    rep.add("peak_rss_mb", rss, "MB", 1);
    const std::int64_t nm = first.mcast_n, nu = first.ucast_n;
    rep.add("mcast_lat_p50_bt", first.mcast_p50, "bt", nm);
    rep.add("mcast_lat_p99_bt", first.mcast_p99, "bt", nm);
    rep.add("ucast_lat_p50_bt", first.ucast_p50, "bt", nu);
    rep.add("ucast_lat_p99_bt", first.ucast_p99, "bt", nu);
    const double failed_share =
        static_cast<double>(first.created - first.completed) /
        static_cast<double>(std::max<std::int64_t>(1, first.created));
    rep.add("failed_share", failed_share, "ratio", first.created, false);
    rep.add("delivered_share", 1.0 - failed_share, "ratio", first.created);
    rep.add("events_per_s",
            static_cast<double>(first.window_events) / (first.window_ms / 1e3),
            "1/s", kChunks, false);
    rep.add("passes", static_cast<double>(passes.size()), "count", 1, false);
    rep.add("sim_bt_per_s_unscaled", bt_per_s, "bt/s", timed, false);
    rep.add("host_probe_ms", probe_best, "ms",
            static_cast<std::int64_t>(probe_ms.size()), false);
    rep.require(args.scale < 1.0 || (nm >= 1000 && nu >= 1000),
                "fewer than 1000 latency samples behind a percentile");
  } else {
    // An untraced pass and the same pass span-traced; then, scaled down so
    // the whole run fits the flight ring, an untraced pass and the same
    // pass flight-recorded.
    const double flight_scale = args.scale * w->flight_scale;
    passes.push_back(run_pass(*w, args.seed, args.scale, PassKind::kPlain, nullptr));
    passes.push_back(run_pass(*w, args.seed, args.scale, PassKind::kSpans, &spans));
    passes.push_back(run_pass(*w, args.seed, flight_scale, PassKind::kPlain, nullptr));
    passes.push_back(run_pass(*w, args.seed, flight_scale, PassKind::kFlight, nullptr));
    const PassResult& plain = passes[0];
    const PassResult& traced = passes[1];
    const PassResult& flight = passes[3];

    rep.metrics = traced.layer;
    rep.add("sim.events_per_s",
            static_cast<double>(traced.window_events) / (traced.window_ms / 1e3),
            "1/s", kChunks);
    // Loop self time: chunk spans minus the benchmark callbacks inside them.
    const std::vector<SpanLog::Span>& all = spans.spans();
    double chunk_ms = 0.0, callback_ms = 0.0;
    for (const SpanLog::Span& sp : all) {
      const double ms = static_cast<double>(sp.end_ns - sp.start_ns) / 1e6;
      if (std::string_view(sp.name) == "sim.chunk") chunk_ms += ms;
      if (std::string_view(sp.name) == "bench.arrival" && sp.parent >= 0 &&
          std::string_view(all[static_cast<std::size_t>(sp.parent)].name) ==
              "sim.chunk")
        callback_ms += ms;
    }
    rep.add("sim.loop_self_ms", chunk_ms - callback_ms, "ms", kChunks);
    SampleSet inject;
    spans.durations_us("core.inject", &inject);
    spans.durations_us("core.send_switch_multicast", &inject);
    const auto span_metric = [&](const char* name, const char* span,
                                 double scale_to_unit, const char* unit) {
      SampleSet d;
      spans.durations_us(span, &d);
      rep.add(name, d.percentile(50) * scale_to_unit, unit, d.count());
    };
    rep.add("core.inject_us", inject.percentile(50), "us", inject.count());
    span_metric("net.plan_us", "net.plan", 1.0, "us");
    span_metric("net.route_us", "net.route", 1.0, "us");
    span_metric("net.topology_build_ms", "net.topology_build", 1e-3, "ms");
    span_metric("net.routing_build_ms", "net.routing_build", 1e-3, "ms");
    span_metric("core.network_build_ms", "core.network_build", 1e-3, "ms");
    rep.add("check.violations", static_cast<double>(flight.check_violations),
            "count", 1);
    rep.add("check.refused", flight.check_usable ? 0.0 : 1.0, "count", 1);
    // What the check covered: every event of the flight pass (warm-up,
    // window and drain), whose window is this share of the full window.
    rep.add("check.trace_events", static_cast<double>(flight.trace_recorded),
            "count", 1);
    rep.add("check.window_share",
            static_cast<double>(flight.window) / static_cast<double>(plain.window),
            "ratio", 1);
    // Median of per-chunk ratios: the two passes did the same work chunk
    // by chunk, and a median ignores chunks another tenant slowed.
    SampleSet ratio;
    for (std::size_t i = 0; i < plain.chunk_ms.size(); ++i)
      ratio.add(traced.chunk_ms[i] / plain.chunk_ms[i]);
    rep.add("trace.overhead_ratio", ratio.percentile(50), "ratio", ratio.count());

    rep.require(flight.complete, "flight-recorded pass did not run to the end");
    rep.require(flight.check_usable,
                "expectation check refused: " + flight.check_refusal);
    rep.require(flight.check_violations == 0,
                std::to_string(flight.check_violations) +
                    " expectation violations");
    if (!args.spans_out.empty() && !spans.write(args.spans_out))
      rep.require(false, "cannot write spans to " + args.spans_out);
  }

  // Every pass of one seed and scale is the same simulation up to where it
  // stopped; the first pass of each scale is untraced and complete.
  for (const PassResult& p : passes) {
    const PassResult& ref = *std::find_if(
        passes.begin(), passes.end(),
        [&](const PassResult& q) { return q.scale == p.scale; });
    bool same = p.chunk_fp.size() <= ref.chunk_fp.size();
    for (std::size_t i = 0; same && i < p.chunk_fp.size(); ++i)
      same = p.chunk_fp[i] == ref.chunk_fp[i];
    if (p.complete) {
      same = same && p.final_fp == ref.final_fp;
      gate_pass(p, p.scale == 1.0, &rep);
    }
    rep.require(same, std::string(pass_name(p.kind)) +
                          " pass diverged from the untraced pass");
  }
  const PassResult& first = passes.front();

  std::printf("# %-26s %22s %-6s %s\n", "metric", "value", "unit", "samples");
  for (const Metric& m : rep.metrics)
    std::printf("%-28s %22.6f %-6s %lld\n", m.name.c_str(), m.value, m.unit,
                static_cast<long long>(m.samples));
  std::printf("# steady: delivered %.4f / %.4f B/bt, outstanding %.1f / %.1f "
              "(window halves)\n",
              first.rate_half[0], first.rate_half[1], first.outstanding_half[0],
              first.outstanding_half[1]);
  std::printf("# fingerprint %016llx passes=%zu elapsed_s=%.1f\n",
              static_cast<unsigned long long>(first.final_fp),
              passes.size(), elapsed_s());
  for (const std::string& f : rep.failures) std::printf("# GATE FAILED: %s\n", f.c_str());
  if (rep.failures.empty()) std::printf("# gates ok\n");

  std::string json = "{\"correct\": ";
  json += rep.failures.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(first.created);
  json += ", \"failed\": " + std::to_string(first.created - first.completed);
  json += ", \"metrics\": {";
  bool sep = false;
  for (const Metric& m : rep.metrics) {
    if (!m.in_json) continue;
    if (sep) json += ", ";
    sep = true;
    json += "\"" + m.name + "\": {\"value\": " + json_number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return rep.failures.empty() ? 0 : 1;
}

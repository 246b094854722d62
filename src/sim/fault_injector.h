// Deterministic fault injection for loss-recovery experiments.
//
// The fabric and the adapters are lossless by construction, so nothing in
// the simulator could previously exercise the paper's "retransmit after
// timeout" claims (Sections 4-6): a worm, once injected, always arrived.
// The FaultInjector is a single seedable oracle, owned by Network and
// consulted by every Channel and HostAdapter, that can
//   * kill a data worm mid-flight on a link (truncation: the tail is
//     synthesized early and the rest of the worm is swallowed),
//   * swallow a control worm (ACK/NACK) whole,
//   * drop a worm at an adapter's receive engine before the protocol
//     sees it, and
//   * take a link down for a scheduled interval (every crossing worm
//     during the outage is swallowed),
//   * kill a link permanently (an outage that never ends), and
//   * record crash-stop host deaths for the failure-detection layer.
//
// All probabilistic draws come from one forked RandomStream, so a given
// (seed, config) pair injects the identical fault sequence on every run —
// the property the seed-stability ctest pins down. Tests can also force
// specific faults deterministically (force_kill_data etc.); forced faults
// are consumed before any probability is rolled.
//
// The "no faults configured" fast path: armed() is a cached bool, and the
// hook sites check it before anything else, so a fault-free simulation pays
// one pointer test plus one bool test per worm head.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_set>
#include <vector>

#include "sim/random.h"
#include "sim/types.h"

namespace wormcast {

/// Probabilities are per link crossing (a multi-hop worm rolls once per
/// channel it enters), matching how independent per-link bit errors would
/// strike a real cut-through fabric.
struct FaultConfig {
  /// Probability that a data worm entering a channel is truncated there.
  double worm_kill_rate = 0.0;
  /// Probability that an ACK/NACK entering a channel is swallowed whole.
  double ctrl_loss_rate = 0.0;
  /// Probability that an adapter receive engine discards an arriving worm
  /// at its head (models a busy/faulty LANai dropping a packet).
  double rx_drop_rate = 0.0;

  [[nodiscard]] bool any() const {
    return worm_kill_rate > 0.0 || ctrl_loss_rate > 0.0 || rx_drop_rate > 0.0;
  }
};

class FaultInjector {
 public:
  explicit FaultInjector(RandomStream rng, FaultConfig config = {});
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// False means no fault can ever fire: hook sites skip all other calls.
  [[nodiscard]] bool armed() const { return armed_; }

  // --- channel-side decisions (rolled at a worm's head byte) -----------------
  //
  // Probabilistic draws are *keyed*: each outcome is a pure function of the
  // injector seed, the worm id, and the simulation time of the decision —
  // never of the order the simulator interleaved same-time events. That
  // keeps the fault sequence identical between the burst-mode and per-byte
  // channel hot paths (which schedule different event counts and therefore
  // break same-time ties differently). `now` at a head classification is
  // unique per channel crossing and differs per retransmission attempt, so
  // a killed worm is not doomed to be killed again. Forced faults are still
  // consumed in call order, before any probability is rolled.

  /// Should the data worm currently entering a channel be truncated there?
  /// `dst` is the worm's hop destination (used to match forced kills).
  bool should_kill_worm(HostId dst, WormId id, Time now);

  /// Should the ACK/NACK currently entering a channel be swallowed?
  bool should_drop_control(WormId id, Time now);

  /// How many bytes of a killed worm to let through before synthesizing the
  /// tail, uniform in [min_len, max_len] (the caller computes min_len so the
  /// stub stays frameable through the remaining switches).
  std::int64_t pick_truncation(std::int64_t min_len, std::int64_t max_len,
                               WormId id, Time now);

  // --- adapter-side decision -------------------------------------------------

  /// Should the adapter receive engine drop the worm whose head just arrived?
  bool should_drop_rx(WormId id, HostId host, Time now);

  // --- scheduled link outages ------------------------------------------------

  /// Takes a link down for [from, until): every worm entering the channel in
  /// that window is swallowed whole. `channel` is the Channel's address
  /// (an opaque identity key); nullptr means "every channel".
  void schedule_outage(const void* channel, Time from, Time until);

  /// Is the channel inside an outage window at `now`? A pure query: call
  /// note_outage_drop() at the site that actually discards a worm, so
  /// double-querying a channel never double-counts.
  [[nodiscard]] bool link_down(const void* channel, Time now) const;

  /// Schedules a flap cycle: alternating down/up windows on `channel` from
  /// `from` until `horizon`, with each down (up) interval drawn keyed-
  /// uniform in [mean/2, 3*mean/2] around `mean_down` (`mean_up`). Unlike
  /// kill_link, every outage window ends — the link *recovers* — and no
  /// route recomputation happens, so retransmissions bridge the gaps. The
  /// windows are a pure function of (seed, key, index): bit-identical at
  /// any --jobs. Returns the number of down-windows scheduled.
  int schedule_flaps(const void* channel, Time from, Time horizon,
                     Time mean_down, Time mean_up, std::uint64_t key);

  /// Down-windows scheduled by schedule_flaps (all of them recover).
  [[nodiscard]] std::int64_t flap_windows() const { return flap_windows_; }

  /// Records one worm swallowed by an outage / dead link.
  void note_outage_drop() { ++outage_drops_; }

  // --- permanent faults (crash-stop hosts, link death) -----------------------

  /// Kills the channel forever, effective immediately: an outage with no
  /// end. Repair never resurrects it (crash-stop semantics for links).
  void kill_link(const void* channel);

  /// Declares the host crash-stopped. The injector only records the fact
  /// (for counters and queries); Network wires the behavioural side
  /// (HostProtocol::on_crash) when it schedules the crash.
  void mark_host_dead(HostId h);
  [[nodiscard]] bool host_dead(HostId h) const {
    return dead_hosts_.count(h) != 0;
  }

  // --- forced faults (deterministic test hooks) ------------------------------

  /// Kill the next `count` eligible data worms; when `dst != kNoHost` only
  /// worms headed for that hop destination match.
  void force_kill_data(int count, HostId dst = kNoHost);
  /// Swallow the next `count` ACK/NACK worms entering any channel.
  void force_drop_control(int count);
  /// Drop the next `count` worms at any adapter receive engine.
  void force_drop_rx(int count);

  // --- counters --------------------------------------------------------------

  [[nodiscard]] std::int64_t outage_drops() const { return outage_drops_; }
  [[nodiscard]] std::int64_t hosts_crashed() const {
    return static_cast<std::int64_t>(dead_hosts_.size());
  }
  [[nodiscard]] std::int64_t links_killed() const { return links_killed_; }
  [[nodiscard]] std::int64_t total_injected() const {
    return worms_killed_ + controls_dropped_ + rx_dropped_ + outage_drops_;
  }

 private:
  void rearm();

  RandomStream rng_;
  FaultConfig config_;
  bool armed_ = false;

  struct Outage {
    const void* channel = nullptr;  // nullptr = every channel
    Time from = 0;
    Time until = 0;
  };
  std::vector<Outage> outages_;

  struct ForcedKill {
    HostId dst = kNoHost;  // kNoHost = any destination
  };
  std::deque<ForcedKill> forced_kills_;
  int forced_ctrl_drops_ = 0;
  int forced_rx_drops_ = 0;
  std::unordered_set<HostId> dead_hosts_;

  std::int64_t worms_killed_ = 0;
  std::int64_t controls_dropped_ = 0;
  std::int64_t rx_dropped_ = 0;
  std::int64_t outage_drops_ = 0;
  std::int64_t links_killed_ = 0;
  std::int64_t flap_windows_ = 0;
};

}  // namespace wormcast

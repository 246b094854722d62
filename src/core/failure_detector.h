// Probe-clock failure detector (crash-stop model): a peer is suspected once
// it stays silent past the suspicion timeout. Any worm from it restarts its
// clock, and a neighbour that no pending send would expose is probed every
// probe interval while traffic is in flight. The detector only decides;
// HostProtocol sends the probes and raises the accusation.
#pragma once

#include <unordered_map>
#include <utility>

#include "core/protocol_config.h"

namespace wormcast {

class FailureDetector {
 public:
  explicit FailureDetector(const ProtocolConfig& config)
      : timeout_(config.suspicion_timeout), interval_(probe_interval(config)) {}

  [[nodiscard]] Time interval() const { return interval_; }

  /// A worm from `peer` proves it was alive when it sent.
  void heard(HostId peer, Time now) {
    last_heard_[peer] = now;
    probe_sent_.erase(peer);
  }
  [[nodiscard]] bool silent(HostId peer, Time now) const {
    const auto it = last_heard_.find(peer);
    return it == last_heard_.end() || now - it->second >= timeout_;
  }

  enum class Verdict { kWait, kProbe, kSuspect };
  /// One prober tick's decision about neighbour `peer`.
  [[nodiscard]] Verdict tick(HostId peer, Time now) {
    // The first tick this neighbour matters only starts its clock.
    const auto [heard_at, first_tick] = last_heard_.try_emplace(peer, now);
    if (first_tick || now - heard_at->second < interval_) return Verdict::kWait;
    ProbeClock& clock =
        probe_sent_.try_emplace(peer, ProbeClock{now, now}).first->second;
    // Continuity broken: the prober went dormant, or this peer dropped out
    // of the neighbor set (membership churn) and came back. The stale
    // pending probe is no evidence — restart the maturity clock from a
    // fresh probe instead of accusing on ancient history.
    if (now - clock.last > 2 * interval_) clock.first = now;
    if (now - clock.first >= timeout_) return Verdict::kSuspect;
    clock.last = now;
    return Verdict::kProbe;
  }

  /// Arms the prober; true when it was idle (the caller schedules a tick).
  [[nodiscard]] bool arm() { return !std::exchange(armed_, true); }
  void disarm() { armed_ = false; }

  void forget(HostId peer) {
    last_heard_.erase(peer);
    probe_sent_.erase(peer);
  }
  void clear() {
    last_heard_.clear();
    probe_sent_.clear();
  }

 private:
  Time timeout_;
  Time interval_;
  bool armed_ = false;
  std::unordered_map<HostId, Time> last_heard_;
  /// Unanswered-probe clock per peer; erased whenever the peer is heard.
  /// `first` anchors the suspicion maturity deadline, `last` proves the
  /// probing was continuous: a gap restarts the clock, so an ancient
  /// pending probe can never mature into an instant accusation.
  struct ProbeClock {
    Time first = 0;
    Time last = 0;
  };
  std::unordered_map<HostId, ProbeClock> probe_sent_;
};

}  // namespace wormcast

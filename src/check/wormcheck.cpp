#include "check/wormcheck.h"

#include <algorithm>
#include <array>
#include <map>
#include <sstream>

#include "sim/trace_export.h"

namespace wormcast::check {

// The checker reads the builder's internals through this accessor so the
// fluent surface of Expectation stays the only public API.
struct CheckerAccess {
  using Mode = Expectation::Mode;
  using Probe = Expectation::Probe;
  static bool active(const Expectation& e) { return e.active_ && e.has_trigger_; }
  static TraceEventType trigger(const Expectation& e) { return e.trigger_; }
  static const Filter& filter(const Expectation& e) { return e.filter_; }
  static Mode mode(const Expectation& e) { return e.mode_; }
  static Time window(const Expectation& e) { return e.window_; }
  static const std::vector<Probe>& probes(const Expectation& e) {
    return e.probes_;
  }
  static const std::vector<Probe>& excuses(const Expectation& e) {
    return e.excuses_;
  }
  static const std::string& detail(const Expectation& e) { return e.detail_; }
};

namespace {

constexpr std::size_t kNumEventTypes =
    static_cast<std::size_t>(TraceEventType::kProtoDedupReset) + 1;

/// Positions (into the snapshot) of every event of one type, in record
/// order, with a parallel time vector for binary-searching windows — the
/// snapshot is time-ordered, so each per-type list is too.
struct TypeIndex {
  std::vector<std::size_t> pos;
  std::vector<Time> t;

  /// Indices of events with time in [lo, hi], as a [first, last) range
  /// into `pos`.
  [[nodiscard]] std::pair<std::size_t, std::size_t> range(Time lo,
                                                         Time hi) const {
    const auto first = std::lower_bound(t.begin(), t.end(), lo) - t.begin();
    const auto last = std::upper_bound(t.begin(), t.end(), hi) - t.begin();
    return {static_cast<std::size_t>(first), static_cast<std::size_t>(last)};
  }
};

/// A trace excerpt for the violation report: events inside the window
/// causally related to the trigger (same worm, or same node for id-less
/// triggers), capped so a flood of violations stays readable.
std::vector<TraceEvent> gather_context(const std::vector<TraceEvent>& events,
                                       const std::vector<Time>& times,
                                       const TraceEvent& trig, Time lo,
                                       Time hi) {
  constexpr std::size_t kMaxContext = 12;
  std::vector<TraceEvent> out;
  auto it = std::lower_bound(times.begin(), times.end(), lo);
  for (auto i = static_cast<std::size_t>(it - times.begin());
       i < events.size() && events[i].t <= hi; ++i) {
    const TraceEvent& e = events[i];
    const bool related = trig.worm != 0 ? e.worm == trig.worm
                                        : e.node == trig.node;
    if (!related) continue;
    out.push_back(e);
    if (out.size() >= kMaxContext) break;
  }
  return out;
}

}  // namespace

std::vector<WormPath> reconstruct_paths(const std::vector<TraceEvent>& events) {
  std::map<std::uint64_t, WormPath> paths;
  for (const TraceEvent& e : events) {
    if (e.worm == 0) continue;  // probes, repairs, crashes, flow control
    WormPath& p = paths[e.worm];
    if (p.events.empty()) {
      p.worm = e.worm;
      p.first_t = e.t;
    }
    p.attempt.push_back(p.retransmissions);
    p.events.push_back(e);
    p.last_t = e.t;
    switch (e.type) {
      case TraceEventType::kProtoRetransmit:
        ++p.retransmissions;
        break;
      case TraceEventType::kProtoReserve:
        ++p.open_reservations;
        break;
      case TraceEventType::kProtoRelease:
        if (p.open_reservations > 0) --p.open_reservations;
        break;
      default:
        break;
    }
  }
  std::vector<WormPath> out;
  out.reserve(paths.size());
  for (auto& [id, p] : paths) out.push_back(std::move(p));
  return out;
}

CheckReport run_checks(const std::vector<TraceEvent>& events,
                       const std::vector<Expectation>& rules) {
  using Access = CheckerAccess;
  using Mode = Access::Mode;

  CheckReport rep;
  rep.usable = true;
  rep.events_checked = static_cast<std::int64_t>(events.size());

  // The snapshot comes out of the ring oldest-first with non-decreasing
  // times; fall back to a stable sort if a hand-built test vector isn't.
  const std::vector<TraceEvent>* ev = &events;
  std::vector<TraceEvent> sorted;
  if (!std::is_sorted(events.begin(), events.end(),
                      [](const TraceEvent& a, const TraceEvent& b) {
                        return a.t < b.t;
                      })) {
    sorted = events;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const TraceEvent& a, const TraceEvent& b) {
                       return a.t < b.t;
                     });
    ev = &sorted;
  }

  const Time first_t = ev->empty() ? 0 : ev->front().t;
  const Time horizon = ev->empty() ? 0 : ev->back().t;

  std::array<TypeIndex, kNumEventTypes> index;
  std::vector<Time> times;
  times.reserve(ev->size());
  for (std::size_t i = 0; i < ev->size(); ++i) {
    const TraceEvent& e = (*ev)[i];
    TypeIndex& ti = index[static_cast<std::size_t>(e.type)];
    ti.pos.push_back(i);
    ti.t.push_back(e.t);
    times.push_back(e.t);
  }

  // Any probe of `probes` matching inside [lo, hi]? `before` restricts the
  // match to events recorded before the trigger (lookback modes).
  const auto find_match = [&](const std::vector<Access::Probe>& probes,
                              const TraceEvent& trig, std::size_t trig_pos,
                              Time lo, Time hi, bool before,
                              const TraceEvent** hit) {
    for (const Access::Probe& p : probes) {
      const TypeIndex& ti = index[static_cast<std::size_t>(p.type)];
      const auto [first, last] = ti.range(lo, hi);
      for (std::size_t k = first; k < last; ++k) {
        const std::size_t cand_pos = ti.pos[k];
        if (cand_pos == trig_pos) continue;
        if (before && cand_pos > trig_pos) continue;
        const TraceEvent& cand = (*ev)[cand_pos];
        if (p.matcher && !p.matcher(trig, cand)) continue;
        if (hit != nullptr) *hit = &cand;
        return true;
      }
    }
    return false;
  };

  for (const Expectation& rule : rules) {
    if (!Access::active(rule)) continue;
    ++rep.rules_evaluated;
    const Time window = Access::window(rule);
    const Mode mode = Access::mode(rule);
    const TypeIndex& triggers =
        index[static_cast<std::size_t>(Access::trigger(rule))];

    for (const std::size_t trig_pos : triggers.pos) {
      const TraceEvent& trig = (*ev)[trig_pos];
      if (Access::filter(rule) && !Access::filter(rule)(trig)) continue;
      ++rep.obligations;

      // Excuses waive the obligation; they may precede their trigger (a
      // send can fail before the NACK that would have demanded a retry).
      if (find_match(Access::excuses(rule), trig, trig_pos, trig.t - window,
                     trig.t + window, /*before=*/false, nullptr))
        continue;

      Time lo = trig.t;
      Time hi = trig.t;
      const TraceEvent* offender = nullptr;
      bool violated = false;
      bool judged_short = false;  // window not covered by the snapshot
      switch (mode) {
        case Mode::kRequire:
          hi = trig.t + window;
          violated = !find_match(Access::probes(rule), trig, trig_pos, lo, hi,
                                 /*before=*/false, nullptr);
          judged_short = hi > horizon;
          break;
        case Mode::kPrecededBy:
          lo = trig.t - window;
          violated = !find_match(Access::probes(rule), trig, trig_pos, lo, hi,
                                 /*before=*/true, nullptr);
          judged_short = lo < first_t;
          break;
        case Mode::kNeverWithin:
          // Forbidden history: strict left edge, so an event at exactly
          // trigger.t - window (e.g. data precisely one idle threshold
          // before a flush) is still legal.
          lo = trig.t - window + 1;
          violated = find_match(Access::probes(rule), trig, trig_pos, lo, hi,
                                /*before=*/true, &offender);
          break;
      }
      if (!violated) continue;
      if (mode != Mode::kNeverWithin && judged_short) {
        // The obligation's window runs past what the recording covers:
        // unterminated, not violated.
        ++rep.unterminated;
        continue;
      }

      Violation v;
      v.rule = rule.name();
      v.worm = trig.worm;
      v.trigger = trig;
      v.window_begin = offender != nullptr ? offender->t : lo;
      v.window_end = hi;
      v.detail = Access::detail(rule);
      v.context = gather_context(*ev, times, trig, v.window_begin, hi);
      rep.violations.push_back(std::move(v));
    }
  }
  return rep;
}

std::string CheckReport::format(std::size_t max_violations) const {
  std::ostringstream out;
  if (!usable) {
    out << "wormcheck: REFUSED -- " << refusal << '\n';
    return out.str();
  }
  out << "wormcheck: " << (violations.empty() ? "OK" : "FAIL") << " -- "
      << violations.size() << " violation(s), " << rules_evaluated
      << " rule(s), " << obligations << " obligation(s) over "
      << events_checked << " event(s), " << unterminated
      << " unterminated at horizon";
  if (events_dropped > 0)
    out << " [" << events_dropped << " event(s) lost to ring wrap]";
  out << '\n';
  const std::size_t shown = std::min(violations.size(), max_violations);
  for (std::size_t i = 0; i < shown; ++i) {
    const Violation& v = violations[i];
    out << "[" << v.rule << "] worm=" << v.worm << " window=["
        << v.window_begin << ", " << v.window_end << "]";
    if (!v.detail.empty()) out << " -- " << v.detail;
    out << '\n';
    out << "  trigger: " << format_trace_line(v.trigger) << '\n';
    for (const TraceEvent& e : v.context)
      out << "    " << format_trace_line(e) << '\n';
  }
  if (violations.size() > shown)
    out << "  ... " << (violations.size() - shown)
        << " more violation(s) elided\n";
  return out.str();
}

std::vector<Expectation> standard_rules(const CheckConfig& cfg) {
  using T = TraceEventType;
  const bool recovery = cfg.ack_timeout > 0;
  const bool bounded = recovery && cfg.max_attempts > 0;

  // Matchers. The protocol traces ACK/NACK at the refusing/accepting
  // receiver with arg = the hop sender; timeouts/retransmissions/failures
  // at the sender with arg = the successor host. "Counterparty" relates
  // the two sites of one hop send.
  const auto same_site = [](const TraceEvent& t, const TraceEvent& c) {
    return c.worm == t.worm && c.node == t.node && c.arg == t.arg;
  };
  const auto counterparty = [](const TraceEvent& t, const TraceEvent& c) {
    return c.worm == t.worm && c.node == t.arg && c.arg == t.node;
  };
  const auto same_peer_pair = [](const TraceEvent& t, const TraceEvent& c) {
    return c.node == t.node && c.arg == t.arg;
  };
  const auto either_endpoint_crashed = [](const TraceEvent& t,
                                          const TraceEvent& c) {
    return c.node == t.node || c.node == t.arg;
  };
  const auto either_endpoint_repaired = [](const TraceEvent& t,
                                           const TraceEvent& c) {
    return c.arg == t.node || c.arg == t.arg;
  };
  const auto same_worm_same_node = [](const TraceEvent& t,
                                      const TraceEvent& c) {
    return c.worm == t.worm && c.node == t.node;
  };
  const auto same_track = [](const TraceEvent& t, const TraceEvent& c) {
    return c.node == t.node && c.port == t.port;
  };
  const auto has_worm = [](const TraceEvent& e) { return e.worm != 0; };

  // Derived windows. A NACK's retransmission can hide behind one full
  // timeout round at the sender (the NACK itself may be slow); a timeout's
  // response is one capped back-off away; a suspicion's evidence (probe or
  // timeout) is at most one probing/timeout period older than the
  // suspicion timeout itself.
  const Time w_nack = cfg.ack_timeout + cfg.backoff_cap() + cfg.slack;
  const Time w_timeout = cfg.backoff_cap() + cfg.slack;
  const Time l_suspect = cfg.suspicion_timeout +
                         std::max(cfg.probe_gap, cfg.ack_timeout) +
                         cfg.slack;
  // Worst honest hold: the full attempt budget of timeout+back-off rounds,
  // doubled because a repair resets the attempt counter once per dead
  // peer, plus the suspicion wait and repair grace. Unbounded retry
  // configs legitimately hold forever, so their deadline is "never" —
  // open holds then surface as unterminated, not violations.
  const Time round = cfg.ack_timeout + cfg.backoff_cap();
  const Time b_hold = bounded ? 2 * (cfg.max_attempts + 2) * round +
                                    cfg.suspicion_timeout + cfg.repair_grace +
                                    cfg.slack
                              : Expectation::kEver;

  std::vector<Expectation> rules;

  rules.push_back(
      expect("nack-retransmit")
          .on(T::kProtoNackSent, has_worm)
          .within(w_nack)
          .followed_by(T::kProtoRetransmit, counterparty)
          .or_by(T::kProtoAckSent, same_site)  // a later copy was accepted
          .unless(T::kProtoSendFailed, counterparty)  // attempts exhausted
          .unless(T::kProtoRelease,
                  [](const TraceEvent& t, const TraceEvent& c) {
                    return c.worm == t.worm && c.node == t.arg;
                  })  // the sender's task resolved/aborted meanwhile
          .unless(T::kProtoCrash, either_endpoint_crashed)
          .unless(T::kProtoRepair, either_endpoint_repaired)
          .detail("a refused copy must be retried within one timeout plus "
                  "the back-off cap")
          .active_if(recovery));

  rules.push_back(
      expect("timeout-response")
          .on(T::kProtoAckTimeout, has_worm)
          .within(w_timeout)
          .followed_by(T::kProtoRetransmit, same_site)
          .or_by(T::kProtoSendFailed, same_site)
          .or_by(T::kProtoSuspect, same_peer_pair)
          .unless(T::kProtoAckSent, counterparty)  // slow ACK raced the timer
          .unless(T::kProtoRelease, same_worm_same_node)
          .unless(T::kProtoCrash, either_endpoint_crashed)
          .unless(T::kProtoRepair,
                  [](const TraceEvent& t, const TraceEvent& c) {
                    return c.arg == t.arg;
                  })  // repair retargeted this very send
          .unless(T::kProtoLeave,
                  [](const TraceEvent& t, const TraceEvent& c) {
                    return c.node == t.arg;
                  })  // the awaited destination voluntarily left; the
                      // leave triage shrank or retargeted this send
          .detail("an ACK timeout must resolve into a retransmission, a "
                  "send failure, or a suspicion within the back-off cap")
          .active_if(recovery));

  rules.push_back(
      expect("dedup-delivery")
          .on(T::kProtoDeliver, has_worm)
          .never_within(T::kProtoDeliver, same_worm_same_node)
          .detail("a payload must reach the application at most once per "
                  "host (duplicate slipped the dedup window)"));

  rules.push_back(
      expect("suspect-evidence")
          .on(T::kProtoSuspect)
          .within(l_suspect)
          .preceded_by(T::kProtoProbe, same_peer_pair)
          .or_by(T::kProtoAckTimeout, same_peer_pair)
          .detail("no accusation without evidence: a suspicion needs a "
                  "probe of, or an ACK timeout toward, the suspect"));

  rules.push_back(
      expect("repair-grace")
          .on(T::kProtoSuspect)
          .within(cfg.repair_grace)
          .followed_by(T::kProtoRepair,
                       [](const TraceEvent& t, const TraceEvent& c) {
                         return c.arg == t.arg;
                       })
          .unless(T::kProtoCrash,
                  [](const TraceEvent& t, const TraceEvent& c) {
                    return c.node == t.node;
                  })
          .detail("every suspicion must complete a structure repair within "
                  "repair_grace"));

  rules.push_back(
      expect("idle-flush")
          .on(T::kMcastIdleFlush)
          .never_within(T::kChanHead, same_track, cfg.idle_flush_threshold)
          .or_by(T::kChanBurst, same_track)
          .or_by(T::kChanTail, same_track)
          .detail("scheme (c) flushed a blocked unicast while the multicast "
                  "port moved data inside the idle threshold")
          .active_if(cfg.idle_flush_threshold > 0));

  rules.push_back(
      expect("hold-bound")
          .on(T::kProtoReserve, has_worm)
          .within(b_hold)
          .followed_by(T::kProtoRelease, same_worm_same_node)
          .detail("a reserved forwarding buffer must be returned within the "
                  "retry budget's worst case"));

  // Membership churn. Join/leave events carry worm = 0, node = the member,
  // arg = the group; a suspicion carries node = accuser, arg = suspect.
  rules.push_back(
      expect("join-grace")
          .on(T::kProtoJoinRequest)
          .within(cfg.join_grace + cfg.slack)
          .followed_by(T::kProtoJoinApplied, same_site)
          .or_by(T::kProtoJoinShed, same_site)
          .unless(T::kProtoCrash,
                  [](const TraceEvent& t, const TraceEvent& c) {
                    return c.node == t.node;
                  })  // the joiner died while queued
          .detail("a join must be applied or explicitly shed within "
                  "join_grace; it may not dangle in the coordinator queue")
          .active_if(cfg.join_grace > 0));

  rules.push_back(
      expect("leave-no-suspect")
          .on(T::kProtoSuspect)
          .never_within(T::kProtoLeave,
                        [](const TraceEvent& t, const TraceEvent& c) {
                          return c.node == t.arg;
                        },
                        l_suspect)
          .unless(T::kProtoCrash,
                  [](const TraceEvent& t, const TraceEvent& c) {
                    return c.node == t.arg;
                  })  // a genuine crash after the leave is fair game
          .detail("a voluntary leave is a clean departure: it must never be "
                  "mistaken for a failure by the suspicion machinery"));

  rules.push_back(
      expect("rejoin-fresh-dedup")
          .on(T::kProtoRejoin)
          .within(cfg.slack)
          .followed_by(T::kProtoDedupReset, same_site)
          .detail("a rejoining member must reset the group's dedup epoch, or "
                  "stale window state could swallow its first deliveries"));

  return rules;
}

}  // namespace wormcast::check

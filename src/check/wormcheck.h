// wormcheck: causal-path reconstruction and declarative protocol
// expectation checking over a wormtrace snapshot.
//
// The flight recorder (sim/trace.h) captures *what* each layer decided;
// wormcheck validates the causal protocol behaviour *between* those
// decisions, Pip-style: a rule declares "when X happens, Y must follow
// within W unless Z", the checker evaluates every rule against the whole
// snapshot post-run, and violations come back as a deterministic report
// (rule, worm, event window, formatted trace excerpt). The standard rule
// pack (standard_rules) encodes the paper's invariants plus the PR-1/PR-2
// recovery semantics; Network::check_expectations() wires it to a live
// simulation and the sweep benches run it behind --check.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "sim/trace.h"

namespace wormcast::check {

// --- causal-path reconstruction ---------------------------------------------

/// One worm's reconstructed lifetime: every trace event carrying its id,
/// oldest first, threading channel STOP/GO + head/tail/burst, switch
/// grant/hold/fragment/interrupt/flush, adapter tx/rx and host protocol
/// decisions across all hops. Data worms share their message id, so the
/// timeline covers every hop copy and every retransmission; `attempt[i]`
/// says how many retransmissions (anywhere) preceded event i — the
/// (worm id, attempt) key the checker's reports quote.
struct WormPath {
  std::uint64_t worm = 0;
  std::vector<TraceEvent> events;  // oldest first
  std::vector<int> attempt;        // parallel to events
  int retransmissions = 0;         // total kProtoRetransmit events
  /// Reservations (kProtoReserve) not matched by a kProtoRelease at the
  /// same host by the snapshot horizon: the worm still held state when
  /// recording stopped — "in flight at horizon", not "leaked".
  int open_reservations = 0;
  [[nodiscard]] bool unterminated() const { return open_reservations > 0; }
  Time first_t = 0;
  Time last_t = 0;
};

/// Replays a snapshot (oldest first, e.g. Tracer::snapshot()) into
/// per-worm lifetimes, ordered by worm id. Events with worm == 0 (probes,
/// repairs, crashes, flow control) belong to no path.
[[nodiscard]] std::vector<WormPath> reconstruct_paths(
    const std::vector<TraceEvent>& events);

// --- expectations DSL --------------------------------------------------------

/// Does `candidate` satisfy (or excuse) the obligation that `trigger`
/// opened? Matchers see both events so rules can relate the two sites
/// (e.g. "the retransmission happens at the peer my NACK named").
using Matcher =
    std::function<bool(const TraceEvent& trigger, const TraceEvent& candidate)>;
/// Selects which events of the trigger type open obligations at all.
using Filter = std::function<bool(const TraceEvent&)>;

/// One declarative rule, built fluently:
///
///   expect("nack-retransmit")
///       .on(TraceEventType::kProtoNackSent)
///       .within(cfg.ack_timeout + cfg.backoff_cap() + cfg.slack)
///       .followed_by(TraceEventType::kProtoRetransmit, counterparty_worm())
///       .unless(TraceEventType::kProtoSendFailed, counterparty_worm())
///
/// Modes:
///   followed_by / or_by  -- a matching event must appear in
///                           [trigger.t, trigger.t + window]
///   preceded_by          -- a matching event must appear in
///                           [trigger.t - window, trigger.t], earlier in
///                           record order (evidence before accusation)
///   never_within         -- a matching event in the lookback window is
///                           itself the violation (forbidden history);
///                           window defaults to "ever"
///
/// `unless` probes are scanned in [trigger.t - window, trigger.t + window]
/// and waive the obligation entirely (excuses may precede their trigger:
/// a send can fail before the NACK that would have demanded its retry).
///
/// Horizon semantics: an unsatisfied followed_by whose deadline lies past
/// the last recorded timestamp — or a preceded_by whose lookback starts
/// before the first — is *unterminated*, not violated: the snapshot simply
/// does not cover the obligation's window.
class Expectation {
 public:
  explicit Expectation(std::string name) : name_(std::move(name)) {}

  Expectation& on(TraceEventType type, Filter filter = nullptr) {
    trigger_ = type;
    has_trigger_ = true;
    filter_ = std::move(filter);
    return *this;
  }
  Expectation& within(Time window) {
    window_ = window;
    return *this;
  }
  Expectation& followed_by(TraceEventType type, Matcher m) {
    mode_ = Mode::kRequire;
    probes_.push_back(Probe{type, std::move(m)});
    return *this;
  }
  Expectation& or_by(TraceEventType type, Matcher m) {
    probes_.push_back(Probe{type, std::move(m)});
    return *this;
  }
  Expectation& preceded_by(TraceEventType type, Matcher m) {
    mode_ = Mode::kPrecededBy;
    probes_.push_back(Probe{type, std::move(m)});
    return *this;
  }
  Expectation& never_within(TraceEventType type, Matcher m,
                            Time window = kEver) {
    mode_ = Mode::kNeverWithin;
    window_ = window;
    probes_.push_back(Probe{type, std::move(m)});
    return *this;
  }
  Expectation& unless(TraceEventType type, Matcher m) {
    excuses_.push_back(Probe{type, std::move(m)});
    return *this;
  }
  /// Human context appended to every violation of this rule.
  Expectation& detail(std::string text) {
    detail_ = std::move(text);
    return *this;
  }
  /// Config-gates the rule (an inactive rule opens no obligations).
  Expectation& active_if(bool active) {
    active_ = active;
    return *this;
  }

  [[nodiscard]] const std::string& name() const { return name_; }

  static constexpr Time kEver = std::numeric_limits<Time>::max() / 4;

 private:
  friend struct CheckerAccess;
  enum class Mode : std::uint8_t { kRequire, kPrecededBy, kNeverWithin };
  struct Probe {
    TraceEventType type;
    Matcher matcher;
  };
  std::string name_;
  std::string detail_;
  TraceEventType trigger_ = TraceEventType::kChanStop;
  bool has_trigger_ = false;
  Filter filter_;
  Mode mode_ = Mode::kRequire;
  Time window_ = 0;
  std::vector<Probe> probes_;
  std::vector<Probe> excuses_;
  bool active_ = true;
};

/// Entry point of the fluent builder.
[[nodiscard]] inline Expectation expect(std::string rule_name) {
  return Expectation(std::move(rule_name));
}

// --- checking ----------------------------------------------------------------

struct Violation {
  std::string rule;
  std::uint64_t worm = 0;
  TraceEvent trigger;
  Time window_begin = 0;
  Time window_end = 0;
  std::string detail;
  std::vector<TraceEvent> context;  // trace excerpt around the window
};

struct CheckReport {
  /// False: the checker refused to judge (wrapped ring, tracing off);
  /// `refusal` says why. A refused report is never ok().
  bool usable = false;
  std::string refusal;
  std::int64_t events_checked = 0;
  std::int64_t events_dropped = 0;  // ring-wrap loss at snapshot time
  int rules_evaluated = 0;
  std::int64_t obligations = 0;    // triggers that opened an obligation
  std::int64_t unterminated = 0;   // obligations the snapshot cannot judge
  std::vector<Violation> violations;

  [[nodiscard]] bool ok() const { return usable && violations.empty(); }
  /// Deterministic human-readable report (violations in evaluation order,
  /// capped at `max_violations` with an elision note).
  [[nodiscard]] std::string format(std::size_t max_violations = 16) const;
};

/// Evaluates `rules` over a time-ordered snapshot (oldest first). Pure:
/// no simulator needed, so tests feed hand-built event vectors.
[[nodiscard]] CheckReport run_checks(const std::vector<TraceEvent>& events,
                                     const std::vector<Expectation>& rules);

// --- the standard rule pack --------------------------------------------------

/// Protocol constants the standard rules derive their windows from — a
/// mirror of the relevant ProtocolConfig / SwitchMcastConfig fields
/// (wormcheck depends only on sim/, so Network translates its config).
struct CheckConfig {
  Time ack_timeout = 0;
  Time retry_backoff = 4000;
  Time retry_jitter = 2000;
  int max_attempts = 0;
  Time suspicion_timeout = 0;
  Time probe_gap = 0;  // resolved probe interval (never 0 while suspicion is on)
  Time repair_grace = 100'000;
  Time idle_flush_threshold = 0;  // scheme (c); 0 disables the flush rule
  Time join_grace = 0;            // membership churn; 0 disables join-grace
  /// Scheduling/congestion allowance added to every derived window.
  Time slack = 50'000;

  /// Largest NACK/timeout retransmission back-off (protocol_config.h caps
  /// the exponential back-off at 16x the base, plus uniform jitter).
  [[nodiscard]] Time backoff_cap() const {
    return 16 * retry_backoff + retry_jitter;
  }
};

/// The paper's invariants plus PR-1/PR-2 recovery semantics:
///   nack-retransmit    NACKed sends are retried within the back-off cap
///                      unless the attempt budget ran out (or an endpoint
///                      died / was repaired around)
///   timeout-response   an ACK timeout resolves into a retransmission, a
///                      send failure, or a suspicion
///   dedup-delivery     no payload is handed to an application twice
///   suspect-evidence   no accusation without evidence: every suspicion is
///                      preceded by a probe of — or an ACK timeout toward —
///                      the suspect
///   repair-grace       every suspicion completes its structure repair
///                      within repair_grace
///   idle-flush         scheme (c) never flushes a blocked unicast while
///                      the multicast port moved data inside the idle
///                      threshold
///   hold-bound         no worm holds a reserved buffer past the retry
///                      budget's worst case (unbounded configs report
///                      unterminated holds instead)
///   join-grace         every join request is applied or explicitly shed
///                      within join_grace (never silently dropped)
///   leave-no-suspect   a voluntary leave never matures into a suspicion
///                      of the leaver (clean departure != failure)
///   rejoin-fresh-dedup a recognized rejoin resets the group's dedup epoch
[[nodiscard]] std::vector<Expectation> standard_rules(const CheckConfig& cfg);

}  // namespace wormcast::check

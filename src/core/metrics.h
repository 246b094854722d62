// Experiment metric collection.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/worm.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace wormcast {

/// The run's protocol-event counters as one plain record. Metrics bumps
/// the fields, Network::Summary embeds the record whole, register_counters
/// exports it through kRunCounterFields, and equivalence tests compare it
/// with ==. Adding a counter is one field, one kRunCounterFields row and
/// its increment.
struct RunCounters {
  // Messages and delivered payload (throughput, Figures 10-12).
  std::int64_t messages_created = 0;
  std::int64_t messages_completed = 0;
  std::int64_t payload_delivered = 0;    // bytes of in-window messages
  // Loss and recovery (Figure 13, fault injection).
  std::int64_t nacks = 0;
  std::int64_t retransmits = 0;
  std::int64_t relays = 0;
  std::int64_t ack_timeouts = 0;
  std::int64_t duplicates_suppressed = 0;
  std::int64_t deliveries_failed = 0;    // sends abandoned (max_attempts)
  std::int64_t mcast_drops = 0;          // adapter input-buffer drops
  // Permanent failures and repair.
  std::int64_t suspicions = 0;           // failure-detector accusations
  std::int64_t repairs = 0;
  std::int64_t sends_rerouted = 0;       // sends retargeted by repair
  std::int64_t messages_disrupted = 0;   // abandoned at repair time
  std::int64_t links_failed = 0;         // permanent link deaths
  // Membership churn (joins/leaves/rejoins + overload shedding).
  std::int64_t joins_requested = 0;      // distinct join intents
  std::int64_t joins_applied = 0;
  std::int64_t rejoins = 0;
  std::int64_t leaves = 0;
  std::int64_t joins_shed = 0;           // shed events (retries may follow)
  std::int64_t joins_abandoned = 0;      // sheds with no retry budget left

  bool operator==(const RunCounters&) const = default;
};

/// One RunCounters field and the name it is exported under.
struct RunCounterField {
  const char* name;
  std::int64_t RunCounters::*field;
};

/// Every RunCounters field with its BENCH_*.json counter name, in export
/// order. The perf-gate baselines read counters by these names.
inline constexpr std::array<RunCounterField, 21> kRunCounterFields{{
    {"messages_created", &RunCounters::messages_created},
    {"messages_completed", &RunCounters::messages_completed},
    {"payload_delivered", &RunCounters::payload_delivered},
    {"nacks", &RunCounters::nacks},
    {"retransmits", &RunCounters::retransmits},
    {"relays", &RunCounters::relays},
    {"ack_timeouts", &RunCounters::ack_timeouts},
    {"duplicates_suppressed", &RunCounters::duplicates_suppressed},
    {"deliveries_failed", &RunCounters::deliveries_failed},
    {"mcast_drops", &RunCounters::mcast_drops},
    {"suspicions", &RunCounters::suspicions},
    {"repairs", &RunCounters::repairs},
    {"sends_rerouted", &RunCounters::sends_rerouted},
    {"messages_disrupted", &RunCounters::messages_disrupted},
    {"links_failed", &RunCounters::links_failed},
    {"churn_joins_requested", &RunCounters::joins_requested},
    {"churn_joins_applied", &RunCounters::joins_applied},
    {"churn_rejoins", &RunCounters::rejoins},
    {"churn_leaves", &RunCounters::leaves},
    {"shed_joins", &RunCounters::joins_shed},
    {"shed_joins_final", &RunCounters::joins_abandoned},
}};
static_assert(sizeof(RunCounters) ==
                  kRunCounterFields.size() * sizeof(std::int64_t),
              "every RunCounters field needs a kRunCounterFields row");

/// Aggregates the observations the paper's figures are built from:
/// per-destination multicast latency (Figures 10 and 11 plot its average),
/// whole-group completion latency, unicast latency, delivered payload
/// (throughput), loss, and the protocol-event counters in `counts`.
///
/// Warmup handling: samples are recorded only for messages *created* at or
/// after the measurement window start.
class Metrics {
 public:
  /// Every protocol-event counter; call sites bump the fields directly.
  RunCounters counts;

  /// Messages created before this time are excluded from samples.
  void set_window_start(Time t) { window_start_ = t; }

  std::shared_ptr<MessageContext> create_message(HostId origin, GroupId group,
                                                 std::int64_t payload,
                                                 int destinations, Time now);

  /// One destination got the payload. Returns true if this completed the
  /// message (all destinations reached).
  bool on_delivered(const std::shared_ptr<MessageContext>& ctx, HostId member,
                    Time now);

  /// A send exhausted max_attempts: the message is abandoned, not merely
  /// late, so it stops counting as outstanding (the run can drain).
  void on_delivery_failed(const std::shared_ptr<MessageContext>& ctx);

  void on_join_applied(Time latency, bool rejoin) {
    ++counts.joins_applied;
    if (rejoin) ++counts.rejoins;
    join_latency_.add(static_cast<double>(latency));
  }
  /// A join was shed under overload; `final_shed` means its retry budget is
  /// exhausted and the request will never be applied.
  void on_join_shed(bool final_shed) {
    ++counts.joins_shed;
    if (final_shed) ++counts.joins_abandoned;
  }

  void on_repair(Time now) { ++counts.repairs; last_repair_ = now; }
  /// The message can no longer complete (its originator crashed, or a hop
  /// copy died inside the dead member): it stops counting as outstanding
  /// and is tallied as disrupted. Idempotent per message.
  void abandon_message(const std::shared_ptr<MessageContext>& ctx);
  /// A destination crashed before receiving this message: shrink the
  /// destination set so the survivors' deliveries can still complete it.
  /// Completion by shrink adds no latency sample (there was no delivery).
  /// Returns true if the message is now complete.
  bool shrink_destinations(const std::shared_ptr<MessageContext>& ctx, Time now);
  /// Snapshot of the not-yet-finished messages (repair-time triage).
  [[nodiscard]] std::vector<std::shared_ptr<MessageContext>> outstanding_messages()
      const;
  [[nodiscard]] bool is_outstanding(std::uint64_t message_id) const {
    return outstanding_.count(message_id) != 0;
  }

  /// Delivery order audit trail: per host, the (group, message) sequence
  /// observed; the total-ordering tests compare these across members.
  void record_order(HostId host, GroupId group, std::uint64_t message_id);
  [[nodiscard]] const std::vector<std::uint64_t>* order_of(HostId host,
                                                           GroupId group) const;

  [[nodiscard]] const SampleSet& mcast_latency() const { return mcast_latency_; }
  [[nodiscard]] const SampleSet& mcast_completion() const {
    return mcast_completion_;
  }
  [[nodiscard]] const SampleSet& unicast_latency() const {
    return unicast_latency_;
  }
  [[nodiscard]] const SampleSet& join_latency() const { return join_latency_; }
  [[nodiscard]] Time last_repair_time() const { return last_repair_; }
  // Shorthands over `counts` for the benchmark harness.
  [[nodiscard]] std::int64_t messages_created() const {
    return counts.messages_created;
  }
  [[nodiscard]] std::int64_t messages_completed() const {
    return counts.messages_completed;
  }
  [[nodiscard]] std::int64_t payload_delivered() const {
    return counts.payload_delivered;
  }
  [[nodiscard]] std::int64_t nacks() const { return counts.nacks; }
  [[nodiscard]] std::int64_t retransmits() const { return counts.retransmits; }
  [[nodiscard]] std::int64_t relays() const { return counts.relays; }

  /// Messages not yet fully delivered.
  [[nodiscard]] std::int64_t outstanding() const {
    return static_cast<std::int64_t>(outstanding_.size());
  }
  /// Age of the oldest unfinished message; 0 when none. The livelock /
  /// buffer-deadlock detector for the ablation benches.
  [[nodiscard]] Time oldest_outstanding_age(Time now) const;

  /// Time the most recent message completed (0 if none yet).
  [[nodiscard]] Time last_completion_time() const { return last_completion_; }

  /// Fires whenever a message stops being outstanding for any reason —
  /// completion, delivery failure, abandonment, or completion by
  /// destination shrink. The Network's send gate drains on it.
  void set_message_closed_hook(
      std::function<void(const std::shared_ptr<MessageContext>&)> hook) {
    message_closed_hook_ = std::move(hook);
  }

 private:
  Time window_start_ = 0;
  std::uint64_t next_id_ = 1;
  SampleSet mcast_latency_;
  SampleSet mcast_completion_;
  SampleSet unicast_latency_;
  SampleSet join_latency_;
  Time last_completion_ = 0;
  Time last_repair_ = 0;
  // Live contexts so repair can triage in-flight messages, not just ages.
  std::unordered_map<std::uint64_t, std::shared_ptr<MessageContext>> outstanding_;
  std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> orders_;
  std::function<void(const std::shared_ptr<MessageContext>&)>
      message_closed_hook_;
};

}  // namespace wormcast

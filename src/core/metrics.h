// Experiment metric collection.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/worm.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace wormcast {

/// Aggregates the observations the paper's figures are built from:
/// per-destination multicast latency (Figures 10 and 11 plot its average),
/// whole-group completion latency, unicast latency, delivered payload
/// (throughput), loss, and protocol-event counters.
///
/// Warmup handling: samples are recorded only for messages *created* at or
/// after the measurement window start.
class Metrics {
 public:
  /// Messages created before this time are excluded from samples.
  void set_window_start(Time t) { window_start_ = t; }
  [[nodiscard]] Time window_start() const { return window_start_; }

  std::shared_ptr<MessageContext> create_message(HostId origin, GroupId group,
                                                 std::int64_t payload,
                                                 int destinations, Time now);

  /// One destination got the payload. Returns true if this completed the
  /// message (all destinations reached).
  bool on_delivered(const std::shared_ptr<MessageContext>& ctx, HostId member,
                    Time now);

  /// Loss accounting (adapter input-buffer drops, Figure 13).
  void on_mcast_drop() { ++mcast_drops_; }
  void on_nack() { ++nacks_; }
  void on_retransmit() { ++retransmits_; }
  void on_relay() { ++relays_; }

  // Loss-recovery accounting (fault-injection experiments).
  void on_ack_timeout() { ++ack_timeouts_; }
  void on_duplicate() { ++duplicates_suppressed_; }
  /// A send exhausted max_attempts: the message is abandoned, not merely
  /// late, so it stops counting as outstanding (the run can drain).
  void on_delivery_failed(const std::shared_ptr<MessageContext>& ctx);
  void on_confirmation(const std::shared_ptr<MessageContext>& ctx, Time now);

  // Membership-churn accounting (join/leave/rejoin + overload shedding).
  void on_join_requested() { ++joins_requested_; }
  void on_join_applied(Time latency, bool rejoin) {
    ++joins_applied_;
    if (rejoin) ++rejoins_;
    join_latency_.add(static_cast<double>(latency));
  }
  /// A join was shed under overload; `final_shed` means its retry budget is
  /// exhausted and the request will never be applied.
  void on_join_shed(bool final_shed) {
    ++joins_shed_;
    if (final_shed) ++joins_abandoned_;
  }
  void on_leave_applied() { ++leaves_; }

  // Failure-detection & repair accounting.
  void on_suspicion() { ++suspicions_; }
  void on_repair(Time now) { ++repairs_; last_repair_ = now; }
  void on_send_rerouted() { ++sends_rerouted_; }
  void on_link_failed() { ++links_failed_; }
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
  [[nodiscard]] std::int64_t mcast_drops() const { return mcast_drops_; }
  [[nodiscard]] std::int64_t nacks() const { return nacks_; }
  [[nodiscard]] std::int64_t retransmits() const { return retransmits_; }
  [[nodiscard]] std::int64_t relays() const { return relays_; }
  [[nodiscard]] std::int64_t ack_timeouts() const { return ack_timeouts_; }
  [[nodiscard]] std::int64_t duplicates_suppressed() const {
    return duplicates_suppressed_;
  }
  [[nodiscard]] std::int64_t deliveries_failed() const {
    return deliveries_failed_;
  }
  [[nodiscard]] std::int64_t suspicions() const { return suspicions_; }
  [[nodiscard]] std::int64_t repairs() const { return repairs_; }
  [[nodiscard]] std::int64_t sends_rerouted() const { return sends_rerouted_; }
  [[nodiscard]] std::int64_t messages_disrupted() const {
    return messages_disrupted_;
  }
  [[nodiscard]] std::int64_t links_failed() const { return links_failed_; }
  [[nodiscard]] const SampleSet& join_latency() const { return join_latency_; }
  [[nodiscard]] std::int64_t joins_requested() const { return joins_requested_; }
  [[nodiscard]] std::int64_t joins_applied() const { return joins_applied_; }
  [[nodiscard]] std::int64_t joins_shed() const { return joins_shed_; }
  [[nodiscard]] std::int64_t joins_abandoned() const { return joins_abandoned_; }
  [[nodiscard]] std::int64_t rejoins() const { return rejoins_; }
  [[nodiscard]] std::int64_t leaves() const { return leaves_; }
  [[nodiscard]] Time last_repair_time() const { return last_repair_; }
  [[nodiscard]] std::int64_t messages_created() const { return created_; }
  [[nodiscard]] std::int64_t messages_completed() const { return completed_; }
  [[nodiscard]] std::int64_t payload_delivered() const { return payload_delivered_; }

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
  std::int64_t mcast_drops_ = 0;
  std::int64_t nacks_ = 0;
  std::int64_t retransmits_ = 0;
  std::int64_t relays_ = 0;
  std::int64_t ack_timeouts_ = 0;
  std::int64_t duplicates_suppressed_ = 0;
  std::int64_t deliveries_failed_ = 0;
  std::int64_t created_ = 0;
  std::int64_t completed_ = 0;
  std::int64_t payload_delivered_ = 0;
  std::int64_t suspicions_ = 0;
  std::int64_t repairs_ = 0;
  std::int64_t sends_rerouted_ = 0;
  std::int64_t messages_disrupted_ = 0;
  std::int64_t links_failed_ = 0;
  SampleSet join_latency_;
  std::int64_t joins_requested_ = 0;
  std::int64_t joins_applied_ = 0;
  std::int64_t joins_shed_ = 0;
  std::int64_t joins_abandoned_ = 0;
  std::int64_t rejoins_ = 0;
  std::int64_t leaves_ = 0;
  Time last_completion_ = 0;
  Time last_repair_ = 0;
  // Live contexts so repair can triage in-flight messages, not just ages.
  std::unordered_map<std::uint64_t, std::shared_ptr<MessageContext>> outstanding_;
  std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> orders_;
  std::function<void(const std::shared_ptr<MessageContext>&)>
      message_closed_hook_;
};

}  // namespace wormcast

// Per-host multicast protocol engine (the paper's contribution,
// Sections 4-6), implemented as the policy client of a HostAdapter.
//
// Responsibilities, one translation unit each:
//  * host_protocol.cpp — originate unicast and multicast messages, plan
//    each hop's successors (repeated unicast, Hamiltonian circuit, rooted
//    tree) and receive copies: implicit buffer reservation accepts a worm
//    when the forwarding pool has room for all of it and refuses it
//    otherwise (Figure 5), in two buffer classes so reservation waits
//    cannot cycle (Figure 7);
//  * host_send.cpp — the reliable send: one dispatch path, ACK/NACK,
//    retransmission after a capped back-off, ACK timers, and the ordered
//    window that gives total ordering per successor;
//  * host_repair.cpp — crash-stop failure detection and the repair and
//    membership-churn hooks that retarget in-flight sends;
//  * credit_scheme.cpp — the [VLB96] centralized credit baseline.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "adapter/buffer_pool.h"
#include "adapter/host_adapter.h"
#include "core/credit_scheme.h"
#include "core/dedup_window.h"
#include "core/failure_detector.h"
#include "core/group_tables.h"
#include "core/metrics.h"
#include "core/protocol_config.h"
#include "core/send_task.h"
#include "net/updown.h"
#include "net/worm.h"
#include "sim/arena.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "traffic/generator.h"

namespace wormcast {

class HostProtocol final : public AdapterClient {
 public:
  /// Every worm this host emits comes from `worm_pool`, the network's
  /// shared worm arena (sim/arena.h).
  HostProtocol(Simulator& sim, HostAdapter& adapter, const UpDownRouting& routing,
               const GroupTables& tables, Metrics& metrics,
               RecyclePool<Worm>& worm_pool, const ProtocolConfig& config,
               RandomStream rng, int n_hosts);
  HostProtocol(const HostProtocol&) = delete;
  HostProtocol& operator=(const HostProtocol&) = delete;

  /// Application entry point: send a unicast or multicast message.
  void originate(const Demand& demand);

  /// A unicast this host sent was flushed by a multicast-IDLE port
  /// (switch-level scheme (c)); retransmit a fresh copy after a random
  /// timeout, as the paper prescribes.
  void on_unicast_flushed(const WormPtr& worm);

  // --- failure detection & repair (crash-stop model) -------------------------

  /// Crash-stop this host: it stops originating, forwarding, ACKing and
  /// probing, drops its queued transmissions (the worm already on the wire
  /// finishes — committed DMA) and releases every buffer it held. Nothing
  /// ever resurrects it.
  void on_crash();
  [[nodiscard]] bool crashed() const { return dead_; }

  /// Called when this host suspects `suspect` has crash-stopped; the
  /// network disseminates the death and repairs the shared group tables.
  void set_failure_listener(std::function<void(HostId)> listener) {
    failure_listener_ = std::move(listener);
  }

  /// The network removed `gone` from the already repaired tables: a crash
  /// (no `group`: every group, dead for good) or a voluntary leave of
  /// `group` (alive: nothing is purged, no suspicion state burns). Every
  /// unresolved send to `gone` is retargeted along the repaired structure
  /// (circuit successor past the splice, new tree parent, adopted
  /// children), or resolved where it now ends, and dispatched again.
  void on_peer_removed(HostId gone, std::optional<GroupId> group,
                       const std::vector<GroupTables::Reattachment>& adopted);

  // --- membership churn (join/leave/rejoin) ----------------------------------

  /// The network spliced this host into group `g`. Sets the delivery view
  /// floor — messages created before the join are forwarded but never
  /// delivered here (this host was not one of their destinations) — and, on
  /// a rejoin, opens a fresh dedup epoch for the group so a rejoin with
  /// recycled worm IDs is not silently swallowed as a duplicate.
  void on_self_joined(GroupId g, bool rejoin);

  /// The network spliced this host out of group `g` (voluntary leave, not a
  /// failure). In-flight forwarding duties still complete; pending local
  /// deliveries for the group are cancelled (the accounting already stopped
  /// counting this host as a destination).
  void on_self_left(GroupId g);

  /// Another host joined group `g`. Patches the hop budget of this host's
  /// unresolved circuit sends whose remaining window now spans the joiner
  /// (the splice added one stop), so the circuit tail is not starved.
  void on_member_joined(GroupId g, HostId joiner);

  [[nodiscard]] const BufferPool& pool() const { return pool_; }
  /// Forwarding tasks currently holding buffer space.
  [[nodiscard]] std::size_t active_tasks() const { return tasks_.size(); }

  // AdapterClient.
  RxDecision on_rx_head(const WormPtr& worm,
                        const std::shared_ptr<RxProgress>& rx) override;
  void on_rx_complete(const WormPtr& worm, std::int64_t payload_bytes) override;
  void on_tx_done(const WormPtr& worm) override;
  void on_rx_truncated(const WormPtr& worm) override;

  /// Snapshot of this host's recovery-relevant state, for the watchdog's
  /// stall diagnostics and for tests that need to observe in-flight sends.
  using SendDebug = SendTask::Send;
  using TaskDebug = SendTask;
  struct DebugSnapshot {
    std::vector<TaskDebug> tasks;  // forwarding + originator, by message id
    std::int64_t pool_used = 0;
    std::size_t ack_waiting = 0;  // sends awaiting an ACK
  };
  [[nodiscard]] DebugSnapshot debug_snapshot() const;

 private:
  using Task = SendTask;
  using TaskPtr = SendTaskPtr;

  // --- origination and successor planning (host_protocol.cpp) ---------------
  void originate_unicast(const Demand& d);
  void originate_multicast(const Demand& d);
  /// Relays to the serializer, or (at the serializer, or with no
  /// serialization) plans and launches the multicast proper.
  void begin_serialized_dispatch(const TaskPtr& task);
  void relay_to_serializer(const TaskPtr& task);
  /// Serializer (lowest-ID member / root) starts the multicast proper.
  void start_serialized(const TaskPtr& task);
  /// The group's serializer: the tree root, or the circuit's lowest member.
  [[nodiscard]] HostId serializer(GroupId g) const;
  /// Builds the successor sends of `task`'s message arriving at (or
  /// originated by) this host. `from` is the previous hop (kNoHost at the
  /// originator / serializer start).
  [[nodiscard]] std::vector<Task::Send> plan_successors(
      const Task& task, int incoming_class, bool at_serializer,
      HostId from) const;

  // --- reception (host_protocol.cpp) -----------------------------------------
  [[nodiscard]] bool is_confirmation(const McastHeader& h) const;
  void handle_mcast_data(const WormPtr& worm);
  void deliver_locally(const TaskPtr& task);
  void deliver(const std::shared_ptr<MessageContext>& ctx, HostId from);
  /// Duplicate-suppression memory of completed receptions.
  [[nodiscard]] static std::uint64_t dedup_key(std::uint64_t message_id,
                                               bool relay_phase) {
    return message_id * 2 + (relay_phase ? 1 : 0);
  }
  [[nodiscard]] DedupWindow& dedup_for(GroupId g);

  // --- reliable send (host_send.cpp) -----------------------------------------
  /// Every worm this host emits starts here (recycled through the arena).
  [[nodiscard]] WormPtr make_worm(WormKind kind, HostId dst,
                                  std::int64_t payload, std::int64_t header,
                                  std::uint64_t id) const;
  [[nodiscard]] WormPtr make_data_worm(
      HostId dst, std::int64_t payload, std::int64_t header,
      const std::shared_ptr<MessageContext>& msg) const;
  [[nodiscard]] WormPtr make_control_worm(WormKind kind,
                                          const WormPtr& data_worm) const;

  /// Recovery changes the ACK protocol (ACK on full reception instead of on
  /// the head) so it is only meaningful with reservations on.
  [[nodiscard]] bool recovery_enabled() const {
    return config_.reservation && config_.ack_timeout > 0;
  }
  /// Strict total ordering on the circuit or a root-serialized tree passes
  /// every send but the relay to the serializer through the ordered
  /// window. Costs pipelining, so only when the application asked.
  [[nodiscard]] bool windowed() const {
    return config_.total_ordering && (scheme_uses_circuit(config_.scheme) ||
                                      config_.scheme == Scheme::kTreeSF ||
                                      config_.scheme == Scheme::kTreeCT);
  }
  [[nodiscard]] bool ordered(const Task::Send& send) const {
    return windowed() && !send.header.relay_phase;
  }

  /// ACK/NACK and transmit-completion bookkeeping is keyed by
  /// (message, successor).
  [[nodiscard]] static std::uint64_t send_key(std::uint64_t message_id,
                                              HostId to) {
    return message_id * 1000003ULL + static_cast<std::uint64_t>(to);
  }
  void launch_sends(const TaskPtr& task, bool allow_cut_through);
  /// The one place a successor send goes out: its first transmission, or
  /// the resend of a started send a repair retargeted. An ordered send
  /// first claims its window and waits there while another send holds it.
  void dispatch(const TaskPtr& task, std::size_t send_index, bool cut_through);
  /// Sends (or, retargeted, resends) a send that holds its window.
  void transmit(const TaskPtr& task, std::size_t send_index, bool cut_through);
  void send_copy(const TaskPtr& task, const Task::Send& send, bool cut_through);
  void retransmit_later(const TaskPtr& task, std::size_t send_index);
  void retry_or_fail(const TaskPtr& task, std::size_t send_index);
  void arm_ack_timer(const TaskPtr& task, std::size_t send_index);
  void cancel_timer(Task::Send& send);
  void on_ack_timeout(const TaskPtr& task, std::size_t send_index);
  /// Gives up on a send (max_attempts exhausted).
  void fail_send(const TaskPtr& task, std::size_t send_index);
  /// A resolved ordered send hands its window to the next waiter.
  void release_window(const Task& task, const Task::Send& send);
  /// The task awaiting `to`'s answer about `worm`'s message and its
  /// unresolved send there; `resolve` also ends the wait.
  [[nodiscard]] std::pair<TaskPtr, Task::Send*> pending_send(
      const WormPtr& worm, HostId to, bool resolve);
  void handle_ack(const WormPtr& worm);
  void handle_nack(const WormPtr& worm);
  void maybe_release(const TaskPtr& task);
  /// Tears down a task: timers, window slots, reservation.
  void abort_task(const TaskPtr& task);
  /// Returns the task's reservation to the pool and forgets the task.
  void retire(const TaskPtr& task);

  // --- failure detection, repair and churn (host_repair.cpp) -----------------
  /// Snapshot of the forwarding then originator tasks (of group `g` only,
  /// unless kNoGroup), safe to resolve or abort while walking it.
  [[nodiscard]] std::vector<TaskPtr> all_tasks(GroupId g = kNoGroup) const;
  /// on_peer_removed for one task; also adds sends to adopted children.
  void repair_task_sends(const TaskPtr& task, HostId gone,
                         const std::vector<GroupTables::Reattachment>& adopted);
  /// The detector piggybacks on recovery: a peer is suspected when it stays
  /// silent past the suspicion timeout despite the ACK-timeout retries, or
  /// when it ignores explicit probes while no send would expose it.
  [[nodiscard]] bool suspicion_enabled() const {
    return recovery_enabled() && config_.suspicion_timeout > 0;
  }
  void note_heard(HostId peer);
  void accuse(HostId peer, std::uint64_t message_id);
  void maybe_arm_prober();
  void probe_tick();
  /// Circuit successor or tree parent and children, in every group, minus
  /// removed peers.
  [[nodiscard]] std::vector<HostId> probe_targets() const;

  // --- [VLB96] centralized credit scheme (credit_scheme.cpp) ----------------
  void handle_credit_op(const WormPtr& worm);
  void try_credit_grants();
  void maybe_start_token();
  /// Hands the token, carrying `collected`, to the next host on the ring.
  void pass_token(std::shared_ptr<std::vector<std::int64_t>> collected);
  [[nodiscard]] WormPtr make_credit_worm(CreditOp op, HostId dst, GroupId group,
                                         std::uint64_t message_id,
                                         std::int64_t seq) const;

  Simulator& sim_;
  HostAdapter& adapter_;
  const UpDownRouting& routing_;
  const GroupTables& tables_;
  Metrics& metrics_;
  ProtocolConfig config_;
  RandomStream rng_;
  HostId host_;
  int n_hosts_ = 0;
  bool dead_ = false;  // crash-stopped
  BufferPool pool_;
  RecyclePool<Worm>& worm_pool_;  // Network-owned

  /// Forwarding tasks by message id (at most one per message: each member
  /// appears once in the circuit/tree).
  std::unordered_map<std::uint64_t, TaskPtr> tasks_;
  /// Originator tasks by message id (kept separate: with serialization the
  /// origin may later also hold a forwarding task for the same message).
  std::unordered_map<std::uint64_t, TaskPtr> origin_tasks_;
  /// Sends awaiting ACK (or transmit completion when reservation is off),
  /// keyed by (message id, successor).
  std::unordered_map<std::uint64_t, TaskPtr> ack_wait_;
  /// Per-group sequence counter (advanced at the serializer, or by the
  /// credit manager's grants).
  std::unordered_map<GroupId, std::int64_t> seq_counters_;
  OrderedWindow window_;
  /// Switch-level multicast reassembly: payload bytes received so far per
  /// message (scheme (b) delivers a message as several fragments).
  std::unordered_map<std::uint64_t, std::int64_t> switch_mcast_rx_;
  /// Recovery-mode dedup memory: keys of fully received (message, phase)
  /// pairs, bounded to kDedupWindow entries per group. A duplicate of a
  /// remembered key is re-ACKed (its ACK was evidently lost), never
  /// re-delivered or re-forwarded. Per-group so a rejoin resets only its
  /// own group's epoch (see dedup_for / on_self_joined).
  std::unordered_map<GroupId, DedupWindow> done_;
  /// Per-group delivery view floor: messages created before this host's
  /// join time are forwarded but never delivered locally (the destination
  /// count was fixed at creation, before this host was a member).
  std::unordered_map<GroupId, Time> view_floor_;

  std::function<void(HostId)> failure_listener_;
  /// Peers declared dead by the network; sends are never aimed at them.
  std::unordered_set<HostId> removed_peers_;
  FailureDetector detector_;
  CreditManager credit_;
};

}  // namespace wormcast

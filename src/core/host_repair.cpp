// HostProtocol: crash-stop failure detection, repair of in-flight sends
// around removed peers, and the membership-churn hooks.
#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "core/host_protocol.h"
#include "sim/trace.h"

namespace wormcast {

std::vector<HostProtocol::TaskPtr> HostProtocol::all_tasks(GroupId g) const {
  std::vector<TaskPtr> out;
  out.reserve(tasks_.size() + origin_tasks_.size());
  for (const auto* map : {&tasks_, &origin_tasks_})
    for (const auto& [id, t] : *map)
      if (g == kNoGroup || t->group == g) out.push_back(t);
  return out;
}

// --- crash and repair --------------------------------------------------------

void HostProtocol::on_crash() {
  if (dead_) return;
  dead_ = true;
  WORMTRACE(sim_, kProtoCrash, host_, -1, 0, 0);
  // Queued (uncommitted) transmissions vanish; a worm mid-DMA finishes.
  adapter_.drop_queued_tx();
  // Ordered-forwarding queues die with the host; cleared first so the task
  // teardown below cannot pop and re-issue a queued send.
  window_.clear();
  for (const TaskPtr& task : all_tasks())
    if (!task->aborted) abort_task(task);
  ack_wait_.clear();
  detector_.clear();
  assert(pool_.total_used() == 0 && "crash must drain the buffer pool");
}

void HostProtocol::on_peer_removed(
    HostId gone, std::optional<GroupId> group,
    const std::vector<GroupTables::Reattachment>& adopted) {
  if (dead_ || gone == host_) return;
  if (!group.has_value()) {
    // A crash: the peer is dead for good in every group.
    if (!removed_peers_.insert(gone).second) return;
    WORMTRACE(sim_, kProtoRepair, host_, -1, 0, gone);
    detector_.forget(gone);
    // Drop the stale TX backlog addressed to the dead host: retargeted
    // retransmissions must not queue behind worms nobody will ever ACK.
    adapter_.purge_tx_to(gone);
  }
  // Free every ordered window aimed at the removed successor: its waiters,
  // and the send that held it, are retargeted below and claim the windows
  // of their new successors.
  const GroupId scope = group.value_or(kNoGroup);
  window_.release_lanes_to(gone, scope);
  std::vector<TaskPtr> tasks = all_tasks(scope);
  // Under total ordering the old window held its sends in sequence order;
  // they claim the new windows in that same order.
  if (windowed())
    std::stable_sort(tasks.begin(), tasks.end(),
                     [](const TaskPtr& a, const TaskPtr& b) {
                       return a->seq < b->seq;
                     });
  for (const TaskPtr& task : tasks)
    if (!task->aborted) repair_task_sends(task, gone, adopted);
}

void HostProtocol::repair_task_sends(
    const TaskPtr& task, HostId gone,
    const std::vector<GroupTables::Reattachment>& adopted) {
  bool touched = false;
  std::vector<std::size_t> to_dispatch;
  for (std::size_t i = 0; i < task->sends.size(); ++i) {
    Task::Send& s = task->sends[i];
    if (s.to != gone || s.acked || s.failed) continue;
    touched = true;
    cancel_timer(s);
    if (s.started) ack_wait_.erase(send_key(task->message_id, s.to));
    metrics_.on_send_rerouted();

    HostId to = kNoHost;  // stays kNoHost where the repaired structure ends
    if (s.header.relay_phase) {
      // The serializer died. Relay to its successor — unless that is us.
      to = serializer(task->group);
      if (to == host_) {
        task->sends.clear();
        begin_serialized_dispatch(task);
        return;
      }
    } else if (scheme_uses_circuit(config_.scheme)) {
      // The splice removed one stop, so the hop budget shrinks with it.
      const CircuitTable& circuit = tables_.circuit(task->group);
      if (s.header.hops_remaining > 1 && circuit.size() >= 2) {
        // successor_of, not next: this host may itself be an ex-member
        // still relaying (its own leave keeps in-flight duties alive), so
        // its position on the repaired circuit is positional, not a lookup.
        to = circuit.successor_of(host_);
        // Two-buffer-class rule on the repaired circuit: still class 0
        // while IDs keep ascending past the splice; the wrap turns it to 1.
        if (s.header.buffer_class == 0 && to < host_) s.header.buffer_class = 1;
        --s.header.hops_remaining;
      }
    } else {
      // Tree schemes. A dead child's subtree was re-parented (its adoptive
      // parent's pass below covers it); a dead parent means this subtree
      // re-attached — climb to the new parent unless we became the root.
      // An ex-member still relaying has no tree position any more: it
      // hands the upward copy to the root, which floods the whole repaired
      // tree (already-holding members re-ACK the duplicates away).
      const TreeTable& tree = tables_.tree(task->group);
      if (gone < host_ && host_ != tree.root())
        to = tree.contains(host_) ? tree.parent(host_) : tree.root();
    }
    if (to == kNoHost) {
      s.started = true;  // resolved
      s.acked = true;
      continue;
    }
    s.to = to;
    s.attempts = 0;  // fresh back-off history toward the new target
    s.first_tx = sim_.now();
    // A started send goes out again now; the rest wait for the reception.
    if (s.started)
      dispatch(task, i, /*cut_through=*/false);
    else
      to_dispatch.push_back(i);
  }

  // Adoption pass (tree schemes): a subtree this host adopted in the
  // repair needs copies of every message still held here — and ONLY the
  // adopted ones: a pre-existing child absent from the sends means the
  // message arrived *from* that child (flood direction), not that it was
  // missed. Receivers that already hold a copy ACK the duplicate away.
  const bool relay_task =
      std::any_of(task->sends.begin(), task->sends.end(),
                  [](const Task::Send& s) { return s.header.relay_phase; });
  if (scheme_uses_tree(config_.scheme) && !task->aborted && !relay_task) {
    for (const GroupTables::Reattachment& r : adopted) {
      if (r.group != task->group || r.new_parent != host_) continue;
      const bool have =
          std::any_of(task->sends.begin(), task->sends.end(),
                      [&r](const Task::Send& s) { return s.to == r.orphan; });
      // The origin's subtree already has the message by construction.
      if (have || r.orphan == task->origin) continue;
      // Descent copy: the broadcast flood's descending class is 1, the
      // root-serialized descent's single class is 0.
      task->sends.push_back(task->send_to(
          r.orphan, config_.scheme == Scheme::kTreeBroadcast ? 1 : 0));
      to_dispatch.push_back(task->sends.size() - 1);
      touched = true;
      metrics_.on_send_rerouted();
    }
  }

  // Not-yet-received tasks launch their sends when reception completes;
  // everything already complete dispatches now.
  if (task->rx_complete)
    for (const std::size_t i : to_dispatch) dispatch(task, i, false);
  if (touched) maybe_release(task);
}

// --- membership churn --------------------------------------------------------

void HostProtocol::on_self_joined(GroupId g, bool rejoin) {
  if (dead_) return;
  view_floor_[g] = sim_.now();
  if (rejoin) {
    // Fresh dedup epoch: the old window remembers pre-leave message IDs
    // that a rejoin may legitimately re-see; without the reset those
    // deliveries would be silently swallowed as duplicates. Scoped to this
    // group — other groups' duplicate memory must survive.
    dedup_for(g).reset();
    WORMTRACE(sim_, kProtoDedupReset, host_, -1, 0, g);
  }
  maybe_arm_prober();
}

void HostProtocol::on_self_left(GroupId g) {
  if (dead_) return;
  // Finish forwarding what is already held, but never deliver it locally:
  // the network's accounting stopped counting this host as a destination
  // the moment the leave was applied.
  for (const TaskPtr& t : all_tasks(g)) {
    if (t->originator || t->aborted) continue;
    t->delivered = true;
    maybe_release(t);  // delivery may have been the task's last duty
  }
}

void HostProtocol::on_member_joined(GroupId g, HostId joiner) {
  if (dead_ || joiner == host_) return;
  // Tree joins move no existing edge (the joiner attaches as a leaf, or
  // adopts the old root as its only child), so in-flight tree sends need
  // no patching. Circuit joins add one stop: any unresolved send whose
  // remaining hop window now spans the joiner must grow its budget by one,
  // or the members behind the joiner would be starved of their copy.
  if (!scheme_uses_circuit(config_.scheme)) return;
  const CircuitTable& circuit = tables_.circuit(g);
  for (const TaskPtr& task : all_tasks(g)) {
    if (task->aborted) continue;
    for (Task::Send& s : task->sends) {
      if (s.acked || s.failed || s.header.relay_phase) continue;
      // The copy addressed to s.to covers hops_remaining consecutive stops
      // starting at s.to on the (already spliced) circuit.
      HostId cur = s.to;
      for (int k = 0; k < s.header.hops_remaining; ++k) {
        if (cur == joiner) {
          ++s.header.hops_remaining;
          break;
        }
        cur = circuit.next(cur);
      }
    }
  }
}

// --- failure detector --------------------------------------------------------

void HostProtocol::note_heard(HostId peer) {
  if (!suspicion_enabled() || peer == host_ || peer == kNoHost) return;
  detector_.heard(peer, sim_.now());
}

void HostProtocol::accuse(HostId peer, std::uint64_t message_id) {
  metrics_.on_suspicion();
  WORMTRACE(sim_, kProtoSuspect, host_, -1, message_id, peer);
  if (failure_listener_) failure_listener_(peer);
}

void HostProtocol::maybe_arm_prober() {
  if (!suspicion_enabled() || dead_ || !detector_.arm()) return;
  sim_.after(detector_.interval(), [this] { probe_tick(); });
}

void HostProtocol::probe_tick() {
  detector_.disarm();
  if (dead_) return;
  // Probe only while a silent death could wedge in-flight traffic. With
  // the network quiescent, go dormant instead of probing: a probe would
  // arm the receiver's prober, which would probe *its* successor, and the
  // cascade around the circuit would keep the simulation alive forever.
  if (metrics_.outstanding() == 0 && ack_wait_.empty()) return;
  const Time now = sim_.now();
  for (const HostId n : probe_targets()) {
    if (removed_peers_.count(n) > 0) continue;  // removed earlier this tick
    switch (detector_.tick(n, now)) {
      case FailureDetector::Verdict::kWait:
        break;
      case FailureDetector::Verdict::kSuspect:
        accuse(n, 0);
        break;
      case FailureDetector::Verdict::kProbe:
        try {
          WORMTRACE(sim_, kProtoProbe, host_, -1, 0, n);
          adapter_.send_control(make_worm(WormKind::kProbe, n,
                                          kControlPayloadBytes,
                                          kMcastHeaderBytes, 0));
        } catch (const std::logic_error&) {
          // Unreachable after a partitioning link death: keep the clock
          // running; the unanswered probe matures into a suspicion.
        }
        break;
    }
  }
  // Keep ticking while traffic is in flight that a silent death could
  // wedge; otherwise go quiescent (the next origination re-arms).
  if (metrics_.outstanding() > 0 || !ack_wait_.empty()) maybe_arm_prober();
}

std::vector<HostId> HostProtocol::probe_targets() const {
  std::vector<HostId> out;
  for (const GroupId g : tables_.groups_containing(host_)) {
    if (scheme_uses_circuit(config_.scheme)) {
      const CircuitTable& c = tables_.circuit(g);
      if (c.size() > 1) out.push_back(c.next(host_));
    } else if (scheme_uses_tree(config_.scheme)) {
      const TreeTable& t = tables_.tree(g);
      if (host_ != t.root()) out.push_back(t.parent(host_));
      const std::vector<HostId>& kids = t.children(host_);
      out.insert(out.end(), kids.begin(), kids.end());
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  out.erase(std::remove_if(
                out.begin(), out.end(),
                [this](HostId h) { return removed_peers_.count(h) > 0; }),
            out.end());
  return out;
}

}  // namespace wormcast

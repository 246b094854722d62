// HostProtocol: the reliable send. Every successor send goes out through
// dispatch(); ACK/NACK, ACK timers, retransmission and the ordered window
// resolve it; a task retires once all of its sends have.
#include <algorithm>
#include <cassert>
#include <utility>

#include "core/host_protocol.h"
#include "sim/trace.h"

namespace wormcast {

// --- worms -------------------------------------------------------------------

WormPtr HostProtocol::make_worm(WormKind kind, HostId dst, std::int64_t payload,
                                std::int64_t header, std::uint64_t id) const {
  auto worm = worm_pool_.make();
  worm->id = id;
  worm->kind = kind;
  worm->src = host_;
  worm->dst = dst;
  worm->payload = payload;
  worm->header = header;
  routing_.route_into(host_, dst, worm->route);
  return worm;
}

WormPtr HostProtocol::make_data_worm(
    HostId dst, std::int64_t payload, std::int64_t header,
    const std::shared_ptr<MessageContext>& msg) const {
  WormPtr worm = make_worm(WormKind::kData, dst, payload, header, msg->message_id);
  worm->message = msg;
  worm->created_at = msg->created_at;
  return worm;
}

WormPtr HostProtocol::make_control_worm(WormKind kind,
                                        const WormPtr& data_worm) const {
  // Every ACK/NACK this host emits goes through here — the single choke
  // point is the natural trace site.
  if (kind == WormKind::kAck)
    WORMTRACE(sim_, kProtoAckSent, host_, -1, data_worm->id, data_worm->src);
  else if (kind == WormKind::kNack)
    WORMTRACE(sim_, kProtoNackSent, host_, -1, data_worm->id, data_worm->src);
  WormPtr worm = make_worm(kind, data_worm->src, kControlPayloadBytes,
                           kMcastHeaderBytes, data_worm->id);
  worm->mcast = data_worm->mcast;
  worm->message = data_worm->message;
  return worm;
}

// --- dispatch ----------------------------------------------------------------

void HostProtocol::launch_sends(const TaskPtr& task, bool allow_cut_through) {
  for (std::size_t i = 0; i < task->sends.size(); ++i) {
    if (task->sends[i].started) continue;
    const bool ct = allow_cut_through && scheme_cut_through(config_.scheme) &&
                    !task->rx_complete;
    dispatch(task, i, ct);
    if (ct) break;  // cut-through starts the first successor only
  }
}

void HostProtocol::dispatch(const TaskPtr& task, std::size_t send_index,
                            bool cut_through) {
  const Task::Send& send = task->sends[send_index];
  if (send.queued) return;  // already waiting for its window
  if (ordered(send) && !window_.claim(task, send_index, cut_through)) return;
  transmit(task, send_index, cut_through);
}

void HostProtocol::transmit(const TaskPtr& task, std::size_t send_index,
                            bool cut_through) {
  Task::Send& send = task->sends[send_index];
  ack_wait_.emplace(send_key(task->message_id, send.to), task);
  if (send.started) {
    // A repair retargeted this send: resend toward the new successor after
    // the usual back-off.
    retransmit_later(task, send_index);
    return;
  }
  send.started = true;
  send.first_tx = sim_.now();
  send_copy(task, send, cut_through);
  if (recovery_enabled()) arm_ack_timer(task, send_index);
}

void HostProtocol::send_copy(const TaskPtr& task, const Task::Send& send,
                             bool cut_through) {
  WormPtr worm =
      make_data_worm(send.to, task->payload, kMcastHeaderBytes, task->ctx);
  worm->mcast = send.header;
  // A cut-through copy streams from the still-arriving reception; when
  // reception has finished this is a plain buffered send.
  if (cut_through && task->rx != nullptr && !task->rx->complete)
    adapter_.send_cut_through(std::move(worm), task->rx);
  else
    adapter_.send(std::move(worm));
}

void HostProtocol::retransmit_later(const TaskPtr& task,
                                    std::size_t send_index) {
  // Exponential back-off (capped) keeps NACK storms from starving each
  // other under extreme contention; the jitter breaks retry lockstep.
  Task::Send& pending = task->sends[send_index];
  if (pending.retry_pending) return;  // a NACK crossed a fired timer
  pending.retry_pending = true;
  const Time backoff = retry_backoff_delay(config_, pending.attempts++, rng_);
  sim_.after(backoff, [this, task, send_index] {
    Task::Send& send = task->sends[send_index];
    send.retry_pending = false;
    // The send may have resolved during the back-off: a slow ACK arrived,
    // the send was abandoned, the whole task was torn down, or this host
    // crashed. A repair may also have retargeted `send.to` meanwhile — the
    // worm below is built from the mutated send, so the retransmission
    // automatically takes the healed structure and route — or parked it in
    // its new successor's window, which will hand it back.
    if (send.acked || send.failed || send.queued || task->aborted || dead_)
      return;
    assert(send.started);
    ++metrics_.counts.retransmits;
    WORMTRACE(sim_, kProtoRetransmit, host_, -1, task->message_id, send.to);
    send_copy(task, send, /*cut_through=*/true);
    if (recovery_enabled()) arm_ack_timer(task, send_index);
  });
}

void HostProtocol::retry_or_fail(const TaskPtr& task, std::size_t send_index) {
  if (config_.max_attempts > 0 &&
      task->sends[send_index].attempts + 1 >= config_.max_attempts)
    fail_send(task, send_index);
  else
    retransmit_later(task, send_index);
}

// --- ACK timers --------------------------------------------------------------

void HostProtocol::arm_ack_timer(const TaskPtr& task, std::size_t send_index) {
  Task::Send& send = task->sends[send_index];
  send.timer = sim_.after(config_.ack_timeout, [this, task, send_index] {
    on_ack_timeout(task, send_index);
  });
}

void HostProtocol::cancel_timer(Task::Send& send) {
  if (!send.timer.valid()) return;
  sim_.cancel(send.timer);
  send.timer = EventHandle{};
}

void HostProtocol::on_ack_timeout(const TaskPtr& task, std::size_t send_index) {
  Task::Send& send = task->sends[send_index];
  if (send.acked || send.failed || send.retry_pending || task->aborted || dead_)
    return;
  ++metrics_.counts.ack_timeouts;
  WORMTRACE(sim_, kProtoAckTimeout, host_, -1, task->message_id, send.to);
  // Suspicion: the send has been un-ACKed past the suspicion timeout AND
  // the peer has been totally silent for as long — an overdue send alone
  // can be our own congestion (the retransmissions queued behind a local
  // TX backlog), so a peer that is still talking is never accused.
  // Declare it dead; the network's repair retargets this very send (so no
  // retransmission is scheduled here).
  // NOTE: the accusation repairs the structures, which can reallocate
  // task->sends — `send` must not be touched after the call.
  if (suspicion_enabled() && failure_listener_ &&
      removed_peers_.count(send.to) == 0 && send.first_tx != kTimeNever &&
      sim_.now() - send.first_tx >= config_.suspicion_timeout &&
      detector_.silent(send.to, sim_.now())) {
    accuse(send.to, task->message_id);
    return;
  }
  retry_or_fail(task, send_index);
}

// --- resolution --------------------------------------------------------------

void HostProtocol::fail_send(const TaskPtr& task, std::size_t send_index) {
  Task::Send& send = task->sends[send_index];
  assert(send.started && !send.acked && !send.failed);
  send.failed = true;
  ack_wait_.erase(send_key(task->message_id, send.to));
  metrics_.on_delivery_failed(task->ctx);
  WORMTRACE(sim_, kProtoSendFailed, host_, -1, task->message_id, send.to);
  release_window(*task, send);
  maybe_release(task);
}

void HostProtocol::release_window(const Task& task, const Task::Send& send) {
  // A send still queued never held the window, so it has none to pass on.
  if (!ordered(send) || send.queued) return;
  if (const auto next = window_.advance(task.group, send.to))
    transmit(next->task, next->send_index, next->cut_through);
}

std::pair<HostProtocol::TaskPtr, HostProtocol::Task::Send*>
HostProtocol::pending_send(const WormPtr& worm, HostId to, bool resolve) {
  const auto it = ack_wait_.find(send_key(worm->mcast->message_id, to));
  if (it == ack_wait_.end()) return {};
  TaskPtr task = it->second;
  if (resolve) ack_wait_.erase(it);
  for (Task::Send& s : task->sends)
    if (s.to == to && s.started && !s.acked && !s.failed) return {task, &s};
  return {task, nullptr};
}

void HostProtocol::handle_ack(const WormPtr& worm) {
  const auto [task, s] = pending_send(worm, worm->src, /*resolve=*/true);
  if (task == nullptr) {
    // Legitimate in recovery mode: the re-ACK of a duplicate crossed with
    // the original (slow) ACK, or the send was abandoned / its task aborted
    // while the ACK was in flight.
    assert(recovery_enabled() && "ACK without outstanding send");
    return;
  }
  if (s != nullptr) {
    s->acked = true;
    s->attempts = 0;  // success clears the back-off history
    cancel_timer(*s);
    release_window(*task, *s);
  }
  maybe_release(task);
}

void HostProtocol::handle_nack(const WormPtr& worm) {
  const auto [task, s] = pending_send(worm, worm->src, /*resolve=*/false);
  if (s == nullptr) {
    assert(recovery_enabled() && "NACK without a pending send");
    return;
  }
  cancel_timer(*s);
  retry_or_fail(task, static_cast<std::size_t>(s - task->sends.data()));
}

void HostProtocol::on_tx_done(const WormPtr& worm) {
  if (config_.reservation) return;
  if (worm->kind != WormKind::kData || !worm->mcast.has_value()) return;
  // Reservation-less mode (the Section 8 Myrinet implementation): the
  // forwarding buffer is freed as soon as the copy has left the adapter —
  // there is no acknowledgement.
  const auto [task, s] = pending_send(worm, worm->dst, /*resolve=*/true);
  if (task == nullptr) return;
  if (s != nullptr) s->acked = true;
  maybe_release(task);
}

void HostProtocol::maybe_release(const TaskPtr& task) {
  if (!task->delivered || !task->rx_complete) return;
  for (const Task::Send& s : task->sends)
    if (!s.started || (!s.acked && !s.failed)) return;
  retire(task);
}

void HostProtocol::abort_task(const TaskPtr& task) {
  assert(!task->aborted);
  task->aborted = true;
  for (Task::Send& s : task->sends) {
    if (!s.started || s.acked || s.failed) continue;
    cancel_timer(s);
    ack_wait_.erase(send_key(task->message_id, s.to));
    release_window(*task, s);
  }
  retire(task);
}

void HostProtocol::retire(const TaskPtr& task) {
  if (task->reserved > 0) {
    WORMTRACE(sim_, kProtoRelease, host_, -1, task->message_id, task->reserved);
    pool_.release(task->cls, task->reserved);
    task->reserved = 0;
    // Credit scheme: the freed slot rides home on the next token visit.
    if (config_.scheme == Scheme::kCentralizedCredit) credit_.slot_freed();
  }
  (task->originator ? origin_tasks_ : tasks_).erase(task->message_id);
}

// --- observability -----------------------------------------------------------

HostProtocol::DebugSnapshot HostProtocol::debug_snapshot() const {
  DebugSnapshot snap;
  for (const TaskPtr& task : all_tasks()) snap.tasks.push_back(*task);
  std::sort(snap.tasks.begin(), snap.tasks.end(),
            [](const TaskDebug& a, const TaskDebug& b) {
              return a.message_id < b.message_id;
            });
  snap.pool_used = pool_.total_used();
  snap.ack_waiting = ack_wait_.size();
  return snap;
}

}  // namespace wormcast

// Network: the membership coordinator (joins, leaves) and crash repair —
// every change to who is in a group, and the message accounting and
// in-flight rescue that follow it.
#include <algorithm>

#include "core/network.h"

namespace wormcast {

void Network::request_join(GroupId g, HostId h, Time when) {
  sim_.at(when, [this, g, h] { enqueue_join(g, h, sim_.now(), 0); });
}

void Network::request_leave(GroupId g, HostId h, Time when) {
  sim_.at(when, [this, g, h] {
    // Leaves are never shed: a departure must not be deniable.
    push_membership(MembershipOp{false, g, h, sim_.now(), 0});
  });
}

void Network::enqueue_join(GroupId g, HostId h, Time requested_at,
                           int attempts) {
  if (attempts == 0) ++metrics_.counts.joins_requested;
  // Every attempt (retries included) re-arms the join-grace obligation:
  // each request must be applied or shed within the window.
  WORMTRACE(sim_, kProtoJoinRequest, h, -1, 0, g);
  const MembershipConfig& m = config_.membership;
  if (m.queue_limit > 0 &&
      static_cast<int>(membership_q_.size()) >= m.queue_limit) {
    const bool final_shed = attempts + 1 >= m.max_join_attempts;
    metrics_.on_join_shed(final_shed);
    WORMTRACE(sim_, kProtoJoinShed, h, -1, 0, g);
    if (!final_shed) {
      // Capped exponential back-off plus jitter, the NACK-retry discipline:
      // shed joiners return slowly and never in lockstep. The jitter draw
      // is keyed by (group, host, attempt), not sequential.
      Time delay = capped_backoff(m.retry_backoff, attempts);
      if (m.retry_jitter > 0)
        delay += membership_rng_.keyed_uniform(
            0, m.retry_jitter, 0x3E17Bull, group_host_key(g, h),
            static_cast<std::uint64_t>(attempts));
      sim_.after(delay, [this, g, h, requested_at, attempts] {
        enqueue_join(g, h, requested_at, attempts + 1);
      });
    }
    return;
  }
  push_membership(MembershipOp{true, g, h, requested_at, attempts});
}

void Network::push_membership(const MembershipOp& op) {
  membership_q_.push_back(op);
  membership_queue_peak_ = std::max(
      membership_queue_peak_, static_cast<std::int64_t>(membership_q_.size()));
  pump_membership();
}

void Network::pump_membership() {
  if (membership_pump_armed_ || membership_q_.empty()) return;
  membership_pump_armed_ = true;
  // One operation per op_cost byte-times: the coordinator's control-plane
  // bandwidth, and the backpressure that makes the queue bound meaningful.
  sim_.after(config_.membership.op_cost, [this] {
    membership_pump_armed_ = false;
    if (membership_q_.empty()) return;
    const MembershipOp op = membership_q_.front();
    membership_q_.pop_front();
    if (op.join) {
      apply_join(op);
    } else {
      apply_leave(op);
    }
    pump_membership();
  });
}

void Network::apply_join(const MembershipOp& op) {
  const std::uint64_t key = group_host_key(op.group, op.host);
  if (faults_->host_dead(op.host) || removed_hosts_.count(op.host) > 0) {
    // The host crashed while its join was queued: resolve the obligation
    // explicitly as a final shed rather than leaving it dangling.
    metrics_.on_join_shed(true);
    WORMTRACE(sim_, kProtoJoinShed, op.host, -1, 0, op.group);
    return;
  }
  const GroupTables::JoinResult jr = tables_->add_member(op.group, op.host);
  const bool rejoin = jr.joined && former_members_.erase(key) > 0;
  metrics_.on_join_applied(sim_.now() - op.requested_at, rejoin);
  WORMTRACE(sim_, kProtoJoinApplied, op.host, -1, 0, op.group);
  if (!jr.joined) return;  // already a member: applied idempotently
  if (rejoin) WORMTRACE(sim_, kProtoRejoin, op.host, -1, 0, op.group);
  joined_at_[key] = sim_.now();
  // The joiner first (it sets its view floor and, on rejoin, resets the
  // group's dedup epoch), then every peer patches in-flight hop budgets.
  protocols_[op.host]->on_self_joined(op.group, rejoin);
  for (const auto& protocol : protocols_)
    protocol->on_member_joined(op.group, op.host);
  if (!scheme_uses_circuit(config_.protocol.scheme)) return;
  // Settle sweep (circuit schemes only): a worm already inside a channel
  // or adapter queue carries a hop budget sized for the pre-join circuit,
  // so the members past the splice point can miss that copy — the one
  // race no table patch can reach. Give such pre-join messages kJoinGrace
  // to finish honestly, then write the stragglers off as disrupted so the
  // run drains (the exact kRepairGrace discipline, for joins).
  const Time joined_at = sim_.now();
  const GroupId g = op.group;
  sim_.after(kJoinGrace, [this, joined_at, g] {
    for (const std::shared_ptr<MessageContext>& ctx :
         metrics_.outstanding_messages())
      if (ctx->group == g && ctx->created_at <= joined_at)
        metrics_.abandon_message(ctx);
  });
}

void Network::drop_destination(const std::shared_ptr<MessageContext>& ctx,
                               HostId member) {
  const std::vector<std::uint64_t>* order = metrics_.order_of(member, ctx->group);
  const bool already_delivered =
      order != nullptr &&
      std::find(order->begin(), order->end(), ctx->message_id) != order->end();
  if (!already_delivered) metrics_.shrink_destinations(ctx, sim_.now());
}

void Network::count_repair(const GroupTables::RepairStats& stats) {
  repair_stats_.circuits_spliced += stats.circuits_spliced;
  repair_stats_.subtrees_reparented += stats.subtrees_reparented;
  repair_stats_.roots_promoted += stats.roots_promoted;
}

void Network::apply_leave(const MembershipOp& op) {
  if (faults_->host_dead(op.host) || removed_hosts_.count(op.host) > 0)
    return;  // the crash (and its full repair) superseded the leave
  if (!tables_->is_member(op.group, op.host)) return;  // duplicate or stale
  if (tables_->group_size(op.group) <= 1) return;  // sole member: keep group
  const std::uint64_t key = group_host_key(op.group, op.host);

  // Accounting triage before the tables forget the member, mirroring
  // declare_host_dead but scoped: the leaver stays alive, so messages it
  // *originated* keep completing normally — only its destination role in
  // this group ends. Messages created before the leaver even joined never
  // counted it as a destination, so they must not shrink either.
  const auto joined_it = joined_at_.find(key);
  const Time member_since = joined_it == joined_at_.end() ? 0 : joined_it->second;
  for (const std::shared_ptr<MessageContext>& ctx :
       metrics_.outstanding_messages()) {
    if (ctx->group != op.group || ctx->origin == op.host) continue;
    if (ctx->created_at < member_since) continue;  // pre-join: not a dest
    drop_destination(ctx, op.host);
  }

  const GroupTables::RepairStats stats =
      tables_->remove_member_from(op.group, op.host);
  count_repair(stats);
  former_members_.insert(key);
  joined_at_.erase(key);
  ++metrics_.counts.leaves;
  WORMTRACE(sim_, kProtoLeave, op.host, -1, 0, op.group);
  // The leaver finishes what it holds (forward-only, no new deliveries);
  // every peer retargets in-flight sends around it. No suspicion, no
  // repair-grace burn: this is a clean departure, not a failure.
  protocols_[op.host]->on_self_left(op.group);
  for (const auto& protocol : protocols_)
    protocol->on_peer_removed(op.host, op.group, stats.reattachments);
}

void Network::declare_host_dead(HostId dead) {
  if (!removed_hosts_.insert(dead).second) return;  // already repaired
  faults_->mark_host_dead(dead);
  protocols_[dead]->on_crash();  // no-op when already crashed

  // Message-accounting triage *before* the tables forget the member: a
  // message is abandoned when its origin (or unicast destination) died;
  // a multicast merely loses one destination when a member that had not
  // yet delivered it died.
  for (const std::shared_ptr<MessageContext>& ctx :
       metrics_.outstanding_messages()) {
    if (ctx->origin == dead ||
        (ctx->group == kNoGroup && ctx->unicast_dst == dead)) {
      metrics_.abandon_message(ctx);
      continue;
    }
    if (ctx->group == kNoGroup) continue;
    const bool dead_is_dest = ctx->group == kBroadcastGroup ||
                              tables_->circuit(ctx->group).contains(dead);
    if (dead_is_dest) drop_destination(ctx, dead);
  }

  // Heal the shared group structures in place: splice the circuits,
  // re-parent orphaned subtrees, promote a new root where needed. Every
  // protocol sees the repaired tables immediately (shared by reference).
  const GroupTables::RepairStats stats = tables_->remove_member(dead);
  count_repair(stats);

  // Let every survivor retarget its in-flight sends onto the repaired
  // structures (the retry machinery then redelivers them).
  for (const auto& protocol : protocols_)
    protocol->on_peer_removed(dead, std::nullopt, stats.reattachments);
  metrics_.on_repair(sim_.now());

  // Grace sweep: copies that died *inside* the crashed member (ACKed but
  // never forwarded) leave their message outstanding forever. Give the
  // repaired structures a grace period to finish honest stragglers, then
  // write the rest off as disrupted so quiescence drains.
  const Time repaired_at = sim_.now();
  sim_.after(kRepairGrace, [this, repaired_at] {
    for (const std::shared_ptr<MessageContext>& ctx :
         metrics_.outstanding_messages())
      if (ctx->created_at <= repaired_at) metrics_.abandon_message(ctx);
  });
}

}  // namespace wormcast

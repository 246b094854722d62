// HostProtocol: origination, successor planning and reception.
#include "core/host_protocol.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "sim/trace.h"

namespace wormcast {

HostProtocol::HostProtocol(Simulator& sim, HostAdapter& adapter,
                           const UpDownRouting& routing,
                           const GroupTables& tables, Metrics& metrics,
                           RecyclePool<Worm>& worm_pool,
                           const ProtocolConfig& config, RandomStream rng,
                           int n_hosts)
    : sim_(sim),
      adapter_(adapter),
      routing_(routing),
      tables_(tables),
      metrics_(metrics),
      config_(config),
      rng_(std::move(rng)),
      host_(adapter.host()),
      n_hosts_(n_hosts),
      pool_(config.buffer_classes ? BufferPool(config.pool_bytes, 2)
                                  : BufferPool::unpartitioned(config.pool_bytes)),
      worm_pool_(worm_pool),
      detector_(config) {
  adapter_.set_client(this);
  if (config_.scheme == Scheme::kCentralizedCredit &&
      host_ == kCreditManagerHost)
    credit_.become_manager(n_hosts_, config_.credits_per_host);
}

// --- origination -------------------------------------------------------------

void HostProtocol::originate(const Demand& demand) {
  if (dead_) return;  // a crashed application generates nothing
  maybe_arm_prober();
  if (demand.multicast)
    originate_multicast(demand);
  else
    originate_unicast(demand);
}

void HostProtocol::on_unicast_flushed(const WormPtr& worm) {
  sim_.after(retry_backoff_delay(config_, 0, rng_), [this, worm] {
    if (dead_) return;
    if (removed_peers_.count(worm->dst) > 0) {
      metrics_.abandon_message(worm->message);
      return;
    }
    ++metrics_.counts.retransmits;
    WormPtr copy = make_worm(WormKind::kData, worm->dst, worm->payload,
                             worm->header, worm->id);
    copy->mcast = worm->mcast;
    copy->message = worm->message;
    copy->created_at = worm->created_at;
    adapter_.send(std::move(copy));
  });
}

void HostProtocol::originate_unicast(const Demand& d) {
  auto ctx = metrics_.create_message(host_, kNoGroup, d.length, 1, sim_.now());
  ctx->unicast_dst = d.dst;
  if (removed_peers_.count(d.dst) > 0) {
    // The application addressed a host the network already declared dead.
    metrics_.abandon_message(ctx);
    return;
  }
  adapter_.send(make_data_worm(d.dst, d.length, 0, ctx));
}

void HostProtocol::originate_multicast(const Demand& d) {
  const CircuitTable& circuit = tables_.circuit(d.group);
  // Under churn the static traffic generator keeps picking hosts that have
  // since left the group; a departed member simply has nothing to send.
  if (!circuit.contains(host_)) return;
  const int members = circuit.size();
  const int dests = members - 1;
  auto ctx =
      metrics_.create_message(host_, d.group, d.length, dests, sim_.now());
  if (dests == 0) return;

  if (config_.scheme == Scheme::kRepeatedUnicast) {
    // Myrinet's stock behaviour: one plain unicast per member, back to back
    // out of the source adapter.
    for (const HostId m : circuit.order())
      if (m != host_) adapter_.send(make_data_worm(m, d.length, 0, ctx));
    return;
  }

  auto task = std::make_shared<Task>();
  task->ctx = ctx;
  task->group = d.group;
  task->message_id = ctx->message_id;
  task->origin = host_;
  task->payload = d.length;
  task->rx_complete = true;  // the originator holds the payload in host memory
  task->delivered = true;    // the originator is not a destination
  task->originator = true;
  origin_tasks_.emplace(task->message_id, task);

  if (config_.scheme == Scheme::kCentralizedCredit) {
    // [VLB96]: obtain a cumulative buffer credit for every destination from
    // the manager before transmitting anything.
    if (host_ == kCreditManagerHost) {
      credit_.request({ctx->message_id, d.group, host_});
      try_credit_grants();
    } else {
      adapter_.send_control(make_credit_worm(CreditOp::kRequest,
                                             kCreditManagerHost, d.group,
                                             ctx->message_id, -1));
    }
    return;
  }

  begin_serialized_dispatch(task);
}

HostId HostProtocol::serializer(GroupId g) const {
  return scheme_uses_tree(config_.scheme) ? tables_.tree(g).root()
                                          : tables_.circuit(g).lowest();
}

void HostProtocol::begin_serialized_dispatch(const TaskPtr& task) {
  const bool serialized =
      scheme_uses_tree(config_.scheme)
          ? config_.scheme != Scheme::kTreeBroadcast
          : config_.total_ordering;
  if (serialized && host_ != serializer(task->group)) {
    relay_to_serializer(task);  // the multicast proper starts there
    return;
  }

  if (serialized && task->seq < 0) {
    task->seq = seq_counters_[task->group]++;
  }
  task->sends = plan_successors(*task, /*incoming_class=*/0,
                                /*at_serializer=*/serialized, kNoHost);
  launch_sends(task, /*allow_cut_through=*/false);
  maybe_release(task);
}

void HostProtocol::relay_to_serializer(const TaskPtr& task) {
  // The relay travels in the one "reversal" buffer class (Section 4).
  task->sends.assign(1, task->send_to(serializer(task->group), 1));
  task->sends.front().header.relay_phase = true;
  ++metrics_.counts.relays;
  dispatch(task, 0, /*cut_through=*/false);
}

void HostProtocol::start_serialized(const TaskPtr& task) {
  // Credit-scheme messages already carry the manager's sequence number.
  if (task->seq < 0) task->seq = seq_counters_[task->group]++;
  deliver_locally(task);
  // The relay send lives at the origin, not here: install the
  // circuit/tree successors.
  task->sends = plan_successors(*task, /*incoming_class=*/0,
                                /*at_serializer=*/true, kNoHost);
  launch_sends(task, /*allow_cut_through=*/false);
  maybe_release(task);
}

// --- successor planning ------------------------------------------------------

std::vector<HostProtocol::Task::Send> HostProtocol::plan_successors(
    const Task& task, int incoming_class, bool at_serializer,
    HostId from) const {
  std::vector<Task::Send> sends;
  const HostId origin = task.origin;
  const auto add = [&](HostId to, int cls) -> Task::Send& {
    return sends.emplace_back(task.send_to(to, cls));
  };

  if (scheme_uses_circuit(config_.scheme)) {
    const CircuitTable& circuit = tables_.circuit(task.group);
    const int members = circuit.size();
    int hops;
    if (from == kNoHost) {
      // Start of the circuit (originator or serializer).
      if (at_serializer) {
        hops = members - 1;
        // Skip the final hop when it would only return the message to its
        // originator (who already has the payload).
        if (origin == circuit.highest() && origin != host_) --hops;
      } else {
        hops = members - 1 + (config_.circuit_confirm ? 1 : 0);
      }
    } else {
      hops = task.hops_remaining - 1;
    }
    if (hops >= 1) {
      const HostId to = circuit.next(host_);
      // A serialized circuit runs from its lowest member up to its highest
      // and never wraps. A budget sized before a splice upstream would take
      // one stale hop back into the serializer's relay buffers (class 1),
      // whose class-0 forwards wait on this very chain: a buffer cycle.
      if (config_.total_ordering && to < host_) return sends;
      // Class 0 while host IDs ascend; class 1 from the wrap-around on
      // (the single ID-order reversal, Figure 7).
      add(to, (to > host_) ? incoming_class : 1).header.hops_remaining = hops;
    }
    return sends;
  }

  // Tree schemes.
  const TreeTable& tree = tables_.tree(task.group);
  const auto add_child = [&](HostId child, int cls) {
    // A leaf child that is the message's originator needs no copy.
    if (child == origin && tree.children(child).empty()) return;
    add(child, cls);
  };

  if (config_.scheme == Scheme::kTreeBroadcast) {
    // Flood away from `from`: climb copies use class 0, descents class 1
    // (one class while climbing, the other while descending; Section 6).
    const bool arrived_from_child = (from != kNoHost && from > host_);
    const bool at_origin = (from == kNoHost);
    if ((at_origin || arrived_from_child) && host_ != tree.root())
      add(tree.parent(host_), 0);
    const bool descending = (from != kNoHost && from < host_);
    for (const HostId child : tree.children(host_)) {
      if (child == from) continue;
      if (descending || at_origin || arrived_from_child) add_child(child, 1);
    }
    return sends;
  }

  // Root-serialized tree: pure descent, single class.
  for (const HostId child : tree.children(host_)) add_child(child, 0);
  return sends;
}

// --- reception ---------------------------------------------------------------

bool HostProtocol::is_confirmation(const McastHeader& h) const {
  // A circuit worm that returned to its originator with no hop budget left
  // is the delivery confirmation (Section 5). On a serialized circuit or a
  // tree the originator's own copy can arrive mid-structure and must still
  // be forwarded.
  return scheme_uses_circuit(config_.scheme) && h.origin == host_ &&
         !h.relay_phase && h.hops_remaining <= 1;
}

DedupWindow& HostProtocol::dedup_for(GroupId g) {
  return done_.try_emplace(g, kDedupWindow).first->second;
}

RxDecision HostProtocol::on_rx_head(const WormPtr& worm,
                                    const std::shared_ptr<RxProgress>& rx) {
  if (dead_) return RxDecision::kDrop;  // a crashed LANai ACKs nothing
  note_heard(worm->src);
  maybe_arm_prober();
  if (worm->kind == WormKind::kAck || worm->kind == WormKind::kNack ||
      worm->kind == WormKind::kProbe || worm->kind == WormKind::kProbeAck)
    return RxDecision::kAccept;
  if (!worm->mcast.has_value()) return RxDecision::kAccept;  // plain unicast
  if (worm->mcast->credit != CreditOp::kNone)
    return RxDecision::kAccept;  // credit control traffic

  const McastHeader& h = *worm->mcast;
  const bool recovery = recovery_enabled();
  if (recovery) {
    // Duplicate suppression: a retransmitted copy whose predecessor's ACK
    // was lost must be re-ACKed — its sender is still waiting — but never
    // re-delivered or re-forwarded. The same holds for a copy of a message
    // this host still has a task for once the first copy fully arrived
    // (the task lingers only for its own forwards — common right after a
    // repair retargets senders); while the first copy is still arriving
    // the sender's timeout was merely premature, so drop silently — the
    // ACK goes out when the first copy completes.
    const bool done =
        dedup_for(h.group).contains(dedup_key(h.message_id, h.relay_phase));
    const auto existing = tasks_.find(h.message_id);
    if (done || (!is_confirmation(h) && existing != tasks_.end())) {
      ++metrics_.counts.duplicates_suppressed;
      WORMTRACE(sim_, kProtoDuplicate, host_, -1, worm->id, worm->src);
      if (done || existing->second->rx_complete)
        adapter_.send_control(make_control_worm(WormKind::kAck, worm));
      return RxDecision::kDrop;
    }
  }
  if (is_confirmation(h)) {
    // Circuit-confirmation copy returning to its originator; terminates
    // here, no forwarding buffer needed. In recovery mode the ACK waits for
    // full reception (an ACK-on-head could vouch for a truncated worm).
    if (config_.reservation && !recovery)
      adapter_.send_control(make_control_worm(WormKind::kAck, worm));
    return RxDecision::kAccept;
  }

  if (!tables_.is_member(h.group, host_)) {
    // Not (or no longer) a member: a copy raced a voluntary leave. ACK it
    // away so the sender stops retrying — the membership repair already
    // retargeted the structure past this host — and never buffer it.
    if (config_.reservation)
      adapter_.send_control(make_control_worm(WormKind::kAck, worm));
    return RxDecision::kDrop;
  }

  const int cls = config_.buffer_classes ? h.buffer_class : 0;
  const std::int64_t reserve_bytes =
      std::max(worm->payload, config_.input_slot_bytes);
  if (!pool_.try_reserve(cls, reserve_bytes)) {
    if (config_.reservation) {
      ++metrics_.counts.nacks;
      adapter_.send_control(make_control_worm(WormKind::kNack, worm));
    } else {
      ++metrics_.counts.mcast_drops;
    }
    return RxDecision::kDrop;
  }
  WORMTRACE(sim_, kProtoReserve, host_, -1, worm->id, reserve_bytes);

  auto task = std::make_shared<Task>();
  task->ctx = worm->message;
  task->group = h.group;
  task->message_id = h.message_id;
  task->origin = h.origin;
  task->payload = worm->payload;
  task->seq = h.seq;
  task->hops_remaining = h.hops_remaining;
  task->rx = rx;
  task->cls = cls;
  task->reserved = reserve_bytes;
  assert(tasks_.find(task->message_id) == tasks_.end() &&
         "duplicate task for message at this adapter");
  tasks_.emplace(task->message_id, task);

  if (config_.reservation && !recovery)
    adapter_.send_control(make_control_worm(WormKind::kAck, worm));

  if (!h.relay_phase) {
    task->sends = plan_successors(*task, h.buffer_class,
                                  /*at_serializer=*/false, worm->src);
    // Cut-through: start forwarding to the first successor immediately,
    // while the worm is still arriving (Sections 5-6).
    if (scheme_cut_through(config_.scheme) && config_.reservation)
      launch_sends(task, /*allow_cut_through=*/true);
  }
  return RxDecision::kAccept;
}

void HostProtocol::on_rx_complete(const WormPtr& worm,
                                  std::int64_t payload_bytes) {
  if (dead_) return;
  note_heard(worm->src);
  switch (worm->kind) {
    case WormKind::kAck:
      handle_ack(worm);
      return;
    case WormKind::kNack:
      handle_nack(worm);
      return;
    case WormKind::kProbe:
      adapter_.send_control(make_worm(WormKind::kProbeAck, worm->src,
                                      kControlPayloadBytes, kMcastHeaderBytes,
                                      0));
      return;
    case WormKind::kProbeAck:
      return;  // note_heard above is the whole point
    case WormKind::kSwitchMcast: {
      // Fabric-replicated delivery: reassemble fragments per message and
      // deliver once the full payload has arrived. The source's own flood
      // copy (broadcast reaches every host) is not a delivery.
      const auto& ctx = worm->message;
      if (worm->src == host_) return;
      std::int64_t& got = switch_mcast_rx_[ctx->message_id];
      got += payload_bytes;
      assert(got <= ctx->payload && "switch mcast over-delivery");
      if (got == ctx->payload) {
        switch_mcast_rx_.erase(ctx->message_id);
        deliver(ctx, ctx->origin);
      }
      return;
    }
    case WormKind::kData:
      break;
  }
  if (!worm->mcast.has_value()) {
    // Plain unicast delivery (includes the repeated-unicast baseline).
    deliver(worm->message, worm->src);
    return;
  }
  handle_mcast_data(worm);
}

void HostProtocol::handle_mcast_data(const WormPtr& worm) {
  if (worm->mcast->credit != CreditOp::kNone) {
    handle_credit_op(worm);
    return;
  }
  const McastHeader& h = *worm->mcast;
  // Recovery mode acknowledges on *full* reception, now that the worm
  // provably survived the fabric, and remembers the completion so a
  // retransmitted duplicate is re-ACKed instead of re-processed.
  if (is_confirmation(h)) {
    if (recovery_enabled()) {
      dedup_for(h.group).insert(dedup_key(h.message_id, h.relay_phase));
      adapter_.send_control(make_control_worm(WormKind::kAck, worm));
    }
    return;
  }
  const auto it = tasks_.find(h.message_id);
  assert(it != tasks_.end() && "mcast completion without task");
  TaskPtr task = it->second;
  task->rx_complete = true;
  if (recovery_enabled()) {
    // A completed copy of the *other* phase means this host already handed
    // the payload up: a rescued relay copy can land on a new serializer
    // that received the old root's flood (and vice versa for a straggler
    // flood copy behind a processed relay). Forwarding duties remain —
    // orphaned subtrees may depend on the re-flood — but the local
    // delivery must not repeat.
    DedupWindow& done = dedup_for(h.group);
    if (done.contains(dedup_key(h.message_id, !h.relay_phase)))
      task->delivered = true;
    done.insert(dedup_key(h.message_id, h.relay_phase));
    adapter_.send_control(make_control_worm(WormKind::kAck, worm));
  }

  if (h.relay_phase) {
    if (!tables_.is_member(h.group, host_)) {
      // This host left the group (and its serializer role) while the relay
      // was arriving. It still holds the full payload, so pass the relay on
      // to the current serializer rather than strand the message.
      task->delivered = true;  // an ex-member is not a destination
      relay_to_serializer(task);
      return;
    }
    // We are the serializer: stamp the sequence number and start the
    // multicast proper.
    start_serialized(task);
    return;
  }

  deliver_locally(task);
  launch_sends(task, /*allow_cut_through=*/false);
  maybe_release(task);
}

void HostProtocol::deliver_locally(const TaskPtr& task) {
  if (task->delivered) return;
  task->delivered = true;
  if (task->origin == host_) return;  // own payload came back around
  const auto floor = view_floor_.find(task->group);
  if (floor != view_floor_.end() && task->ctx->created_at < floor->second)
    return;  // pre-join message: forward-only, this host is not a destination
  deliver(task->ctx, task->origin);
}

void HostProtocol::deliver(const std::shared_ptr<MessageContext>& ctx,
                           HostId from) {
  WORMTRACE(sim_, kProtoDeliver, host_, -1, ctx->message_id, from);
  metrics_.on_delivered(ctx, host_, sim_.now());
  if (ctx->group != kNoGroup)
    metrics_.record_order(host_, ctx->group, ctx->message_id);
}

void HostProtocol::on_rx_truncated(const WormPtr& worm) {
  // A worm that lost its tail to an injected fault. The accepted bytes are
  // discarded; any forwarding state the head created is torn down so the
  // reservation drains back to the pool. The upstream sender never gets an
  // ACK (recovery mode only ACKs full receptions) and its timeout drives
  // the retransmission.
  if (worm->kind != WormKind::kData || !worm->mcast.has_value()) return;
  if (worm->mcast->credit != CreditOp::kNone) return;
  const auto it = tasks_.find(worm->mcast->message_id);
  if (it == tasks_.end()) return;  // confirmation / never-accepted copy
  const TaskPtr task = it->second;
  // Only the task created by *this* reception: a duplicate stub arriving
  // after the first copy completed must not kill the live task.
  if (task->rx == nullptr || !task->rx->truncated) return;
  abort_task(task);
}

}  // namespace wormcast

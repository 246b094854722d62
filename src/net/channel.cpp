#include "net/channel.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace wormcast {

void Channel::attach_feed(ByteFeed* feed) {
  assert(feed_ == nullptr && "channel already has a feed");
  feed_ = feed;
  kick();
}

void Channel::detach_feed() {
  assert(feed_ != nullptr);
  feed_ = nullptr;
  unpark();  // as the void event it stands for (see pump_at)
  // A pump the feed self-scheduled for a later tick (a branch waiting for
  // its route encoding) must not swallow the next feed's kick: it is void
  // from now on, and the next feed schedules its own.
  pump_scheduled_ = false;
}

void Channel::kick() {
  if (feed_ == nullptr || stopped_) return;
  if (parked_key_ != 0 && sim_.yet_to_fire(pump_at_, parked_key_)) {
    if (!feed_->waits_for_kick()) unpark();  // runs in its own slot
    return;
  }
  parked_key_ = 0;  // one whose slot has passed would have found nothing
  if (!pump_scheduled_) schedule_pump();
}

void Channel::schedule_pump() {
  // Respect the one-byte-per-byte-time line rate. After a run committed
  // through last_send_, the next pump lands right after the run.
  const Time when = std::max(sim_.now(), last_send_ + 1);
  // A STOP in effect by then would idle that pump; the GO's kick re-arms.
  if (!stop_landings_.empty() && stop_landings_.front() <= when) return;
  // Late class: a pump scheduled a whole run ahead must still run after
  // the same-tick deliveries and protocol events, exactly like a per-byte
  // pump scheduled one byte-time ahead would.
  pump_at_ = when;
  parked_key_ = sim_.reserve_key(/*late=*/true);
  if (!feed_->waits_for_kick()) unpark();  // else it would find nothing
}

void Channel::pump_at(Time when, std::uint64_t key) {
  pump_scheduled_ = true;
  pump_at_ = when;
  sim_.at_keyed(when, key, [this] {
    // Void unless a pump is due now; a void event (its feed detached)
    // runs the next feed's pump, inserted or parked, in its tick.
    if (pump_at_ == sim_.now() && (pump_scheduled_ || parked_key_ != 0))
      pump();
  });
}

void Channel::unpark() {
  if (parked_key_ != 0 && sim_.yet_to_fire(pump_at_, parked_key_))
    pump_at(pump_at_, parked_key_);
  parked_key_ = 0;
}

std::int64_t Channel::bytes_sent() const {
  // A run committed at t counts its bytes at logical times t..t+n-1;
  // subtract the not-yet-logically-sent tail so mid-run reads (the
  // utilization window edges) match per-byte stepping exactly.
  const Time pending = std::max<Time>(0, last_send_ - sim_.now());
  return bytes_sent_ - (last_run_swallowed_ ? 0 : pending);
}

std::int64_t Channel::bytes_swallowed() const {
  const Time pending = std::max<Time>(0, last_send_ - sim_.now());
  return bytes_swallowed_ - (last_run_swallowed_ ? pending : 0);
}

void Channel::pump() {
  pump_scheduled_ = false;
  parked_key_ = 0;
  if (feed_ == nullptr || stopped_) return;
  // Every pump is set for last_send_ + 1 or later, and pump_at_ voids a
  // stale one, so this tick is never already claimed.
  assert(last_send_ < sim_.now());
  const std::int64_t run = feed_->run_available();
  if (run == 0) {
    // Starved either for a kick (feed will call kick() when ready) or, for
    // a multicast branch only, by input bytes that have not logically
    // arrived yet: no kick will come then, so self-schedule at the arrival.
    const Time next = feed_->next_byte_time();
    if (next != kTimeNever)
      pump_at(std::max(next, last_send_ + 1), sim_.reserve_key(/*late=*/true));
    return;
  }
  // A feed's run of n > 1 is plain body bytes of a worm whose fault mode
  // its head fixed; the channel's own limits cut it, down to one byte in
  // per-byte mode.
  const std::int64_t n =
      run > 1 ? std::max<std::int64_t>(1, std::min(run, burst_headroom())) : 1;

  // Claim this tick before calling into the feed: take() can re-entrantly
  // kick() this channel (a multicast branch's single-byte take kicks its
  // connection's branch channels), and that kick must see last_send_
  // current so it schedules the next tick, not this one.
  last_send_ = sim_.now();
  TxByte b = feed_->take(n);
  assert(b.count == n);
  last_send_ = sim_.now() + n - 1;  // logical sends at now .. now+n-1
  if (b.head) {
    tx_worm_ = b.worm.get();
    if (faults_ != nullptr && faults_->armed()) classify_fault(b);
  }
  if (sim_.tracer().enabled()) {
    if (b.head) {
      trace_worm_ = b.worm != nullptr ? b.worm->id : 0;
      sim_.tracer().record(sim_.now(), TraceEventType::kChanHead, trace_node_,
                           trace_port_, trace_worm_, b.wire_len);
      if (fault_mode_ == FaultMode::kSwallow)
        sim_.tracer().record(sim_.now(), TraceEventType::kChanSwallow,
                             trace_node_, trace_port_, trace_worm_, 0);
    }
    if (n > 1)
      sim_.tracer().record(sim_.now(), TraceEventType::kChanBurst,
                           trace_node_, trace_port_, trace_worm_, n);
    if (b.tail)
      sim_.tracer().record(sim_.now(), TraceEventType::kChanTail, trace_node_,
                           trace_port_, trace_worm_, 0);
  }

  // A truncated worm delivers fault_pass_left_ bytes and synthesizes a tail
  // on the last (a run never reaches it: burst_headroom() stops short).
  bool deliver = fault_mode_ != FaultMode::kSwallow;
  bool synth_tail = false;
  if (fault_mode_ == FaultMode::kTruncate) {
    deliver = fault_pass_left_ > 0;
    if (deliver) {
      fault_pass_left_ -= n;
      synth_tail = (fault_pass_left_ == 0);
    }
  }
  if (deliver) {
    bytes_sent_ += n;
    last_run_swallowed_ = false;
    enqueue_delivery(InFlight{b.head, b.tail || synth_tail, std::move(b.worm),
                              b.wire_len, n});
  } else {
    // Swallowed bytes still count as global progress: the transmitter is
    // draining, so the network is not deadlocked, merely lossy.
    bytes_swallowed_ += n;
    last_run_swallowed_ = true;
    sim_.note_progress(n);
  }

  if (b.tail) {
    fault_mode_ = FaultMode::kNone;
    ByteFeed* done = feed_;
    feed_ = nullptr;
    done->on_tail_sent();  // may attach a new feed (re-entrant safe)
  } else if (!pump_scheduled_ && parked_key_ == 0) {
    schedule_pump();  // unless a re-entrant kick already did
  }
}

std::int64_t Channel::burst_headroom() const {
  if (!burst_ || feed_ == nullptr || stopped_ || last_send_ >= sim_.now())
    return 0;
  // The synthesized-tail byte of a truncated worm (and everything after
  // it) steps per-byte; a swallowed worm reaches no sink.
  std::int64_t cap = fault_mode_ == FaultMode::kTruncate
                         ? fault_pass_left_ - 1
                         : std::numeric_limits<std::int64_t>::max();
  if (fault_mode_ == FaultMode::kSwallow) return cap;
  // A STOP in flight halts the transmitter from its landing tick on.
  if (!stop_landings_.empty())
    cap = std::min(cap, stop_landings_.front() - sim_.now());
  // An established worm: no STOP can be decided on its bytes again, so
  // the receiver's budget does not bind (DESIGN §6b). This channel's own
  // STOPs and fault mode are already in the cap.
  if (tx_worm_ != nullptr && sink_->drains_freely(*tx_worm_)) return cap;
  return std::min(cap, sink_->rx_burst_budget(in_flight_bytes_));
}

bool Channel::drains_freely(const Worm& worm) const {
  return !stopped_ && stop_landings_.empty() &&
         (faults_ == nullptr || !faults_->armed()) &&
         sink_->drains_freely(worm);
}

void Channel::classify_fault(const TxByte& b) {
  fault_mode_ = FaultMode::kNone;
  const WormPtr& w = b.worm;
  if (faults_->link_down(this, sim_.now())) {
    faults_->note_outage_drop();  // this head byte IS a discarded worm
    fault_mode_ = FaultMode::kSwallow;
    return;
  }
  if (w->kind == WormKind::kAck || w->kind == WormKind::kNack ||
      w->kind == WormKind::kProbe || w->kind == WormKind::kProbeAck) {
    if (faults_->should_drop_control(w->id, sim_.now()))
      fault_mode_ = FaultMode::kSwallow;
    return;
  }
  // Only plain data worms are eligible for mid-flight kills: switch-level
  // multicast worms (advisory framing, no end-to-end recovery protocol) and
  // credit-scheme control worms are exempt.
  if (w->kind != WormKind::kData) return;
  if (w->mcast.has_value() && w->mcast->credit != CreditOp::kNone) return;
  if (w->truncated) return;  // already killed upstream
  // A truncated stub must stay frameable: each remaining switch strips one
  // route byte and the final adapter still needs a head and a tail byte.
  // Subtract in signed space: an offset past the route end must fail loudly,
  // not wrap to a huge hop count.
  const std::int64_t remaining_hops =
      static_cast<std::int64_t>(w->route.size()) -
      static_cast<std::int64_t>(w->route_offset);
  assert(remaining_hops >= 0 && "route offset past end of route");
  const std::int64_t min_len = remaining_hops + 2;
  if (b.wire_len - 1 < min_len) return;  // too short to kill cleanly
  if (!faults_->should_kill_worm(w->dst, w->id, sim_.now())) return;
  w->truncated = true;
  fault_mode_ = FaultMode::kTruncate;
  fault_pass_left_ =
      faults_->pick_truncation(min_len, b.wire_len - 1, w->id, sim_.now());
}

void Channel::enqueue_delivery(InFlight b) {
  b.land = sim_.now() + delay_;
  b.key = sim_.reserve_key();
  in_flight_bytes_ += b.count;
  // A plain body run landing where the lane's last one ends extends it
  // (its key goes unused): the sink takes it one byte per byte-time from
  // the same first landing (DESIGN §6b, lane coalescing).
  if (burst_ && delay_ > kRoutingLatency && !b.head && !b.tail &&
      !in_flight_.empty()) {
    InFlight& last = in_flight_.back();
    if (!last.head && !last.tail && last.land + last.count == b.land) {
      last.count += b.count;
      return;
    }
  }
  in_flight_.push_back(std::move(b));
  if (in_flight_.size() == 1) schedule_lane_head();
}

void Channel::schedule_lane_head() {
  const InFlight& f = in_flight_.front();
  sim_.at_keyed(f.land, f.key, [this] { deliver_front(); });
}

void Channel::deliver_front() {
  assert(!in_flight_.empty());
  const InFlight b = std::move(in_flight_.front());
  in_flight_.pop_front();
  in_flight_bytes_ -= b.count;
  // Promote the next run before handing this one over, so the lane has
  // its head queued whatever the sink does. The delay is fixed, so
  // neither the landing time nor the key goes back along the lane.
  if (!in_flight_.empty()) {
    assert(in_flight_.front().land >= b.land && in_flight_.front().key > b.key);
    schedule_lane_head();
  }
  sim_.note_progress(b.count);
  assert(sink_ != nullptr && "channel delivered into the void");
  if (b.head)
    sink_->on_head(b.worm, b.wire_len, b.tail);
  else
    sink_->on_body(b.count, b.tail);
}

void Channel::signal_stop() {
  stop_landings_.push_back(sim_.now() + delay_);
  sim_.after(delay_, [this] {
    stop_landings_.erase(stop_landings_.begin());
    stopped_ = true;
    WORMTRACE(sim_, kChanStop, trace_node_, trace_port_, trace_worm_, 0);
  });
}

void Channel::signal_go() {
  sim_.after(delay_, [this] {
    stopped_ = false;
    WORMTRACE(sim_, kChanGo, trace_node_, trace_port_, trace_worm_, 0);
    kick();
  });
}

}  // namespace wormcast

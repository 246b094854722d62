#include "net/switch_rt.h"

#include <cassert>
#include <iterator>
#include <limits>
#include <stdexcept>

#include "net/switch_mcast_engine.h"
#include "net/topology.h"
#include "sim/trace.h"

namespace wormcast {

InPort::InPort(SwitchRt& sw, PortId port) : sw_(sw), port_(port) {}

void InPort::on_head(const WormPtr& worm, std::int64_t wire_len, bool tail) {
  assert(wire_len >= 2 && "worm must carry at least payload + trailer");
  // Single-byte worms are trailer-only multicast fragments; they occur only
  // on host-bound ports (switch-bound fragments always lead with at least
  // one route byte the next switch consumes).
  assert(!tail && "single-byte worm at a switch input");
  (void)tail;
  const Time now = sw_.sim().now();
  rx_queue_.push_back(RxWorm{worm, wire_len, 1, false});
  rx_queue_.back().run_end = now;
  ++buffered_;
  arrive_end_ = now;
  check_arrival();
  if (rx_queue_.size() == 1) begin_routing();
  schedule_checks();
}

void InPort::on_body(std::int64_t n, bool tail) {
  assert(!rx_queue_.empty());
  assert((n == 1 || !tail) && "a tail arrives alone");
  const Time now = sw_.sim().now();
  RxWorm& rx = rx_queue_.back();
  rx.received += n;
  rx.run_end = now + n - 1;
  if (tail) rx.tail_seen = true;
  if (rx.discard) {
    // Flushed worm: swallow the bytes. When fully drained and it is still
    // the front, retire it.
    if (tail && &rx == &rx_queue_.front()) {
      rx_queue_.pop_front();
      if (!rx_queue_.empty()) begin_routing();
    }
    return;
  }
  // The run's first byte arrives now; the rest arrive at their logical
  // ticks, where schedule_checks() puts any decision they could trigger.
  buffered_ += n;
  arrive_end_ = rx.run_end;
  check_arrival();
  if (connected_ && &rx == &rx_queue_.front()) {
    sw_.out_port(out_port_).channel->kick();
  } else if (mcast_conn_ != nullptr && &rx == &rx_queue_.front()) {
    sw_.mcast_engine()->on_input_bytes(*this);
  }
  schedule_checks();
}

void InPort::begin_routing() {
  assert(!rx_queue_.empty() && !rx_queue_.front().routed);
  sw_.sim().after(kRoutingLatency, [this] { do_route(); });
}

void InPort::do_route() {
  assert(!rx_queue_.empty());
  // Per-byte stepping delivers a byte arriving this tick before this event
  // (its delivery was keyed d > kRoutingLatency ticks ago; shorter links
  // take no lookahead runs, so no decision can fall on such a byte).
  check_arrival();
  RxWorm& front = rx_queue_.front();
  assert(!front.routed);
  front.routed = true;
  // The route byte is consumed (stripped) by the routing decision.
  --buffered_;
  check_go();

  if (front.worm->kind == WormKind::kSwitchMcast &&
      front.worm->route_offset >= front.worm->route.size()) {
    // Tree-encoded multicast, or a broadcast worm that has finished its
    // climb to the flood point: hand over to the multicast engine.
    SwitchMcastEngine* engine = sw_.mcast_engine();
    if (engine == nullptr)
      throw std::logic_error("switch-level multicast worm but no engine installed");
    engine->start(*this);  // sets mcast_conn_
  } else {
    // Unicast forwarding (also the climb phase of a broadcast worm).
    const SourceRoute& route = front.worm->route;
    assert(front.worm->route_offset < route.size() && "source route exhausted");
    const PortId out = route.at(front.worm->route_offset++);
    assert(out >= 0 && out < static_cast<PortId>(sw_.n_ports()));
    sw_.request_output(*this, out);
  }
  schedule_checks();
}

std::int64_t InPort::front_available() const {
  return (front_arrived() - 1) - forwarded_;
}

std::int64_t InPort::front_arrived() const {
  const RxWorm& front = rx_queue_.front();
  const Time pending = std::max<Time>(0, front.run_end - sw_.sim().now());
  return front.received - pending;
}

std::int64_t InPort::occupancy(Time s) const {
  return buffered_ - std::max<Time>(0, arrive_end_ - s) +
         std::max<Time>(0, drain_end_ - s);
}

std::int64_t InPort::buffered() const { return occupancy(sw_.sim().now()); }

std::int64_t InPort::arrival_occupancy(Time s) const {
  return occupancy(s) + (drain_end_ >= s ? 1 : 0);
}

std::int64_t InPort::rx_burst_budget(std::int64_t in_flight) const {
  const SwitchConfig& cfg = sw_.config();
  const Time delay = sw_.in_channel(port_)->delay();
  const std::int64_t lookahead = delay > kRoutingLatency ? delay : 0;
  if (stop_sent_) return lookahead;
  // With nothing more leaving than is already released, the byte arriving
  // at any later tick sees at most buffered_ + in_flight + run. While
  // released bytes still leave it sees one above the occupancy now, which
  // reaches K_s - 1 only in the tick of a GO whose STOP still stands at the
  // transmitter and so already cuts the run (DESIGN §6b).
  return std::max(lookahead, cfg.stop_threshold - 1 - buffered_ - in_flight);
}

bool InPort::drains_freely(const Worm& worm) const {
  if (rx_queue_.size() != 1 || rx_queue_.front().worm.get() != &worm ||
      stop_sent_ ||
      occupancy(sw_.sim().now()) + 1 >= sw_.config().stop_threshold)
    return false;
  if (connected_) return sw_.out_port(out_port_).channel->drains_freely(worm);
  return mcast_conn_ != nullptr &&
         sw_.mcast_engine()->drains_freely(*mcast_conn_);
}

std::int64_t InPort::run_available() const {
  if (!connected_ || rx_queue_.empty() || front_available() < 1) return 0;
  if (forwarded_ == 0) return 1;  // the head
  const RxWorm& front = rx_queue_.front();
  // All physically buffered bytes of the front worm are committable once one
  // has logically arrived: pending bytes arrive exactly one per byte-time,
  // matching the send rate. The tail byte steps alone.
  std::int64_t n = (front.received - 1) - forwarded_;
  if (front.tail_seen) --n;
  return std::max<std::int64_t>(1, n);
}

TxByte InPort::take(std::int64_t n) {
  assert(n >= 1 && n <= run_available());
  RxWorm& front = rx_queue_.front();
  TxByte b;
  b.count = n;
  b.head = (forwarded_ == 0);
  if (b.head) {
    b.worm = front.worm;
    b.wire_len = front.wire_len - 1;  // route byte stripped at this switch
  }
  forwarded_ += n;
  // Framing is tail-driven: the incoming tail symbol is authoritative (the
  // declared wire length is advisory — scheme (b) fragments end early).
  b.tail = front.tail_seen && (forwarded_ == front.received - 1);
  // The run's newest byte leaves at now + n - 1 (multicast-IDLE detection
  // compares against "last activity", so a future stamp is conservative
  // and exact once the run completes).
  sw_.out_port(out_port_).last_data_byte = sw_.sim().now() + n - 1;
  release(n, sw_.sim().now());
  return b;
}

void InPort::on_tail_sent() {
  assert(connected_ && !rx_queue_.empty());
  assert(rx_queue_.front().tail_seen);
  rx_queue_.pop_front();
  connected_ = false;
  const PortId done = out_port_;
  out_port_ = kNoPort;
  forwarded_ = 0;
  sw_.release_output(done);
  if (!rx_queue_.empty()) begin_routing();
}

void InPort::granted(PortId out_port) {
  assert(!connected_);
  connected_ = true;
  out_port_ = out_port;
  forwarded_ = 0;
}

void InPort::mcast_consume(std::int64_t n) {
  buffered_ -= n;
  check_go();
  schedule_checks();
}

void InPort::release(std::int64_t n, Time first) {
  assert(first >= sw_.sim().now() && drain_end_ < first &&
         "one release at a time, in tick order");
  buffered_ -= n;
  drain_end_ = first + n - 1;
  check_go();
  schedule_checks();
}

void InPort::flush_front(bool arrival_first) {
  assert(!rx_queue_.empty());
  RxWorm& front = rx_queue_.front();
  assert(front.routed && !connected_ && mcast_conn_ == nullptr &&
         "can only flush a worm waiting for an output");
  if (arrival_first) check_arrival();
  front.worm->flushed = true;
  // Drop the bytes already buffered; the rest of the worm drains out of the
  // network as it arrives and is swallowed byte by byte.
  const std::int64_t held = front.received - 1;  // route byte already consumed
  buffered_ -= held;
  if (!front.tail_seen) {
    // The front is also the worm still arriving: its landed bytes that
    // have not logically arrived are swallowed too.
    const Time now = sw_.sim().now();
    arrive_end_ = std::min(arrive_end_, stop_checked_ >= now ? now : now - 1);
  }
  check_go();
  if (front.tail_seen) {
    rx_queue_.pop_front();
    if (!rx_queue_.empty()) begin_routing();
  } else {
    front.discard = true;
  }
  schedule_checks();
}

void InPort::mcast_finish_front() {
  assert(mcast_conn_ != nullptr && !rx_queue_.empty());
  rx_queue_.pop_front();
  mcast_conn_ = nullptr;
  if (!rx_queue_.empty()) begin_routing();
}

void InPort::check_arrival() {
  const Time now = sw_.sim().now();
  if (stop_checked_ >= now || arrive_end_ < now) return;
  stop_checked_ = now;
  const std::int64_t occ = arrival_occupancy(now);
  if (occ > sw_.slack_capacity(port_)) sw_.note_overflow();
  if (!stop_sent_ && occ >= sw_.config().stop_threshold) {
    stop_sent_ = true;
    sw_.in_channel(port_)->signal_stop();
  }
}

void InPort::check_go() {
  if (stop_sent_ && occupancy(sw_.sim().now()) <= sw_.config().go_threshold) {
    stop_sent_ = false;
    sw_.in_channel(port_)->signal_go();
  }
}

void InPort::schedule_checks() {
  const Time now = sw_.sim().now();
  // A pending arrival sees a nondecreasing occupancy (each tick adds its
  // byte and removes at most one released byte), so the last one bounds
  // them all and the first at the limit is where a decision can fall.
  const Time first = std::max(now, stop_checked_) + 1;
  const std::int64_t limit = stop_sent_ ? sw_.slack_capacity(port_) + 1
                                        : sw_.config().stop_threshold;
  // An established worm's pending arrivals can reach no threshold.
  if (first <= arrive_end_ && arrival_occupancy(arrive_end_) >= limit &&
      (rx_queue_.empty() || !drains_freely(*rx_queue_.back().worm))) {
    Time at = first;
    while (arrival_occupancy(at) < limit) ++at;
    arm_check(arrival_check_at_, at, /*late=*/false);
  }
  // Likewise a pending removal sees a nonincreasing occupancy.
  const std::int64_t go = sw_.config().go_threshold;
  if (stop_sent_ && drain_end_ >= now && occupancy(drain_end_) <= go) {
    Time at = now;
    while (occupancy(at) > go) ++at;
    arm_check(go_check_at_, at, /*late=*/true);
  }
}

void InPort::arm_check(Time& armed, Time at, bool late) {
  Simulator& sim = sw_.sim();
  if (armed >= sim.now() && armed <= at) return;  // that one re-arms
  armed = at;
  auto check = [this, &armed, late] {
    if (armed == sw_.sim().now()) armed = kTimeNever;
    if (late) {
      check_go();  // a released byte left in the late class
    } else {
      check_arrival();
    }
    schedule_checks();
  };
  if (late) {
    sim.at_late(at, check);
  } else {
    sim.at(at, check);
  }
}

// --- SwitchRt ---------------------------------------------------------------

SwitchRt::SwitchRt(Simulator& sim, NodeId node, int n_ports, SwitchConfig config)
    : sim_(sim), node_(node), config_(config) {
  if (config_.go_threshold >= config_.stop_threshold)
    throw std::logic_error("GO threshold must be below STOP threshold");
  in_ports_.reserve(static_cast<std::size_t>(n_ports));
  for (PortId p = 0; p < n_ports; ++p)
    in_ports_.push_back(std::make_unique<InPort>(*this, p));
  out_ports_.resize(static_cast<std::size_t>(n_ports));
  in_channels_.resize(static_cast<std::size_t>(n_ports), nullptr);
}

SwitchRt::~SwitchRt() = default;

void SwitchRt::set_channels(PortId p, Channel* in, Channel* out) {
  in_channels_[p] = in;
  out_ports_[p].channel = out;
  in->set_sink(in_ports_[p].get());
}

RxSink* SwitchRt::sink(PortId p) { return in_ports_[p].get(); }

void SwitchRt::request_output(InPort& in, PortId out) {
  OutPort& op = out_ports_[out];
  if (op.held_by_mcast && mcast_engine_ != nullptr &&
      mcast_engine_->maybe_flush_unicast(*this, in, out)) {
    return;  // the unicast was flushed; nothing to queue
  }
  in.request_time_ = sim_.now();
  op.waiters.push_back(&in);
  if (!op.busy && !op.held_by_mcast) schedule_arbitration(out);
}

void SwitchRt::schedule_arbitration(PortId out) {
  OutPort& op = out_ports_[out];
  if (op.arb_pending) return;
  op.arb_pending = true;
  sim_.after(0, [this, out] {
    out_ports_[out].arb_pending = false;
    grant_next(out);
  });
}

void SwitchRt::grant_next(PortId out) {
  OutPort& op = out_ports_[out];
  if (op.busy || op.held_by_mcast) return;
  // Multicast branches re-acquire first (they resume an in-flight worm).
  if (!op.mcast_waiters.empty()) {
    auto claim = std::move(op.mcast_waiters.front());
    op.mcast_waiters.pop_front();
    op.held_by_mcast = true;
    claim();
    return;
  }
  if (op.waiters.empty()) return;
  // Canonical winner: earliest request, in-port id breaking same-tick
  // ties. Requests that raced within one tick resolve identically no
  // matter which event happened to enqueue first.
  auto best = op.waiters.begin();
  for (auto it = std::next(best); it != op.waiters.end(); ++it) {
    if ((*it)->request_time_ < (*best)->request_time_ ||
        ((*it)->request_time_ == (*best)->request_time_ &&
         (*it)->port() < (*best)->port()))
      best = it;
  }
  InPort* next = *best;
  op.waiters.erase(best);
  op.busy = true;
  WORMTRACE(sim_, kArbGrant, node_, out,
            next->front_worm() != nullptr ? next->front_worm()->id : 0,
            next->port());
  next->granted(out);
  op.channel->attach_feed(next);
}

void SwitchRt::release_output(PortId out) {
  OutPort& op = out_ports_[out];
  assert(op.busy);
  op.busy = false;
  // Deferred like requests: a release and a request landing on the same
  // tick must resolve the same way regardless of which event ran first.
  // The tail's pump releases in the late class, after every same-tick
  // request, so with nobody waiting a pass would grant nothing; a later
  // request finds the port free and schedules its own.
  if (!op.waiters.empty() || !op.mcast_waiters.empty())
    schedule_arbitration(out);
}

bool SwitchRt::claim_output_for_mcast(PortId out, std::function<void()> on_free) {
  OutPort& op = out_ports_[out];
  if (!op.busy && !op.held_by_mcast) {
    op.held_by_mcast = true;
    return true;
  }
  op.mcast_waiters.push_back(std::move(on_free));
  return false;
}

void SwitchRt::release_mcast_output(PortId out) {
  OutPort& op = out_ports_[out];
  assert(op.held_by_mcast);
  op.held_by_mcast = false;
  schedule_arbitration(out);
}

bool SwitchRt::cancel_request(InPort& in, PortId out) {
  auto& waiters = out_ports_[out].waiters;
  for (auto it = waiters.begin(); it != waiters.end(); ++it) {
    if (*it == &in) {
      waiters.erase(it);
      return true;
    }
  }
  return false;
}

std::int64_t SwitchRt::slack_capacity(PortId p) const {
  const Channel* in = in_channels_[p];
  const Time delay = in != nullptr ? in->delay() : kDefaultLinkDelay;
  return config_.stop_threshold + 2 * delay + 4;
}

std::size_t SwitchRt::heap_bytes_estimate() const {
  std::size_t bytes = sizeof(SwitchRt) +
                      in_ports_.capacity() * sizeof(std::unique_ptr<InPort>) +
                      out_ports_.capacity() * sizeof(OutPort) +
                      in_channels_.capacity() * sizeof(Channel*);
  for (const auto& in : in_ports_)
    if (in) bytes += in->heap_bytes_estimate();
  for (const auto& out : out_ports_)
    bytes += out.waiters.heap_bytes_estimate() +
             out.mcast_waiters.heap_bytes_estimate();
  return bytes;
}

}  // namespace wormcast

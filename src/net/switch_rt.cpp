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
  rx_queue_.push_back(RxWorm{worm, wire_len, 1, false});
  rx_queue_.back().run_end = sw_.sim().now();
  ++buffered_;
  if (buffered_ > sw_.slack_capacity(port_)) sw_.note_overflow();
  check_stop();
  if (rx_queue_.size() == 1) begin_routing();
}

void InPort::on_body(std::int64_t n, bool tail) {
  assert(!rx_queue_.empty());
  assert((n == 1 || !tail) && "a tail arrives alone");
  RxWorm& rx = rx_queue_.back();
  rx.received += n;
  rx.run_end = sw_.sim().now() + n - 1;
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
  buffered_ += n;
  if (buffered_ > sw_.slack_capacity(port_)) sw_.note_overflow();
  check_stop();
  if (connected_ && &rx == &rx_queue_.front()) {
    sw_.out_port(out_port_).channel->kick();
  } else if (mcast_conn_ != nullptr && &rx == &rx_queue_.front()) {
    sw_.mcast_engine()->on_input_bytes(*this);
  }
}

void InPort::begin_routing() {
  assert(!rx_queue_.empty() && !rx_queue_.front().routed);
  sw_.sim().after(kRoutingLatency, [this] { do_route(); });
}

void InPort::do_route() {
  assert(!rx_queue_.empty());
  RxWorm& front = rx_queue_.front();
  assert(!front.routed);
  front.routed = true;
  // The route byte is consumed (stripped) by the routing decision.
  --buffered_;
  after_byte_removed();

  if (front.worm->kind == WormKind::kSwitchMcast &&
      front.worm->route_offset >= front.worm->route.size()) {
    // Tree-encoded multicast, or a broadcast worm that has finished its
    // climb to the flood point: hand over to the multicast engine.
    SwitchMcastEngine* engine = sw_.mcast_engine();
    if (engine == nullptr)
      throw std::logic_error("switch-level multicast worm but no engine installed");
    engine->start(*this);  // sets mcast_conn_
    return;
  }

  // Unicast forwarding (also the climb phase of a broadcast worm).
  const SourceRoute& route = front.worm->route;
  assert(front.worm->route_offset < route.size() && "source route exhausted");
  const PortId out = route.at(front.worm->route_offset++);
  assert(out >= 0 && out < static_cast<PortId>(sw_.n_ports()));
  sw_.request_output(*this, out);
}

std::int64_t InPort::front_available() const {
  return (front_arrived() - 1) - forwarded_;
}

std::int64_t InPort::front_arrived() const {
  const RxWorm& front = rx_queue_.front();
  const Time pending = std::max<Time>(0, front.run_end - sw_.sim().now());
  return front.received - pending;
}

std::int64_t InPort::drain_burst_limit() const {
  if (stop_sent_) return buffered_ - sw_.config().go_threshold - 1;
  if (buffered_ > sw_.config().stop_threshold - 2) return 0;
  return std::numeric_limits<std::int64_t>::max();
}

std::int64_t InPort::rx_burst_budget() const {
  // Bytes this slack buffer can absorb without the STOP threshold becoming
  // reachable even in per-byte stepping (whose transient peak during a
  // matched arrive/drain run is one byte above the committed total).
  if (stop_sent_) return 0;
  return std::max<std::int64_t>(0, sw_.config().stop_threshold - 1 - buffered_);
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
  return std::max<std::int64_t>(1, std::min(n, drain_burst_limit()));
}

Time InPort::next_byte_time() const {
  if (!connected_ || rx_queue_.empty()) return kTimeNever;
  const RxWorm& front = rx_queue_.front();
  const std::int64_t physical = (front.received - 1) - forwarded_;
  // Starved only by bytes that are buffered but not logically arrived: one
  // becomes forwardable every byte-time, and no kick will announce it.
  if (physical > 0 && front_available() <= 0) return sw_.sim().now() + 1;
  return kTimeNever;
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
  buffered_ -= n;
  after_byte_removed();
  // The run's newest byte leaves at now + n - 1 (multicast-IDLE detection
  // compares against "last activity", so a future stamp is conservative
  // and exact once the run completes).
  sw_.out_port(out_port_).last_data_byte = sw_.sim().now() + n - 1;
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
  after_byte_removed();
}

void InPort::flush_front() {
  assert(!rx_queue_.empty());
  RxWorm& front = rx_queue_.front();
  assert(front.routed && !connected_ && mcast_conn_ == nullptr &&
         "can only flush a worm waiting for an output");
  front.worm->flushed = true;
  // Drop the bytes already buffered; the rest of the worm drains out of the
  // network as it arrives and is swallowed byte by byte.
  const std::int64_t held = front.received - 1;  // route byte already consumed
  buffered_ -= held;
  after_byte_removed();
  if (front.tail_seen) {
    rx_queue_.pop_front();
    if (!rx_queue_.empty()) begin_routing();
  } else {
    front.discard = true;
  }
}

void InPort::mcast_finish_front() {
  assert(mcast_conn_ != nullptr && !rx_queue_.empty());
  rx_queue_.pop_front();
  mcast_conn_ = nullptr;
  if (!rx_queue_.empty()) begin_routing();
}

void InPort::after_byte_removed() {
  if (stop_sent_ && buffered_ <= sw_.config().go_threshold) {
    stop_sent_ = false;
    sw_.in_channel(port_)->signal_go();
  }
}

void InPort::check_stop() {
  if (!stop_sent_ && buffered_ >= sw_.config().stop_threshold) {
    stop_sent_ = true;
    sw_.in_channel(port_)->signal_stop();
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

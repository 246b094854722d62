#include "net/switch_mcast_engine.h"

#include <cassert>

#include "sim/trace.h"

namespace wormcast {

/// Pulls bytes for one branch of a connection.
class SwitchMcastEngine::BranchFeed final : public ByteFeed {
 public:
  BranchFeed(SwitchMcastEngine& engine, Conn& conn, std::size_t idx)
      : engine_(engine), conn_(conn), idx_(idx) {}

  [[nodiscard]] std::int64_t run_available() const override {
    return engine_.branch_run(conn_, idx_);
  }
  TxByte take(std::int64_t n) override {
    return engine_.branch_take(conn_, idx_, n);
  }
  void on_tail_sent() override { engine_.branch_tail_sent(conn_, idx_); }
  [[nodiscard]] Time next_byte_time() const override {
    return engine_.branch_next_byte_time(conn_, idx_);
  }
  [[nodiscard]] bool waits_for_kick() const override {
    return engine_.branch_waits_for_kick(conn_, idx_);
  }

 private:
  SwitchMcastEngine& engine_;
  Conn& conn_;
  std::size_t idx_;
};

struct SwitchMcastEngine::Branch {
  /// The branch lifecycle (switch_mcast_engine.h).
  enum class State : std::uint8_t { kIdle, kClaiming, kOpen, kClosing, kDone };

  PortId port = kNoPort;
  std::vector<std::uint8_t> prefix;  // re-sent at the start of each fragment
  bool to_host = false;              // the port leads to a host adapter
  WormPtr frag_worm;                 // current fragment's worm object
  std::int64_t body_taken = 0;       // cumulative body bytes sent
  std::int64_t frag_prefix_sent = 0;
  std::int64_t frag_sent = 0;        // bytes sent in the current fragment
  State state = State::kIdle;
  bool gang_pending = false;  // owes this tick's gang run (McastConn::gang_n)
  std::unique_ptr<BranchFeed> feed;

  /// Mid-body: the next byte is a plain body byte of an open fragment. A
  /// prefix run counts as sent when taken, but its channel sends nothing
  /// else until the run's last tick has passed (burst_headroom is 0), and
  /// the next switch's connection is mid-body only once all of it arrived.
  [[nodiscard]] bool mid_body() const {
    return state == State::kOpen && frag_sent > 0 &&
           frag_prefix_sent == static_cast<std::int64_t>(prefix.size());
  }
  /// Holds its port with a fragment that still has bytes to send.
  [[nodiscard]] bool sending() const {
    return state == State::kOpen || state == State::kClosing;
  }
};

struct McastConn {
  using Branch = SwitchMcastEngine::Branch;

  SwitchRt* sw = nullptr;
  InPort* in = nullptr;
  WormPtr worm;
  bool flood = false;
  std::int64_t in_wire = 0;          // declared (advisory for fragments)
  std::int64_t encoding_len = 0;     // route prefix bytes on the input
  std::int64_t prefix_consumed = 1;  // do_route consumed the first byte
  std::vector<Branch> branches;
  /// Lockstep bookkeeping: the minimum body_taken over all branches and how
  /// many branches sit at it (every other branch is exactly one ahead).
  /// Input body bytes below the minimum are released to GO signalling.
  std::int64_t min_taken = 0;
  std::size_t at_min = 0;
  /// The gang run committed this tick: every branch with gang_pending set
  /// takes exactly gang_n bytes in tick gang_at.
  Time gang_at = kTimeNever;
  std::int64_t gang_n = 0;

  /// Body bytes that have logically arrived by now on the input.
  [[nodiscard]] std::int64_t body_arrived() const {
    return std::max<std::int64_t>(0, in->front_arrived() - encoding_len);
  }
  /// Body bytes physically buffered on the input (some may still be
  /// logically in flight; they arrive one per byte-time).
  [[nodiscard]] std::int64_t body_received() const {
    return std::max<std::int64_t>(0, in->front_received() - encoding_len);
  }
  /// True once the input tail arrived: body_arrived() is then final.
  [[nodiscard]] bool body_final() const { return in->front_tail_seen(); }
};

SwitchMcastEngine::SwitchMcastEngine(Simulator& sim, const Topology& topo,
                                     const UpDownRouting& routing,
                                     RecyclePool<Worm>& worm_pool,
                                     SwitchMcastConfig config)
    : sim_(sim),
      topo_(topo),
      routing_(routing),
      config_(config),
      worm_pool_(worm_pool) {}

SwitchMcastEngine::~SwitchMcastEngine() = default;

void SwitchMcastEngine::start(InPort& in) {
  auto conn = std::make_unique<Conn>();
  Conn& c = *conn;
  c.in = &in;
  c.worm = in.front_worm();
  c.in_wire = in.front_wire_len();
  c.flood = c.worm->broadcast_flood;
  ++connections_;

  c.sw = &in.owner();

  if (c.flood) {
    c.encoding_len = 1;  // the broadcast marker byte
    for (const PortId p : routing_.down_tree_ports(c.sw->node())) {
      Branch b;
      b.port = p;
      const NodeId peer = topo_.neighbor_via(c.sw->node(), p);
      b.to_host = topo_.node(peer).kind == NodeKind::kHost;
      // Switch-bound copies regenerate the broadcast marker so the worm
      // does not shrink as it floods; host-bound copies carry body only.
      if (!b.to_host) b.prefix.push_back(0);  // marker placeholder byte
      c.branches.push_back(std::move(b));
    }
  } else {
    c.encoding_len = static_cast<std::int64_t>(c.worm->mcast_route.size_bytes());
    for (const McastBranch& br : c.worm->mcast_route.split()) {
      Branch b;
      b.port = br.port;
      b.prefix = br.subroute.bytes();
      const NodeId peer = topo_.neighbor_via(c.sw->node(), b.port);
      b.to_host = topo_.node(peer).kind == NodeKind::kHost;
      assert((b.to_host == b.prefix.empty()) &&
             "leaf branches must carry empty subroutes");
      c.branches.push_back(std::move(b));
    }
  }
  assert(!c.branches.empty() && "multicast with no branches");
  c.at_min = c.branches.size();

  Conn* raw = conn.get();
  in.set_mcast_conn(raw);
  conns_.emplace(&in, std::move(conn));
  WORMTRACE(sim_, kMcastStart, c.sw->node(), in.port(), c.worm->id,
            c.branches.size());
  consume_prefix(*raw);
  for (std::size_t i = 0; i < raw->branches.size(); ++i) open_fragment(*raw, i);
  if (config_.scheme == SwitchMcastScheme::kInterrupt) {
    InPort* key = &in;
    sim_.after(config_.interrupt_check, [this, key] { periodic_check(key); });
  }
}

void SwitchMcastEngine::on_input_bytes(InPort& in) {
  Conn& c = *in.mcast_conn();
  consume_prefix(c);
  kick_all(c);
}

void SwitchMcastEngine::consume_prefix(Conn& c) {
  // Encoding bytes are consumed as they arrive (parsed by the switch).
  // Bytes of a run still logically in flight are released now, each
  // leaving the slack buffer's logical occupancy at its arrival tick, and
  // copies wait for the logical arrival of the whole encoding (branch_run).
  const std::int64_t upto =
      std::min(c.encoding_len, c.in->front_received());
  if (c.prefix_consumed >= upto) return;
  const std::int64_t arrived = std::min(upto, c.in->front_arrived());
  if (arrived > c.prefix_consumed)
    c.in->mcast_consume(arrived - c.prefix_consumed);
  if (upto > arrived) c.in->release(upto - arrived, sim_.now() + 1);
  c.prefix_consumed = upto;
}

void SwitchMcastEngine::open_fragment(Conn& c, std::size_t idx) {
  Branch& b = c.branches[idx];
  assert(b.state == Branch::State::kIdle);
  Conn* conn_ptr = &c;
  const bool got = c.sw->claim_output_for_mcast(
      b.port, [this, conn_ptr, idx] { claim_complete(*conn_ptr, idx); });
  if (!got) {
    // Hold decision: the branch waits for the port while its siblings
    // (scheme-dependent) keep or yield theirs.
    WORMTRACE(sim_, kMcastHold, c.sw->node(), b.port, c.worm->id, idx);
    b.state = Branch::State::kClaiming;
    return;
  }
  claim_complete(c, idx);
}

void SwitchMcastEngine::claim_complete(Conn& c, std::size_t idx) {
  Branch& b = c.branches[idx];
  b.state = Branch::State::kOpen;
  b.frag_prefix_sent = 0;
  b.frag_sent = 0;
  ++fragments_;
  WORMTRACE(sim_, kMcastFragOpen, c.sw->node(), b.port, c.worm->id, idx);
  // Fresh worm object per fragment: downstream treats each fragment as an
  // independent worm carrying its own (re-prepended) route.
  auto frag = worm_pool_.make();
  frag->id = c.worm->id;
  frag->kind = WormKind::kSwitchMcast;
  frag->src = c.worm->src;
  frag->payload = c.worm->payload;
  frag->header = 0;
  frag->broadcast_flood = c.flood;
  if (!c.flood && !b.prefix.empty())
    frag->mcast_route = EncodedMcastRoute::from_bytes(b.prefix);
  frag->message = c.worm->message;
  frag->created_at = c.worm->created_at;
  frag->mcast = c.worm->mcast;
  b.frag_worm = std::move(frag);

  Channel* ch = c.sw->out_port(b.port).channel;
  b.feed = std::make_unique<BranchFeed>(*this, c, idx);
  ch->attach_feed(b.feed.get());
}

std::int64_t SwitchMcastEngine::branch_run(const Conn& c,
                                           std::size_t idx) const {
  const Branch& b = c.branches[idx];
  if (b.gang_pending) {  // a sibling committed this tick's run
    assert(c.gang_at == sim_.now() && "gang run not taken in its tick");
    return c.gang_n;
  }
  if (!b.sending()) return 0;
  // The whole route encoding must have arrived before copies flow.
  if (c.in->front_arrived() < c.encoding_len) return 0;
  // The head steps alone; the rest of the prefix leaves as one run.
  const auto prefix_left =
      static_cast<std::int64_t>(b.prefix.size()) - b.frag_prefix_sent;
  if (prefix_left > 0) return b.frag_sent == 0 ? 1 : prefix_left;
  if (b.state == Branch::State::kClosing) return 1;
  if (b.body_taken >= c.body_arrived()) return 0;
  // Lockstep: only the laggard(s) advance, and only a laggard can open the
  // tick's gang run (a leader waits for the minimum to move).
  if (b.body_taken != c.min_taken) return 0;
  return std::max<std::int64_t>(1, gang_room(c));
}

Time SwitchMcastEngine::branch_next_byte_time(const Conn& c,
                                              std::size_t idx) const {
  // Starved only by input bytes that are buffered but not logically
  // arrived: one arrives every byte-time and no kick will announce it.
  // Every other wait (port claim, lockstep, an empty input) ends in a kick.
  const Branch& b = c.branches[idx];
  if (!b.sending()) return kTimeNever;
  const std::int64_t arrived = c.in->front_arrived();
  const std::int64_t received = c.in->front_received();
  // A buffered encoding's last byte arrives encoding_len - arrived ticks
  // from now; one that a run has yet to bring comes with that run's kick.
  if (arrived < c.encoding_len)
    return received >= c.encoding_len
               ? sim_.now() + (c.encoding_len - arrived)
               : kTimeNever;
  const bool pending = arrived < received;
  if (pending && b.body_taken == c.min_taken &&
      b.body_taken >= c.body_arrived())
    return sim_.now() + 1;
  return kTimeNever;
}

bool SwitchMcastEngine::branch_waits_for_kick(const Conn& c,
                                              std::size_t idx) const {
  // Kicks end these waits: the encoding landing, the minimum moving past a
  // leader, a laggard's next input byte landing. Landed bytes are timed.
  const Branch& b = c.branches[idx];
  if (b.gang_pending || b.state != Branch::State::kOpen) return false;
  if (c.in->front_arrived() < c.encoding_len)
    return c.in->front_received() < c.encoding_len;
  if (b.frag_prefix_sent < static_cast<std::int64_t>(b.prefix.size()))
    return false;
  return b.body_taken != c.min_taken || b.body_taken >= c.body_received();
}

std::int64_t SwitchMcastEngine::gang_room(const Conn& c) const {
  // Under per-byte stepping, in each of the ticks t..t+n-1 the laggards
  // (at min_taken) send one body byte and then, the minimum having moved,
  // the leaders (one ahead) send theirs — provided the input byte each
  // needs has logically arrived, every branch is mid-body and no branch
  // channel is STOPped. Grant n only when all of that is guaranteed for
  // the whole run.
  const std::int64_t lead = c.at_min < c.branches.size() ? 1 : 0;
  const std::int64_t first = c.min_taken + lead;  // newest byte sent at t
  if (first >= c.body_arrived()) return 0;
  // Buffered bytes arrive one per byte-time, so everything physically
  // here is committable; the input's tail byte always steps per-byte.
  std::int64_t n = c.body_received() - (c.body_final() ? 1 : 0) - first;
  for (const Branch& b : c.branches) {
    if (n <= 1 || !b.mid_body()) return 0;
    n = std::min(n, c.sw->out_port(b.port).channel->burst_headroom());
  }
  return n > 1 ? n : 0;
}

TxByte SwitchMcastEngine::branch_take(Conn& c, std::size_t idx,
                                      std::int64_t n) {
  Branch& b = c.branches[idx];
  TxByte out;
  out.count = n;
  out.head = (b.frag_sent == 0);
  if (out.head) {
    out.worm = b.frag_worm;
    // Advisory length: remaining declared body plus the stamped prefix.
    out.wire_len = static_cast<std::int64_t>(b.prefix.size()) +
                   std::max<std::int64_t>(2, c.in_wire - c.encoding_len -
                                                 b.body_taken);
  }
  b.frag_sent += n;
  // A run's newest byte leaves at now + n - 1, as in InPort::take.
  c.sw->out_port(b.port).last_data_byte = sim_.now() + n - 1;
  if (b.frag_prefix_sent < static_cast<std::int64_t>(b.prefix.size())) {
    assert((n == 1 || !out.head) &&
           b.frag_prefix_sent + n <= static_cast<std::int64_t>(b.prefix.size()));
    b.frag_prefix_sent += n;
    return out;
  }
  if (b.state == Branch::State::kClosing) {
    // Synthetic fragment trailer.
    assert(n == 1);
    out.tail = true;
    return out;
  }
  if (b.gang_pending) {
    assert(c.gang_at == sim_.now() && n == c.gang_n &&
           "every branch must take the same run in the same tick");
    b.gang_pending = false;
  } else if (n > 1) {
    commit_gang(c, idx, n);
  } else {
    assert(b.body_taken == c.min_taken && "only laggards take body bytes");
  }
  b.body_taken += n;
  if (c.body_final() && b.body_taken == c.body_arrived()) {
    out.tail = true;
    b.state = Branch::State::kDone;
  }
  if (n == 1) after_body_take(c);
  return out;
}

void SwitchMcastEngine::commit_gang(Conn& c, std::size_t idx, std::int64_t n) {
  // First branch of the tick: commit the run for the whole connection.
  // Every branch advances by n, so the lockstep minimum does too, and the
  // input releases the run's bytes, which leave one per byte-time as the
  // channels send them.
  c.gang_at = sim_.now();
  c.gang_n = n;
  c.min_taken += n;
  c.in->release(n, sim_.now());
  for (std::size_t i = 0; i < c.branches.size(); ++i) {
    if (i == idx) continue;
    c.branches[i].gang_pending = true;
    // Its channel has not sent this tick (burst_headroom checked), so this
    // lands a pump in the same tick if none is scheduled yet.
    c.sw->out_port(c.branches[i].port).channel->kick();
  }
}

void SwitchMcastEngine::after_body_take(Conn& c) {
  // The taker left the minimum; once the last laggard has, every branch
  // sits at the new minimum (none can be two ahead).
  if (--c.at_min > 0) return;
  ++c.min_taken;
  c.at_min = c.branches.size();
  c.in->mcast_consume();
  kick_all(c);
}

void SwitchMcastEngine::kick_all(Conn& c) {
  for (Branch& b : c.branches) {
    if (b.sending()) c.sw->out_port(b.port).channel->kick();
  }
}

void SwitchMcastEngine::branch_tail_sent(Conn& c, std::size_t idx) {
  Branch& b = c.branches[idx];
  assert(b.state == Branch::State::kClosing ||
         b.state == Branch::State::kDone);
  const bool done = b.state == Branch::State::kDone;
  if (!done) b.state = Branch::State::kIdle;
  b.feed.reset();
  WORMTRACE(sim_, kMcastFragClose, c.sw->node(), b.port, c.worm->id,
            done ? 1 : 0);
  c.sw->release_mcast_output(b.port);
  if (!done) return;  // fragment closed; reopened by periodic_check
  for (const Branch& br : c.branches)
    if (br.state != Branch::State::kDone) return;
  finish(c);
}

void SwitchMcastEngine::finish(Conn& c) {
  InPort* key = c.in;
  WORMTRACE(sim_, kMcastFinish, c.sw->node(), c.in->port(), c.worm->id, 0);
  // The last laggard's final tail consumed the last input byte.
  assert(c.min_taken == c.body_arrived());
  c.in->mcast_finish_front();
  conns_.erase(key);
}

bool SwitchMcastEngine::drains_freely(const Conn& c) const {
  // Every branch sends a body byte in every tick it holds one (laggards,
  // then leaders once the minimum moves), so each input byte that arrives
  // comes with one that leaves, provided no branch is ever STOPped: the
  // walk goes on down every branch channel (DESIGN §6b). A branch whose
  // prefix run is still leaving fails there: the next switch has not yet
  // received the whole encoding, so its connection is not mid-body.
  for (const Branch& b : c.branches) {
    if (!b.mid_body() ||
        !c.sw->out_port(b.port).channel->drains_freely(*b.frag_worm))
      return false;
  }
  return true;
}

bool SwitchMcastEngine::any_branch_stopped(const Conn& c) const {
  for (const Branch& b : c.branches) {
    // A branch that cannot even claim its output port (Figure 3: another
    // worm holds it) blocks the multicast just like backpressure does.
    if (b.state == Branch::State::kClaiming) return true;
    if (b.sending() && c.sw->out_port(b.port).channel->tx_stopped())
      return true;
  }
  return false;
}

void SwitchMcastEngine::close_fragment(Conn& c, std::size_t idx) {
  Branch& b = c.branches[idx];
  assert(b.state == Branch::State::kOpen);
  if (b.frag_sent == 0) {
    // Nothing sent yet: release silently (no downstream framing started).
    Channel* ch = c.sw->out_port(b.port).channel;
    ch->detach_feed();
    b.feed.reset();
    b.state = Branch::State::kIdle;
    WORMTRACE(sim_, kMcastFragClose, c.sw->node(), b.port, c.worm->id, 0);
    c.sw->release_mcast_output(b.port);
    return;
  }
  b.state = Branch::State::kClosing;
  c.sw->out_port(b.port).channel->kick();
}

void SwitchMcastEngine::periodic_check(InPort* key) {
  // The port's current connection, which may be a later worm's: the check
  // chain is keyed by input port, not by connection.
  if (key->mcast_conn() == nullptr) return;  // connection finished
  Conn& c = *key->mcast_conn();
  if (any_branch_stopped(c)) {
    // Interrupt: non-blocked branches give up their paths (Section 3,
    // variant (b)) so other traffic can use them.
    WORMTRACE(sim_, kMcastInterrupt, c.sw->node(), c.in->port(), c.worm->id,
              0);
    for (std::size_t i = 0; i < c.branches.size(); ++i) {
      Branch& b = c.branches[i];
      if (b.state != Branch::State::kOpen) continue;
      if (c.sw->out_port(b.port).channel->tx_stopped()) continue;
      close_fragment(c, i);
    }
  } else {
    for (std::size_t i = 0; i < c.branches.size(); ++i)
      if (c.branches[i].state == Branch::State::kIdle) open_fragment(c, i);
  }
  sim_.after(config_.interrupt_check, [this, key] { periodic_check(key); });
}

bool SwitchMcastEngine::maybe_flush_unicast(SwitchRt& sw, InPort& in,
                                            PortId out) {
  if (config_.scheme != SwitchMcastScheme::kFlushUnicast) return false;
  if (in.front_worm()->kind != WormKind::kData) return false;
  if (sim_.now() - sw.out_port(out).last_data_byte >=
      config_.idle_flush_threshold) {
    flush(sw, in, out, /*arrival_first=*/true);  // do_route settled it
    return true;
  }
  // Not yet multicast-IDLE: let the unicast queue, and keep watching until
  // either the port goes multicast-IDLE (flush) or the wait resolves.
  watch_for_flush(&sw, &in, out);
  return false;
}

void SwitchMcastEngine::watch_for_flush(SwitchRt* sw, InPort* in, PortId out) {
  sim_.after(config_.idle_flush_threshold, [this, sw, in, out] {
    OutPort& port = sw->out_port(out);
    if (!port.held_by_mcast) return;      // the multicast released the port
    if (!sw->is_waiting(*in, out)) return;  // the unicast got through
    if (sim_.now() - port.last_data_byte >= config_.idle_flush_threshold) {
      sw->cancel_request(*in, out);
      // A byte arriving this tick was keyed `delay` ticks ago, this event
      // idle_flush_threshold ago: the older one fires first.
      const Time delay = sw->in_channel(in->port())->delay();
      flush(*sw, *in, out, delay > config_.idle_flush_threshold);
      return;
    }
    watch_for_flush(sw, in, out);
  });
}

void SwitchMcastEngine::flush(SwitchRt& sw, InPort& in, PortId out,
                              bool arrival_first) {
  WormPtr worm = in.front_worm();
  WORMTRACE(sim_, kMcastIdleFlush, sw.node(), out, worm->id, worm->src);
  in.flush_front(arrival_first);
  ++flushed_;
  if (flush_handler_) flush_handler_(worm);
}

}  // namespace wormcast

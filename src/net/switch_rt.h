// Runtime model of one crossbar switch.
//
// Input ports own slack buffers with STOP/GO thresholds (Figure 1); output
// ports arbitrate among blocked inputs in FIFO order (Myrinet's round-robin
// of blocked worms). A worm's head byte is consumed at the input port to
// select the output (source routing); the worm then holds the input→output
// crossbar connection until its tail passes.
//
// An input port decides STOP, GO and overflow on its *logical* occupancy:
// bytes logically arrived minus bytes logically removed. A run landing at
// t (channel.h) arrives one byte per tick through t+n-1, and a run taken
// at t leaves one byte per tick through t+n-1, so the physical count jumps
// while the logical one moves exactly as under per-byte stepping. When a
// pending arrival or removal could cross a threshold, the port schedules a
// check at the earliest such tick; every decision therefore falls on its
// per-byte tick whatever runs the channels commit.
//
// A port whose arriving worm is established (drains_freely: the worm is
// its only one, no STOP sent, occupancy below K_s - 1; either connected to
// one output, or owned by a switch-level multicast connection whose
// branches are all mid-body; and the same holds all the way to every
// receiving adapter) removes a byte in every tick one arrives, so no
// decision can fall on the worm's bytes: its channel accepts the rest of
// the body in one run and the port arms no check for it (DESIGN §6b).
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "net/channel.h"
#include "sim/lazy_deque.h"
#include "net/worm.h"
#include "sim/simulator.h"
#include "sim/types.h"

namespace wormcast {

class SwitchRt;
class SwitchMcastEngine;
struct McastConn;

/// Per-switch flow-control and timing parameters.
struct SwitchConfig {
  /// Slack-buffer occupancy at which STOP is sent upstream (K_s, Figure 1).
  std::int64_t stop_threshold = 24;
  /// Occupancy at which GO re-opens the upstream transmitter (K_g).
  std::int64_t go_threshold = 8;
};

/// One switch input port: slack buffer plus forwarding state machine.
class InPort final : public RxSink, public ByteFeed {
 public:
  InPort(SwitchRt& sw, PortId port);

  // RxSink — bytes arriving from the upstream channel.
  void on_head(const WormPtr& worm, std::int64_t wire_len, bool tail) override;
  void on_body(std::int64_t n, bool tail) override;
  /// The link delay d on a link longer than kRoutingLatency (the
  /// lookahead: a STOP that could halt any byte of a run of d is already
  /// in flight), or more while no STOP is sent and none can be decided
  /// before the run and everything in flight has landed, even if nothing
  /// more leaves.
  [[nodiscard]] std::int64_t rx_burst_budget(
      std::int64_t in_flight) const override;
  /// True when `worm` is this port's only worm, with no STOP sent and
  /// room for one more byte below the STOP threshold, and either its
  /// output channel drains freely (a unicast, or a broadcast worm still
  /// climbing) or its multicast connection does
  /// (SwitchMcastEngine::drains_freely).
  [[nodiscard]] bool drains_freely(const Worm& worm) const override;

  // ByteFeed — bytes leaving through the connected output channel.
  [[nodiscard]] std::int64_t run_available() const override;
  TxByte take(std::int64_t n) override;
  void on_tail_sent() override;
  /// Only a landing (on_body kicks) brings bytes past the forwarded ones.
  [[nodiscard]] bool waits_for_kick() const override {
    return rx_queue_.front().received - 1 == forwarded_;
  }

  [[nodiscard]] PortId port() const { return port_; }
  /// Logical slack-buffer occupancy now.
  [[nodiscard]] std::int64_t buffered() const;
  /// Estimated resident bytes for this input port (memory audit).
  [[nodiscard]] std::size_t heap_bytes_estimate() const {
    return sizeof(InPort) + rx_queue_.heap_bytes_estimate();
  }
  /// Bytes of the front worm available to forward right now. Bytes of a
  /// delivered run whose logical arrival time is still in the future do not
  /// count (they become forwardable one per byte-time, exactly as if the
  /// upstream channel had stepped per-byte).
  [[nodiscard]] std::int64_t front_available() const;
  [[nodiscard]] const WormPtr& front_worm() const { return rx_queue_.front().worm; }

  /// Called by the output port when this input wins arbitration.
  void granted(PortId out_port);

  /// Removes `n` buffered bytes at once on behalf of a multicast
  /// connection (the multicast engine forwards to several outputs at once
  /// and manages its own pacing).
  void mcast_consume(std::int64_t n = 1);
  /// Releases `n` buffered bytes that leave one per byte-time from
  /// `first`: a run taken now (first == now; a unicast take or a
  /// multicast gang), or route-encoding bytes still logically in flight,
  /// each consumed as it arrives (first == now + 1).
  void release(std::int64_t n, Time first);
  /// Completes the front worm for the multicast engine (all branches done).
  void mcast_finish_front();
  /// The multicast connection that owns the front worm (null when none);
  /// set by the engine for the lifetime of the connection.
  [[nodiscard]] McastConn* mcast_conn() const { return mcast_conn_; }
  void set_mcast_conn(McastConn* conn) { mcast_conn_ = conn; }
  /// Bytes of the front worm that have physically arrived (head included)
  /// and its declared wire length; used by the multicast engine for pacing.
  [[nodiscard]] std::int64_t front_received() const {
    return rx_queue_.front().received;
  }
  /// Bytes of the front worm that have *logically* arrived by now (head
  /// included): a run delivered at t carries arrival times t..t+n-1, so
  /// its later bytes count only once their time has come.
  [[nodiscard]] std::int64_t front_arrived() const;
  [[nodiscard]] std::int64_t front_wire_len() const {
    return rx_queue_.front().wire_len;
  }
  /// True once the front worm's tail symbol has arrived (authoritative
  /// length: front_received() is then final).
  [[nodiscard]] bool front_tail_seen() const {
    return rx_queue_.front().tail_seen;
  }
  /// The switch this port belongs to.
  [[nodiscard]] SwitchRt& owner() { return sw_; }

  /// Flushes the front worm (scheme (c), Section 3): it is discarded here —
  /// never forwarded — and drains out of the network as its remaining bytes
  /// arrive. Pre: the front worm is routed but has no output connection.
  /// `arrival_first`: a byte of the worm logically arriving this tick
  /// arrived before the flush (per-byte event order), so it is counted
  /// and checked first; otherwise it is swallowed like the rest.
  void flush_front(bool arrival_first);

 private:
  struct RxWorm {
    WormPtr worm;
    std::int64_t wire_len = 0;  // declared length (advisory for fragments)
    std::int64_t received = 0;  // bytes physically delivered (head included)
    bool routed = false;        // routing decision issued
    bool tail_seen = false;     // tail symbol arrived (authoritative framing)
    bool discard = false;       // flushed: swallow remaining bytes
    /// Logical arrival time of the newest byte: a run delivered at t
    /// carries arrival times t..t+n-1, so bytes with arrival > now have
    /// not "happened" yet for forwarding purposes.
    Time run_end = 0;
  };

  void begin_routing();
  void do_route();
  /// Logical occupancy once every event of tick `s` has fired.
  [[nodiscard]] std::int64_t occupancy(Time s) const;
  /// The occupancy the byte arriving at `s` sees: that tick's removal (a
  /// drained byte leaves in the late class, a passed-through encoding
  /// byte right after its arrival) has not happened yet.
  [[nodiscard]] std::int64_t arrival_occupancy(Time s) const;
  /// Overflow and STOP decisions for the byte arriving now (landed now
  /// or earlier in a run), once per tick.
  void check_arrival();
  /// GO decision after bytes left.
  void check_go();
  /// Arms a check at the earliest tick a pending arrival could reach STOP
  /// or overflow, or a pending removal GO, assuming nothing else moves
  /// (anything else that moves re-arms).
  void schedule_checks();
  /// Schedules a check at `at` (late: GO, else arrival) unless the one
  /// armed in `armed` comes no later.
  void arm_check(Time& armed, Time at, bool late);

  SwitchRt& sw_;
  PortId port_;
  LazyDeque<RxWorm> rx_queue_;
  // Bytes physically held: landed bytes count even before their logical
  // arrival, released bytes are gone even before their logical removal.
  std::int64_t buffered_ = 0;
  bool stop_sent_ = false;
  // Logical arrival tick of the newest counted byte: every tick in
  // (now, arrive_end_] has an arrival still to happen.
  Time arrive_end_ = -1;
  // Logical tick of the newest released byte: one byte leaves per tick
  // through drain_end_.
  Time drain_end_ = -1;
  // Newest tick whose arrival had its STOP/overflow check.
  Time stop_checked_ = -1;
  // Earliest armed check of each kind (kTimeNever: none).
  Time arrival_check_at_ = kTimeNever;
  Time go_check_at_ = kTimeNever;

  // Forwarding state for the front worm (unicast connection).
  bool connected_ = false;
  PortId out_port_ = kNoPort;
  std::int64_t forwarded_ = 0;  // bytes sent downstream for the front worm
  // When the pending output request was issued (arbitration key).
  friend class SwitchRt;
  Time request_time_ = 0;
  // Set while the front worm is owned by the switch-level multicast engine.
  McastConn* mcast_conn_ = nullptr;
};

/// One switch output port: the downstream channel plus its wait queue.
struct OutPort {
  Channel* channel = nullptr;
  bool busy = false;
  LazyDeque<InPort*> waiters;
  /// True while a same-tick arbitration event is scheduled for this port.
  bool arb_pending = false;
  /// Set while a switch-level multicast branch holds this port.
  bool held_by_mcast = false;
  /// Multicast branches waiting for the port; served before unicast
  /// waiters (invoked to claim the port when it frees).
  LazyDeque<std::function<void()>> mcast_waiters;
  /// Time at which the port last moved a data byte (multicast-IDLE
  /// detection, Section 3 scheme (c)).
  Time last_data_byte = 0;
};

/// The crossbar switch proper.
class SwitchRt {
 public:
  SwitchRt(Simulator& sim, NodeId node, int n_ports, SwitchConfig config);
  SwitchRt(const SwitchRt&) = delete;
  SwitchRt& operator=(const SwitchRt&) = delete;
  ~SwitchRt();

  /// Wires port p's channels. Must be called for every port before run.
  void set_channels(PortId p, Channel* in, Channel* out);

  /// Input port p as a receiver sink (for Fabric wiring).
  [[nodiscard]] RxSink* sink(PortId p);

  /// Requests `out` for `in`. The request is queued and resolved by an
  /// end-of-tick arbitration pass: same-tick requests are granted in a
  /// canonical (request time, in-port id) order rather than in event
  /// order, so results do not depend on how events interleave within a
  /// tick (burst mode coalesces events and would otherwise
  /// perturb FIFO arrival order).
  void request_output(InPort& in, PortId out);
  /// Releases `out` and grants the next waiter, if any.
  void release_output(PortId out);
  /// Abandons a pending (not yet granted) request. Returns true if the
  /// request was found and removed.
  bool cancel_request(InPort& in, PortId out);
  /// True while `in` is queued waiting for `out`.
  [[nodiscard]] bool is_waiting(const InPort& in, PortId out) const {
    const auto& w = out_ports_[out].waiters;
    return std::find(w.begin(), w.end(), &in) != w.end();
  }

  /// Multicast-branch port management (switch-level multicast engine):
  /// claims the port now (returns true) or queues `on_free` to be invoked
  /// when the port becomes available.
  bool claim_output_for_mcast(PortId out, std::function<void()> on_free);
  /// Releases a port held by a multicast branch.
  void release_mcast_output(PortId out);
  /// Hands a free port to the next waiter (multicast branches first;
  /// unicast waiters in canonical (request time, in-port id) order).
  void grant_next(PortId out);

  [[nodiscard]] Simulator& sim() { return sim_; }
  [[nodiscard]] NodeId node() const { return node_; }
  [[nodiscard]] const SwitchConfig& config() const { return config_; }
  [[nodiscard]] int n_ports() const { return static_cast<int>(out_ports_.size()); }
  [[nodiscard]] OutPort& out_port(PortId p) { return out_ports_[p]; }
  [[nodiscard]] InPort& in_port(PortId p) { return *in_ports_[p]; }
  [[nodiscard]] Channel* in_channel(PortId p) { return in_channels_[p]; }
  /// Estimated resident bytes for this switch and its ports (memory
  /// audit): object + port arrays + every port queue that has ever held
  /// an element.
  [[nodiscard]] std::size_t heap_bytes_estimate() const;

  /// Installs the switch-level multicast engine (nullptr = multicast worms
  /// are a protocol error at this switch).
  void set_mcast_engine(SwitchMcastEngine* engine) { mcast_engine_ = engine; }
  [[nodiscard]] SwitchMcastEngine* mcast_engine() { return mcast_engine_; }

  /// Slack-buffer overflow accounting (should stay zero when thresholds
  /// and capacities are consistent; tests assert on it).
  void note_overflow() { ++overflows_; }
  [[nodiscard]] std::int64_t overflows() const { return overflows_; }
  [[nodiscard]] std::int64_t slack_capacity(PortId p) const;

 private:
  /// Schedules a zero-delay arbitration event for `out` (coalesced: at
  /// most one pending per port). Running arbitration after every event of
  /// the current tick has fired makes grant decisions a function of the
  /// request set, not of within-tick event order.
  void schedule_arbitration(PortId out);

  Simulator& sim_;
  NodeId node_;
  SwitchConfig config_;
  std::vector<std::unique_ptr<InPort>> in_ports_;
  std::vector<OutPort> out_ports_;
  std::vector<Channel*> in_channels_;
  SwitchMcastEngine* mcast_engine_ = nullptr;
  std::int64_t overflows_ = 0;
};

}  // namespace wormcast

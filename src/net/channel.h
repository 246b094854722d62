// One direction of a full-duplex link, at byte granularity.
//
// The transmitter end pulls bytes from a ByteFeed (a switch crossbar
// connection, a switch-multicast branch or a host adapter's transmit
// engine) at one byte per byte-time while not STOPped. Bytes arrive at the
// receiver end after the link's propagation delay and are handed to an
// RxSink (a switch input port's slack buffer or a host adapter's receive
// engine). STOP/GO control symbols (Figure 1) travel against the data flow
// with the same propagation delay; they are modeled out of band (Myrinet
// interleaves them in the byte stream; the bandwidth cost is negligible).
//
// The transport moves *runs*: one pump takes a run of n bytes from the
// feed and one delivery hands the same run to the sink. A run committed at
// time t stands for per-byte sends at t, t+1, ..., t+n-1 and carries the
// same logical arrival times, and every consumer is rate-limited to one
// byte per byte-time from the first arrival, so nothing downstream can
// tell a run from n single bytes. The feed says how long a run it can
// commit (ByteFeed::run_available); heads, tails and every byte that must
// step alone are runs of one. The channel caps the run at 1 in per-byte
// mode (FabricConfig::burst_channels = false, the spec) and otherwise at
// burst_headroom(): the worm's fault classification is fixed, no
// truncation boundary falls inside, the run stops short of the earliest
// STOP already in flight toward the transmitter, and it is no longer than
// the receiver accepts (RxSink::rx_burst_budget). The link delay d is the
// lookahead that makes runs safe: a STOP that could halt a send in
// [t, t+d) was decided before t and is already in flight, so a run of up
// to d bytes never outruns one, provided the receiver takes its STOP, GO
// and overflow decisions at the per-byte ticks (switch_rt.h: on logical
// occupancy). The receiver's budget does not bind an *established* worm:
// one that holds every output from the receiver to its adapters, with no
// STOP sent there and none in effect or in flight beyond, no armed fault
// injector, and every switch input below the STOP threshold
// (RxSink::drains_freely, a read-only walk down the path; at a switch-level
// multicast it goes on down every branch once all of them are mid-body;
// an adapter drains every worm). No STOP can be decided on its
// bytes again, so its body crosses the hop in one run, cut only by this
// channel's own limits. Results are bit-for-bit identical in both modes
// (the equivalence suite pins this). Switch-level multicast branches
// commit body runs as a gang: the replication engine gives every branch
// channel of a connection the same run in the same tick; a branch's
// subroute prefix leaves as one run after its head (switch_mcast_engine.h).
// A pump that only a kick can feed parks under the queue key it would have
// had, and a burst-mode body run landing right behind the lane's last run
// on a link longer than kRoutingLatency extends it (DESIGN §6b).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "net/worm.h"
#include "sim/lazy_deque.h"
#include "sim/fault_injector.h"
#include "sim/simulator.h"
#include "sim/types.h"

namespace wormcast {

/// Head routing/arbitration latency at a switch, in byte-times: on longer
/// links a byte arriving at s lands before a routing decision due at s.
inline constexpr Time kRoutingLatency = 4;

/// One run as granted by a ByteFeed: a single byte (count 1), which may be
/// a worm's head or tail, or `count` plain body bytes.
struct TxByte {
  bool head = false;               // first byte of a worm on this channel
  bool tail = false;               // last byte of the worm on this channel
  WormPtr worm;                    // set on head only
  std::int64_t wire_len = 0;       // set on head only: bytes on this channel
  std::int64_t count = 1;          // bytes in the run; > 1 only for body
};

/// Supplies bytes to a Channel's transmitter. Implemented by switch
/// crossbar connections, multicast branches and adapter transmit engines.
class ByteFeed {
 public:
  virtual ~ByteFeed() = default;
  /// Longest run the feed can commit to sends at now, now+1, ...: 0 when
  /// nothing is sendable now, 1 for a head, a tail or any byte that must
  /// step alone, n for plain body bytes. A run may include bytes that are
  /// buffered but have not logically arrived yet: once one byte of a
  /// contiguous run has arrived, the rest arrive one per byte-time,
  /// matching the send rate.
  [[nodiscard]] virtual std::int64_t run_available() const = 0;
  /// Takes the next `n` bytes, 1 <= n <= run_available().
  virtual TxByte take(std::int64_t n) = 0;
  /// Called by the channel after the feed's tail byte has been accepted;
  /// the feed is detached before this call (safe to re-attach a new feed).
  virtual void on_tail_sent() = 0;

  /// When run_available() is 0 *only because* physically buffered bytes
  /// have not logically arrived yet, the time at which the next one does
  /// (the channel self-schedules a pump there — no kick will come).
  /// kTimeNever when a kick will announce the next byte instead. Only a
  /// multicast branch ever waits so (a lockstep laggard, or a route
  /// encoding still arriving): a feed that commits every buffered byte
  /// once one has arrived is never starved by pending bytes, because a
  /// channel's runs land only after the previous one has fully arrived.
  [[nodiscard]] virtual Time next_byte_time() const { return kTimeNever; }

  /// True when run_available() stays 0 (next_byte_time() kTimeNever) until
  /// the next Channel::kick(): the channel parks its pump. False is safe.
  [[nodiscard]] virtual bool waits_for_kick() const { return false; }
};

/// Consumes bytes at a Channel's receiver. Implemented by switch input
/// ports and adapter receive engines.
class RxSink {
 public:
  virtual ~RxSink() = default;
  /// First byte of a worm. `wire_len` is the total bytes this channel will
  /// deliver for it (including this one and the trailer). `tail` marks a
  /// single-byte worm — head and trailer in one byte, as a zero-body
  /// interrupt-scheme multicast fragment produces — whose reception is
  /// complete with this call (no on_body follows).
  virtual void on_head(const WormPtr& worm, std::int64_t wire_len,
                       bool tail) = 0;
  /// The next `n` bytes of the worm: the first arrives now, the rest at
  /// logical times now+1 .. now+n-1 (the sink's availability accounting
  /// must respect that). `tail` marks the worm's last byte; a tail always
  /// arrives alone (n == 1).
  virtual void on_body(std::int64_t n, bool tail) = 0;

  /// Longest run the sink accepts now from its channel, which has
  /// `in_flight` bytes on the wire toward it. 0 limits every run to one
  /// byte. A sink with flow control must keep every STOP/GO decision at
  /// its per-byte tick whatever run it accepts.
  [[nodiscard]] virtual std::int64_t rx_burst_budget(
      std::int64_t in_flight) const {
    (void)in_flight;
    return 0;
  }

  /// True when no flow-control decision can ever fall on `worm`'s bytes
  /// here again: every one of them leaves (or is consumed) at the per-byte
  /// pace it arrives, all the way to a receiving adapter. A read-only walk
  /// down the worm's path; false by default.
  [[nodiscard]] virtual bool drains_freely(const Worm& worm) const {
    (void)worm;
    return false;
  }
};

/// A directed byte pipe with propagation delay and STOP/GO backpressure.
class Channel {
 public:
  Channel(Simulator& sim, Time delay)
      : sim_(sim), delay_(static_cast<std::int32_t>(delay)) {}
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  [[nodiscard]] Time delay() const { return delay_; }

  /// Attaches the transmit-side byte source. The channel pulls from it
  /// until it yields a tail byte, at which point the feed is detached.
  /// Only one feed may be attached at a time.
  void attach_feed(ByteFeed* feed);
  [[nodiscard]] bool feed_attached() const { return feed_ != nullptr; }

  /// Signals that the attached feed may have bytes available again.
  void kick();

  /// Detaches the feed without a tail (a multicast branch releasing a port
  /// on which it has not yet sent anything), voiding any pump it had
  /// scheduled. Precondition: attached.
  void detach_feed();

  /// Sets the receiver; must be done before any traffic flows.
  void set_sink(RxSink* sink) { sink_ = sink; }

  /// Attaches the experiment's fault injector (null = lossless). Consulted
  /// once per worm head; a worm the injector condemns is truncated (data)
  /// or swallowed whole (control / outage). The feed side is unaffected:
  /// the transmitter still drains its bytes and sees on_tail_sent, exactly
  /// as if a real link had corrupted the worm downstream of it.
  void set_fault_injector(FaultInjector* faults) { faults_ = faults; }

  /// Lets runs longer than one byte through (results are identical either
  /// way; per-byte mode is the spec the equivalence suite checks against).
  void set_burst_enabled(bool on) { burst_ = on; }

  /// Names this channel's trace track: the (node, port) of its transmitter
  /// end. Set once at fabric wiring; purely observational (wormtrace).
  void set_trace_id(std::int32_t node, PortId port) {
    trace_node_ = node;
    trace_port_ = port;
  }

  /// Receiver-side flow control: schedule a STOP (GO) to take effect at the
  /// transmitter after the propagation delay.
  void signal_stop();
  void signal_go();
  [[nodiscard]] bool tx_stopped() const { return stopped_; }

  /// Longest run the channel may commit at the current tick: 0 unless
  /// burst mode is on and the transmitter can send now (feed attached,
  /// un-STOPped, tick not yet claimed); otherwise the truncation boundary,
  /// the earliest in-flight STOP landing and the receiver's budget. The
  /// channel's own send path and the multicast engine's gang check (which
  /// must know every branch channel can take the same run) both use it.
  [[nodiscard]] std::int64_t burst_headroom() const;

  /// True when `worm` holds this channel's whole path ahead and it drains
  /// freely: no STOP in effect or in flight here, no armed fault injector,
  /// and the sink drains freely (RxSink::drains_freely).
  [[nodiscard]] bool drains_freely(const Worm& worm) const;

  /// Bytes *delivered* to the receiver by now (link utilization
  /// accounting). Bytes a fault swallowed do not count — a dead link must
  /// not inflate measured utilization; see bytes_swallowed(). A run
  /// committed at t counts one byte per logical send time, so reading this
  /// mid-run matches per-byte stepping exactly.
  [[nodiscard]] std::int64_t bytes_sent() const;

  /// Bytes swallowed by faults (link outages, control drops, the cut
  /// portion of truncated worms) instead of delivered.
  [[nodiscard]] std::int64_t bytes_swallowed() const;

  /// Estimated resident bytes for this channel direction (memory audit):
  /// the object itself plus its in-flight window, which only costs once
  /// the channel has actually carried a byte.
  [[nodiscard]] std::size_t heap_bytes_estimate() const {
    return sizeof(Channel) + in_flight_.heap_bytes_estimate() +
           stop_landings_.capacity() * sizeof(Time);
  }

 private:
  /// One committed run on the wire. In-channel runs also form this
  /// channel's delivery lane (sim/event_queue.h): each reserves its
  /// delivery event's key at send time, and only the front run's delivery
  /// sits in the event queue.
  struct InFlight {
    bool head = false;
    bool tail = false;
    WormPtr worm;               // head only
    std::int64_t wire_len = 0;  // head only
    std::int64_t count = 1;     // >1: a run of plain body bytes
    Time land = 0;              // arrival of the run's first byte
    std::uint64_t key = 0;      // the delivery event's reserved queue key
  };

  /// Per-worm fault classification, decided at the head byte.
  enum class FaultMode : std::uint8_t {
    kNone,      // deliver every byte
    kTruncate,  // deliver fault_pass_left_ bytes, synthesize a tail, swallow
    kSwallow,   // deliver nothing (control loss / link outage)
  };

  void pump();
  void schedule_pump();
  /// Inserts the (one) pending pump at `when` under the late-class `key`.
  void pump_at(Time when, std::uint64_t key);
  /// Inserts the parked pump at its slot if that is still ahead.
  void unpark();
  /// Puts a run on the wire toward the local sink: reserves its delivery
  /// key now and schedules the delivery if the lane was empty.
  void enqueue_delivery(InFlight b);
  /// Schedules the lane head's delivery under its reserved key.
  void schedule_lane_head();
  void deliver_front();
  void classify_fault(const TxByte& b);

  Simulator& sim_;
  ByteFeed* feed_ = nullptr;
  RxSink* sink_ = nullptr;
  FaultInjector* faults_ = nullptr;
  std::int32_t delay_;  // narrow, packed: sizeof(Channel) is audited
  std::int32_t trace_node_ = -1;  // trace track (transmitter end)
  PortId trace_port_ = kNoPort;
  bool stopped_ = false;
  bool burst_ = true;
  bool pump_scheduled_ = false;
  /// True when the newest committed run was swallowed (tells bytes_sent /
  /// bytes_swallowed which counter the not-yet-logically-sent tail of the
  /// run belongs to).
  bool last_run_swallowed_ = false;
  /// Per-worm fault classification (packed here with the flags).
  FaultMode fault_mode_ = FaultMode::kNone;
  /// Tick of the pending pump while pump_scheduled_ or parked; an event
  /// that fires at any other tick is void (its feed was detached).
  Time pump_at_ = -1;
  /// The parked pump's queue key (0: none). Never set while pump_scheduled_.
  std::uint64_t parked_key_ = 0;
  /// Logical send time of the newest committed byte; a run at t commits
  /// sends through t+n-1, so this can sit in the future.
  Time last_send_ = -1;
  std::int64_t bytes_sent_ = 0;
  std::int64_t bytes_swallowed_ = 0;
  std::int64_t in_flight_bytes_ = 0;  // delivered-but-not-landed bytes
  LazyDeque<InFlight> in_flight_;
  /// Landing times of the STOPs signalled but not yet in effect, oldest
  /// first (the delay is fixed, so they land in signalling order). STOPs
  /// are a threshold swing apart, so only a few are ever in flight.
  std::vector<Time> stop_landings_;
  /// The worm whose bytes the feed is sending (set at its head; compared
  /// for identity only, never dereferenced after its tail).
  const Worm* tx_worm_ = nullptr;
  std::int64_t fault_pass_left_ = 0;  // kTruncate: bytes still delivered
  // The current worm's id for head/tail span pairing (tracing only).
  std::uint64_t trace_worm_ = 0;
};

}  // namespace wormcast

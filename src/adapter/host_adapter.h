// The host network-interface model (Myrinet's LANai card, Section 2).
//
// Mechanism only: a transmit engine with a worm queue (control worms take
// priority), a receive engine that always drains the link at line rate
// (the adapter never backpressures the fabric — matching both the paper's
// simulator and the Myrinet implementation), and per-worm processing
// overheads. *Policy* — what to do with a received worm, reservations,
// ACK/NACK, retransmission — lives in an AdapterClient implemented by the
// multicast protocols in src/core.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>

#include "net/channel.h"
#include "sim/lazy_deque.h"
#include "net/fabric.h"
#include "net/worm.h"
#include "sim/simulator.h"
#include "sim/types.h"

namespace wormcast {

/// Reception progress of the worm currently arriving; shared with transmit
/// plans that cut through (forward while receiving).
struct RxProgress {
  std::int64_t payload_total = 0;
  /// Payload bytes physically delivered (a run lands all at once).
  std::int64_t payload_received = 0;
  bool complete = false;
  bool dropped = false;
  /// The worm lost its tail to an injected fault: fewer bytes arrived than
  /// declared. Set together with `complete` (the synthesized tail ends the
  /// reception); cut-through transmit plans following this reception close
  /// out early so the stub propagates instead of wedging the channel.
  bool truncated = false;
  /// Logical arrival time of the newest delivered byte (a run delivered
  /// at t carries arrival times t..t+n-1).
  Time run_end = 0;

  /// Payload bytes *logically* arrived by `now` — what per-byte stepping
  /// would have delivered. Pending bytes are always the newest of the
  /// stream, and payload follows the header, so subtracting the pending
  /// count from the physical payload count is exact.
  [[nodiscard]] std::int64_t payload_arrived(Time now) const {
    const Time pending = std::max<Time>(0, run_end - now);
    return std::max<std::int64_t>(0, payload_received - pending);
  }
};

enum class RxDecision : std::uint8_t { kAccept, kDrop };

/// Protocol hooks; implemented by the schemes in src/core.
class AdapterClient {
 public:
  virtual ~AdapterClient() = default;

  /// Head of a worm arrived. Decide whether to accept it (reserving any
  /// buffers the protocol needs) or to drop it (the paper's implicit
  /// reservation refuses worms that do not fit; Figure 5). `rx` can be held
  /// to start a cut-through forward.
  virtual RxDecision on_rx_head(const WormPtr& worm,
                                const std::shared_ptr<RxProgress>& rx) = 0;

  /// An accepted worm has been fully received. `payload_bytes` is the
  /// actual payload delivered: worm->payload for ordinary worms, the
  /// measured byte count for switch-level multicast fragments (whose
  /// declared length is advisory).
  virtual void on_rx_complete(const WormPtr& worm,
                              std::int64_t payload_bytes) = 0;

  /// A queued worm has completely left the adapter (tail on the wire).
  virtual void on_tx_done(const WormPtr& worm) = 0;

  /// An *accepted* worm turned out to be truncated (fault-injected loss):
  /// its bytes are discarded, on_rx_complete will not fire. The protocol
  /// must roll back whatever on_rx_head set up (reservations, forwarding
  /// state); the upstream sender's ACK timeout drives the retransmission.
  virtual void on_rx_truncated(const WormPtr& worm) { (void)worm; }
};

struct AdapterConfig {
  /// Per-worm processing overhead (route lookup, header build, DMA setup)
  /// inserted before each transmission. The Myrinet-testbed benches
  /// calibrate this to SPARCstation-5-era LANai/driver costs.
  Time tx_overhead = 16;
};

/// Processing between full reception and earliest possible retransmission
/// (store-and-forward path only; cut-through bypasses it).
inline constexpr Time kRxOverhead = 8;

/// One host's network interface card.
class HostAdapter final : public ByteFeed, public RxSink {
 public:
  HostAdapter(Simulator& sim, Fabric& fabric, HostId host,
              AdapterConfig config = AdapterConfig());
  HostAdapter(const HostAdapter&) = delete;
  HostAdapter& operator=(const HostAdapter&) = delete;

  void set_client(AdapterClient* client) { client_ = client; }
  /// Attaches the experiment's fault injector (null = no RX-drop faults).
  void set_fault_injector(FaultInjector* faults) { faults_ = faults; }

  [[nodiscard]] HostId host() const { return host_; }
  [[nodiscard]] Simulator& sim() { return sim_; }
  [[nodiscard]] const AdapterConfig& config() const { return config_; }

  /// Queues a fully buffered worm for transmission (store-and-forward).
  void send(WormPtr worm);
  /// Queues a worm whose payload streams from an in-progress reception
  /// (cut-through): transmission proceeds as bytes arrive.
  void send_cut_through(WormPtr worm, std::shared_ptr<RxProgress> follow);
  /// Queues a control worm (ACK/NACK) ahead of data worms.
  void send_control(WormPtr worm);

  [[nodiscard]] std::size_t tx_queue_depth() const {
    return tx_queue_.size() + control_queue_.size();
  }

  /// Estimated resident bytes for this adapter (memory audit).
  [[nodiscard]] std::size_t heap_bytes_estimate() const {
    return sizeof(HostAdapter) + control_queue_.heap_bytes_estimate() +
           tx_queue_.heap_bytes_estimate();
  }
  /// Data worms queued or transmitting that this host *originated* (as
  /// opposed to copies it forwards for others). Saturating applications use
  /// this to model "send the next packet as soon as the previous own packet
  /// left the card".
  [[nodiscard]] std::size_t queued_own_originations() const;
  [[nodiscard]] bool tx_idle() const {
    return !tx_active_ && tx_queue_.empty() && control_queue_.empty();
  }

  /// Fires whenever a transmitted tail leaves queued_own_originations() at
  /// zero — the wake signal for fast-forwarded saturating applications
  /// (bench/idle_poller.h). Only covers the transmit path: a crash or purge
  /// can also drain the queue without a tail, so drivers that inject
  /// faults should poll naively instead, with a body bound <= now.
  void set_drain_listener(std::function<void()> listener) {
    drain_listener_ = std::move(listener);
  }

  /// Crash-stop support: discard every queued (not yet started) worm. The
  /// active plan finishes — its DMA is committed to the wire — but nothing
  /// queued behind it ever leaves a dead host.
  void drop_queued_tx() {
    control_queue_.clear();
    tx_queue_.clear();
  }

  /// Repair support: discard queued worms addressed to `dst` (a host the
  /// network declared dead). Retargeted retransmissions would otherwise
  /// queue behind this stale backlog and arrive too late to matter. The
  /// active plan is never touched (committed DMA). Returns the count.
  std::size_t purge_tx_to(HostId dst);

  // Counters. "Worms" are data worms; ACK/NACK arrivals are counted
  // separately as control traffic.
  [[nodiscard]] std::int64_t worms_sent() const { return worms_sent_; }
  [[nodiscard]] std::int64_t worms_received() const { return worms_received_; }
  [[nodiscard]] std::int64_t worms_dropped() const { return worms_dropped_; }
  [[nodiscard]] std::int64_t worms_truncated() const { return worms_truncated_; }
  [[nodiscard]] std::int64_t control_received() const { return control_received_; }
  [[nodiscard]] std::int64_t payload_bytes_received() const {
    return payload_bytes_received_;
  }

  // ByteFeed (transmit side; called by the host's uplink channel).
  [[nodiscard]] std::int64_t run_available() const override;
  TxByte take(std::int64_t n) override;
  void on_tail_sent() override;

  // RxSink (receive side; called by the host's downlink channel).
  void on_head(const WormPtr& worm, std::int64_t wire_len, bool tail) override;
  void on_body(std::int64_t n, bool tail) override;
  /// Tail-byte completion: closes the in-progress reception (also invoked
  /// straight from on_head for single-byte trailer-only fragments).
  void finish_rx();
  /// The adapter drains the link at line rate and never backpressures the
  /// fabric (Section 2): there is no STOP/GO to protect, so every worm
  /// drains and any run the upstream can commit is absorbable.
  [[nodiscard]] bool drains_freely(const Worm& /*worm*/) const override {
    return true;
  }

 private:
  struct TxPlan {
    WormPtr worm;
    std::shared_ptr<RxProgress> follow;  // cut-through source, or null
    std::int64_t wire_len = 0;
    std::int64_t sent = 0;
  };

  void enqueue(TxPlan plan, bool priority);
  void start_next();
  [[nodiscard]] bool done_is_switch_mcast() const;
  /// Bytes of the plan sendable by `by` under per-byte semantics: a
  /// cut-through follow only exposes the payload logically arrived by then.
  /// At kTimeNever it counts all physically buffered payload — the run
  /// commitment bound (pending bytes arrive one per byte-time, matching
  /// the send rate, so they are committable once one byte has arrived).
  [[nodiscard]] std::int64_t sendable_bytes(const TxPlan& plan, Time by) const;
  [[nodiscard]] bool follow_closed(const TxPlan& plan) const;

  Simulator& sim_;
  Channel& tx_channel_;
  HostId host_;
  AdapterConfig config_;
  AdapterClient* client_ = nullptr;
  FaultInjector* faults_ = nullptr;
  std::function<void()> drain_listener_;

  // Transmit state.
  LazyDeque<TxPlan> control_queue_;
  LazyDeque<TxPlan> tx_queue_;
  bool tx_active_ = false;   // a plan is attached to the channel
  bool tx_gap_ = false;      // waiting out the per-worm overhead
  TxPlan current_;

  // Receive state.
  WormPtr rx_worm_;
  std::shared_ptr<RxProgress> rx_progress_;
  std::int64_t rx_wire_len_ = 0;
  std::int64_t rx_received_ = 0;
  bool rx_accepted_ = false;

  // Counters.
  std::int64_t worms_sent_ = 0;
  std::int64_t worms_received_ = 0;
  std::int64_t worms_dropped_ = 0;
  std::int64_t worms_truncated_ = 0;
  std::int64_t control_received_ = 0;
  std::int64_t payload_bytes_received_ = 0;
};

}  // namespace wormcast

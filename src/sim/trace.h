// wormtrace: a flight-recorder tracing layer for the simulator.
//
// A `Tracer` is a fixed-capacity ring buffer of small POD `TraceEvent`
// records. Components call the WORMTRACE macro at decision points (STOP/GO
// transitions, arbitration grants, multicast scheme decisions, protocol
// timers); when tracing is disabled the macro costs one predicted branch.
//
// The ring never allocates after enable(): a full ring overwrites the
// oldest events, so at any moment it holds the *last N* decisions — what
// the deadlock watchdog dumps when a run wedges, and what trace_export
// turns into Chrome trace-event JSON (Perfetto-viewable).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/types.h"

namespace wormcast {

/// Typed trace events. Grouped by the component that records them; the
/// group determines the export track (see trace_track_of).
enum class TraceEventType : std::uint8_t {
  // Channel (track: the transmitter end, "chan <node>.<port>").
  kChanStop,      // STOP took effect at the transmitter
  kChanGo,        // GO took effect at the transmitter
  kChanHead,      // worm head byte committed; arg = wire_len
  kChanTail,      // worm tail byte committed (span close for kChanHead)
  kChanBurst,     // burst commit; arg = bytes in the run
  kChanSwallow,   // fault classification swallowed this worm's bytes

  // Switch output port (track: "sw <node>.out<port>").
  kArbGrant,        // arbitration winner; arg = winning input port
  kMcastHold,       // branch waiting to claim a busy port (hold decision)
  kMcastFragOpen,   // branch fragment opened on this port
  kMcastFragClose,  // branch fragment closed / released; arg = 1 if final
  kMcastIdleFlush,  // scheme (c): blocked unicast flushed; arg = worm src

  // Switch input port (track: "sw <node>.in<port>").
  kMcastStart,      // replication connection opened; arg = branch count
  kMcastInterrupt,  // scheme (b): open branches told to end their fragments
  kMcastFinish,     // replication connection complete (span close)

  // Host adapter (track: "adapter h<host>").
  kAdpTxStart,      // worm transmission began; arg = wire_len
  kAdpTxDone,       // worm fully transmitted (span close)
  kAdpRxHead,       // reception began; arg = wire_len
  kAdpRxDone,       // reception ended (span close); arg = payload bytes
  kAdpRxDrop,       // worm dropped at the head; arg = 1 fault, 0 client
  kAdpRxTruncated,  // reception ended short (fault-injected kill)

  // Host protocol (track: "host h<host>").
  kProtoReserve,     // buffer reservation succeeded; arg = bytes
  kProtoAckSent,     // ACK control worm queued
  kProtoNackSent,    // NACK control worm queued (reservation refused)
  kProtoAckTimeout,  // ACK timer fired un-ACKed; arg = successor host
  kProtoRetransmit,  // backoff elapsed, copy re-sent; arg = successor host
  kProtoSendFailed,  // max_attempts exhausted; arg = successor host
  kProtoDuplicate,   // duplicate copy suppressed (re-ACKed)
  kProtoSuspect,     // failure detector accused a peer; arg = suspect
  kProtoProbe,       // liveness probe queued; arg = target host
  kProtoRepair,      // peer declared dead, structures repaired; arg = peer
  kProtoDeliver,     // payload handed to the application; arg = origin host
  kProtoRelease,     // forwarding reservation returned; arg = bytes freed
  kProtoCrash,       // this host crash-stopped (silent to its peers)

  // Membership churn (track: "host h<host>"; arg = group id unless noted).
  kProtoJoinRequest,  // join submitted to the membership coordinator
  kProtoJoinApplied,  // join spliced into the group structures
  kProtoJoinShed,     // join shed under overload (retry may follow)
  kProtoLeave,        // voluntary departure applied (clean, not a failure)
  kProtoRejoin,       // join recognized as a rejoin of a former member
  kProtoDedupReset,   // rejoin epoch: the group's dedup window was reset
};

/// Export track families (one Perfetto thread per (track, node, port)).
enum class TraceTrack : std::uint8_t {
  kChannel,
  kSwitchOut,
  kSwitchIn,
  kAdapter,
  kHost,
};

[[nodiscard]] const char* trace_event_name(TraceEventType type);
[[nodiscard]] TraceTrack trace_track_of(TraceEventType type);

/// One recorded decision. POD, fixed size: recording is a store, never an
/// allocation.
struct TraceEvent {
  Time t = 0;                 // byte-time of the decision
  std::uint64_t worm = 0;     // worm/message id, 0 when not applicable
  std::int64_t arg = 0;       // type-specific detail (see the enum)
  TraceEventType type = TraceEventType::kChanStop;
  std::int32_t node = -1;     // switch node / host id (track identity)
  std::int32_t port = -1;     // port id, -1 for per-host tracks
};

/// The flight recorder: last-N ring of TraceEvents, runtime-enabled.
class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 16;

  /// Allocates the ring (rounded up to a power of two) and starts
  /// recording. Re-enabling with a different capacity discards the ring.
  void enable(std::size_t capacity = kDefaultCapacity);
  void disable() { enabled_ = false; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Hot path: one store into the ring. Caller must check enabled().
  void record(Time t, TraceEventType type, std::int32_t node,
              std::int32_t port, std::uint64_t worm, std::int64_t arg) {
    TraceEvent& e = ring_[static_cast<std::size_t>(total_) & mask_];
    e.t = t;
    e.worm = worm;
    e.arg = arg;
    e.type = type;
    e.node = node;
    e.port = port;
    ++total_;
  }

  /// Events recorded since enable() (including ones the ring overwrote).
  [[nodiscard]] std::int64_t recorded() const { return total_; }
  /// Events lost to ring wrap-around.
  [[nodiscard]] std::int64_t dropped() const {
    const auto cap = static_cast<std::int64_t>(ring_.size());
    return total_ > cap ? total_ - cap : 0;
  }
  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }

  /// The last min(last_n, recorded, capacity) events, oldest first.
  [[nodiscard]] std::vector<TraceEvent> snapshot(
      std::size_t last_n = kDefaultCapacity * 16) const;

 private:
  bool enabled_ = false;
  std::size_t mask_ = 0;
  std::int64_t total_ = 0;
  std::vector<TraceEvent> ring_;
};

}  // namespace wormcast

// The instrumentation macro. `sim` is a Simulator&; arguments after `type`
// are (node, port, worm_id, arg) and are NOT evaluated unless tracing is
// enabled.
#define WORMTRACE(sim, type, node, port, worm, arg)                       \
  do {                                                                    \
    ::wormcast::Tracer& wormtrace_tr_ = (sim).tracer();                   \
    if (wormtrace_tr_.enabled())                                          \
      wormtrace_tr_.record((sim).now(), ::wormcast::TraceEventType::type, \
                           static_cast<std::int32_t>(node),               \
                           static_cast<std::int32_t>(port),               \
                           static_cast<std::uint64_t>(worm),              \
                           static_cast<std::int64_t>(arg));               \
  } while (0)

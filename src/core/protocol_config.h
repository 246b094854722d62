// Configuration of the host-adapter multicast protocols (Sections 4-6).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "sim/random.h"
#include "sim/types.h"

namespace wormcast {

/// Which multicast scheme the hosts run.
enum class Scheme : std::uint8_t {
  /// Myrinet's stock behaviour: the source unicasts a copy to every member
  /// (Section 2, "multicopy unicasting"). The baseline the paper criticizes.
  kRepeatedUnicast,
  /// Hamiltonian circuit, store-and-forward at each member (Section 5).
  kHamiltonianSF,
  /// Hamiltonian circuit with cut-through at each member when the adapter
  /// transmitter is free (Section 5 / Figure 10's middle curve).
  kHamiltonianCT,
  /// Rooted tree, store-and-forward, serialized through the root
  /// (Section 6; also gives total ordering).
  kTreeSF,
  /// Rooted tree with cut-through toward the first child.
  kTreeCT,
  /// Rooted tree, originator broadcasts on the tree (climb + descend with
  /// the two-buffer-class rule; lower latency, no total ordering).
  kTreeBroadcast,
  /// The [VLB96] centralized credit scheme the paper contrasts against
  /// (Section 1): before multicasting, the source obtains a cumulative
  /// buffer credit for all destinations from a designated credit-manager
  /// host; sequenced grants give total ordering; the manager replenishes
  /// its pool through a circulating credit-gathering token. Buffers are
  /// never oversubscribed (no NACKs), but latency grows by the
  /// request/grant round trip and buffers sit idle until the token
  /// returns them.
  kCentralizedCredit,
};

[[nodiscard]] constexpr bool scheme_uses_tree(Scheme s) {
  return s == Scheme::kTreeSF || s == Scheme::kTreeCT ||
         s == Scheme::kTreeBroadcast || s == Scheme::kCentralizedCredit;
}
[[nodiscard]] constexpr bool scheme_uses_circuit(Scheme s) {
  return s == Scheme::kHamiltonianSF || s == Scheme::kHamiltonianCT;
}
[[nodiscard]] constexpr bool scheme_cut_through(Scheme s) {
  return s == Scheme::kHamiltonianCT || s == Scheme::kTreeCT;
}

[[nodiscard]] const char* scheme_name(Scheme s);

struct ProtocolConfig {
  Scheme scheme = Scheme::kHamiltonianSF;

  /// Serialize multicasts through the lowest-ID member (circuit) or the
  /// root (tree) so every member receives every message in the same order.
  /// kTreeSF/kTreeCT are root-serialized by construction; this flag applies
  /// the same discipline to the Hamiltonian circuit (Section 5, last par.).
  bool total_ordering = false;

  /// Hamiltonian circuit only: retransmit until the worm returns to its
  /// originator, confirming delivery (Section 5's first method).
  bool circuit_confirm = false;

  /// Implicit buffer reservation with ACK/NACK (Figure 5). When false the
  /// adapters behave like the Section 8 Myrinet implementation: worms that
  /// do not fit in the input pool are silently dropped (Figure 13's loss).
  bool reservation = true;

  /// Two-buffer-class deadlock prevention (Figure 7). Disabling it (while
  /// keeping reservation) is the ablation that exhibits buffer deadlock.
  bool buffer_classes = true;

  /// Forwarding pool per adapter: LANai SRAM (~25 KB in Myrinet) plus any
  /// host-DMA extension [VLB96]. Split across classes when enabled.
  std::int64_t pool_bytes = 50 * 1024;

  /// When nonzero, receptions reserve fixed-size slots of this many bytes
  /// instead of the exact payload — the Myrinet control program manages a
  /// handful of MTU-sized receive buffers, so a 1 KB packet occupies a
  /// whole slot. Used by the Section 8.2 testbed reproduction.
  std::int64_t input_slot_bytes = 0;

  /// Retransmission back-off after a NACK, plus uniform jitter.
  Time retry_backoff = 4000;
  Time retry_jitter = 2000;

  /// End-to-end loss recovery (used with a FaultInjector, see
  /// ExperimentConfig::faults). When > 0 every un-ACKed send arms a timer:
  /// expiry retransmits with the same capped exponential back-off as a
  /// NACK. Receivers then defer their ACK from the worm's head to its full
  /// reception (an ACK-on-head could acknowledge a worm whose tail is later
  /// lost) and deduplicate retransmitted copies by message id. 0 = off:
  /// the lossless-fabric behaviour, a lost worm would wedge its sender.
  Time ack_timeout = 0;

  /// Give up on a send after this many transmissions (timer expiries and
  /// NACKs both count): the reservation is released and the miss is counted
  /// as a `deliveries_failed`. 0 = retry forever (a recoverable fault
  /// pattern then guarantees eventual delivery).
  int max_attempts = 0;

  // --- failure detection & repair (crash-stop hosts) ------------------------
  /// When > 0 (requires recovery, i.e. reservation + ack_timeout), a peer
  /// that has stayed silent for this long past a send's first transmission
  /// despite retries — or that ignores explicit liveness probes — is
  /// suspected crash-stopped: the suspicion is disseminated and every
  /// circuit/tree containing the peer is repaired in place. 0 = off.
  Time suspicion_timeout = 0;

  /// Cap children per node in the rooted tree (0 = unlimited; 2 mimics the
  /// binary trees of [VLB96]).
  int max_tree_fanout = 0;

  // --- kCentralizedCredit ([VLB96]) parameters ------------------------------
  /// Worm-buffer slots the manager believes each host has.
  int credits_per_host = 4;
  /// Gap between credit-gathering token circulations.
  Time token_interval = 5'000;
};

/// Multicast header bytes added to each hop copy (group, hop count,
/// class, message id, sequence), and the header of every control worm.
inline constexpr std::int64_t kMcastHeaderBytes = 8;
/// Payload of ACK/NACK, probe and credit control worms.
inline constexpr std::int64_t kControlPayloadBytes = 8;
/// Receivers remember this many recently completed (message, phase) keys
/// per group for duplicate suppression; a duplicate whose ACK was lost is
/// re-ACKed from this memory instead of being re-delivered or re-forwarded.
inline constexpr std::size_t kDedupWindow = 4096;
/// Host adapter acting as the [VLB96] credit manager.
inline constexpr HostId kCreditManagerHost = 0;
/// After a repair, in-flight messages that may have lost a hop copy inside
/// the dead member (received and ACKed but not yet forwarded) get this long
/// to finish before being abandoned as disrupted.
inline constexpr Time kRepairGrace = 100'000;

/// Gap between explicit liveness probes of a host's protocol neighbours
/// (circuit successor, tree parent and children) while it has traffic in
/// flight; probes catch dead peers that no pending send would expose.
[[nodiscard]] constexpr Time probe_interval(const ProtocolConfig& config) {
  return std::max<Time>(1, config.suspicion_timeout / 4);
}

/// `base` doubled per prior attempt, capped at 16x so a long-outage
/// survivor still retries at a bounded rate. The NACK/ACK-timeout
/// retransmissions and the membership coordinator's join retries share it.
[[nodiscard]] constexpr Time capped_backoff(Time base, int prior_attempts) {
  return base * (Time{1} << std::min(prior_attempts, 4));
}

/// Delay before retransmission number `prior_attempts + 1`: the capped
/// back-off plus uniform jitter so hosts never retry in lockstep. Shared by
/// the NACK and ACK-timeout paths (and unit-tested directly).
[[nodiscard]] Time retry_backoff_delay(const ProtocolConfig& config,
                                       int prior_attempts, RandomStream& rng);

}  // namespace wormcast

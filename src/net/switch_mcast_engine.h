// Switch-level multicasting (Section 3 of the paper).
//
// A kSwitchMcast worm carries its delivery tree as an EncodedMcastRoute
// (Figure 2). One engine instance serves the whole fabric. For every such
// worm that reaches the head of a switch input port it builds a
// *connection*: one branch per output port named by the worm's encoded
// route (or, for a broadcast worm past its climb, one branch per down-link
// of the up/down spanning tree). Branches replicate the incoming byte
// stream in lockstep — the worm advances at the pace of the slowest
// branch, which is exactly the paper's "the time for all destinations is
// determined by the slowest path". Three deadlock-avoidance schemes are
// modeled:
//
//  * kIdleFill (scheme a): non-blocked branches hold their ports and idle
//    (IDLE fill) while a sibling is stalled. Deadlock freedom requires
//    every worm — unicast included — to be routed on the up/down spanning
//    tree only; the route construction enforces it.
//  * kInterrupt (scheme b): multicasts are serialized through the up/down
//    root; when any branch is backpressured, the other branches end their
//    current *fragment* (a self-contained worm carrying the stamped
//    subroute) and release their ports; they re-acquire and resume with a
//    fresh fragment when the stall clears. Destination adapters reassemble
//    fragments; total ordering makes reassembly unambiguous.
//  * kFlushUnicast (scheme c): as kIdleFill, but a port that has carried
//    no data for idle_flush_threshold byte-times while held by a multicast
//    flags multicast-IDLE; a unicast worm blocked on it is flushed from the
//    network (backward reset) and its source retransmits after a random
//    timeout.
//
// Each branch has one lifecycle state: idle (between scheme (b)
// fragments), claiming (queued for its output port), open (a fragment in
// progress on the held port), closing (the fragment's synthetic trailer
// is next) and done (the final tail is taken; the port goes once it is
// sent). A branch holds its port exactly while open or closing, and only
// then does its channel pump for it.
//
// Gang runs (burst mode, DESIGN §6b). Lockstep means a branch advances
// only while it sits at the connection's minimum body_taken, so every
// branch is at the minimum L or one ahead at L+1. When, at tick t, every
// branch is mid-body (Branch state kOpen, head and prefix gone),
// every branch channel can take a run of n bytes now, and the input holds
// the bytes, each branch would send one body byte per tick for the next
// n ticks under per-byte stepping. The first branch channel to pump in
// tick t then commits that run for the whole connection, the input
// releases its n bytes (they leave its logical occupancy one per tick),
// and every sibling's pump in the same tick takes exactly the same n.
// A branch's head steps alone and the rest of its subroute prefix leaves
// as one run (nothing but a STOP, which the channel's cap handles, can
// hold a prefix byte once the encoding has arrived). Fragment trailers,
// final tails and ticks where the gang condition fails are runs of one
// through the same Branch state machine; results are bit-identical
// either way. When every branch also drains freely downstream, the
// connection is established (drains_freely): the channel into its input
// and every branch channel below it are no longer bound by the receiver's
// slack budget, so an uncontended tree crosses each hop as head, prefix
// run, a few budget-sized runs while the branches below open, one body
// run and tail.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/channel.h"
#include "net/switch_rt.h"
#include "net/topology.h"
#include "net/updown.h"
#include "net/worm.h"
#include "sim/arena.h"

namespace wormcast {

enum class SwitchMcastScheme : std::uint8_t {
  kIdleFill,      // scheme (a): hold all branches, fill with IDLEs
  kInterrupt,     // scheme (b): release non-blocked branches, fragment
  kFlushUnicast,  // scheme (c): flush unicasts blocked on multicast-IDLE ports
};

struct SwitchMcastConfig {
  SwitchMcastScheme scheme = SwitchMcastScheme::kIdleFill;
  /// Scheme (c): idle time after which a multicast-held port is flagged
  /// multicast-IDLE.
  Time idle_flush_threshold = 256;
  /// Scheme (b): stall-detection / fragment-reopen polling interval.
  Time interrupt_check = 64;
};

class SwitchMcastEngine {
 public:
  /// Per-switch fragment worms come from `worm_pool`, the network's shared
  /// worm arena, so they recycle instead of allocating.
  SwitchMcastEngine(Simulator& sim, const Topology& topo,
                    const UpDownRouting& routing, RecyclePool<Worm>& worm_pool,
                    SwitchMcastConfig config = SwitchMcastConfig());
  ~SwitchMcastEngine();
  SwitchMcastEngine(const SwitchMcastEngine&) = delete;
  SwitchMcastEngine& operator=(const SwitchMcastEngine&) = delete;

  /// The front worm of `in` is a routed kSwitchMcast worm; take it over.
  void start(InPort& in);
  /// More bytes of the front worm arrived at `in`.
  void on_input_bytes(InPort& in);
  /// A unicast worm at `in` requested output `out`, which a multicast
  /// branch holds. Returns true when it flushed the unicast (scheme (c));
  /// false lets it wait in the arbitration queue.
  bool maybe_flush_unicast(SwitchRt& sw, InPort& in, PortId out);
  /// True when every branch of `conn` is mid-body and its channel drains
  /// the branch's fragment freely (Channel::drains_freely): the connection
  /// then removes an input byte in every tick one arrives. The input
  /// port's established-worm walk (InPort::drains_freely) goes on here.
  [[nodiscard]] bool drains_freely(const McastConn& conn) const;

  /// Called when a unicast worm is flushed (scheme (c)); the host side
  /// schedules the retransmission.
  using FlushHandler = std::function<void(const WormPtr&)>;
  void set_flush_handler(FlushHandler handler) { flush_handler_ = std::move(handler); }

  [[nodiscard]] std::int64_t connections_opened() const { return connections_; }
  [[nodiscard]] std::int64_t fragments_sent() const { return fragments_; }
  [[nodiscard]] std::int64_t unicasts_flushed() const { return flushed_; }

 private:
  friend struct McastConn;
  using Conn = McastConn;
  class BranchFeed;
  struct Branch;

  void open_fragment(Conn& conn, std::size_t idx);
  void claim_complete(Conn& conn, std::size_t idx);
  void close_fragment(Conn& conn, std::size_t idx);
  void branch_tail_sent(Conn& conn, std::size_t idx);
  [[nodiscard]] std::int64_t branch_run(const Conn& conn,
                                        std::size_t idx) const;
  TxByte branch_take(Conn& conn, std::size_t idx, std::int64_t n);
  [[nodiscard]] Time branch_next_byte_time(const Conn& conn,
                                           std::size_t idx) const;
  [[nodiscard]] bool branch_waits_for_kick(const Conn& conn,
                                           std::size_t idx) const;
  [[nodiscard]] std::int64_t gang_room(const Conn& conn) const;
  void commit_gang(Conn& conn, std::size_t idx, std::int64_t n);
  void after_body_take(Conn& conn);
  void consume_prefix(Conn& conn);
  void kick_all(Conn& conn);
  void periodic_check(InPort* key);
  void watch_for_flush(SwitchRt* sw, InPort* in, PortId out);
  /// Flushes the unicast at the front of `in` blocked on `out`: trace,
  /// discard, count, notify the host side (`arrival_first`: see
  /// InPort::flush_front).
  void flush(SwitchRt& sw, InPort& in, PortId out, bool arrival_first);
  void finish(Conn& conn);
  [[nodiscard]] bool any_branch_stopped(const Conn& conn) const;

  Simulator& sim_;
  const Topology& topo_;
  const UpDownRouting& routing_;
  SwitchMcastConfig config_;
  FlushHandler flush_handler_;
  RecyclePool<Worm>& worm_pool_;  // Network-owned
  std::unordered_map<InPort*, std::unique_ptr<Conn>> conns_;
  std::int64_t connections_ = 0;
  std::int64_t fragments_ = 0;
  std::int64_t flushed_ = 0;
};

}  // namespace wormcast

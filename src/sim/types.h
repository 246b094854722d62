// Fundamental scalar types shared by every wormcast module.
//
// The simulation clock counts *byte-times*: the time for one byte to cross
// one link. At Myrinet's 640 Mb/s a byte-time is 12.5 ns; all latencies in
// the paper's simulation section (and in ours) are reported in byte-times.
#pragma once

#include <cstdint>
#include <limits>

namespace wormcast {

/// Simulated time in byte-times (1 byte per link per byte-time).
using Time = std::int64_t;

/// Sentinel for "no time" / "never".
inline constexpr Time kTimeNever = std::numeric_limits<Time>::max();

/// Index of a node (switch or host) in a Topology.
using NodeId = std::int32_t;
inline constexpr NodeId kNoNode = -1;

/// Host identifier. Hosts are numbered independently of NodeId; the
/// low-to-high HostId ordering is what the deadlock-prevention rules of the
/// paper (Sections 4-6) are defined over.
using HostId = std::int32_t;
inline constexpr HostId kNoHost = -1;

/// Index of a (full-duplex) link in a Topology.
using LinkId = std::int32_t;
inline constexpr LinkId kNoLink = -1;

/// A port number on a switch or host (Myrinet source routes are sequences
/// of output-port bytes, so ports must fit in a byte).
using PortId = std::int16_t;
inline constexpr PortId kNoPort = -1;

/// Unique worm identifier (assigned at injection).
using WormId = std::uint64_t;

/// Multicast group identifier. The Myrinet implementation (Section 8.1)
/// uses an 8-bit space with 255 reserved for broadcast.
using GroupId = std::int32_t;
inline constexpr GroupId kNoGroup = -1;
inline constexpr GroupId kBroadcastGroup = 255;

/// One key per (group, host) pair: the group in the high 32 bits.
[[nodiscard]] constexpr std::uint64_t group_host_key(GroupId g, HostId h) {
  return (std::uint64_t{static_cast<std::uint32_t>(g)} << 32) |
         static_cast<std::uint32_t>(h);
}

}  // namespace wormcast

// Myrinet-style source routes.
//
// A unicast source route is the list of switch output-port numbers on the
// path from source host to destination host; each switch consumes (strips)
// the leading byte. A multicast source route (Section 3 / Figure 2 of the
// paper) is a depth-first linearization of the delivery *tree*: at each
// switch the header holds one or more (port, pointer) pairs, where the
// pointer is a byte count to the start of the next subtree's route and the
// bytes in between form the leftmost subtree's route; `E` marks the end of
// a branch list.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.h"

namespace wormcast {

/// Linear (unicast) source route: output port to take at each switch.
class SourceRoute {
 public:
  SourceRoute() = default;
  explicit SourceRoute(std::vector<PortId> ports) : ports_(std::move(ports)) {}

  [[nodiscard]] std::size_t size() const { return ports_.size(); }
  [[nodiscard]] bool empty() const { return ports_.empty(); }
  /// Empties the route but keeps the allocation (worm-recycling path).
  void clear() { ports_.clear(); }
  [[nodiscard]] PortId at(std::size_t hop) const { return ports_[hop]; }
  [[nodiscard]] const std::vector<PortId>& ports() const { return ports_; }
  /// In-place access for the router, which rewrites recycled routes.
  [[nodiscard]] std::vector<PortId>& mutable_ports() { return ports_; }

  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<PortId> ports_;
};

/// A multicast route tree: the output port taken at a switch plus the
/// subtrees hanging off the downstream switch. A leaf edge is the final hop
/// to a destination host's port.
struct McastRouteTree {
  PortId port = kNoPort;
  std::vector<McastRouteTree> children;  // subtrees at the *next* switch

  friend bool operator==(const McastRouteTree&, const McastRouteTree&) = default;
};

/// Encoded multicast source route (Figure 2): a byte string of
/// port / pointer / end-marker entries as carried in the worm header.
///
/// Encoding grammar per switch:  branch* E  where
///   branch := PORT POINTER subroute     (POINTER = byte distance from the
///             position after the pointer to the next branch's PORT)
/// A leaf branch has an empty subroute (its pointer points at the next
/// branch or at the terminating E).
class EncodedMcastRoute {
 public:
  EncodedMcastRoute() = default;

  /// Builds the wire encoding for a list of branches leaving the first
  /// switch (the forest hanging off the injection switch).
  static EncodedMcastRoute encode(const std::vector<McastRouteTree>& branches);

  /// Wraps raw wire bytes (e.g. received off the link); validity is checked
  /// lazily by split()/decode().
  static EncodedMcastRoute from_bytes(std::vector<std::uint8_t> bytes) {
    return EncodedMcastRoute(std::move(bytes));
  }

  /// Splits the route at a switch: returns, for each branch leaving this
  /// switch, the output port and the encoded route to stamp on the copy
  /// exiting that port. Throws std::invalid_argument on malformed input.
  [[nodiscard]] std::vector<struct McastBranch> split() const;

  /// Decodes the full tree (inverse of encode); used by tests and tools.
  [[nodiscard]] std::vector<McastRouteTree> decode() const;

  [[nodiscard]] std::size_t size_bytes() const { return bytes_.size(); }
  [[nodiscard]] bool empty() const;
  /// Empties the route but keeps the allocation (worm-recycling path).
  void clear() { bytes_.clear(); }
  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const EncodedMcastRoute&, const EncodedMcastRoute&) = default;

 private:
  explicit EncodedMcastRoute(std::vector<std::uint8_t> bytes)
      : bytes_(std::move(bytes)) {}

  static void encode_level(const std::vector<McastRouteTree>& branches,
                           std::vector<std::uint8_t>& out);

  // Wire bytes. Values 0..kMaxPort are ports; kEndMarker terminates a
  // branch list; pointers are raw byte counts.
  std::vector<std::uint8_t> bytes_;
};

/// One branch leaving a switch, as produced by EncodedMcastRoute::split().
struct McastBranch {
  PortId port = kNoPort;
  EncodedMcastRoute subroute;
};

/// Port values must leave room for the end marker in the 8-bit space.
inline constexpr std::uint8_t kRouteEndMarker = 0xFF;
inline constexpr int kMaxEncodablePort = 0xFE;

}  // namespace wormcast

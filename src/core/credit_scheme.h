// The [VLB96] centralized credit scheme, the paper's contrast baseline
// (Section 1): before multicasting, a source obtains one buffer credit at
// every host that will hold its message from a designated manager;
// sequenced grants give total ordering, and a circulating token carries
// freed slots home. This class keeps the books and the grant policy;
// HostProtocol moves the request, grant and token worms.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/group_tables.h"
#include "sim/lazy_deque.h"

namespace wormcast {

class CreditManager {
 public:
  struct Request {
    std::uint64_t message_id = 0;
    GroupId group = kNoGroup;
    HostId origin = kNoHost;
  };

  /// Makes this host the manager of `n_hosts` hosts with `per_host` slots.
  void become_manager(int n_hosts, int per_host) {
    credits_.assign(static_cast<std::size_t>(n_hosts), per_host);
  }
  void request(const Request& r) { pending_.push_back(r); }
  /// Grants the oldest request once every host that will buffer its
  /// message holds a credit, debiting them. Grants are sequenced, so a
  /// blocked head blocks the rest.
  [[nodiscard]] std::optional<Request> grant(const GroupTables& tables);
  /// True (and the token is out) when none is out and credits are in the
  /// field or requests wait; an idle network stays quiescent.
  [[nodiscard]] bool start_token(int per_host);
  /// The token came home: bank what it collected plus the manager's own
  /// freed slots.
  void bank(const std::vector<std::int64_t>& collected, HostId self);

  /// Every host: a credited slot was freed; it rides home on the next token.
  void slot_freed() { ++freed_; }
  [[nodiscard]] std::int64_t take_freed() { return std::exchange(freed_, 0); }

 private:
  std::vector<std::int64_t> credits_;  // manager's view, per host
  LazyDeque<Request> pending_;
  std::int64_t freed_ = 0;
  bool token_out_ = false;  // a token is scheduled or circulating
};

}  // namespace wormcast

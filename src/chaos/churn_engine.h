// Membership-churn workload driver: a Poisson stream of voluntary
// leave/join/rejoin requests against a Network's membership coordinator.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/network.h"
#include "sim/random.h"

namespace wormcast {

struct ChurnConfig {
  /// Mean byte-times between churn operations (exponential gaps). 0
  /// disables the engine.
  Time mean_gap = 0;
  /// Operations are issued in [from, until).
  Time from = 0;
  Time until = 0;
};

/// Probability a churn operation is a leave (otherwise a join attempt).
/// The engine keeps groups between kChurnMinMembers and the full host set,
/// so the realized mix self-balances around the bias.
inline constexpr double kChurnLeaveBias = 0.5;
/// Probability a join re-admits a member the engine previously made leave
/// (a *rejoin*, exercising the dedup-epoch path) rather than a never-member
/// host.
inline constexpr double kChurnRejoinBias = 0.75;
/// Never shrink a group below this size with engine-issued leaves.
inline constexpr int kChurnMinMembers = 2;

/// Drives churn dynamically: each tick inspects the *current* tables
/// (membership may have shifted under repairs and earlier churn), picks a
/// group and an eligible host from its own RandomStream, and submits the
/// request through Network::request_join/request_leave. One engine per
/// Network with a seed forked from the point seed keeps every sweep point
/// independent and --jobs invariant; within a run the draw order is the
/// deterministic event order.
class ChurnEngine {
 public:
  ChurnEngine(Network& net, std::vector<GroupId> groups, ChurnConfig config,
              RandomStream rng);

  /// Schedules the first tick; call once before Network::run.
  void start();

  [[nodiscard]] std::int64_t ops_issued() const { return ops_issued_; }

 private:
  void tick();
  void issue_leave(GroupId g);
  void issue_join(GroupId g);

  Network& net_;
  std::vector<GroupId> groups_;
  ChurnConfig config_;
  RandomStream rng_;
  /// Hosts this engine made leave each group, newest last: the rejoin
  /// pool. (Hosts removed by the failure detector never enter it — a
  /// crashed host cannot come back.)
  std::unordered_map<GroupId, std::vector<HostId>> parked_;
  std::int64_t ops_issued_ = 0;
};

}  // namespace wormcast

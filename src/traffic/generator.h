// Workload generation (Section 7.1).
//
// Per host: Poisson worm generation; geometrically distributed lengths
// (mean 400 bytes in the paper); each generated worm is a multicast with
// probability `multicast_fraction` when the host belongs to at least one
// group, choosing uniformly among the host's groups; unicast destinations
// are uniform over the other hosts. The offered load is the output-link
// utilization per host: mean inter-arrival = mean_worm_len / offered_load.
#pragma once

#include <functional>
#include <vector>

#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/types.h"
#include "traffic/groups.h"

namespace wormcast {

struct TrafficConfig {
  double offered_load = 0.05;   // bytes per byte-time per host (= utilization)
  double mean_worm_len = 400.0;
  double multicast_fraction = 0.10;
};

/// Bounds of a generated worm's payload length.
inline constexpr std::int64_t kMinWormLen = 16;
inline constexpr std::int64_t kMaxWormLen = 9 * 1024;  // Myrinet's LANai worm cap

/// One application send request.
struct Demand {
  HostId src = kNoHost;
  bool multicast = false;
  GroupId group = kNoGroup;  // multicast only
  HostId dst = kNoHost;      // unicast only
  std::int64_t length = 0;   // payload bytes
};

class TrafficGenerator {
 public:
  using Sink = std::function<void(const Demand&)>;

  TrafficGenerator(Simulator& sim, TrafficConfig config,
                   std::vector<MulticastGroupSpec> groups, int n_hosts,
                   RandomStream rng, Sink sink);

  /// Starts all host processes; generation ceases after `until`.
  void start(Time until);

  [[nodiscard]] std::int64_t demands_issued() const { return issued_; }

 private:
  void schedule_next(HostId h);
  void fire(HostId h);

  Simulator& sim_;
  TrafficConfig config_;
  std::vector<MulticastGroupSpec> groups_;
  std::vector<std::vector<GroupId>> groups_of_host_;
  int n_hosts_;
  std::vector<RandomStream> rngs_;  // one stream per host
  Sink sink_;
  Time until_ = 0;
  std::int64_t issued_ = 0;
};

}  // namespace wormcast

// The memory-audit acceptance point: a 4k-host fabric (64x64 torus, one
// host per switch) must construct well inside 2 GiB. The capacity-based
// mem_* counters are the budget we assert on — they are deterministic,
// unlike RSS — and the LazyDeque trim (sim/lazy_deque.h) is what keeps
// the fabric term small: ~70k port/channel queues at ~600 bytes of eager
// deque chunk each used to dominate construction.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/network.h"
#include "net/topologies.h"

namespace wormcast {
namespace {

TEST(MemoryAudit, FourKHostNetworkBuildsSmall) {
  ExperimentConfig cfg;
  cfg.traffic.offered_load = 1e-9;
  std::vector<MulticastGroupSpec> groups;
  for (int g = 0; g * 8 < 64 * 64; ++g) {
    MulticastGroupSpec spec;
    spec.id = g;
    for (int m = g * 8; m < (g + 1) * 8; ++m) spec.members.push_back(m);
    groups.push_back(std::move(spec));
  }
  Network net(make_torus(64, 64), std::move(groups), cfg);
  CounterRegistry reg;
  net.register_counters(reg);
  double total = 0.0;
  double fabric = 0.0;
  for (const auto& [name, value] : reg.snapshot()) {
    if (name.rfind("mem_", 0) == 0) total += value;
    if (name == "mem_fabric_bytes") fabric = value;
  }
  EXPECT_GT(fabric, 0.0);
  // Audited subsystems stay under 256 MiB — an order of magnitude inside
  // the 2 GiB budget, with slack for the unaudited remainder (object
  // shells, closures, strings) which the RSS probe puts at ~2x.
  EXPECT_LT(total, 256.0 * 1024 * 1024);
  // The fabric term specifically: ~2.1 KiB per channel direction and
  // ~1.3 KiB per switch, not the ~16 KiB per node the eager queues cost.
  EXPECT_LT(fabric, 32.0 * 1024 * 1024);
}

}  // namespace
}  // namespace wormcast

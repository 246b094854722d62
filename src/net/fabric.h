// The runtime fabric: channels and switches instantiated from a Topology.
#pragma once

#include <memory>
#include <vector>

#include "net/channel.h"
#include "net/switch_rt.h"
#include "net/topology.h"
#include "sim/simulator.h"
#include "sim/types.h"

namespace wormcast {

struct FabricConfig {
  SwitchConfig sw;
  /// Burst-mode channel hot path (bit-for-bit identical results; per-byte
  /// mode exists for the determinism-equivalence suite and debugging).
  bool burst_channels = true;
};

/// Owns every channel and switch of the network. Host adapters plug into
/// their attachment channels: they attach a ByteFeed to host_tx_channel()
/// and install an RxSink on host_rx_channel().
class Fabric {
 public:
  Fabric(Simulator& sim, const Topology& topo, FabricConfig config = {});
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;
  ~Fabric();

  [[nodiscard]] Simulator& sim() { return sim_; }
  [[nodiscard]] const Topology& topology() const { return topo_; }
  [[nodiscard]] const FabricConfig& config() const { return config_; }

  /// Channel carrying bytes from host `h` into its switch.
  [[nodiscard]] Channel& host_tx_channel(HostId h);
  /// Channel carrying bytes from the switch down to host `h`.
  [[nodiscard]] Channel& host_rx_channel(HostId h);

  [[nodiscard]] SwitchRt& switch_at(NodeId node);

  /// Directed channel over link `l` transmitting out of node `from`.
  [[nodiscard]] Channel& channel_from(LinkId l, NodeId from);

  /// Installs a switch-level multicast engine on every switch.
  void install_mcast_engine(SwitchMcastEngine* engine);

  /// Installs the experiment's fault injector on every channel.
  void install_fault_injector(FaultInjector* faults);

  /// Sum of slack-buffer overflow events across switches (must stay 0).
  [[nodiscard]] std::int64_t total_overflows() const;

  /// Estimated resident bytes for the whole fabric — every channel
  /// direction plus every switch and its ports (memory audit,
  /// mem_fabric_bytes). Capacity-based and deterministic.
  [[nodiscard]] std::size_t heap_bytes_estimate() const;

  /// Total bytes transmitted on all switch-to-switch channels (for
  /// utilization metrics).
  [[nodiscard]] std::int64_t fabric_bytes_sent() const;

  /// Total bytes transmitted out of all host adapters. The paper's
  /// "offered load" axis is this per host per byte-time (output-link
  /// utilization, which includes forwarded multicast copies).
  [[nodiscard]] std::int64_t host_egress_bytes() const;

  /// Bytes transmitted out of node `n` across all its ports: the
  /// forwarding-load signal for root-utilization metrics and the
  /// load-aware tree strategy's probe.
  [[nodiscard]] std::int64_t node_egress_bytes(NodeId n) const;

  /// Total bytes swallowed by injected faults across all channels (link
  /// outages, control drops, the cut portion of truncated worms). Kept
  /// separate from bytes_sent so utilization never counts lost bytes.
  [[nodiscard]] std::int64_t total_bytes_swallowed() const;

 private:
  Simulator& sim_;
  const Topology& topo_;
  FabricConfig config_;
  // Two directed channels per link: index 2*l (a->b) and 2*l+1 (b->a).
  std::vector<std::unique_ptr<Channel>> channels_;
  std::vector<std::unique_ptr<SwitchRt>> switches_;  // by NodeId; null for hosts
};

}  // namespace wormcast

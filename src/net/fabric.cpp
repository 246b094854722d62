#include "net/fabric.h"

#include <cassert>

#include "net/switch_mcast_engine.h"

namespace wormcast {

Fabric::Fabric(Simulator& sim, const Topology& topo, FabricConfig config)
    : sim_(sim), topo_(topo), config_(config) {
  topo_.validate();
  channels_.reserve(static_cast<std::size_t>(topo_.num_links()) * 2);
  for (LinkId l = 0; l < topo_.num_links(); ++l) {
    const Time d = topo_.link(l).delay;
    channels_.push_back(std::make_unique<Channel>(sim_, d));
    channels_.push_back(std::make_unique<Channel>(sim_, d));
  }
  for (auto& ch : channels_) ch->set_burst_enabled(config_.burst_channels);
  // Trace track identity: every channel is named by its transmitter end
  // (node, port) — switch output ports and host uplinks alike.
  for (NodeId n = 0; n < topo_.num_nodes(); ++n) {
    const TopoNode& node = topo_.node(n);
    for (PortId p = 0; p < static_cast<PortId>(node.ports.size()); ++p)
      channel_from(node.ports[p].link, n).set_trace_id(n, p);
  }
  switches_.resize(static_cast<std::size_t>(topo_.num_nodes()));
  for (NodeId n = 0; n < topo_.num_nodes(); ++n) {
    const TopoNode& node = topo_.node(n);
    if (node.kind != NodeKind::kSwitch) continue;
    switches_[n] = std::make_unique<SwitchRt>(
        sim_, n, static_cast<int>(node.ports.size()), config_.sw);
    for (PortId p = 0; p < static_cast<PortId>(node.ports.size()); ++p) {
      const LinkId l = node.ports[p].link;
      Channel& out = channel_from(l, n);
      Channel& in = channel_from(l, topo_.peer(l, n));
      switches_[n]->set_channels(p, &in, &out);
    }
  }
}

Fabric::~Fabric() = default;

Channel& Fabric::channel_from(LinkId l, NodeId from) {
  const TopoLink& lk = topo_.link(l);
  if (lk.node_a == from) return *channels_[static_cast<std::size_t>(l) * 2];
  assert(lk.node_b == from);
  return *channels_[static_cast<std::size_t>(l) * 2 + 1];
}

Channel& Fabric::host_tx_channel(HostId h) {
  const NodeId hn = topo_.node_of_host(h);
  return channel_from(topo_.node(hn).ports[0].link, hn);
}

Channel& Fabric::host_rx_channel(HostId h) {
  const NodeId hn = topo_.node_of_host(h);
  const LinkId l = topo_.node(hn).ports[0].link;
  return channel_from(l, topo_.peer(l, hn));
}

SwitchRt& Fabric::switch_at(NodeId node) {
  assert(switches_[node] != nullptr && "node is not a switch");
  return *switches_[node];
}

void Fabric::install_mcast_engine(SwitchMcastEngine* engine) {
  for (auto& sw : switches_)
    if (sw) sw->set_mcast_engine(engine);
}

void Fabric::install_fault_injector(FaultInjector* faults) {
  for (auto& ch : channels_) ch->set_fault_injector(faults);
}

std::int64_t Fabric::total_overflows() const {
  std::int64_t total = 0;
  for (const auto& sw : switches_)
    if (sw) total += sw->overflows();
  return total;
}

std::int64_t Fabric::host_egress_bytes() const {
  std::int64_t total = 0;
  for (HostId h = 0; h < topo_.num_hosts(); ++h) {
    const NodeId hn = topo_.node_of_host(h);
    const LinkId l = topo_.node(hn).ports[0].link;
    const TopoLink& lk = topo_.link(l);
    const std::size_t idx =
        static_cast<std::size_t>(l) * 2 + (lk.node_a == hn ? 0 : 1);
    total += channels_[idx]->bytes_sent();
  }
  return total;
}

std::int64_t Fabric::node_egress_bytes(NodeId n) const {
  std::int64_t total = 0;
  const TopoNode& node = topo_.node(n);
  for (const TopoPort& p : node.ports) {
    const TopoLink& lk = topo_.link(p.link);
    const std::size_t idx =
        static_cast<std::size_t>(p.link) * 2 + (lk.node_a == n ? 0 : 1);
    total += channels_[idx]->bytes_sent();
  }
  return total;
}

std::int64_t Fabric::fabric_bytes_sent() const {
  std::int64_t total = 0;
  for (const auto& ch : channels_) total += ch->bytes_sent();
  return total;
}

std::int64_t Fabric::total_bytes_swallowed() const {
  std::int64_t total = 0;
  for (const auto& ch : channels_) total += ch->bytes_swallowed();
  return total;
}

std::size_t Fabric::heap_bytes_estimate() const {
  std::size_t bytes = sizeof(Fabric) +
                      channels_.capacity() * sizeof(std::unique_ptr<Channel>) +
                      switches_.capacity() * sizeof(std::unique_ptr<SwitchRt>);
  for (const auto& ch : channels_) bytes += ch->heap_bytes_estimate();
  for (const auto& sw : switches_)
    if (sw) bytes += sw->heap_bytes_estimate();
  return bytes;
}

}  // namespace wormcast

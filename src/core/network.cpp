#include "core/network.h"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <utility>

#include "net/mcast_route_builder.h"
#include "sim/random.h"
#include "sim/trace_export.h"

namespace wormcast {

Network::Network(Topology topo, std::vector<MulticastGroupSpec> groups,
                 ExperimentConfig config)
    : topo_(std::move(topo)),
      groups_(std::move(groups)),
      config_(config) {
  topo_.validate();
  fabric_ = std::make_unique<Fabric>(sim_, topo_, config_.fabric);
  routing_ = std::make_unique<UpDownRouting>(topo_, config_.routing);
  strategy_ =
      make_tree_strategy(config_.tree, topo_, *routing_, config_.routing);
  mcast_engine_ = std::make_unique<SwitchMcastEngine>(
      sim_, topo_, strategy_->primary_routing(), worm_pool_,
      config_.switch_mcast);
  fabric_->install_mcast_engine(mcast_engine_.get());
  tables_ = std::make_unique<GroupTables>(groups_, *routing_,
                                          config_.protocol.max_tree_fanout);
  RandomStream master(config_.seed);
  // The injector always exists (unarmed when no faults are configured) so
  // tests can force faults or schedule outages without rebuilding.
  faults_ = std::make_unique<FaultInjector>(master.fork(0xFA017), config_.faults);
  membership_rng_ = master.fork(0x3E17B);
  fabric_->install_fault_injector(faults_.get());
  const int n = topo_.num_hosts();
  adapters_.reserve(static_cast<std::size_t>(n));
  protocols_.reserve(static_cast<std::size_t>(n));
  for (HostId h = 0; h < n; ++h) {
    adapters_.push_back(
        std::make_unique<HostAdapter>(sim_, *fabric_, h, config_.adapter));
    adapters_.back()->set_fault_injector(faults_.get());
    protocols_.push_back(std::make_unique<HostProtocol>(
        sim_, *adapters_.back(), *routing_, *tables_, metrics_, worm_pool_,
        config_.protocol, master.fork(0x5000 + static_cast<std::uint64_t>(h)),
        n));
    protocols_.back()->set_failure_listener(
        [this](HostId dead) { declare_host_dead(dead); });
  }
  traffic_ = std::make_unique<TrafficGenerator>(
      sim_, config_.traffic, groups_, n, master.fork(0x7AFF1C),
      [this](const Demand& d) { inject(d); });
  mcast_engine_->set_flush_handler([this](const WormPtr& worm) {
    protocols_[worm->src]->on_unicast_flushed(worm);
  });
  gate_node_claims_.assign(static_cast<std::size_t>(topo_.num_nodes()), 0);
  metrics_.set_message_closed_hook(
      [this](const std::shared_ptr<MessageContext>& ctx) {
        on_message_closed(ctx->message_id);
      });
}

Network::~Network() = default;

void Network::inject(const Demand& demand) {
  protocols_[demand.src]->originate(demand);
}

std::shared_ptr<MessageContext> Network::send_switch_multicast(
    HostId src, GroupId group, std::int64_t payload) {
  const CircuitTable& members = tables_->circuit(group);
  const int dests = members.size() - (members.contains(src) ? 1 : 0);
  auto ctx = metrics_.create_message(src, group, payload, dests, sim_.now());
  if (dests == 0) return ctx;
  gate_admit(GatedSend{src, group, payload, /*broadcast=*/false, ctx});
  return ctx;
}

std::shared_ptr<MessageContext> Network::send_switch_broadcast(
    HostId src, std::int64_t payload) {
  auto ctx = metrics_.create_message(src, kBroadcastGroup, payload,
                                     topo_.num_hosts() - 1, sim_.now());
  gate_admit(GatedSend{src, kNoGroup, payload, /*broadcast=*/true, ctx});
  return ctx;
}

// --- multicast admission gate -----------------------------------------------

namespace {
void collect_tree_nodes(const Topology& topo, NodeId at,
                        const McastRouteTree& tree, std::vector<NodeId>* out) {
  const NodeId next = topo.neighbor_via(at, tree.port);
  out->push_back(next);
  for (const McastRouteTree& child : tree.children)
    collect_tree_nodes(topo, next, child, out);
}
}  // namespace

Network::GateClaim Network::gate_footprint(const GatedSend& send) const {
  GateClaim claim;
  std::vector<NodeId>& nodes = claim.nodes;
  if (send.broadcast) {
    // The flood covers the whole spanning tree: claim everything.
    nodes.resize(static_cast<std::size_t>(topo_.num_nodes()));
    for (NodeId n = 0; n < topo_.num_nodes(); ++n)
      nodes[static_cast<std::size_t>(n)] = n;
    return claim;
  }
  nodes.push_back(send.src);
  const NodeId src_sw = topo_.switch_of_host(send.src);
  nodes.push_back(src_sw);
  const CircuitTable& members = tables_->circuit(send.group);
  claim.branches =
      strategy_->plan_multicast(send.group, send.src, members.order()).branches;
  for (const McastRouteTree& branch : claim.branches)
    collect_tree_nodes(topo_, src_sw, branch, &nodes);
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  return claim;
}

bool Network::gate_admissible(const GateClaim& claim) const {
  for (const NodeId n : claim.nodes)
    if (gate_node_claims_[static_cast<std::size_t>(n)] > 0) return false;
  return true;
}

void Network::gate_admit(GatedSend send) {
  // A degenerate message with no live context (a broadcast on a one-host
  // fabric) can never signal close: inject it untracked.
  if (!metrics_.is_outstanding(send.ctx->message_id)) {
    assert(send.broadcast && "only a broadcast can have no destination");
    gate_inject(send, {});
    return;
  }
  if (gate_queue_.empty()) {
    GateClaim claim = gate_footprint(send);
    if (gate_admissible(claim)) {
      gate_dispatch(std::move(send), std::move(claim));
      return;
    }
  }
  // Strict FIFO: once anything queues, later sends queue behind it even if
  // they would be admissible — bypassing would starve the blocked head.
  gate_queue_.push_back(std::move(send));
}

void Network::gate_dispatch(GatedSend send, GateClaim claim) {
  for (const NodeId n : claim.nodes)
    ++gate_node_claims_[static_cast<std::size_t>(n)];
  gated_nodes_.emplace(send.ctx->message_id, std::move(claim.nodes));
  gate_inject(send, claim.branches);
}

void Network::gate_inject(const GatedSend& send,
                          const std::vector<McastRouteTree>& branches) {
  auto worm = worm_pool_.make();
  worm->id = send.ctx->message_id;
  worm->kind = WormKind::kSwitchMcast;
  worm->src = send.src;
  worm->payload = send.payload;
  worm->header = 0;  // metadata rides in the shared message context
  worm->message = send.ctx;
  worm->created_at = send.ctx->created_at;
  if (send.broadcast) {
    worm->broadcast_flood = true;
    worm->route = strategy_->primary_routing().route_to_root(send.src);
  } else {
    worm->mcast_route = EncodedMcastRoute::encode(branches);
  }
  adapters_[send.src]->send(std::move(worm));
}

void Network::on_message_closed(std::uint64_t message_id) {
  const auto it = gated_nodes_.find(message_id);
  if (it == gated_nodes_.end()) return;
  for (const NodeId n : it->second)
    --gate_node_claims_[static_cast<std::size_t>(n)];
  gated_nodes_.erase(it);
  gate_pump();
}

void Network::gate_pump() {
  while (!gate_queue_.empty()) {
    GatedSend& front = gate_queue_.front();
    // A queued message can close while waiting (abandoned at repair time):
    // drop it instead of injecting worms for a dead context.
    if (!metrics_.is_outstanding(front.ctx->message_id)) {
      gate_queue_.pop_front();
      continue;
    }
    // Footprint recomputed per attempt: plans may have changed while the
    // send waited (membership churn, load re-plans, link failures).
    GateClaim claim = gate_footprint(front);
    if (!gate_admissible(claim)) return;  // strict FIFO: head blocks the rest
    GatedSend send = std::move(front);
    gate_queue_.pop_front();
    gate_dispatch(std::move(send), std::move(claim));
  }
}

void Network::crash_host(HostId h, Time when) {
  sim_.at(when, [this, h] {
    faults_->mark_host_dead(h);
    protocols_[h]->on_crash();
  });
}

void Network::fail_link(LinkId l, Time when) {
  sim_.at(when, [this, l] {
    const TopoLink& link = topo_.link(l);
    faults_->kill_link(&fabric_->channel_from(l, link.node_a));
    faults_->kill_link(&fabric_->channel_from(l, link.node_b));
    // Recompute up/down labels around the dead link; this also drops the
    // route table, so every retransmission travels the healed paths. The
    // strategy recomputes its tree routing and drops cached plans.
    routing_->fail_link(l);
    strategy_->fail_link(l);
    ++metrics_.counts.links_failed;
  });
}

bool Network::replan_trees() {
  std::vector<std::int64_t> load(static_cast<std::size_t>(topo_.num_nodes()));
  for (NodeId n = 0; n < topo_.num_nodes(); ++n)
    load[static_cast<std::size_t>(n)] = fabric_->node_egress_bytes(n);
  return strategy_->replan(load);
}

int Network::flap_link(LinkId l, Time from, Time until, Time mean_down,
                       Time mean_up) {
  const TopoLink& link = topo_.link(l);
  // One key per link: both directed channels share the schedule (the link
  // flaps as a unit) and the windows never depend on call order.
  const std::uint64_t key = 0xF1A90000ull + static_cast<std::uint64_t>(l);
  const int windows =
      faults_->schedule_flaps(&fabric_->channel_from(l, link.node_a), from,
                              until, mean_down, mean_up, key);
  faults_->schedule_flaps(&fabric_->channel_from(l, link.node_b), from, until,
                          mean_down, mean_up, key);
  // Deliberately NOT routing_->fail_link(): the link recovers, so cached
  // routes stay valid — invalidating them here would bake every transient
  // outage into the topology forever (the fail_link permanence assumption
  // flap cycles exist to avoid). Retransmissions bridge each down-window.
  return windows;
}

void Network::run(Time warmup, Time measure, Time drain_cap) {
  metrics_.set_window_start(warmup);
  measure_span_ = measure;
  traffic_->start(warmup + measure);
  // Window edges are read between run_until() calls, after every event of
  // the edge tick has fired: mid-tick reads would depend on how events
  // interleave within the tick, which the burst fast path changes.
  run_until(warmup);
  egress_at_window_start_ = fabric_->host_egress_bytes();
  run_until(warmup + measure);
  egress_at_window_end_ = fabric_->host_egress_bytes();
  // Drain: let in-flight messages finish so tail latencies are recorded,
  // bounded so saturated runs terminate.
  const Time drain_deadline = warmup + measure + drain_cap;
  while (metrics_.outstanding() > 0 && sim_.now() < drain_deadline &&
         !sim_.idle()) {
    run_until(std::min(drain_deadline, sim_.now() + 10'000));
  }
}

Network::Summary Network::summary() const {
  Summary s;
  s.counts = metrics_.counts;
  s.offered_load = config_.traffic.offered_load;
  if (measure_span_ > 0) {
    s.measured_utilization =
        static_cast<double>(egress_at_window_end_ - egress_at_window_start_) /
        static_cast<double>(measure_span_) /
        static_cast<double>(topo_.num_hosts());
  }
  s.mcast_latency_mean = metrics_.mcast_latency().mean();
  s.mcast_latency_p95 = metrics_.mcast_latency().percentile(95.0);
  s.mcast_completion_mean = metrics_.mcast_completion().mean();
  s.unicast_latency_mean = metrics_.unicast_latency().mean();
  s.mcast_samples = metrics_.mcast_latency().count();
  s.mcast_completion_samples = metrics_.mcast_completion().count();
  s.unicast_samples = metrics_.unicast_latency().count();
  const double span = measure_span_ > 0 ? static_cast<double>(measure_span_) : 1.0;
  s.throughput_per_host = static_cast<double>(s.counts.payload_delivered) /
                          span / static_cast<double>(topo_.num_hosts());
  s.outstanding = metrics_.outstanding();
  s.oldest_outstanding_age = metrics_.oldest_outstanding_age(sim_.now());
  s.fabric_overflows = fabric_->total_overflows();
  s.faults_injected = faults_->total_injected();
  s.bytes_swallowed = fabric_->total_bytes_swallowed();
  s.hosts_crashed = faults_->hosts_crashed();
  s.hosts_removed = static_cast<std::int64_t>(removed_hosts_.size());
  s.unicasts_flushed = mcast_engine_->unicasts_flushed();
  s.last_repair_time = metrics_.last_repair_time();
  s.join_latency_mean = metrics_.join_latency().mean();
  s.join_latency_p95 = metrics_.join_latency().percentile(95.0);
  s.join_samples = metrics_.join_latency().count();
  s.membership_queue_peak = membership_queue_peak_;
  s.flap_windows = faults_->flap_windows();
  return s;
}

void Network::enable_tracing(std::size_t capacity) {
  sim_.tracer().enable(capacity);
}

bool Network::write_trace(const std::string& path) const {
  return write_chrome_trace(sim_.tracer(), path);
}

check::CheckReport Network::check_expectations() const {
  check::CheckReport rep;
  if (!sim_.tracer().enabled() && trace_recorded() == 0) {
    rep.refusal =
        "tracing is not enabled; call enable_tracing() before the run "
        "(with --check the benches do this automatically)";
    return rep;
  }
  if (trace_dropped() > 0) {
    std::ostringstream why;
    why << "the trace ring wrapped: " << trace_dropped() << " of "
        << trace_recorded() << " events were overwritten (capacity "
        << sim_.tracer().capacity()
        << "), so absence of a violation proves nothing; raise the trace "
           "capacity (--trace-cap) until nothing drops";
    rep.refusal = why.str();
    rep.events_dropped = trace_dropped();
    return rep;
  }

  check::CheckConfig ccfg;
  const ProtocolConfig& p = config_.protocol;
  ccfg.ack_timeout = p.ack_timeout;
  ccfg.retry_backoff = p.retry_backoff;
  ccfg.retry_jitter = p.retry_jitter;
  ccfg.max_attempts = p.max_attempts;
  ccfg.suspicion_timeout = p.suspicion_timeout;
  ccfg.probe_gap = probe_interval(p);
  ccfg.repair_grace = kRepairGrace;
  ccfg.join_grace = kJoinGrace;
  // The idle-flush rule only applies when scheme (c) can actually flush.
  ccfg.idle_flush_threshold =
      config_.switch_mcast.scheme == SwitchMcastScheme::kFlushUnicast
          ? config_.switch_mcast.idle_flush_threshold
          : 0;
  rep = check::run_checks(sim_.tracer().snapshot(), check::standard_rules(ccfg));
  rep.events_dropped = trace_dropped();
  return rep;
}

void Network::register_counters(CounterRegistry& reg) const {
  const auto i64 = [](auto getter) {
    return [getter] { return static_cast<double>(getter()); };
  };
  for (const auto& [name, field] : kRunCounterFields)
    reg.add(name, [this, field = field] {
      return static_cast<double>(metrics_.counts.*field);
    });
  reg.add("outstanding", i64([this] { return metrics_.outstanding(); }));
  reg.add("membership_queue_peak",
          i64([this] { return membership_queue_peak_; }));
  reg.add("flap_windows", i64([this] { return faults_->flap_windows(); }));
  reg.add("fabric_bytes_sent",
          i64([this] { return fabric_->fabric_bytes_sent(); }));
  reg.add("fabric_bytes_swallowed",
          i64([this] { return fabric_->total_bytes_swallowed(); }));
  reg.add("fabric_overflows", i64([this] { return fabric_->total_overflows(); }));
  reg.add("faults_injected", i64([this] { return faults_->total_injected(); }));
  reg.add("tree_worms_planned",
          i64([this] { return strategy_->worms_planned(); }));
  reg.add("tree_replans", i64([this] { return strategy_->replans(); }));
  reg.add("mcast_connections",
          i64([this] { return mcast_engine_->connections_opened(); }));
  reg.add("mcast_fragments",
          i64([this] { return mcast_engine_->fragments_sent(); }));
  reg.add("unicasts_flushed",
          i64([this] { return mcast_engine_->unicasts_flushed(); }));
  reg.add("events_dispatched", i64([this] { return events_dispatched(); }));
  reg.add("event_queue_peak", i64([this] { return event_queue_peak(); }));
  reg.add("trace_events_recorded", i64([this] { return trace_recorded(); }));
  reg.add("trace_events_dropped", i64([this] { return trace_dropped(); }));
  // Memory audit: capacity-based resident-byte estimates per subsystem,
  // so BENCH json shows where a large fabric's memory goes. Deterministic
  // for a given run (capacities follow the event sequence, not the
  // allocator). The protocol entry counts object shells only; the
  // fabric/adapters/tables entries include their queues and tables.
  reg.add("mem_fabric_bytes",
          i64([this] { return fabric_->heap_bytes_estimate(); }));
  reg.add("mem_adapters_bytes", i64([this] {
    std::size_t bytes = 0;
    for (const auto& a : adapters_) bytes += a->heap_bytes_estimate();
    return bytes;
  }));
  reg.add("mem_protocols_bytes", i64([this] {
    return protocols_.size() * sizeof(HostProtocol);
  }));
  reg.add("mem_tables_bytes",
          i64([this] { return tables_->heap_bytes_estimate(); }));
  reg.add("mem_queues_bytes",
          i64([this] { return sim_.event_queue_heap_bytes(); }));
  reg.add("mem_trace_bytes", i64([this] {
    return sim_.tracer().capacity() * sizeof(TraceEvent);
  }));
  reg.add("mem_arena_bytes", i64([this] {
    return worm_pool_.parked() * sizeof(Worm);
  }));
}

DeadlockWatchdog& Network::attach_watchdog(Time interval) {
  watchdog_ = std::make_unique<DeadlockWatchdog>(
      sim_, interval, [this] { return metrics_.outstanding(); }, nullptr);
  watchdog_->set_diagnostics([this] { return debug_report(); });
  watchdog_->arm();
  return *watchdog_;
}

std::string Network::debug_report() const {
  std::ostringstream out;
  out << "t=" << sim_.now() << " outstanding=" << metrics_.outstanding()
      << " faults=" << faults_->total_injected() << '\n';
  for (HostId h = 0; h < topo_.num_hosts(); ++h) {
    const HostProtocol::DebugSnapshot snap = protocols_[h]->debug_snapshot();
    out << "host " << h << ':' << (protocols_[h]->crashed() ? " dead" : "")
        << " tasks=" << snap.tasks.size()
        << " pool_used=" << snap.pool_used
        << " ack_wait=" << snap.ack_waiting
        << " txq=" << adapters_[h]->tx_queue_depth() << '\n';
    for (const HostProtocol::TaskDebug& t : snap.tasks) {
      out << "  msg=" << t.message_id << " origin=" << t.origin
          << " group=" << t.group << " reserved=" << t.reserved
          << (t.rx_complete ? " rx-done" : " rx-partial")
          << (t.delivered ? " delivered" : "")
          << (t.originator ? " originator" : "") << " sends=[";
      for (std::size_t i = 0; i < t.sends.size(); ++i) {
        const HostProtocol::SendDebug& sd = t.sends[i];
        if (i > 0) out << ' ';
        out << sd.to << ':'
            << (sd.failed ? "failed"
                          : (sd.acked ? "acked"
                                      : (sd.started ? "unacked" : "queued")));
        if (sd.attempts > 0) out << "(a" << sd.attempts << ')';
      }
      out << "]\n";
    }
  }
  return out.str();
}

}  // namespace wormcast

#include "core/metrics.h"

#include <cassert>

namespace wormcast {

std::shared_ptr<MessageContext> Metrics::create_message(HostId origin,
                                                        GroupId group,
                                                        std::int64_t payload,
                                                        int destinations,
                                                        Time now) {
  auto ctx = std::make_shared<MessageContext>();
  ctx->message_id = next_id_++;
  ctx->origin = origin;
  ctx->group = group;
  ctx->payload = payload;
  ctx->destinations_total = destinations;
  ctx->created_at = now;
  ++counts.messages_created;
  if (destinations > 0)
    outstanding_.emplace(ctx->message_id, ctx);
  else
    ++counts.messages_completed;
  return ctx;
}

bool Metrics::on_delivered(const std::shared_ptr<MessageContext>& ctx,
                           HostId /*member*/, Time now) {
  assert(ctx->destinations_reached < ctx->destinations_total);
  ++ctx->destinations_reached;
  const bool in_window = ctx->created_at >= window_start_;
  const auto latency = static_cast<double>(now - ctx->created_at);
  if (in_window) {
    counts.payload_delivered += ctx->payload;
    if (ctx->group == kNoGroup)
      unicast_latency_.add(latency);
    else
      mcast_latency_.add(latency);
  }
  if (ctx->destinations_reached == ctx->destinations_total) {
    if (in_window && ctx->group != kNoGroup) mcast_completion_.add(latency);
    // A message abandoned at repair time may still drain its in-flight
    // copies; it was already tallied as disrupted, not completed.
    if (outstanding_.erase(ctx->message_id) > 0) {
      ++counts.messages_completed;
      last_completion_ = now;
      if (message_closed_hook_) message_closed_hook_(ctx);
    }
    return true;
  }
  return false;
}

void Metrics::on_delivery_failed(const std::shared_ptr<MessageContext>& ctx) {
  ++counts.deliveries_failed;
  if (outstanding_.erase(ctx->message_id) > 0 && message_closed_hook_)
    message_closed_hook_(ctx);
}

void Metrics::abandon_message(const std::shared_ptr<MessageContext>& ctx) {
  if (outstanding_.erase(ctx->message_id) > 0) {
    ++counts.messages_disrupted;
    if (message_closed_hook_) message_closed_hook_(ctx);
  }
}

bool Metrics::shrink_destinations(const std::shared_ptr<MessageContext>& ctx,
                                  Time now) {
  if (outstanding_.count(ctx->message_id) == 0) return false;
  assert(ctx->destinations_total > ctx->destinations_reached);
  --ctx->destinations_total;
  if (ctx->destinations_reached == ctx->destinations_total) {
    outstanding_.erase(ctx->message_id);
    ++counts.messages_completed;
    last_completion_ = now;
    if (message_closed_hook_) message_closed_hook_(ctx);
    return true;
  }
  return false;
}

std::vector<std::shared_ptr<MessageContext>> Metrics::outstanding_messages()
    const {
  std::vector<std::shared_ptr<MessageContext>> out;
  out.reserve(outstanding_.size());
  for (const auto& [id, ctx] : outstanding_) out.push_back(ctx);
  return out;
}

void Metrics::record_order(HostId host, GroupId group,
                           std::uint64_t message_id) {
  orders_[group_host_key(group, host)].push_back(message_id);
}

const std::vector<std::uint64_t>* Metrics::order_of(HostId host,
                                                    GroupId group) const {
  const auto it = orders_.find(group_host_key(group, host));
  return it == orders_.end() ? nullptr : &it->second;
}

Time Metrics::oldest_outstanding_age(Time now) const {
  Time oldest = now;
  for (const auto& [id, ctx] : outstanding_)
    oldest = std::min(oldest, ctx->created_at);
  return now - oldest;
}

}  // namespace wormcast

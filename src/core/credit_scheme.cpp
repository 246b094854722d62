#include "core/credit_scheme.h"

#include <cassert>
#include <memory>
#include <numeric>

#include "core/host_protocol.h"

namespace wormcast {

// --- the manager's ledger ----------------------------------------------------

std::optional<CreditManager::Request> CreditManager::grant(
    const GroupTables& tables) {
  assert(!credits_.empty() && "credit request at a non-manager host");
  if (pending_.empty()) return std::nullopt;
  const Request req = pending_.front();
  // One worm slot at every host that will hold the message for forwarding
  // or delivery: the root buffers the relay (when the origin is not the
  // root); every other member buffers its tree copy — except the origin
  // itself when it is a leaf (its copy is skipped entirely).
  const TreeTable& tree = tables.tree(req.group);
  std::vector<HostId> slots;
  for (const HostId m : tree.members()) {
    if (m == tree.root() ? req.origin == tree.root()
                         : m == req.origin && tree.children(m).empty())
      continue;
    if (credits_[m] < 1) return std::nullopt;
    slots.push_back(m);
  }
  for (const HostId m : slots) --credits_[m];
  pending_.pop_front();
  return req;
}

bool CreditManager::start_token(int per_host) {
  if (token_out_ || credits_.size() < 2) return false;
  const std::int64_t total =
      std::accumulate(credits_.begin(), credits_.end(), std::int64_t{0});
  const auto full = static_cast<std::int64_t>(per_host * credits_.size());
  if (pending_.empty() && total >= full) return false;
  token_out_ = true;
  return true;
}

void CreditManager::bank(const std::vector<std::int64_t>& collected,
                         HostId self) {
  for (std::size_t i = 0; i < credits_.size(); ++i) credits_[i] += collected[i];
  credits_[self] += take_freed();
  token_out_ = false;
}

// --- HostProtocol: the credit worms ------------------------------------------

WormPtr HostProtocol::make_credit_worm(CreditOp op, HostId dst, GroupId group,
                                       std::uint64_t message_id,
                                       std::int64_t seq) const {
  WormPtr worm = make_worm(WormKind::kData, dst, kControlPayloadBytes,
                           kMcastHeaderBytes, message_id);
  worm->mcast = McastHeader{.group = group,
                            .message_id = message_id,
                            .origin = host_,
                            .seq = seq,
                            .credit = op};
  return worm;
}

void HostProtocol::handle_credit_op(const WormPtr& worm) {
  const McastHeader& h = *worm->mcast;
  switch (h.credit) {
    case CreditOp::kRequest:
      credit_.request({h.message_id, h.group, h.origin});
      try_credit_grants();
      return;
    case CreditOp::kGrant: {
      const auto it = origin_tasks_.find(h.message_id);
      assert(it != origin_tasks_.end() && "grant for unknown message");
      it->second->seq = h.seq;
      begin_serialized_dispatch(it->second);
      return;
    }
    case CreditOp::kToken:
      if (host_ == kCreditManagerHost) {
        // The token came home: bank the collected credits (including the
        // manager's own freed slots) and regrant.
        credit_.bank(*worm->token_counts, host_);
        try_credit_grants();
      } else {
        (*worm->token_counts)[host_] += credit_.take_freed();
        pass_token(worm->token_counts);
      }
      return;
    case CreditOp::kNone:
      break;
  }
  assert(false && "unhandled credit operation");
}

void HostProtocol::try_credit_grants() {
  while (const auto req = credit_.grant(tables_)) {
    const std::int64_t seq = seq_counters_[req->group]++;
    if (req->origin == host_) {
      const auto it = origin_tasks_.find(req->message_id);
      assert(it != origin_tasks_.end());
      it->second->seq = seq;
      begin_serialized_dispatch(it->second);
    } else {
      adapter_.send_control(make_credit_worm(CreditOp::kGrant, req->origin,
                                             req->group, req->message_id, seq));
    }
  }
  maybe_start_token();
}

void HostProtocol::maybe_start_token() {
  if (!credit_.start_token(config_.credits_per_host)) return;
  sim_.after(config_.token_interval, [this] {
    pass_token(std::make_shared<std::vector<std::int64_t>>(n_hosts_, 0));
  });
}

void HostProtocol::pass_token(
    std::shared_ptr<std::vector<std::int64_t>> collected) {
  const auto next = static_cast<HostId>((host_ + 1) % n_hosts_);
  WormPtr token = make_credit_worm(CreditOp::kToken, next, kNoGroup, 0, -1);
  token->token_counts = std::move(collected);
  adapter_.send_control(std::move(token));
}

}  // namespace wormcast

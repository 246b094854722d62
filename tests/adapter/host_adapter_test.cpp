// Host adapter mechanics: transmit queueing and overheads, control-worm
// priority, reception accept/drop, cut-through pacing.
#include "adapter/host_adapter.h"

#include <gtest/gtest.h>

#include "net/fabric.h"
#include "net/topologies.h"
#include "net/updown.h"

namespace wormcast {
namespace {

WormPtr make_worm(const UpDownRouting& routing, HostId src, HostId dst,
                  std::int64_t payload, WormKind kind = WormKind::kData) {
  auto w = std::make_shared<Worm>();
  w->kind = kind;
  w->src = src;
  w->dst = dst;
  w->payload = payload;
  w->route = routing.route(src, dst);
  w->message = std::make_shared<MessageContext>();
  return w;
}

class RecordingClient final : public AdapterClient {
 public:
  explicit RecordingClient(Simulator& sim) : sim_(sim) {}
  RxDecision on_rx_head(const WormPtr& /*worm*/,
                        const std::shared_ptr<RxProgress>& rx) override {
    last_rx = rx;
    head_times.push_back(sim_.now());
    return accept_next ? RxDecision::kAccept : RxDecision::kDrop;
  }
  void on_rx_complete(const WormPtr& worm, std::int64_t payload) override {
    completed.push_back(worm);
    completed_payload.push_back(payload);
  }
  void on_tx_done(const WormPtr& worm) override { tx_done.push_back(worm); }

  Simulator& sim_;
  bool accept_next = true;
  std::shared_ptr<RxProgress> last_rx;
  std::vector<Time> head_times;
  std::vector<WormPtr> completed;
  std::vector<std::int64_t> completed_payload;
  std::vector<WormPtr> tx_done;
};

class AdapterTest : public ::testing::Test {
 protected:
  AdapterTest()
      : topo_(make_star(3)),
        fabric_(sim_, topo_),
        routing_(topo_),
        a0_(sim_, fabric_, 0),
        a1_(sim_, fabric_, 1),
        a2_(sim_, fabric_, 2),
        c0_(sim_),
        c1_(sim_),
        c2_(sim_) {
    a0_.set_client(&c0_);
    a1_.set_client(&c1_);
    a2_.set_client(&c2_);
  }

  Simulator sim_;
  Topology topo_;
  Fabric fabric_;
  UpDownRouting routing_;
  HostAdapter a0_, a1_, a2_;
  RecordingClient c0_, c1_, c2_;
};

TEST_F(AdapterTest, SendDeliversWithTxOverhead) {
  a0_.send(make_worm(routing_, 0, 1, 100));
  sim_.run();
  ASSERT_EQ(c1_.completed.size(), 1u);
  EXPECT_EQ(c1_.completed_payload[0], 100);
  EXPECT_EQ(a1_.payload_bytes_received(), 100);
  EXPECT_EQ(a0_.worms_sent(), 1);
  // tx_overhead (16) + wire (1 route + 100 + 1) + 2x propagation (5+5).
  EXPECT_GE(sim_.now(), 16 + 102 + 10);
  ASSERT_EQ(c0_.tx_done.size(), 1u);
}

TEST_F(AdapterTest, ControlWormsJumpTheQueue) {
  a0_.send(make_worm(routing_, 0, 1, 800));
  a0_.send(make_worm(routing_, 0, 2, 500));             // queued data
  a0_.send_control(make_worm(routing_, 0, 2, 8, WormKind::kAck));  // queued control
  sim_.run();
  // The ACK (to host 2) must arrive before the 500-byte data worm.
  ASSERT_EQ(c2_.completed.size(), 2u);
  EXPECT_EQ(c2_.completed[0]->kind, WormKind::kAck);
  EXPECT_EQ(c2_.completed[1]->kind, WormKind::kData);
  EXPECT_EQ(a2_.control_received(), 1);
  EXPECT_EQ(a2_.worms_received(), 1);
}

TEST_F(AdapterTest, DroppedWormIsCountedAndNotDelivered) {
  c1_.accept_next = false;
  a0_.send(make_worm(routing_, 0, 1, 300));
  sim_.run();
  EXPECT_EQ(a1_.worms_dropped(), 1);
  EXPECT_EQ(a1_.worms_received(), 0);
  EXPECT_TRUE(c1_.completed.empty());
  // The link still drained the whole worm (no backpressure into fabric).
  EXPECT_EQ(fabric_.total_overflows(), 0);
}

TEST_F(AdapterTest, CutThroughForwardsWhileReceiving) {
  // Host 1 forwards to host 2 while still receiving from host 0.
  class ForwardingClient final : public AdapterClient {
   public:
    ForwardingClient(HostAdapter& self, const UpDownRouting& routing)
        : self_(self), routing_(routing) {}
    RxDecision on_rx_head(const WormPtr& worm,
                          const std::shared_ptr<RxProgress>& rx) override {
      if (worm->payload > 100) {  // only forward the big data worm
        auto copy = make_worm(routing_, 1, 2, worm->payload);
        self_.send_cut_through(std::move(copy), rx);
      }
      return RxDecision::kAccept;
    }
    void on_rx_complete(const WormPtr&, std::int64_t) override {}
    void on_tx_done(const WormPtr&) override {}
    HostAdapter& self_;
    const UpDownRouting& routing_;
  } fwd{a1_, routing_};
  a1_.set_client(&fwd);

  a0_.send(make_worm(routing_, 0, 1, 2000));
  sim_.run();
  ASSERT_EQ(c2_.completed.size(), 1u);
  EXPECT_EQ(c2_.completed_payload[0], 2000);
  // Cut-through: end-to-end completion well under two full transmissions
  // plus overheads (store-and-forward would exceed 2 x 2002).
  EXPECT_LT(sim_.now(), 2 * 2002);
}

TEST_F(AdapterTest, QueuedOwnOriginationsCountsOnlyOwnData) {
  a0_.send(make_worm(routing_, 0, 1, 5000));
  auto forwarded = make_worm(routing_, 0, 2, 400);
  McastHeader h;
  h.origin = 2;  // a copy this host forwards for someone else
  forwarded->mcast = h;
  a0_.send(std::move(forwarded));
  EXPECT_EQ(a0_.queued_own_originations(), 1u);
  EXPECT_EQ(a0_.tx_queue_depth(), 1u);  // one queued behind the active one
  sim_.run();
  EXPECT_EQ(a0_.queued_own_originations(), 0u);
}

TEST_F(AdapterTest, RxProgressTracksPayloadAndCompletion) {
  a0_.send(make_worm(routing_, 0, 1, 600));
  sim_.run_until(200);
  ASSERT_NE(c1_.last_rx, nullptr);
  // Mid-reception by logical arrival: a run lands physically all at once.
  EXPECT_GT(c1_.last_rx->payload_arrived(sim_.now()), 0);
  EXPECT_LT(c1_.last_rx->payload_arrived(sim_.now()), 600);
  EXPECT_FALSE(c1_.last_rx->complete);
  auto rx = c1_.last_rx;
  sim_.run();
  EXPECT_EQ(rx->payload_received, 600);
  EXPECT_TRUE(rx->complete);
}

TEST_F(AdapterTest, BackToBackSendsAreSerializedWithGaps) {
  for (int i = 0; i < 3; ++i) a0_.send(make_worm(routing_, 0, 1, 100));
  sim_.run();
  EXPECT_EQ(a1_.worms_received(), 3);
  // 3 x (overhead 16 + wire 102) at minimum.
  EXPECT_GE(sim_.now(), 3 * (16 + 102));
}

}  // namespace
}  // namespace wormcast

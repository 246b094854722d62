// Channel delivery lanes (sim/event_queue.h): a channel keeps only the
// front run of its wire in the event queue, under the key it reserved at
// send time, so a long link costs one pending event instead of one per
// byte in flight — and deliveries still fire exactly where per-send
// scheduling would have put them.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "net/channel.h"
#include "sim/simulator.h"

namespace wormcast {
namespace {

/// Feeds one worm of `len` bytes, one byte at a time (never bursts).
class StreamFeed final : public ByteFeed {
 public:
  explicit StreamFeed(std::int64_t len) : len_(len) {}
  [[nodiscard]] std::int64_t run_available() const override {
    return sent_ < len_ ? 1 : 0;
  }
  TxByte take(std::int64_t) override {
    TxByte b;
    b.head = sent_ == 0;
    if (b.head) {
      b.worm = std::make_shared<Worm>();
      b.wire_len = len_;
    }
    b.tail = ++sent_ == len_;
    return b;
  }
  void on_tail_sent() override {}

 private:
  std::int64_t len_;
  std::int64_t sent_ = 0;
};

/// Logs (time, tag) for every byte that lands.
class TagSink final : public RxSink {
 public:
  TagSink(Simulator& sim, int tag, std::vector<std::pair<Time, int>>& log)
      : sim_(sim), tag_(tag), log_(log) {}
  void on_head(const WormPtr&, std::int64_t, bool) override { note(); }
  void on_body(std::int64_t, bool) override { note(); }
  std::int64_t received = 0;

 private:
  void note() {
    log_.emplace_back(sim_.now(), tag_);
    ++received;
  }
  Simulator& sim_;
  int tag_;
  std::vector<std::pair<Time, int>>& log_;
};

// The per-channel bound: a 2,000-byte worm streamed per-byte over a
// 40-byte-time link keeps 40 bytes on the wire, yet the queue never holds
// more than the channel's pump plus ONE delivery.
TEST(DeliveryLane, LongWormOver40BtChannelHoldsOneDeliveryEvent) {
  constexpr Time kDelay = 40;
  constexpr std::int64_t kLen = 2000;
  Simulator sim;
  Channel ch(sim, kDelay);
  ch.set_burst_enabled(false);
  std::vector<std::pair<Time, int>> log;
  TagSink sink(sim, 0, log);
  ch.set_sink(&sink);
  StreamFeed feed(kLen);
  ch.attach_feed(&feed);
  std::size_t max_pending = 0;
  std::int64_t max_on_wire = 0;
  for (Time t = 0; t <= kLen + kDelay; ++t) {
    sim.run_until(t);
    max_pending = std::max(max_pending, sim.pending_events());
    max_on_wire = std::max(max_on_wire, ch.bytes_sent() - sink.received);
  }
  sim.run();
  EXPECT_EQ(max_on_wire, kDelay);  // the wire really was full
  EXPECT_LE(max_pending, 2u);      // pump + lane head
  EXPECT_LE(sim.event_queue_peak(), 2u);
  ASSERT_EQ(sink.received, kLen);
  for (std::int64_t i = 0; i < kLen; ++i)
    EXPECT_EQ(log[static_cast<std::size_t>(i)].first, kDelay + i);
}

// A delivery keeps the queue position of its send: a byte sent at t=5 that
// lands at 45 fires before an event scheduled at t=20 for time 45, even
// though the lane inserts that delivery only when the byte ahead of it
// lands (at 44, long after t=20).
TEST(DeliveryLane, DeliveryKeepsTheQueuePositionOfItsSend) {
  Simulator sim;
  Channel ch(sim, 40);
  ch.set_burst_enabled(false);
  std::vector<std::pair<Time, int>> log;
  TagSink sink(sim, 0, log);
  ch.set_sink(&sink);
  StreamFeed feed(100);
  ch.attach_feed(&feed);
  sim.at(20, [&] { sim.at(45, [&] { log.emplace_back(sim.now(), 1); }); });
  sim.run();
  const auto at45 = std::find_if(log.begin(), log.end(), [](const auto& e) {
    return e.first == 45;
  });
  ASSERT_NE(at45, log.end());
  EXPECT_EQ(at45->second, 0);        // the delivery (sent at t=5) first
  EXPECT_EQ((at45 + 1)->first, 45);  // then the t=20 event
  EXPECT_EQ((at45 + 1)->second, 1);
}

// Two lanes of different lengths into one tick: a long link's bytes were
// sent earlier than a short link's bytes landing at the same time, so they
// fire first at every shared tick, as per-send scheduling orders them.
TEST(DeliveryLane, LanesInterleaveBySendOrder) {
  Simulator sim;
  Channel slow(sim, 40);
  Channel fast(sim, 10);
  slow.set_burst_enabled(false);
  fast.set_burst_enabled(false);
  std::vector<std::pair<Time, int>> log;
  TagSink slow_sink(sim, 0, log);
  TagSink fast_sink(sim, 1, log);
  slow.set_sink(&slow_sink);
  fast.set_sink(&fast_sink);
  StreamFeed slow_feed(200);
  StreamFeed fast_feed(200);
  slow.attach_feed(&slow_feed);
  sim.at(30, [&] { fast.attach_feed(&fast_feed); });
  sim.run();
  ASSERT_EQ(log.size(), 400u);
  int shared_ticks = 0;
  for (std::size_t i = 0; i + 1 < log.size(); ++i) {
    if (log[i].first != log[i + 1].first) continue;
    ++shared_ticks;
    EXPECT_EQ(log[i].second, 0) << "at t=" << log[i].first;
    EXPECT_EQ(log[i + 1].second, 1) << "at t=" << log[i].first;
  }
  EXPECT_EQ(shared_ticks, 200);  // both land one byte per tick, t = 40 .. 239
}

/// One delivery as the sink saw it.
struct Delivery {
  Time at = 0;
  std::int64_t n = 1;
  bool head = false;
  bool tail = false;
  bool operator==(const Delivery&) const = default;
};

/// Logs every delivery and every byte's logical arrival tick.
class RunSink final : public RxSink {
 public:
  explicit RunSink(Simulator& sim) : sim_(sim) {}
  void on_head(const WormPtr&, std::int64_t, bool tail) override {
    deliveries.push_back({sim_.now(), 1, true, tail});
    arrivals.push_back(sim_.now());
  }
  void on_body(std::int64_t n, bool tail) override {
    deliveries.push_back({sim_.now(), n, false, tail});
    for (std::int64_t i = 0; i < n; ++i) arrivals.push_back(sim_.now() + i);
  }
  std::vector<Delivery> deliveries;
  std::vector<Time> arrivals;

 private:
  Simulator& sim_;
};

/// Streams a `len`-byte worm one byte per pump over a `delay` link, with
/// a gap: no byte is available from `gap_from` until `gap_to`.
RunSink stream(Time delay, bool burst, std::int64_t len,
               std::int64_t gap_from = -1, Time gap_to = 0) {
  class GapFeed final : public ByteFeed {
   public:
    GapFeed(std::int64_t len, std::int64_t gap_from)
        : len_(len), limit_(gap_from < 0 ? len : gap_from) {}
    [[nodiscard]] std::int64_t run_available() const override {
      return sent_ < limit_ ? 1 : 0;
    }
    TxByte take(std::int64_t) override {
      TxByte b;
      b.head = sent_ == 0;
      if (b.head) {
        b.worm = std::make_shared<Worm>();
        b.wire_len = len_;
      }
      b.tail = ++sent_ == len_;
      return b;
    }
    void on_tail_sent() override {}
    void lift() { limit_ = len_; }

   private:
    std::int64_t len_;
    std::int64_t limit_;
    std::int64_t sent_ = 0;
  };
  Simulator sim;
  Channel ch(sim, delay);
  ch.set_burst_enabled(burst);
  RunSink sink(sim);
  ch.set_sink(&sink);
  GapFeed feed(len, gap_from);
  ch.attach_feed(&feed);
  if (gap_from >= 0) {
    sim.at(gap_to, [&] {
      feed.lift();
      ch.kick();
    });
  }
  sim.run();
  return sink;
}

// Burst mode on a link longer than kRoutingLatency: single-byte body
// sends that land back to back ride one delivery, as many as are on the
// wire at once (the link delay), and every byte still arrives at the tick
// per-byte stepping gives it. Heads and tails keep deliveries of their own.
TEST(DeliveryLane, ContiguousBodyBytesOnALongLinkShareOneDelivery) {
  constexpr Time kDelay = 40;
  const RunSink burst = stream(kDelay, true, 100);
  const RunSink per_byte = stream(kDelay, false, 100);
  EXPECT_EQ(burst.arrivals, per_byte.arrivals);
  ASSERT_EQ(burst.arrivals.size(), 100u);
  for (std::size_t i = 0; i < burst.arrivals.size(); ++i)
    EXPECT_EQ(burst.arrivals[i], kDelay + static_cast<Time>(i));
  // Bytes 1..40 were on the wire together when byte 1 landed at 41, and
  // 41..80 when byte 41 did; 81..98 follow, then the tail alone.
  const std::vector<Delivery> expected{{40, 1, true, false},
                                       {41, 40, false, false},
                                       {81, 40, false, false},
                                       {121, 18, false, false},
                                       {139, 1, false, true}};
  EXPECT_EQ(burst.deliveries, expected);
}

// A gap on the wire ends a merged run: the bytes after it take their own
// delivery, at their own landing tick.
TEST(DeliveryLane, AGapOnTheWireStartsANewDelivery) {
  const RunSink burst = stream(40, true, 30, /*gap_from=*/10, /*gap_to=*/20);
  const RunSink per_byte = stream(40, false, 30, 10, 20);
  EXPECT_EQ(burst.arrivals, per_byte.arrivals);
  const std::vector<Delivery> expected{{40, 1, true, false},
                                       {41, 9, false, false},
                                       {60, 19, false, false},
                                       {79, 1, false, true}};
  EXPECT_EQ(burst.deliveries, expected);
}

// Per-byte mode, and burst mode on links of kRoutingLatency or shorter,
// deliver every byte on its own; a 5 bt link is the shortest that merges.
TEST(DeliveryLane, ShortLinksAndPerByteModeDeliverEveryByteAlone) {
  for (const auto& [delay, burst] :
       {std::pair{kRoutingLatency, true}, std::pair{Time{1}, true},
        std::pair{Time{40}, false}}) {
    const RunSink sink = stream(delay, burst, 50);
    EXPECT_EQ(sink.deliveries.size(), 50u)
        << "delay " << delay << (burst ? " burst" : " per-byte");
  }
  const RunSink five = stream(kRoutingLatency + 1, true, 50);
  EXPECT_EQ(five.arrivals, stream(kRoutingLatency + 1, false, 50).arrivals);
  EXPECT_LT(five.deliveries.size(), 50u);
}

}  // namespace
}  // namespace wormcast

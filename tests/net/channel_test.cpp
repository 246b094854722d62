// Byte-level channel mechanics: line rate, propagation delay, framing,
// STOP/GO timing (Figure 1 semantics).
#include "net/channel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "sim/fault_injector.h"
#include "sim/simulator.h"

namespace wormcast {
namespace {

/// Feeds a single worm of `len` bytes.
class OneWormFeed final : public ByteFeed {
 public:
  OneWormFeed(WormPtr worm, std::int64_t len) : worm_(std::move(worm)), len_(len) {}

  [[nodiscard]] std::int64_t run_available() const override {
    return sent_ < len_ ? 1 : 0;
  }
  TxByte take(std::int64_t) override {
    TxByte b;
    b.head = sent_ == 0;
    if (b.head) {
      b.worm = worm_;
      b.wire_len = len_;
    }
    ++sent_;
    b.tail = sent_ == len_;
    return b;
  }
  void on_tail_sent() override { tail_sent_ = true; }

  [[nodiscard]] std::int64_t sent() const { return sent_; }
  [[nodiscard]] bool tail_sent() const { return tail_sent_; }

 private:
  WormPtr worm_;
  std::int64_t len_;
  std::int64_t sent_ = 0;
  bool tail_sent_ = false;
};

/// Records arrival times of every byte.
class RecordSink final : public RxSink {
 public:
  explicit RecordSink(Simulator& sim) : sim_(sim) {}
  void on_head(const WormPtr& worm, std::int64_t wire_len, bool) override {
    head_worm = worm;
    head_len = wire_len;
    times.push_back(sim_.now());
  }
  void on_body(std::int64_t n, bool tail) override {
    for (std::int64_t i = 0; i < n; ++i) times.push_back(sim_.now() + i);
    if (tail) tail_at = sim_.now();
  }

  Simulator& sim_;
  WormPtr head_worm;
  std::int64_t head_len = 0;
  std::vector<Time> times;
  Time tail_at = kTimeNever;
};

WormPtr worm_of(std::int64_t payload) {
  auto w = std::make_shared<Worm>();
  w->payload = payload;
  return w;
}

TEST(Channel, DeliversAtLineRateAfterPropagation) {
  Simulator sim;
  Channel ch(sim, /*delay=*/7);
  RecordSink sink(sim);
  ch.set_sink(&sink);
  OneWormFeed feed(worm_of(9), 10);
  ch.attach_feed(&feed);
  sim.run();
  ASSERT_EQ(sink.times.size(), 10u);
  EXPECT_EQ(sink.times.front(), 7);   // head: sent at 0, +7 propagation
  EXPECT_EQ(sink.times.back(), 16);   // one byte per byte-time thereafter
  for (std::size_t i = 1; i < sink.times.size(); ++i)
    EXPECT_EQ(sink.times[i] - sink.times[i - 1], 1);
  EXPECT_EQ(sink.head_len, 10);
  EXPECT_TRUE(feed.tail_sent());
  EXPECT_EQ(ch.bytes_sent(), 10);
}

TEST(Channel, StopHaltsSenderAfterPropagationDelay) {
  Simulator sim;
  Channel ch(sim, 5);
  RecordSink sink(sim);
  ch.set_sink(&sink);
  OneWormFeed feed(worm_of(99), 100);
  ch.attach_feed(&feed);
  // Receiver signals STOP at t=10; it takes effect at the sender at t=15,
  // before the t=15 byte goes out (control symbols win same-time ties).
  sim.at(10, [&] { ch.signal_stop(); });
  sim.run_until(40);
  // Sender sent bytes at t=0..14 (15 bytes), then froze.
  EXPECT_EQ(feed.sent(), 15);
  EXPECT_TRUE(ch.tx_stopped());
  // GO at 50 (arrives 55) resumes transmission.
  sim.at(50, [&] { ch.signal_go(); });
  sim.run();
  EXPECT_EQ(feed.sent(), 100);
  EXPECT_EQ(sink.times.size(), 100u);
}

TEST(Channel, BytesInFlightStillArriveAfterStop) {
  Simulator sim;
  Channel ch(sim, 5);
  RecordSink sink(sim);
  ch.set_sink(&sink);
  OneWormFeed feed(worm_of(50), 51);
  ch.attach_feed(&feed);
  sim.at(10, [&] { ch.signal_stop(); });
  sim.run_until(30);
  // All bytes sent before the freeze (t<=14) arrive by t=19.
  EXPECT_EQ(sink.times.size(), 15u);
  EXPECT_EQ(sink.times.back(), 19);
}

TEST(Channel, KickAfterFeedStarvationResumes) {
  Simulator sim;
  Channel ch(sim, 3);
  RecordSink sink(sim);
  ch.set_sink(&sink);

  // Feed that has a gap: bytes 0-4 available immediately, 5-9 at t=100.
  class GappyFeed final : public ByteFeed {
   public:
    explicit GappyFeed(WormPtr w) : worm_(std::move(w)) {}
    std::int64_t run_available() const override {
      return sent_ < available_ ? 1 : 0;
    }
    TxByte take(std::int64_t) override {
      TxByte b;
      b.head = sent_ == 0;
      if (b.head) {
        b.worm = worm_;
        b.wire_len = 10;
      }
      ++sent_;
      b.tail = sent_ == 10;
      return b;
    }
    void on_tail_sent() override {}
    WormPtr worm_;
    std::int64_t sent_ = 0;
    std::int64_t available_ = 5;
  } feed{worm_of(9)};

  ch.attach_feed(&feed);
  sim.at(100, [&] {
    feed.available_ = 10;
    ch.kick();
  });
  sim.run();
  ASSERT_EQ(sink.times.size(), 10u);
  EXPECT_EQ(sink.times[4], 7);    // fifth byte: sent t=4, +3
  EXPECT_EQ(sink.times[5], 103);  // resumed at t=100
}

TEST(Channel, SequentialWormsKeepOneByteSpacing) {
  Simulator sim;
  Channel ch(sim, 4);
  RecordSink sink(sim);
  ch.set_sink(&sink);
  OneWormFeed first(worm_of(3), 4);
  OneWormFeed second(worm_of(3), 4);
  ch.attach_feed(&first);
  // Attach the second feed just after the first's tail went out at t=3.
  sim.at(4, [&] { ch.attach_feed(&second); });
  sim.run();
  ASSERT_EQ(sink.times.size(), 8u);
  // Second worm's head leaves at t=4 (line rate respected across worms).
  EXPECT_EQ(sink.times[4], 8);
}

/// A OneWormFeed that offers runs (everything between head and tail).
class BurstWormFeed final : public ByteFeed {
 public:
  BurstWormFeed(WormPtr worm, std::int64_t len)
      : worm_(std::move(worm)), len_(len) {}
  [[nodiscard]] std::int64_t run_available() const override {
    if (sent_ >= len_) return 0;
    if (sent_ == 0) return 1;  // the head
    return std::max<std::int64_t>(1, len_ - 1 - sent_);  // all but the tail
  }
  TxByte take(std::int64_t n) override {
    TxByte b;
    b.count = n;
    b.head = sent_ == 0;
    if (b.head) {
      b.worm = worm_;
      b.wire_len = len_;
    }
    sent_ += n;
    b.tail = sent_ == len_;
    return b;
  }
  void on_tail_sent() override { tail_sent_ = true; }
  [[nodiscard]] bool tail_sent() const { return tail_sent_; }

 private:
  WormPtr worm_;
  std::int64_t len_;
  std::int64_t sent_ = 0;
  bool tail_sent_ = false;
};

/// RecordSink that also absorbs runs (unbounded budget).
class BurstRecordSink final : public RxSink {
 public:
  explicit BurstRecordSink(Simulator& sim) : sim_(sim) {}
  void on_head(const WormPtr&, std::int64_t, bool) override { bytes += 1; }
  void on_body(std::int64_t n, bool tail) override {
    bytes += n;
    if (n > 1) ++burst_events;
    if (tail) tail_at = sim_.now();
  }
  [[nodiscard]] std::int64_t rx_burst_budget(std::int64_t) const override {
    return 1 << 20;
  }
  Simulator& sim_;
  std::int64_t bytes = 0;
  std::int64_t burst_events = 0;
  Time tail_at = kTimeNever;
};

// The burst fast path must deliver the same bytes with the same framing
// timing as per-byte stepping — in far fewer events — and bytes_sent()
// must read identically mid-run in both modes (logical send times).
TEST(Channel, BurstModeMatchesPerByteWithFewerEvents) {
  struct Run {
    std::int64_t events = 0;
    std::int64_t bytes = 0;
    std::int64_t sent_at_4 = 0;
    std::int64_t sent_at_12 = 0;
    Time tail_at = kTimeNever;
    std::int64_t burst_events = 0;
  };
  const auto run_mode = [](bool burst) {
    Simulator sim;
    Channel ch(sim, /*delay=*/7);
    ch.set_burst_enabled(burst);
    BurstRecordSink sink(sim);
    ch.set_sink(&sink);
    BurstWormFeed feed(worm_of(15), 16);
    ch.attach_feed(&feed);
    Run r;
    sim.run_until(4);
    r.sent_at_4 = ch.bytes_sent();
    sim.run_until(12);
    r.sent_at_12 = ch.bytes_sent();
    sim.run();
    r.events = sim.events_dispatched();
    r.bytes = sink.bytes;
    r.tail_at = sink.tail_at;
    r.burst_events = sink.burst_events;
    EXPECT_TRUE(feed.tail_sent());
    EXPECT_EQ(ch.bytes_sent(), 16);
    return r;
  };
  const Run b = run_mode(true);
  const Run p = run_mode(false);
  EXPECT_EQ(b.bytes, p.bytes);
  EXPECT_EQ(b.tail_at, p.tail_at);
  EXPECT_EQ(b.sent_at_4, p.sent_at_4);
  EXPECT_EQ(b.sent_at_12, p.sent_at_12);
  EXPECT_GT(b.burst_events, 0);
  EXPECT_EQ(p.burst_events, 0);
  EXPECT_LT(b.events, p.events);
}

// Bytes a fault swallows must not count as sent (utilization would be
// inflated by traffic that never arrived); they are tracked separately.
TEST(Channel, SwallowedBytesCountedSeparatelyFromSent) {
  Simulator sim;
  Channel ch(sim, /*delay=*/3);
  RecordSink sink(sim);
  ch.set_sink(&sink);
  FaultInjector faults{RandomStream(1)};
  faults.schedule_outage(nullptr, 0, 1'000'000);
  ch.set_fault_injector(&faults);
  auto w = worm_of(9);
  w->kind = WormKind::kData;
  OneWormFeed feed(w, 10);
  ch.attach_feed(&feed);
  sim.run();
  EXPECT_TRUE(feed.tail_sent());  // the transmitter still drained
  EXPECT_EQ(sink.times.size(), 0u);
  EXPECT_EQ(ch.bytes_sent(), 0);
  EXPECT_EQ(ch.bytes_swallowed(), 10);
}

// A feed whose take path re-entrantly kicks the channel (as InPort does when
// forwarding a byte frees slack space) must not spawn a second pump chain:
// that would break the one-byte-per-byte-time line rate.
TEST(Channel, ReentrantKickFromTakePathKeepsLineRate) {
  Simulator sim;
  Channel ch(sim, /*delay=*/2);
  RecordSink sink(sim);
  ch.set_sink(&sink);

  class KickingFeed final : public ByteFeed {
   public:
    KickingFeed(Channel& ch, WormPtr w) : ch_(ch), worm_(std::move(w)) {}
    std::int64_t run_available() const override { return sent_ < 12 ? 1 : 0; }
    TxByte take(std::int64_t) override {
      TxByte b;
      b.head = sent_ == 0;
      if (b.head) {
        b.worm = worm_;
        b.wire_len = 12;
      }
      ++sent_;
      b.tail = sent_ == 12;
      ch_.kick();  // mid-take kick, exactly like InPort::after_byte_removed
      return b;
    }
    void on_tail_sent() override {}
    Channel& ch_;
    WormPtr worm_;
    std::int64_t sent_ = 0;
  } feed{ch, worm_of(11)};

  ch.attach_feed(&feed);
  sim.run();
  ASSERT_EQ(sink.times.size(), 12u);
  for (std::size_t i = 1; i < sink.times.size(); ++i)
    EXPECT_EQ(sink.times[i] - sink.times[i - 1], 1) << "at byte " << i;
}

/// Sends a head, then a body byte each time the test grants one, and
/// waits for a kick in between (ByteFeed::waits_for_kick).
class GrantedFeed final : public ByteFeed {
 public:
  GrantedFeed(Simulator& sim, std::vector<std::pair<Time, int>>& log)
      : sim_(sim), log_(log) {}
  [[nodiscard]] std::int64_t run_available() const override {
    return sent_ < granted_ ? 1 : 0;
  }
  TxByte take(std::int64_t) override {
    TxByte b;
    b.head = sent_ == 0;
    if (b.head) {
      b.worm = worm_of(9);
      b.wire_len = 10;
    }
    b.tail = ++sent_ == 10;
    log_.emplace_back(sim_.now(), 0);
    return b;
  }
  void on_tail_sent() override {}
  [[nodiscard]] bool waits_for_kick() const override {
    return run_available() == 0;
  }
  void grant() { ++granted_; }

 private:
  Simulator& sim_;
  std::vector<std::pair<Time, int>>& log_;
  std::int64_t granted_ = 1;
  std::int64_t sent_ = 0;
};

// The pump after the head parks (the feed waits for a kick) under the key
// it reserved at t=0. A kick at t=1 inserts it there, so it still fires
// before a late event that was scheduled for t=1 after it parked, exactly
// as the pump would have if it had been in the queue all along.
TEST(Channel, ParkedPumpKeepsTheQueuePositionOfItsSchedule) {
  Simulator sim;
  Channel ch(sim, 5);
  RecordSink sink(sim);
  ch.set_sink(&sink);
  std::vector<std::pair<Time, int>> log;
  GrantedFeed feed(sim, log);
  ch.attach_feed(&feed);
  sim.at_late(0, [&] {
    sim.at_late(1, [&] { log.emplace_back(sim.now(), 1); });
  });
  sim.at(1, [&] {
    feed.grant();
    ch.kick();
  });
  sim.run_until(0);
  // The lane head, the kick at t=1 and the late event at t=1.
  EXPECT_EQ(sim.pending_events(), 3u)
      << "the pump after the head was inserted, not parked";
  sim.run();
  const std::vector<std::pair<Time, int>> expected{{0, 0}, {1, 0}, {1, 1}};
  EXPECT_EQ(log, expected);
}

// A kick that comes after the parked pump's slot has passed schedules a
// fresh pump at the kick's own tick; one that finds the feed still
// waiting inserts nothing.
TEST(Channel, KickAfterTheParkedSlotSendsAtOnceAndIdleKicksInsertNothing) {
  Simulator sim;
  Channel ch(sim, 5);
  RecordSink sink(sim);
  ch.set_sink(&sink);
  std::vector<std::pair<Time, int>> log;
  GrantedFeed feed(sim, log);
  ch.attach_feed(&feed);
  sim.run_until(20);
  const std::size_t pending = sim.pending_events();
  ch.kick();  // still nothing to send
  EXPECT_EQ(sim.pending_events(), pending);
  feed.grant();
  ch.kick();
  sim.run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[1].first, 20);
  EXPECT_EQ(sink.times, (std::vector<Time>{5, 25}));
}

TEST(Channel, DetachFeedStopsTransmissionSilently) {
  Simulator sim;
  Channel ch(sim, 2);
  RecordSink sink(sim);
  ch.set_sink(&sink);
  OneWormFeed feed(worm_of(99), 100);
  ch.attach_feed(&feed);
  sim.run_until(10);
  ch.detach_feed();
  sim.run_until(200);
  EXPECT_FALSE(ch.feed_attached());
  EXPECT_LT(sink.times.size(), 100u);
  EXPECT_FALSE(feed.tail_sent());
}

}  // namespace
}  // namespace wormcast

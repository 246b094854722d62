#include "core/metrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>

namespace wormcast {
namespace {

TEST(Metrics, MessageLifecycle) {
  Metrics m;
  auto ctx = m.create_message(0, 1, 400, 3, 100);
  EXPECT_EQ(m.messages_created(), 1);
  EXPECT_EQ(m.outstanding(), 1);
  EXPECT_FALSE(m.on_delivered(ctx, 1, 200));
  EXPECT_FALSE(m.on_delivered(ctx, 2, 300));
  EXPECT_TRUE(m.on_delivered(ctx, 3, 500));
  EXPECT_EQ(m.outstanding(), 0);
  EXPECT_EQ(m.messages_completed(), 1);
  EXPECT_EQ(m.last_completion_time(), 500);
  // Per-destination latencies: 100, 200, 400.
  EXPECT_EQ(m.mcast_latency().count(), 3);
  EXPECT_NEAR(m.mcast_latency().mean(), (100 + 200 + 400) / 3.0, 1e-9);
  // Completion latency is the last delivery's.
  EXPECT_EQ(m.mcast_completion().count(), 1);
  EXPECT_DOUBLE_EQ(m.mcast_completion().mean(), 400.0);
}

TEST(Metrics, ZeroDestinationMessagesCompleteImmediately) {
  Metrics m;
  m.create_message(0, 1, 100, 0, 50);
  EXPECT_EQ(m.outstanding(), 0);
  EXPECT_EQ(m.messages_completed(), 1);
}

TEST(Metrics, WarmupWindowExcludesEarlyMessages) {
  Metrics m;
  m.set_window_start(1000);
  auto early = m.create_message(0, kNoGroup, 100, 1, 500);
  auto late = m.create_message(0, kNoGroup, 100, 1, 1500);
  m.on_delivered(early, 1, 1200);  // created before the window
  m.on_delivered(late, 1, 1700);
  EXPECT_EQ(m.unicast_latency().count(), 1);
  EXPECT_DOUBLE_EQ(m.unicast_latency().mean(), 200.0);
  EXPECT_EQ(m.payload_delivered(), 100);  // windowed
}

TEST(Metrics, UnicastAndMulticastLatenciesSeparated) {
  Metrics m;
  auto uni = m.create_message(0, kNoGroup, 10, 1, 0);
  auto mc = m.create_message(0, 2, 10, 1, 0);
  m.on_delivered(uni, 1, 10);
  m.on_delivered(mc, 1, 30);
  EXPECT_EQ(m.unicast_latency().count(), 1);
  EXPECT_EQ(m.mcast_latency().count(), 1);
  EXPECT_DOUBLE_EQ(m.unicast_latency().mean(), 10.0);
  EXPECT_DOUBLE_EQ(m.mcast_latency().mean(), 30.0);
}

TEST(Metrics, OldestOutstandingAge) {
  Metrics m;
  EXPECT_EQ(m.oldest_outstanding_age(1000), 0);
  auto a = m.create_message(0, 1, 10, 1, 100);
  m.create_message(0, 1, 10, 1, 400);
  EXPECT_EQ(m.oldest_outstanding_age(1000), 900);
  m.on_delivered(a, 1, 500);
  EXPECT_EQ(m.oldest_outstanding_age(1000), 600);
}

TEST(Metrics, OrderRecordsPerHostPerGroup) {
  Metrics m;
  m.record_order(1, 0, 10);
  m.record_order(1, 0, 11);
  m.record_order(2, 0, 11);
  m.record_order(1, 1, 99);
  ASSERT_NE(m.order_of(1, 0), nullptr);
  EXPECT_EQ(*m.order_of(1, 0), (std::vector<std::uint64_t>{10, 11}));
  EXPECT_EQ(*m.order_of(2, 0), (std::vector<std::uint64_t>{11}));
  EXPECT_EQ(*m.order_of(1, 1), (std::vector<std::uint64_t>{99}));
  EXPECT_EQ(m.order_of(3, 0), nullptr);
}

TEST(Metrics, EventCounters) {
  Metrics m;
  m.counts.nacks += 2;
  ++m.counts.retransmits;
  ++m.counts.relays;
  m.on_join_shed(/*final_shed=*/false);
  m.on_join_shed(/*final_shed=*/true);
  m.on_join_applied(/*latency=*/50, /*rejoin=*/true);
  EXPECT_EQ(m.nacks(), 2);
  EXPECT_EQ(m.retransmits(), 1);
  EXPECT_EQ(m.relays(), 1);
  EXPECT_EQ(m.counts.joins_shed, 2);
  EXPECT_EQ(m.counts.joins_abandoned, 1);
  EXPECT_EQ(m.counts.joins_applied, 1);
  EXPECT_EQ(m.counts.rejoins, 1);
  EXPECT_EQ(m.join_latency().count(), 1);
}

TEST(Metrics, ExportTableNamesEveryFieldOnce) {
  // Writing 1..N through the table must land in N distinct fields: a row
  // that repeats a field would leave another at zero.
  RunCounters c;
  std::set<std::string> names;
  std::int64_t v = 0;
  for (const auto& [name, field] : kRunCounterFields) {
    c.*field = ++v;
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
  }
  std::set<std::int64_t> seen;
  for (const auto& [name, field] : kRunCounterFields) seen.insert(c.*field);
  EXPECT_EQ(seen.size(), kRunCounterFields.size());
  EXPECT_EQ(c.joins_abandoned, v) << "shed_joins_final is the last row";
  EXPECT_NE(c, RunCounters());
}

TEST(Metrics, MessageIdsAreUnique) {
  Metrics m;
  auto a = m.create_message(0, 1, 10, 1, 0);
  auto b = m.create_message(1, 2, 10, 1, 0);
  EXPECT_NE(a->message_id, b->message_id);
}

}  // namespace
}  // namespace wormcast

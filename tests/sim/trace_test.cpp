// wormtrace flight recorder: ring semantics, Chrome-trace export shape,
// counter registry, and (when tracing is compiled in) an end-to-end run
// that exercises every instrumented layer.
#include "sim/trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/network.h"
#include "net/topologies.h"
#include "sim/counters.h"
#include "sim/trace_export.h"
#include "traffic/groups.h"

namespace wormcast {
namespace {

TraceEvent make_event(Time t, TraceEventType type, std::int32_t node,
                      std::int32_t port, std::uint64_t worm,
                      std::int64_t arg) {
  TraceEvent e;
  e.t = t;
  e.type = type;
  e.node = node;
  e.port = port;
  e.worm = worm;
  e.arg = arg;
  return e;
}

TEST(Tracer, DisabledRecordsNothing) {
  Tracer tr;
  EXPECT_FALSE(tr.enabled());
  EXPECT_EQ(tr.recorded(), 0);
  EXPECT_EQ(tr.capacity(), 0u);
  EXPECT_TRUE(tr.snapshot().empty());
}

TEST(Tracer, RingWrapKeepsLastEventsOldestFirst) {
  Tracer tr;
  tr.enable(4);  // rounds up to 16, the minimum ring
  EXPECT_EQ(tr.capacity(), 16u);
  for (int i = 0; i < 40; ++i)
    tr.record(i, TraceEventType::kChanGo, 0, 0, 0, i);
  EXPECT_EQ(tr.recorded(), 40);
  EXPECT_EQ(tr.dropped(), 40 - 16);
  const std::vector<TraceEvent> all = tr.snapshot();
  ASSERT_EQ(all.size(), 16u);
  for (std::size_t i = 0; i < all.size(); ++i)
    EXPECT_EQ(all[i].arg, static_cast<std::int64_t>(24 + i));  // 24..39
  const std::vector<TraceEvent> tail = tr.snapshot(3);
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail[0].arg, 37);
  EXPECT_EQ(tail[2].arg, 39);
}

TEST(Tracer, ReEnableWithSameCapacityKeepsEvents) {
  Tracer tr;
  tr.enable(16);
  tr.record(1, TraceEventType::kChanStop, 0, 0, 0, 0);
  tr.disable();
  EXPECT_FALSE(tr.enabled());
  tr.enable(16);
  EXPECT_EQ(tr.recorded(), 1);
  tr.enable(64);  // different capacity discards
  EXPECT_EQ(tr.recorded(), 0);
}

TEST(TraceExport, SpanPairingAndTrackMetadata) {
  std::vector<TraceEvent> events;
  events.push_back(make_event(10, TraceEventType::kChanHead, 2, 1, 77, 500));
  events.push_back(make_event(20, TraceEventType::kChanStop, 2, 1, 77, 0));
  events.push_back(make_event(60, TraceEventType::kChanTail, 2, 1, 77, 0));
  const std::string json = chrome_trace_json(events);
  // Perfetto essentials: the top-level array, a named thread, the
  // head->tail pair rendered as one 50-us complete span, the STOP as an
  // instant in between.
  EXPECT_NE(json.find("{\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"chan 2.1\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"worm\",\"ph\":\"X\",\"ts\":10,\"dur\":50"),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"chan.stop\",\"ph\":\"i\""),
            std::string::npos);
  EXPECT_NE(json.find("\"worm\":77"), std::string::npos);
}

TEST(TraceExport, UnmatchedCloserBecomesInstant) {
  std::vector<TraceEvent> events;
  events.push_back(make_event(5, TraceEventType::kAdpTxDone, 3, -1, 9, 0));
  const std::string json = chrome_trace_json(events);
  EXPECT_NE(json.find("\"name\":\"adp.tx_done\",\"ph\":\"i\""),
            std::string::npos);
  EXPECT_NE(json.find("\"adapter h3\""), std::string::npos);
}

TEST(TraceExport, DanglingOpenSpanIsFlushedToEnd) {
  std::vector<TraceEvent> events;
  events.push_back(make_event(10, TraceEventType::kAdpTxStart, 0, -1, 5, 64));
  events.push_back(make_event(42, TraceEventType::kChanGo, 1, 0, 0, 0));
  const std::string json = chrome_trace_json(events);
  // The synthetic end is honest about itself: the span is marked
  // unterminated instead of masquerading as a real completion.
  EXPECT_NE(json.find("\"name\":\"adp.tx\",\"ph\":\"X\",\"ts\":10,\"dur\":32"),
            std::string::npos);
  EXPECT_NE(json.find("\"unterminated\":1"), std::string::npos);
}

TEST(TraceExport, StaleOpenReplacedByReopenIsMarkedUnterminated) {
  // Two opens on the same (track, worm) without a closer in between: the
  // first span's end is synthesized at the reopen and must carry the
  // unterminated marker; the second closes normally and must not.
  std::vector<TraceEvent> events;
  events.push_back(make_event(10, TraceEventType::kAdpTxStart, 0, -1, 5, 64));
  events.push_back(make_event(30, TraceEventType::kAdpTxStart, 0, -1, 5, 64));
  events.push_back(make_event(50, TraceEventType::kAdpTxDone, 0, -1, 5, 0));
  const std::string json = chrome_trace_json(events);
  const auto stale = json.find("\"ph\":\"X\",\"ts\":10");
  ASSERT_NE(stale, std::string::npos);
  EXPECT_NE(json.find("\"unterminated\":1", stale), std::string::npos);
  const auto closed = json.find("\"ph\":\"X\",\"ts\":30,\"dur\":20");
  ASSERT_NE(closed, std::string::npos);
  // No marker on the properly closed span.
  const std::string closed_entry =
      json.substr(closed, json.find('}', closed) - closed);
  EXPECT_EQ(closed_entry.find("unterminated"), std::string::npos);
}

TEST(TraceExport, FormatTraceTailListsEvents) {
  Tracer tr;
  tr.enable(16);
  EXPECT_EQ(format_trace_tail(tr), "");  // nothing recorded yet
  tr.record(100, TraceEventType::kArbGrant, 8, 2, 42, 1);
  const std::string tail = format_trace_tail(tr, 8);
  EXPECT_NE(tail.find("trace tail (last 1 of 1 recorded):"),
            std::string::npos);
  EXPECT_NE(tail.find("t=100 sw 8.out2 arb.grant worm=42 arg=1"),
            std::string::npos);
}

TEST(CounterRegistry, SnapshotPreservesRegistrationOrder) {
  CounterRegistry reg;
  int ticks = 3;
  reg.add("ticks", [&ticks] { return static_cast<double>(ticks); });
  reg.add("pi-ish", [] { return 3.14; });
  EXPECT_EQ(reg.size(), 2u);
  ticks = 7;
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].first, "ticks");
  EXPECT_DOUBLE_EQ(snap[0].second, 7.0);  // getters read live values
  EXPECT_EQ(snap[1].first, "pi-ish");
}

TEST(TraceEndToEnd, MulticastRunRecordsAllLayers) {
  ExperimentConfig cfg;
  cfg.protocol.scheme = Scheme::kHamiltonianSF;
  cfg.traffic.offered_load = 1e-9;  // inject directly
  auto group = make_full_group(4);
  Network net(make_myrinet_testbed(), {group}, cfg);
  net.enable_tracing(4096);

  Demand d;
  d.src = 0;
  d.multicast = true;
  d.group = 0;
  d.length = 256;
  net.inject(d);
  net.run_to_quiescence();

  const Tracer& tr = net.sim().tracer();
  ASSERT_GT(tr.recorded(), 0);
  bool saw_channel = false;
  bool saw_switch = false;
  bool saw_adapter = false;
  bool saw_host = false;
  for (const TraceEvent& e : tr.snapshot()) {
    switch (trace_track_of(e.type)) {
      case TraceTrack::kChannel: saw_channel = true; break;
      case TraceTrack::kSwitchOut:
      case TraceTrack::kSwitchIn: saw_switch = true; break;
      case TraceTrack::kAdapter: saw_adapter = true; break;
      case TraceTrack::kHost: saw_host = true; break;
    }
  }
  EXPECT_TRUE(saw_channel);
  EXPECT_TRUE(saw_switch);
  EXPECT_TRUE(saw_adapter);
  EXPECT_TRUE(saw_host);

  // Export round-trip: the file exists and carries the Perfetto skeleton.
  const std::string path = ::testing::TempDir() + "wormtrace_test.trace.json";
  ASSERT_TRUE(net.write_trace(path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string content;
  char buf[4096];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0)
    content.append(buf, got);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_NE(content.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(content.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(content.find("\"ph\":\"X\""), std::string::npos);  // worm spans

  // The registry exposes the tracer's occupancy alongside the run counters.
  CounterRegistry reg;
  net.register_counters(reg);
  double recorded = -1.0;
  for (const auto& [name, value] : reg.snapshot())
    if (name == "trace_events_recorded") recorded = value;
  EXPECT_DOUBLE_EQ(recorded, static_cast<double>(tr.recorded()));
}

TEST(TraceEndToEnd, TracingDoesNotChangeResults) {
  const auto run = [](bool tracing) {
    ExperimentConfig cfg;
    cfg.protocol.scheme = Scheme::kHamiltonianSF;
    cfg.traffic.offered_load = 1e-9;
    auto group = make_full_group(4);
    Network net(make_myrinet_testbed(), {group}, cfg);
    if (tracing) net.enable_tracing(1024);
    Demand d;
    d.src = 1;
    d.multicast = true;
    d.group = 0;
    d.length = 512;
    net.inject(d);
    net.run_to_quiescence();
    return std::make_pair(net.sim().now(),
                          net.metrics().mcast_latency().sorted_values());
  };
  const auto plain = run(false);
  const auto traced = run(true);
  EXPECT_EQ(plain.first, traced.first);    // identical final time
  EXPECT_EQ(plain.second, traced.second);  // identical latency samples
}

}  // namespace
}  // namespace wormcast

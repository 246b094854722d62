#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <tuple>
#include <vector>

namespace wormcast {
namespace {

// Test-only reference calendar queue (Brown, CACM 1988): a second,
// independent implementation of the EventQueue contract — (time, late,
// insertion sequence) order, lazy cancellation, generation-stamped
// handles — that the contract suite below runs alongside the production
// heap. The simulator no longer uses a calendar (DESIGN §6b2 keeps its
// history); this one is untuned: no head cache, rebuilds on every resize.
class CalendarQueue {
 public:
  using Action = EventQueue::Action;
  struct Handle {
    static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
    std::uint32_t slot = kNoSlot;
    std::uint64_t gen = 0;
    [[nodiscard]] bool valid() const { return slot != kNoSlot; }
  };

  CalendarQueue() : buckets_(kMinBuckets) {}

  Handle schedule(Time when, Action action, bool late) {
    std::uint32_t slot;
    if (free_.empty()) {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    } else {
      slot = free_.back();
      free_.pop_back();
    }
    slots_[slot].action = std::move(action);
    slots_[slot].live = true;
    const Entry e{when, (static_cast<std::uint64_t>(late) << 63) | next_seq_++,
                  slot, slots_[slot].gen};
    if (when < day_end_ - width_) move_cursor_to(when);
    insert(e);
    ++live_;
    peak_ = std::max(peak_, live_ + dead_);
    if (live_ + dead_ > 2 * buckets_.size()) rebuild(2 * buckets_.size());
    return Handle{slot, e.gen};
  }

  void cancel(Handle h) {
    if (!h.valid() || !slots_[h.slot].live || slots_[h.slot].gen != h.gen)
      return;
    retire(h.slot);
    --live_;
    ++dead_;  // the entry stays parked in its bucket
    if (dead_ > live_) rebuild(buckets_.size());
  }

  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_; }
  [[nodiscard]] std::size_t peak_size() const { return peak_; }
  [[nodiscard]] std::size_t cancelled_in_heap() const { return dead_; }

  Time next_time() {
    return live_ == 0 ? kTimeNever : buckets_[locate()].front().time;
  }

  EventQueue::Popped pop() {
    std::vector<Entry>& b = buckets_[locate()];
    std::pop_heap(b.begin(), b.end(), Later{});
    const Entry e = b.back();
    b.pop_back();
    EventQueue::Popped p{e.time, std::move(slots_[e.slot].action)};
    retire(e.slot);
    --live_;
    if (buckets_.size() > kMinBuckets && 4 * (live_ + dead_) < buckets_.size())
      rebuild(buckets_.size() / 2);
    return p;
  }

 private:
  static constexpr std::size_t kMinBuckets = 64;
  struct Entry {
    Time time;
    std::uint64_t key;  // bit 63: late; low bits: insertion sequence
    std::uint32_t slot;
    std::uint64_t gen;
  };
  struct Later {  // buckets are min-heaps on (time, key)
    bool operator()(const Entry& a, const Entry& b) const {
      return a.time != b.time ? a.time > b.time : a.key > b.key;
    }
  };
  struct Slot {
    Action action;
    std::uint64_t gen = 1;
    bool live = false;
  };

  [[nodiscard]] bool entry_live(const Entry& e) const {
    return slots_[e.slot].live && slots_[e.slot].gen == e.gen;
  }
  void retire(std::uint32_t slot) {
    slots_[slot].action.reset();
    slots_[slot].live = false;
    ++slots_[slot].gen;
    free_.push_back(slot);
  }
  std::size_t bucket_of(Time t) const {
    return static_cast<std::size_t>(t / width_) % buckets_.size();
  }
  void move_cursor_to(Time t) {
    cur_ = bucket_of(t);
    day_end_ = (t / width_ + 1) * width_;
  }
  void insert(const Entry& e) {
    std::vector<Entry>& b = buckets_[bucket_of(e.time)];
    b.push_back(e);
    std::push_heap(b.begin(), b.end(), Later{});
  }
  void drop_dead_heads(std::vector<Entry>& b) {
    while (!b.empty() && !entry_live(b.front())) {
      std::pop_heap(b.begin(), b.end(), Later{});
      b.pop_back();
      --dead_;
    }
  }

  // Bucket holding the earliest live entry. Invariant: no live entry lies
  // before the cursor's day, so the first head found inside the day being
  // scanned is the minimum; an empty year falls back to a direct search.
  std::size_t locate() {
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      drop_dead_heads(buckets_[cur_]);
      if (!buckets_[cur_].empty() && buckets_[cur_].front().time < day_end_)
        return cur_;
      cur_ = (cur_ + 1) % buckets_.size();
      day_end_ += width_;
    }
    const Entry* best = nullptr;
    for (std::vector<Entry>& b : buckets_) {
      drop_dead_heads(b);
      if (!b.empty() && (best == nullptr || Later{}(*best, b.front())))
        best = &b.front();
    }
    move_cursor_to(best->time);
    return cur_;
  }

  // Drops every parked dead entry and redistributes the live ones over
  // `count` buckets, with a day three times the mean gap between the
  // earliest events (Brown's width rule).
  void rebuild(std::size_t count) {
    std::vector<Entry> live;
    for (const std::vector<Entry>& b : buckets_)
      for (const Entry& e : b)
        if (entry_live(e)) live.push_back(e);
    dead_ = 0;
    std::sort(live.begin(), live.end(),
              [](const Entry& a, const Entry& b) { return Later{}(b, a); });
    const std::size_t n = std::min<std::size_t>(live.size(), 25);
    if (n >= 2)
      width_ = std::max<Time>(1, 3 * (live[n - 1].time - live[0].time) /
                                     static_cast<Time>(n - 1));
    buckets_.assign(count, {});
    for (const Entry& e : live) insert(e);
    move_cursor_to(live.empty() ? 0 : live.front().time);
  }

  std::vector<std::vector<Entry>> buckets_;
  Time width_ = 1;
  std::size_t cur_ = 0;
  Time day_end_ = 1;  // end of the cursor's day
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::size_t live_ = 0;
  std::size_t dead_ = 0;
  std::size_t peak_ = 0;
  std::uint64_t next_seq_ = 1;
};

enum class Impl : std::uint8_t { calendar, heap };

// One interface over both implementations, for the contract suite.
class AnyQueue {
 public:
  struct Handle {
    EventHandle heap;
    CalendarQueue::Handle calendar;
    [[nodiscard]] bool valid() const {
      return heap.valid() || calendar.valid();
    }
  };

  explicit AnyQueue(Impl impl) : impl_(impl) {}

  Handle schedule(Time when, EventQueue::Action action, bool late = false) {
    Handle h;
    if (impl_ == Impl::heap)
      h.heap = heap_.schedule(when, std::move(action), late);
    else
      h.calendar = calendar_.schedule(when, std::move(action), late);
    return h;
  }
  void cancel(const Handle& h) {
    if (impl_ == Impl::heap)
      heap_.cancel(h.heap);
    else
      calendar_.cancel(h.calendar);
  }
  EventQueue::Popped pop() {
    return impl_ == Impl::heap ? heap_.pop() : calendar_.pop();
  }
  [[nodiscard]] bool empty() const {
    return impl_ == Impl::heap ? heap_.empty() : calendar_.empty();
  }
  [[nodiscard]] std::size_t size() const {
    return impl_ == Impl::heap ? heap_.size() : calendar_.size();
  }
  [[nodiscard]] Time next_time() {
    return impl_ == Impl::heap ? heap_.next_time() : calendar_.next_time();
  }
  [[nodiscard]] std::size_t peak_size() const {
    return impl_ == Impl::heap ? heap_.peak_size() : calendar_.peak_size();
  }
  [[nodiscard]] std::size_t cancelled_in_heap() const {
    return impl_ == Impl::heap ? heap_.cancelled_in_heap()
                               : calendar_.cancelled_in_heap();
  }

 private:
  Impl impl_;
  EventQueue heap_;
  CalendarQueue calendar_;
};

using Handle = AnyQueue::Handle;

// The queue contract, run against the production heap and the reference
// calendar: both implement the total order (time, late, insertion
// sequence), so every case must hold for either.
class EventQueueTest : public ::testing::TestWithParam<Impl> {
 protected:
  AnyQueue make() { return AnyQueue(GetParam()); }
};

INSTANTIATE_TEST_SUITE_P(AllKinds, EventQueueTest,
                         ::testing::Values(Impl::calendar, Impl::heap),
                         [](const auto& param_info) {
                           return std::string(param_info.param == Impl::heap
                                                  ? "heap"
                                                  : "calendar");
                         });

TEST_P(EventQueueTest, FiresInTimeOrder) {
  AnyQueue q = make();
  std::vector<int> fired;
  q.schedule(30, [&] { fired.push_back(3); });
  q.schedule(10, [&] { fired.push_back(1); });
  q.schedule(20, [&] { fired.push_back(2); });
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST_P(EventQueueTest, EqualTimesFireInInsertionOrder) {
  AnyQueue q = make();
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) q.schedule(5, [&fired, i] { fired.push_back(i); });
  while (!q.empty()) q.pop().action();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
}

TEST_P(EventQueueTest, LateClassFiresAfterEverySameTimeNormalEvent) {
  AnyQueue q = make();
  std::vector<int> fired;
  // Late event inserted FIRST still fires after all same-time normal
  // events; a later time beats both classes.
  q.schedule(5, [&] { fired.push_back(90); }, /*late=*/true);
  q.schedule(5, [&] { fired.push_back(1); });
  q.schedule(5, [&] { fired.push_back(91); }, /*late=*/true);
  q.schedule(5, [&] { fired.push_back(2); });
  q.schedule(6, [&] { fired.push_back(100); });
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 90, 91, 100}));
}

TEST_P(EventQueueTest, NextTimeReportsEarliestLiveEvent) {
  AnyQueue q = make();
  EXPECT_EQ(q.next_time(), kTimeNever);
  auto h = q.schedule(7, [] {});
  q.schedule(9, [] {});
  EXPECT_EQ(q.next_time(), 7);
  q.cancel(h);
  EXPECT_EQ(q.next_time(), 9);
}

TEST_P(EventQueueTest, CancelPreventsExecution) {
  AnyQueue q = make();
  bool ran = false;
  auto h = q.schedule(1, [&] { ran = true; });
  q.cancel(h);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(ran);
}

TEST_P(EventQueueTest, CancelTwiceIsHarmless) {
  AnyQueue q = make();
  auto h = q.schedule(1, [] {});
  q.cancel(h);
  q.cancel(h);
  EXPECT_TRUE(q.empty());
}

TEST_P(EventQueueTest, CancelAfterFireIsHarmless) {
  AnyQueue q = make();
  auto h = q.schedule(1, [] {});
  q.pop().action();
  q.cancel(h);  // must not corrupt later events
  bool ran = false;
  q.schedule(2, [&] { ran = true; });
  q.pop().action();
  EXPECT_TRUE(ran);
}

TEST_P(EventQueueTest, DefaultHandleIsInvalidAndIgnored) {
  AnyQueue q = make();
  Handle h;
  EXPECT_FALSE(h.valid());
  q.cancel(h);
  EXPECT_TRUE(q.empty());
}

TEST_P(EventQueueTest, SizeCountsLiveEventsOnly) {
  AnyQueue q = make();
  auto a = q.schedule(1, [] {});
  q.schedule(2, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
}

TEST_P(EventQueueTest, InterleavedCancelAndPop) {
  AnyQueue q = make();
  std::vector<int> fired;
  std::vector<Handle> handles;
  for (int i = 0; i < 100; ++i)
    handles.push_back(q.schedule(i, [&fired, i] { fired.push_back(i); }));
  for (int i = 0; i < 100; i += 2) q.cancel(handles[static_cast<std::size_t>(i)]);
  while (!q.empty()) q.pop().action();
  ASSERT_EQ(fired.size(), 50u);
  for (std::size_t i = 0; i < fired.size(); ++i)
    EXPECT_EQ(fired[i], static_cast<int>(2 * i + 1));
}

TEST_P(EventQueueTest, StaleHandleAfterSlotReuseIsIgnored) {
  AnyQueue q = make();
  // Fire an event, then schedule a new one: the new event reuses the old
  // slot (LIFO free list), so the stale handle must not be able to kill it.
  auto stale = q.schedule(1, [] {});
  q.pop().action();
  bool ran = false;
  q.schedule(2, [&] { ran = true; });
  q.cancel(stale);
  ASSERT_FALSE(q.empty());
  q.pop().action();
  EXPECT_TRUE(ran);
}

TEST_P(EventQueueTest, StaleHandleAfterCancelAndReuseIsIgnored) {
  AnyQueue q = make();
  auto stale = q.schedule(1, [] {});
  q.cancel(stale);
  bool ran = false;
  q.schedule(2, [&] { ran = true; });
  q.cancel(stale);  // slot was reused by the new event; must be a no-op
  ASSERT_EQ(q.size(), 1u);
  q.pop().action();
  EXPECT_TRUE(ran);
}

TEST_P(EventQueueTest, MassCancellationCompacts) {
  AnyQueue q = make();
  std::vector<Handle> handles;
  // One far-future survivor keeps the head live while thousands of nearer
  // timers get cancelled (the retransmit-timer pattern).
  bool survivor_ran = false;
  q.schedule(1'000'000, [&] { survivor_ran = true; });
  for (int i = 0; i < 4096; ++i)
    handles.push_back(q.schedule(100 + i, [] {}));
  for (auto& h : handles) q.cancel(h);
  // Compaction bounds parked dead entries to at most half the structure.
  EXPECT_LE(q.cancelled_in_heap() * 2, q.size() + q.cancelled_in_heap());
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.next_time(), 1'000'000);
  q.pop().action();
  EXPECT_TRUE(survivor_ran);
  EXPECT_TRUE(q.empty());
}

TEST_P(EventQueueTest, PeakSizeTracksHighWaterMark) {
  AnyQueue q = make();
  std::vector<Handle> handles;
  for (int i = 0; i < 64; ++i) handles.push_back(q.schedule(i, [] {}));
  for (int i = 0; i < 32; ++i) q.pop().action();
  EXPECT_EQ(q.peak_size(), 64u);
  q.schedule(1000, [] {});
  EXPECT_EQ(q.peak_size(), 64u);  // never reached 65 live at once
}

// Regression: a cancelled entry parked mid-structure must stay dead even
// after its slot is reused by a newer event. Without a liveness stamp on
// the parked entry, the stale entry pops as if live (firing a cancelled
// action) and retires the reused slot, silently dropping the newer event.
TEST_P(EventQueueTest, ParkedCancelledEntrySurvivesSlotReuse) {
  AnyQueue q = make();
  bool cancelled_ran = false;
  bool replacement_ran = false;
  q.schedule(5, [] {});  // live head keeps the cancelled entry parked
  auto doomed = q.schedule(10, [&] { cancelled_ran = true; });
  q.cancel(doomed);  // not the head: entry stays parked
  // Reuses the slot just freed by the cancel.
  q.schedule(20, [&] { replacement_ran = true; });
  EXPECT_EQ(q.size(), 2u);
  while (!q.empty()) q.pop().action();
  EXPECT_FALSE(cancelled_ran);
  EXPECT_TRUE(replacement_ran);
}

TEST_P(EventQueueTest, NextTimeIsStableAcrossRepeatedCalls) {
  AnyQueue q = make();
  auto a = q.schedule(5, [] {});
  q.schedule(8, [] {});
  q.cancel(a);
  // next_time() is a pure read; calling it many times must not change state.
  for (int i = 0; i < 10; ++i) EXPECT_EQ(q.next_time(), 8);
  EXPECT_EQ(q.size(), 1u);
}

// A handle's stamp is the event's 64-bit queue key, unique per event. A
// 32-bit stamp would wrap after 2^32 events, at which point a hoarded
// stale handle aliases a live event and cancel() kills it. 2^32 events is
// reachable in hours of simulation; 2^63 is not. The handle must carry
// the full width.
static_assert(sizeof(EventHandle) >= sizeof(std::uint32_t) + sizeof(std::uint64_t),
              "EventHandle must hold a 32-bit slot and a 64-bit key");

TEST_P(EventQueueTest, HoardedStaleHandleStaysDeadAcrossHeavySlotReuse) {
  AnyQueue q = make();
  // Cycle one slot through many events while hoarding the first
  // handle; the stale handle must never become able to cancel the current
  // occupant. (A full 2^32 wrap is impractical in a unit test; the
  // static_assert above pins the width, this pins the per-cycle behavior.)
  auto hoarded = q.schedule(1, [] {});
  q.pop().action();
  for (int i = 0; i < 100'000; ++i) {
    auto h = q.schedule(i, [] {});
    q.cancel(h);
  }
  bool ran = false;
  q.schedule(7, [&] { ran = true; });
  q.cancel(hoarded);
  ASSERT_EQ(q.size(), 1u);
  q.pop().action();
  EXPECT_TRUE(ran);
}

// An action fired from pop() may re-enter the queue: scheduling at the
// current time must land after every already-pending same-time event
// (higher insertion sequence), and the accounting (size, next_time) must
// stay coherent mid-dispatch.
TEST_P(EventQueueTest, ReentrantScheduleDuringPop) {
  AnyQueue q = make();
  std::vector<int> fired;
  q.schedule(10, [&] {
    fired.push_back(1);
    q.schedule(10, [&] { fired.push_back(3); });  // same tick, new seq
    q.schedule(15, [&] { fired.push_back(4); });
    q.schedule(10, [&] { fired.push_back(100); }, /*late=*/false);
  });
  q.schedule(10, [&] { fired.push_back(2); });
  while (!q.empty()) {
    auto p = q.pop();
    p.action();
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3, 100, 4}));
}

// Randomized differential test: drive the queue with a mixed
// schedule/cancel/pop workload (including re-entrant schedules from inside
// fired actions) and check the fired sequence against a std::multimap
// reference ordered by the documented key (time, late, seq). Exercises
// compaction and the head-is-live invariant under churn.
TEST_P(EventQueueTest, RandomizedStressMatchesReferenceModel) {
  AnyQueue q = make();
  std::mt19937_64 rng(0xC0FFEE);
  using Key = std::tuple<Time, bool, std::uint64_t>;  // (time, late, seq)
  std::map<Key, int> reference;                       // key is unique per event
  std::vector<std::pair<Handle, Key>> outstanding;
  std::uint64_t next_seq = 0;
  Time now = 0;
  int next_id = 0;
  int fired_ok = 0;

  auto do_schedule = [&](Time at, bool late) {
    const int id = next_id++;
    const Key key{at, late, next_seq++};
    Handle h = q.schedule(
        at,
        [&, id, key] {
          // Differential check at fire time: the reference's earliest
          // pending event must be exactly this one.
          ASSERT_FALSE(reference.empty());
          EXPECT_EQ(reference.begin()->second, id);
          EXPECT_EQ(reference.begin()->first, key);
          reference.erase(reference.begin());
          ++fired_ok;
        },
        late);
    reference.emplace(key, id);
    outstanding.emplace_back(h, key);
  };

  for (int step = 0; step < 30'000; ++step) {
    const auto roll = rng() % 100;
    if (roll < 55 || q.empty()) {
      // Schedule at or after `now` (popping advances the clock; scheduling
      // in the past would be a simulator bug, not a queue workload).
      const Time at = now + static_cast<Time>(rng() % 1024);
      do_schedule(at, (rng() % 8) == 0);
    } else if (roll < 75 && !outstanding.empty()) {
      // Cancel a random outstanding handle (may already be fired/stale —
      // the reference only drops it if still pending).
      const std::size_t i = rng() % outstanding.size();
      q.cancel(outstanding[i].first);
      reference.erase(outstanding[i].second);
      outstanding.erase(outstanding.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ASSERT_EQ(q.size(), reference.size());
      ASSERT_EQ(q.next_time(), std::get<0>(reference.begin()->first));
      auto p = q.pop();
      now = p.time;
      // Occasionally re-enter: schedule from inside the fired action.
      if ((rng() % 16) == 0) {
        p.action();
        do_schedule(now, false);
      } else {
        p.action();
      }
    }
  }
  while (!q.empty()) {
    ASSERT_EQ(q.size(), reference.size());
    q.pop().action();
  }
  EXPECT_TRUE(reference.empty());
  EXPECT_GT(fired_ok, 1000);
}

// Cancel-heavy randomized sweep: forces repeated compactions and verifies
// the live/dead accounting never drifts (size() + cancelled_in_heap() is
// exactly the parked population, and survivors all fire).
TEST_P(EventQueueTest, RandomizedCancelHeavyAccounting) {
  AnyQueue q = make();
  std::mt19937_64 rng(42);
  int expected_survivors = 0;
  int fired = 0;
  for (int round = 0; round < 50; ++round) {
    std::vector<Handle> doomed;
    for (int i = 0; i < 400; ++i) {
      const Time at = static_cast<Time>(round * 10'000 + (rng() % 5000));
      if ((rng() % 10) == 0) {
        q.schedule(at, [&fired] { ++fired; });
        ++expected_survivors;
      } else {
        doomed.push_back(q.schedule(at, [] {
          FAIL() << "cancelled event fired";
        }));
      }
    }
    for (auto& h : doomed) q.cancel(h);
    // Compaction invariant: parked dead entries never exceed live ones
    // once the cancel burst is over.
    EXPECT_LE(q.cancelled_in_heap(), q.size() + 1);
  }
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(fired, expected_survivors);
}

// A keyed event fires where an event scheduled at reservation time would
// have, however late it is inserted: its reserved sequence number beats
// every same-time event scheduled after the reservation.
TEST(EventQueueLaneTest, KeyedEventFiresAtItsReservedPosition) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(50, [&] { fired.push_back(1); });  // before the reservation
  const std::uint64_t key = q.reserve_key();
  q.schedule(50, [&] { fired.push_back(3); });  // after it
  q.schedule(50, [&] { fired.push_back(4); }, /*late=*/true);
  q.schedule(10, [&] {
    // Inserted only now, long after the two same-time events above.
    q.schedule_keyed(50, key, [&] { fired.push_back(2); });
  });
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventQueueLaneTest, ReserveKeyConsumesOneSequenceNumber) {
  EventQueue q;
  const std::uint64_t a = q.reserve_key();
  q.schedule(1, [] {});
  const std::uint64_t b = q.reserve_key();
  const std::uint64_t late = q.reserve_key(/*late=*/true);
  EXPECT_EQ(b, a + 2);  // schedule() took the one in between
  EXPECT_EQ(late, (std::uint64_t{1} << 63) | (b + 1));
}

// A lane event's handle carries its reserved key. Once that event has
// fired or been cancelled, its slot goes to the next event (LIFO free
// list), keyed or not, and the stale handle must not cancel it.
TEST(EventQueueLaneTest, StaleKeyedHandleCannotCancelTheSlotsNextEvent) {
  EventQueue q;
  std::vector<int> fired;
  const std::uint64_t head = q.reserve_key();
  const std::uint64_t next = q.reserve_key();
  const EventHandle fired_handle =
      q.schedule_keyed(10, head, [&] { fired.push_back(1); });
  q.pop().action();
  q.schedule_keyed(20, next, [&] { fired.push_back(2); });  // reuses the slot
  q.cancel(fired_handle);
  EXPECT_EQ(q.size(), 1u);

  const std::uint64_t doomed_key = q.reserve_key();
  const EventHandle doomed =
      q.schedule_keyed(30, doomed_key, [&] { fired.push_back(-1); });
  q.cancel(doomed);
  q.schedule(30, [&] { fired.push_back(3); });  // reuses the slot
  q.cancel(doomed);
  q.cancel(fired_handle);
  EXPECT_EQ(q.size(), 2u);
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueDeathTest, ScheduleKeyedRejectsAnUnreservedKey) {
  EventQueue q;
  const std::uint64_t key = q.reserve_key();
  EXPECT_DEATH(q.schedule_keyed(5, key + 1, [] {}), "never reserved");
}

// Randomized differential test with delivery lanes: plain schedules,
// cancels and pops mixed with lanes that behave like channels (each sends
// at `now` with a fixed delay, reserves the delivery's key at send time,
// and keeps only its head in the queue; the head inserts its successor
// when it fires). The std::multimap reference holds every event, lane
// events included, under (time, late, seq): the queue must fire exactly
// its order.
TEST(EventQueueLaneTest, RandomizedLanesMatchReferenceModel) {
  EventQueue q;
  std::mt19937_64 rng(0x1A4E5);
  using Key = std::tuple<Time, bool, std::uint64_t>;  // (time, late, seq)
  std::map<Key, int> reference;
  std::vector<std::pair<EventHandle, Key>> outstanding;  // plain events
  std::uint64_t next_seq = 1;  // mirrors the queue's insertion sequence
  Time now = 0;
  int next_id = 0;
  int fired_plain = 0;
  int fired_lane = 0;

  auto fire_check = [&](int id, const Key& key) {
    ASSERT_FALSE(reference.empty());
    EXPECT_EQ(reference.begin()->second, id);
    EXPECT_EQ(reference.begin()->first, key);
    reference.erase(reference.begin());
  };

  struct Pending {
    Time time;
    std::uint64_t key;
    int id;
  };
  struct Lane {
    Time delay = 0;
    bool late = false;
    std::deque<Pending> wire;
  };
  std::vector<Lane> lanes(7);
  for (std::size_t k = 0; k < lanes.size(); ++k) {
    lanes[k].delay = 1 + static_cast<Time>(rng() % 300);
    lanes[k].late = (k % 3) == 0;
  }
  auto ref_key = [](Time t, std::uint64_t key) {
    return Key{t, (key >> 63) != 0, key & ((std::uint64_t{1} << 63) - 1)};
  };
  std::function<void(std::size_t)> schedule_head = [&](std::size_t k) {
    const Pending& head = lanes[k].wire.front();
    q.schedule_keyed(head.time, head.key, [&, k] {
      const Pending p = lanes[k].wire.front();
      lanes[k].wire.pop_front();
      if (!lanes[k].wire.empty()) schedule_head(k);
      fire_check(p.id, ref_key(p.time, p.key));
      ++fired_lane;
    });
  };
  auto lane_send = [&](std::size_t k) {
    Lane& lane = lanes[k];
    const std::uint64_t key = q.reserve_key(lane.late);
    ASSERT_EQ(key & ((std::uint64_t{1} << 63) - 1), next_seq);
    ++next_seq;
    const int id = next_id++;
    lane.wire.push_back(Pending{now + lane.delay, key, id});
    reference.emplace(ref_key(now + lane.delay, key), id);
    if (lane.wire.size() == 1) schedule_head(k);
  };
  auto plain_schedule = [&](Time at, bool late) {
    const int id = next_id++;
    const Key key{at, late, next_seq++};
    EventHandle h = q.schedule(
        at,
        [&, id, key] {
          fire_check(id, key);
          ++fired_plain;
        },
        late);
    reference.emplace(key, id);
    outstanding.emplace_back(h, key);
  };

  for (int step = 0; step < 40'000; ++step) {
    const auto roll = rng() % 100;
    if (roll < 30) {
      // Bursty sends, as a channel streaming a worm would make.
      const std::size_t k = rng() % lanes.size();
      const int n = 1 + static_cast<int>(rng() % 4);
      for (int i = 0; i < n; ++i) lane_send(k);
    } else if (roll < 55 || q.empty()) {
      plain_schedule(now + static_cast<Time>(rng() % 512), (rng() % 8) == 0);
    } else if (roll < 65 && !outstanding.empty()) {
      const std::size_t i = rng() % outstanding.size();
      q.cancel(outstanding[i].first);
      reference.erase(outstanding[i].second);
      outstanding.erase(outstanding.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ASSERT_EQ(q.next_time(), std::get<0>(reference.begin()->first));
      auto p = q.pop();
      now = p.time;
      p.action();
      // Sends re-entered from a fired event land at the new `now`.
      if ((rng() % 8) == 0) lane_send(rng() % lanes.size());
    }
    // Only lane heads are queued: the queue never holds more than one
    // event per lane beyond the plain events.
    std::size_t waiting = 0;
    for (const Lane& lane : lanes)
      waiting += lane.wire.empty() ? 0 : lane.wire.size() - 1;
    ASSERT_EQ(q.size() + waiting, reference.size());
  }
  while (!q.empty()) q.pop().action();
  EXPECT_TRUE(reference.empty());
  EXPECT_GT(fired_plain, 1000);
  EXPECT_GT(fired_lane, 1000);
}

// Queue memory follows the live high-water mark, not the event history:
// after bursts of very different time densities have been drained, the
// estimate stays within a constant factor of the peak live population
// plus a constant (the up-front reservation). A time-bucketed structure
// that keeps each burst's capacity in the buckets it visited fails this.
TEST(EventQueueMemoryTest, BoundedByPeakLiveEvents) {
  EventQueue q;
  constexpr std::size_t kBytesPerPeakEvent = 512;
  constexpr std::size_t kConstantBytes = 256 * 1024;
  std::mt19937_64 rng(7);
  Time base = 0;
  for (int round = 0; round < 24; ++round) {
    const std::size_t n = 256u << (round % 6);       // 256 .. 8192 events
    const Time spread = Time{1} << (2 * (round % 8));  // 1 .. 16384 bt
    for (std::size_t i = 0; i < n; ++i)
      q.schedule(base + static_cast<Time>(rng() % static_cast<std::uint64_t>(
                                              spread * 64)),
                 [] {});
    while (!q.empty()) base = std::max(base, q.pop().time);
    EXPECT_LE(q.heap_bytes_estimate(),
              kBytesPerPeakEvent * q.peak_size() + kConstantBytes)
        << "round " << round;
  }
  EXPECT_EQ(q.peak_size(), 8192u);
}

}  // namespace
}  // namespace wormcast

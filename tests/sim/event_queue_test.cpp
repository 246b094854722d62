#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <numeric>
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

// --- The two tiers: a wheel for the next kWheelSpan ticks, a heap beyond.

constexpr Time kSpan = EventQueue::kWheelSpan;

// Heap-tier twin of ParkedCancelledEntrySurvivesSlotReuse: every event is
// at least one wheel span ahead, so the cancel parks a dead heap entry.
TEST(EventQueueTierTest, ParkedCancelledFarEntrySurvivesSlotReuse) {
  EventQueue q;
  bool cancelled_ran = false;
  bool replacement_ran = false;
  q.schedule(kSpan + 5, [] {});  // live heap top keeps the entry parked
  auto doomed = q.schedule(kSpan + 10, [&] { cancelled_ran = true; });
  q.cancel(doomed);
  EXPECT_EQ(q.cancelled_in_heap(), 1u);
  q.schedule(kSpan + 20, [&] { replacement_ran = true; });  // reuses the slot
  EXPECT_EQ(q.size(), 2u);
  while (!q.empty()) q.pop().action();
  EXPECT_FALSE(cancelled_ran);
  EXPECT_TRUE(replacement_ran);
}

// Heap-tier twin of MassCancellationCompacts: the cancelled timers are all
// beyond the wheel, so only compaction bounds the parked entries. They are
// cancelled latest first, so that none is the heap's top and each parks.
TEST(EventQueueTierTest, MassCancellationOfFarTimersCompacts) {
  EventQueue q;
  std::vector<EventHandle> handles;
  bool survivor_ran = false;
  q.schedule(1'000'000, [&] { survivor_ran = true; });
  for (int i = 0; i < 4096; ++i)
    handles.push_back(q.schedule(kSpan + i, [] {}));
  EXPECT_EQ(q.peak_size(), 4097u);
  std::size_t most_parked = 0;
  for (auto h = handles.rbegin(); h != handles.rend(); ++h) {
    q.cancel(*h);
    most_parked = std::max(most_parked, q.cancelled_in_heap());
    EXPECT_LE(q.cancelled_in_heap() * 2, q.size() + q.cancelled_in_heap());
  }
  EXPECT_GT(most_parked, 0u);  // the heap cancels lazily
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.next_time(), 1'000'000);
  q.pop().action();
  EXPECT_TRUE(survivor_ran);
  EXPECT_TRUE(q.empty());
}

// Pops one event at `t` so that the wheel's window starts there.
void advance_to(EventQueue& q, Time t) {
  q.schedule(t, [] {});
  ASSERT_EQ(q.pop().time, t);
}

// A far event entered the heap; once the window has moved, a near event at
// the same tick enters the wheel. Their keys, not their tiers, decide.
TEST(EventQueueTierTest, SameTickOrderAcrossTiersFollowsKeys) {
  for (const bool far_key_smaller : {true, false}) {
    EventQueue q;
    std::vector<int> fired;
    const Time t = kSpan + 44;
    const std::uint64_t early = q.reserve_key();
    q.schedule(t, [&] { fired.push_back(1); });  // heap: t is a span ahead
    advance_to(q, 100);                          // t is now near
    if (far_key_smaller) {
      q.schedule(t, [&] { fired.push_back(2); });
    } else {
      q.schedule_keyed(t, early, [&] { fired.push_back(0); });
    }
    EXPECT_EQ(q.cancelled_in_heap(), 0u);
    EXPECT_EQ(q.next_time(), t);
    while (!q.empty()) q.pop().action();
    EXPECT_EQ(fired, far_key_smaller ? (std::vector<int>{1, 2})
                                     : (std::vector<int>{0, 1}));
  }
  // A near late event still fires after a far normal one at the same tick.
  EventQueue q;
  std::vector<int> fired;
  q.schedule(kSpan + 1, [&] { fired.push_back(2); }, /*late=*/true);
  q.schedule(kSpan + 1, [&] { fired.push_back(1); });
  advance_to(q, 10);
  q.schedule(kSpan + 1, [&] { fired.push_back(4); }, /*late=*/true);
  q.schedule(kSpan + 1, [&] { fired.push_back(3); });
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(fired, (std::vector<int>{1, 3, 2, 4}));
}

// One bucket holding normal, late and lane events inserted out of key
// order fires in (late, sequence) order.
TEST(EventQueueTierTest, LateAndLaneKeysShareOneBucketInKeyOrder) {
  EventQueue q;
  std::vector<int> fired;
  auto record = [&fired](int id) { return [&fired, id] { fired.push_back(id); }; };
  const std::uint64_t lane_normal = q.reserve_key();
  const std::uint64_t lane_late = q.reserve_key(/*late=*/true);
  q.schedule(7, record(20), /*late=*/true);
  q.schedule(7, record(2));
  q.schedule(7, record(21), /*late=*/true);
  q.schedule(7, record(3));  // a normal event behind late ones
  q.schedule_keyed(7, lane_late, record(19));  // an old late key
  q.schedule_keyed(7, lane_normal, record(1));  // the oldest key of all
  q.schedule(7, record(4));
  EXPECT_EQ(q.size(), 7u);
  while (!q.empty()) {
    auto p = q.pop();
    EXPECT_EQ(p.time, 7);
    p.action();
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3, 4, 19, 20, 21}));
}

// Cancelling a bucket's first, middle and last entry unlinks each at once,
// and later inserts (appended or walked in) still land in key order.
TEST(EventQueueTierTest, CancelFirstMiddleAndLastOfABucketThenReinsert) {
  EventQueue q;
  std::vector<int> fired;
  auto record = [&fired](int id) { return [&fired, id] { fired.push_back(id); }; };
  q.schedule(9, record(100));
  std::vector<EventHandle> h;
  for (int i = 0; i < 5; ++i) h.push_back(q.schedule(5, record(i)));
  const std::uint64_t old_key = q.reserve_key();
  q.cancel(h[0]);  // first
  q.cancel(h[2]);  // middle
  q.cancel(h[4]);  // last
  q.schedule(6, record(50));  // takes the last entry's slot
  EXPECT_EQ(q.size(), 4u);
  EXPECT_EQ(q.cancelled_in_heap(), 0u);  // the wheel holds no dead entry
  q.schedule(5, record(6));                 // appends after the new last
  q.schedule_keyed(5, old_key, record(5));  // walks in between
  q.schedule(5, record(7), /*late=*/true);
  EXPECT_EQ(q.size(), 7u);
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(fired, (std::vector<int>{1, 3, 5, 6, 7, 50, 100}));

  // Emptying the earliest bucket moves the head to the next one.
  auto a = q.schedule(20, [] {});
  auto b = q.schedule(20, [] {});
  q.schedule(30, [] {});
  q.cancel(b);
  EXPECT_EQ(q.next_time(), 20);
  q.cancel(a);
  EXPECT_EQ(q.next_time(), 30);
  q.pop();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), kTimeNever);
}

// On a dense tick, an insert whose place lies deep in the bucket's list
// goes to the heap instead of walking it, and still fires in key order;
// one that belongs at either end of the list stays in the wheel.
TEST(EventQueueTierTest, DenseTickSendsDeepInsertsToTheHeap) {
  EventQueue q;
  std::vector<int> fired;
  auto record = [&fired](int id) { return [&fired, id] { fired.push_back(id); }; };
  const std::uint64_t lane_key = q.reserve_key();
  for (int i = 0; i < 20; ++i) q.schedule(5, record(i + 1));
  q.schedule(5, record(100), /*late=*/true);
  q.schedule(5, record(21));  // behind twenty normal events: the heap
  auto deep = q.schedule(5, record(22));
  q.schedule_keyed(5, lane_key, record(0));  // the oldest key: at the front
  auto tail = q.schedule(5, record(101), /*late=*/true);  // appended
  q.cancel(tail);
  EXPECT_EQ(q.cancelled_in_heap(), 0u);  // a wheel entry unlinks at once
  q.cancel(deep);
  EXPECT_EQ(q.cancelled_in_heap(), 1u);  // parked behind the heap's top
  q.schedule(5, record(22));
  std::vector<int> expected(22);
  std::iota(expected.begin(), expected.end(), 0);
  expected.push_back(22);
  expected.push_back(100);
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(fired, expected);
}

// A ticker marches over ten wheel spans; at each stop it schedules probes
// at its own tick, at the last wheel tick, at the first heap tick and just
// beyond, so buckets are reused across wraps while other ticks occupy
// them. Each event must fire at its own time, in (time, key) order.
TEST(EventQueueTierTest, WheelWrapsAroundManySpans) {
  EventQueue q;
  using Key = std::pair<Time, std::uint64_t>;  // (time, insertion order)
  std::vector<Key> scheduled;
  std::vector<Key> fired;
  std::uint64_t seq = 0;
  auto probe = [&](Time at) {
    const Key key{at, seq++};
    scheduled.push_back(key);
    q.schedule(at, [&fired, key] { fired.push_back(key); });
  };
  std::function<void(Time)> tick = [&](Time t) {
    scheduled.push_back(Key{t, seq});
    q.schedule(t, [&, t, key = Key{t, seq++}] {
      fired.push_back(key);
      for (const Time d : {Time{0}, kSpan - 1, kSpan, kSpan + 1}) probe(t + d);
      if (t < 10 * kSpan) tick(t + 85);
    });
  };
  tick(0);
  Time last = 0;
  while (!q.empty()) {
    auto p = q.pop();
    ASSERT_GE(p.time, last);
    last = p.time;
    const std::size_t before = fired.size();
    p.action();
    ASSERT_EQ(fired.size(), before + 1);
    ASSERT_EQ(fired.back().first, p.time) << "event fired off its tick";
  }
  std::sort(scheduled.begin(), scheduled.end());
  EXPECT_EQ(fired, scheduled);
  EXPECT_GT(last, 10 * kSpan);
}

// A standalone queue may schedule below the last popped time: that event
// goes to the heap and pops first, and the wheel keeps its window, so a
// later schedule below it still goes to the heap.
TEST(EventQueueTierTest, ScheduleBelowTheLastPoppedTime) {
  EventQueue q;
  auto nop = [] {};
  advance_to(q, 500);
  q.schedule(600, nop);
  q.schedule(700, nop);
  q.schedule(100, nop);  // in the past of the window
  q.schedule(501, nop);
  EXPECT_EQ(q.next_time(), 100);
  EXPECT_EQ(q.pop().time, 100);
  q.schedule(300, nop);   // still below the window: it did not move back
  q.schedule(1000, nop);  // far
  std::vector<Time> times;
  while (!q.empty()) times.push_back(q.pop().time);
  EXPECT_EQ(times, (std::vector<Time>{300, 501, 600, 700, 1000}));
}

// Randomized differential across both tiers: delays straddle the wheel's
// horizon (0–8, span−6..span+6, 10^4), lanes with those delays keep only
// their heads queued, and cancels hit both tiers. The std::map reference
// holds every event under (time, late, seq).
TEST(EventQueueTierTest, RandomizedTiersMatchReferenceModel) {
  EventQueue q;
  std::mt19937_64 rng(0x7133);
  using Key = std::tuple<Time, bool, std::uint64_t>;
  std::map<Key, int> reference;
  std::vector<std::pair<EventHandle, Key>> outstanding;
  std::uint64_t next_seq = 1;
  Time now = 0;
  int next_id = 0;
  int fired = 0;
  auto delay = [&rng]() -> Time {
    switch (rng() % 3) {
      case 0: return static_cast<Time>(rng() % 9);
      case 1: return kSpan - 6 + static_cast<Time>(rng() % 13);
      default: return 10'000;
    }
  };
  auto ref_key = [](Time t, std::uint64_t key) {
    return Key{t, (key >> 63) != 0, key & ((std::uint64_t{1} << 63) - 1)};
  };
  auto fire_check = [&](int id, const Key& key) {
    ASSERT_FALSE(reference.empty());
    EXPECT_EQ(reference.begin()->second, id);
    EXPECT_EQ(reference.begin()->first, key);
    reference.erase(reference.begin());
    ++fired;
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
  std::vector<Lane> lanes(9);
  for (std::size_t k = 0; k < lanes.size(); ++k) {
    lanes[k].delay = delay();
    lanes[k].late = (k % 2) == 0;
  }
  std::function<void(std::size_t)> schedule_head = [&](std::size_t k) {
    const Pending& head = lanes[k].wire.front();
    q.schedule_keyed(head.time, head.key, [&, k] {
      const Pending p = lanes[k].wire.front();
      lanes[k].wire.pop_front();
      if (!lanes[k].wire.empty()) schedule_head(k);
      fire_check(p.id, ref_key(p.time, p.key));
    });
  };
  auto lane_send = [&](std::size_t k) {
    Lane& lane = lanes[k];
    const std::uint64_t key = q.reserve_key(lane.late);
    ++next_seq;
    const int id = next_id++;
    lane.wire.push_back(Pending{now + lane.delay, key, id});
    reference.emplace(ref_key(now + lane.delay, key), id);
    if (lane.wire.size() == 1) schedule_head(k);
  };
  auto plain_schedule = [&](Time at, bool late) {
    const int id = next_id++;
    const Key key{at, late, next_seq++};
    EventHandle h = q.schedule(at, [&, id, key] { fire_check(id, key); }, late);
    reference.emplace(key, id);
    outstanding.emplace_back(h, key);
  };

  for (int step = 0; step < 60'000; ++step) {
    const auto roll = rng() % 100;
    if (roll < 20) {
      const std::size_t k = rng() % lanes.size();
      const int n = 1 + static_cast<int>(rng() % 3);
      for (int i = 0; i < n; ++i) lane_send(k);
    } else if (roll < 55 || q.empty()) {
      plain_schedule(now + delay(), (rng() % 4) == 0);
    } else if (roll < 70 && !outstanding.empty()) {
      const std::size_t i = rng() % outstanding.size();
      q.cancel(outstanding[i].first);
      reference.erase(outstanding[i].second);
      outstanding.erase(outstanding.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ASSERT_EQ(q.next_time(), std::get<0>(reference.begin()->first));
      auto p = q.pop();
      ASSERT_GE(p.time, now);
      now = p.time;
      p.action();
      if ((rng() % 6) == 0) plain_schedule(now, false);  // re-entrant
    }
    std::size_t waiting = 0;
    for (const Lane& lane : lanes)
      waiting += lane.wire.empty() ? 0 : lane.wire.size() - 1;
    ASSERT_EQ(q.size() + waiting, reference.size());
  }
  while (!q.empty()) q.pop().action();
  EXPECT_TRUE(reference.empty());
  EXPECT_GT(fired, 20'000);
}

}  // namespace
}  // namespace wormcast

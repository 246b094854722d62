// A cancellable discrete-event queue ordered by (time, late, sequence): a
// timing wheel for the next 256 byte-times over a binary heap for the rest.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/action.h"
#include "sim/types.h"

namespace wormcast {

/// Handle returned by EventQueue::schedule; can be used to cancel the event.
/// Value-semantic and cheap to copy. A default-constructed handle is invalid.
///
/// Internally the handle names a reusable slot plus the event's queue key.
/// Every event's key is unique (a 63-bit insertion sequence number that
/// is never reused, plus the late flag), so the key doubles as the slot's
/// generation stamp: a stale handle (its event fired or was cancelled and
/// the slot was reused) no longer matches the key the slot holds, and
/// cancelling it is a guaranteed no-op. 2^63 keys is unreachable
/// (centuries at a billion events per wall-second), so a handle can be
/// held forever.
class EventHandle {
 public:
  EventHandle() = default;
  [[nodiscard]] bool valid() const { return slot_ != kNoSlot; }

 private:
  friend class EventQueue;
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
  EventHandle(std::uint32_t slot, std::uint64_t key) : slot_(slot), key_(key) {}
  std::uint32_t slot_ = kNoSlot;
  std::uint64_t key_ = 0;
};

/// Priority queue of timestamped callbacks in two tiers. Events at equal
/// times fire in insertion order (late-class events after every same-time
/// normal event), which makes runs fully deterministic.
///
/// A timing wheel (Varghese & Lauck) of kWheelSpan one-tick buckets holds
/// the events due in [base_, base_ + kWheelSpan), base_ being the last
/// popped time, each bucket a key-ordered list threaded through the slot
/// arena. A binary heap holds the rest: mostly timers that rarely fire,
/// plus events whose place on a dense tick lies deep in its list. The
/// head is the (time, key) minimum of the earliest bucket's first
/// entry and the heap's top, so the firing order is the total order
/// whichever tier an event sits in (DESIGN §6b2).
///
/// Delivery lanes: a producer whose events can never overtake each other
/// (a channel delivers every byte a fixed delay after sending it, so its
/// delivery times never decrease) reserves each event's tie-break key at
/// send time with reserve_key() and inserts only the lane head, under
/// that key, with schedule_keyed(); when the head fires it inserts the
/// next one before running anything else. The queue orders by the total
/// order (time, key), and a lane's waiting events are all later than its
/// head, so the firing order is exactly the one scheduling every event up
/// front would give — while the queue holds one entry per busy lane, not
/// one per byte on the wire.
///
/// Allocation discipline: actions are InlineActions stored in the slot
/// arena (a recycled vector indexed by the handle's slot), and heap
/// entries are 24-byte PODs — so schedule()/cancel()/pop() never allocate
/// in steady state, whatever the capture size, and sifts shuffle PODs
/// instead of closures. Memory follows the live high-water mark: the heap
/// and the arena are one vector each, and the wheel adds a fixed 2 KB.
///
/// Cancelling a wheel event unlinks it at once. Heap cancellation is lazy:
/// a cancelled event's slot is stamped dead in O(1) (its action is
/// destroyed immediately, releasing captured shared_ptrs) and the parked
/// entry is skipped when it surfaces — except when it is the heap's top,
/// which is removed at once so that next_time() stays a pure read. When
/// dead entries outnumber live ones the heap is compacted in one pass, so
/// a workload that schedules and cancels millions of timers holds O(live)
/// memory, not O(ever scheduled).
class EventQueue {
 public:
  using Action = InlineAction;
  /// Byte-times covered by the wheel; later events go to the heap.
  static constexpr Time kWheelSpan = 256;

  EventQueue();

  /// Schedules `action` at absolute time `when`. Events with `late` set
  /// fire after every same-time normal event regardless of insertion
  /// order; within a class, insertion order still breaks ties. Channel
  /// pump self-schedules use the late class so that a pump scheduled far
  /// ahead (the burst fast path) and one scheduled one byte-time ahead
  /// (per-byte stepping) land at the same position in the tick.
  EventHandle schedule(Time when, Action&& action, bool late = false) {
    return schedule_keyed(when, reserve_key(late), std::move(action));
  }

  /// Takes the next insertion sequence number — exactly as schedule()
  /// would — and returns the packed tie-break key of an event to be
  /// inserted later with schedule_keyed() (a delivery-lane event).
  [[nodiscard]] std::uint64_t reserve_key(bool late = false) {
    return (static_cast<std::uint64_t>(late) << 63) | next_seq_++;
  }

  /// The newest key reserved so far in the given class.
  [[nodiscard]] std::uint64_t newest_key(bool late) const {
    return (static_cast<std::uint64_t>(late) << 63) | (next_seq_ - 1);
  }

  /// Schedules `action` at `when` under a key from reserve_key(). Each
  /// reserved key may be used once; the event fires where an event
  /// scheduled at reservation time would have.
  EventHandle schedule_keyed(Time when, std::uint64_t key, Action&& action) {
    assert(action);
    assert((key & kSeqMask) < next_seq_ && "key was never reserved");
    const std::uint32_t slot = acquire_slot(std::move(action), key);
    // Unsigned, so a time below base_ (only a standalone queue schedules
    // one) goes to the heap too.
    const bool near =
        static_cast<std::uint64_t>(when) - static_cast<std::uint64_t>(base_) <
        static_cast<std::uint64_t>(kWheelSpan);
    if (!near || !wheel_insert(slot, when, key)) {
      slots_[slot].bucket = kNil;
      heap_.push_back(Entry{when, key, slot});
      std::push_heap(heap_.begin(), heap_.end(), Later{});
    }
    ++live_count_;
    peak_size_ = std::max(peak_size_, live_count_ + dead_parked_);
    return EventHandle(slot, key);
  }

  /// Cancels a previously scheduled event. Cancelling an already-fired or
  /// already-cancelled event is a harmless no-op.
  void cancel(EventHandle handle);

  [[nodiscard]] bool empty() const { return live_count_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_count_; }

  /// Time of the earliest live event; kTimeNever when empty. Pure read:
  /// the wheel holds no dead entry and the heap's top is always live.
  [[nodiscard]] Time next_time() const {
    return heap_.empty() ? wheel_time_
                         : std::min(wheel_time_, heap_.front().time);
  }

  /// Removes and returns the earliest live event with its tie-break key.
  /// Precondition: !empty().
  struct Popped {
    Time time = 0;
    Action action;
    std::uint64_t key = 0;
  };
  Popped pop() {
    assert(live_count_ > 0 && "pop() on empty EventQueue");
    Popped out;
    std::uint32_t slot = kNil;
    if (wheel_first()) {
      out.time = base_ = wheel_time_;
      const std::uint32_t b = bucket_of(wheel_time_);
      slot = buckets_[b].first;
      buckets_[b].first = slots_[slot].next;
      if (buckets_[b].first == kNil) vacate(b);
    } else {
      assert(entry_live(heap_.front()));
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      out.time = heap_.back().time;
      slot = heap_.back().slot;
      heap_.pop_back();
      drop_dead_head();  // restore the head-is-live invariant
      base_ = std::max(base_, out.time);
    }
    out.key = slots_[slot].key;
    out.action = std::move(slots_[slot].action);
    retire_slot(slot);
    --live_count_;
    return out;
    // The caller runs the action after we return, so a re-entrant schedule()
    // sees fully consistent counters and may immediately reuse this slot.
  }

  /// High-water mark of queue occupancy (wheel entries plus live and
  /// lazily-cancelled heap entries); the hot-path bench reports it as the
  /// queue's peak memory proxy.
  [[nodiscard]] std::size_t peak_size() const { return peak_size_; }
  /// Dead entries currently parked in the heap awaiting a skip/compaction.
  [[nodiscard]] std::size_t cancelled_in_heap() const { return dead_parked_; }

  /// Estimated bytes behind the queue (slot arena, heap storage and the
  /// wheel's bucket heads). Capacity-based, so it is deterministic for a
  /// given event sequence — the memory audit's mem_queue_bytes counter.
  [[nodiscard]] std::size_t heap_bytes_estimate() const {
    return slots_.capacity() * sizeof(Slot) +
           free_slots_.capacity() * sizeof(std::uint32_t) +
           heap_.capacity() * sizeof(Entry) + sizeof(buckets_);
  }

 private:
  static constexpr std::uint64_t kSeqMask = (std::uint64_t{1} << 63) - 1;
  static constexpr std::uint32_t kMask = kWheelSpan - 1;
  static_assert((kWheelSpan & kMask) == 0 && kWheelSpan % 64 == 0,
                "the wheel span is a power of two and whole bitmap words");
  /// Most entries an insert passes in a bucket before it takes the heap.
  static constexpr int kMaxWalk = 8;
  /// End of a bucket list; as Slot::bucket, an event in the heap.
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  /// POD heap entry. `key` packs the tie-break: bit 63 is the late flag
  /// (late fires after every same-time normal event) and the low 63 bits
  /// are the insertion sequence — so ordering by (time, key) equals
  /// ordering by (time, late, seq). The key is unique, so it also names
  /// the event for liveness checks. The action itself lives in the slot
  /// arena, so sifts shuffle 24 trivially-copyable bytes, never a closure.
  struct Entry {
    Time time = 0;
    std::uint64_t key = 0;
    std::uint32_t slot = 0;
  };
  /// std::push_heap/pop_heap build a max-heap w.r.t. this comparator, so
  /// "later is greater" puts the earliest (time, key) at the front.
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.key > b.key;
    }
  };
  /// One arena cell: the scheduled action plus the key of the event that
  /// holds it (kFree when none), which invalidates stale handles and stale
  /// parked entries, and the event's wheel bucket and successor there.
  struct Slot {
    Action action;
    std::uint64_t key = kFree;
    std::uint32_t next = kNil;
    std::uint32_t bucket = kNil;
  };
  static_assert(sizeof(Slot) == sizeof(Action) + 16,
                "the bucket links fill the slot's padding");
  /// A wheel bucket: its first and last slot, kNil when empty.
  struct Bucket {
    std::uint32_t first = kNil;
    std::uint32_t last = kNil;
  };
  /// No event has key 0: sequence numbers start at 1.
  static constexpr std::uint64_t kFree = 0;

  static std::uint32_t bucket_of(Time t) {
    return static_cast<std::uint32_t>(t) & kMask;
  }
  /// True when the head is in the wheel. Precondition: !empty().
  [[nodiscard]] bool wheel_first() const {
    if (heap_.empty()) return true;
    const Entry& top = heap_.front();
    if (wheel_time_ != top.time) return wheel_time_ < top.time;
    return wheel_time_ != kTimeNever &&
           slots_[buckets_[bucket_of(wheel_time_)].first].key < top.key;
  }
  /// Time of the earliest non-empty bucket, scanning the bitmap
  /// circularly from base_'s bucket; kTimeNever when the wheel is empty.
  [[nodiscard]] Time earliest_bucket_time() const {
    constexpr std::uint32_t kWords = kWheelSpan / 64;
    const std::uint32_t start = bucket_of(base_);
    for (std::uint32_t i = 0; i <= kWords; ++i) {
      const std::uint32_t w = ((start >> 6) + i) % kWords;
      std::uint64_t bits = occupied_[w];
      if (i == 0) bits &= ~std::uint64_t{0} << (start & 63);
      if (bits == 0) continue;
      const auto b = (w << 6) | static_cast<std::uint32_t>(std::countr_zero(bits));
      return base_ + static_cast<Time>((b - start) & kMask);
    }
    return kTimeNever;
  }
  /// Marks bucket `b` empty and moves wheel_time_ on if it was the earliest.
  void vacate(std::uint32_t b) {
    occupied_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
    if (bucket_of(wheel_time_) == b) wheel_time_ = earliest_bucket_time();
  }
  /// Links `slot` into the bucket of `when`, in key order. Returns false,
  /// linking nothing, when its place lies more than kMaxWalk entries in:
  /// on a dense tick (a thousand hosts stepping in lockstep) walking the
  /// list costs more than a heap insert.
  bool wheel_insert(std::uint32_t slot, Time when, std::uint64_t key) {
    const std::uint32_t b = bucket_of(when);
    Slot& s = slots_[slot];
    Bucket& bucket = buckets_[b];
    if (bucket.first == kNil) {
      s.next = kNil;
      bucket.first = bucket.last = slot;
      occupied_[b >> 6] |= std::uint64_t{1} << (b & 63);
      wheel_time_ = std::min(wheel_time_, when);
    } else if (slots_[bucket.last].key < key) {
      s.next = kNil;
      slots_[bucket.last].next = slot;
      bucket.last = slot;
    } else {
      // An older reserved key (a lane head), or a normal event behind
      // late ones: walk to its place.
      std::uint32_t* link = &bucket.first;
      for (int steps = 0; slots_[*link].key < key; ++steps) {
        if (steps == kMaxWalk) return false;
        link = &slots_[*link].next;
      }
      s.next = *link;
      *link = slot;
    }
    s.bucket = b;
    return true;
  }
  /// Unlinks a cancelled wheel event from its bucket.
  void wheel_unlink(std::uint32_t slot);

  /// The key check matters: a cancelled entry stays parked while its slot
  /// may be reused by a newer event, and the newer event's key differs.
  [[nodiscard]] bool entry_live(const Entry& e) const {
    return slots_[e.slot].key == e.key;
  }
  std::uint32_t acquire_slot(Action&& action, std::uint64_t key) {
    std::uint32_t index;
    if (!free_slots_.empty()) {
      index = free_slots_.back();
      free_slots_.pop_back();
    } else {
      index = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    Slot& s = slots_[index];
    assert(s.key == kFree);
    s.action = std::move(action);
    s.key = key;
    return index;
  }
  void retire_slot(std::uint32_t slot) {
    Slot& s = slots_[slot];
    assert(s.key != kFree);
    // Invalidates every outstanding handle and parked entry: the slot's
    // next event comes with a new key.
    s.key = kFree;
    // Destroy the action now, not at compaction: cancelled retransmit
    // timers capture worm shared_ptrs, and holding those until a sweep
    // would keep whole payloads alive for no reason.
    s.action.reset();
    free_slots_.push_back(slot);
  }
  /// Pops dead entries off the heap's top until it is live (or the heap is
  /// empty).
  void drop_dead_head() {
    while (!heap_.empty() && !entry_live(heap_.front())) {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      heap_.pop_back();
      assert(dead_parked_ > 0);
      --dead_parked_;
    }
  }
  /// Drops every dead heap entry and re-heapifies.
  void compact();

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<Entry> heap_;
  std::array<Bucket, kWheelSpan> buckets_;
  std::array<std::uint64_t, kWheelSpan / 64> occupied_{};
  /// Last popped time: the wheel covers [base_, base_ + kWheelSpan).
  Time base_ = 0;
  /// Time of the earliest non-empty bucket; kTimeNever when none.
  Time wheel_time_ = kTimeNever;

  std::size_t live_count_ = 0;
  std::size_t dead_parked_ = 0;
  std::uint64_t next_seq_ = 1;
  std::size_t peak_size_ = 0;
};

}  // namespace wormcast

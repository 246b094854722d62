// A cancellable discrete-event queue ordered by (time, late, sequence).
#pragma once

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

/// Priority queue of timestamped callbacks: one flat binary heap. Events
/// at equal times fire in insertion order (late-class events after every
/// same-time normal event), which makes runs fully deterministic.
///
/// Delivery lanes: a producer whose events can never overtake each other
/// (a channel delivers every byte a fixed delay after sending it, so its
/// delivery times never decrease) reserves each event's tie-break key at
/// send time with reserve_key() and inserts only the lane head, under
/// that key, with schedule_keyed(); when the head fires it inserts the
/// next one before running anything else. The heap orders by the total
/// order (time, key), and a lane's waiting events are all later than its
/// head, so the firing order is exactly the one scheduling every event up
/// front would give — while the heap holds one entry per busy lane, not
/// one per byte on the wire.
///
/// Allocation discipline: actions are InlineActions stored in the slot
/// arena (a recycled vector indexed by the handle's slot), and heap
/// entries are 24-byte PODs — so schedule()/cancel()/pop() never allocate
/// in steady state, whatever the capture size, and sifts shuffle PODs
/// instead of closures. Memory follows the live high-water mark: the heap
/// and the arena are one vector each.
///
/// Cancellation is lazy: a cancelled event's slot is stamped dead in O(1)
/// (its action is destroyed immediately, releasing captured shared_ptrs)
/// and the parked entry is skipped when it surfaces — except when the
/// cancelled entry is the current head, in which case it is removed
/// immediately so the head-is-live invariant holds and next_time() stays a
/// pure read. When dead entries outnumber live ones the heap is compacted
/// in one pass, so a workload that schedules and cancels millions of
/// timers holds O(live) memory, not O(ever scheduled).
class EventQueue {
 public:
  using Action = InlineAction;

  EventQueue();

  /// Schedules `action` at absolute time `when`. Events with `late` set
  /// fire after every same-time normal event regardless of insertion
  /// order; within a class, insertion order still breaks ties. Channel
  /// pump self-schedules use the late class so that a pump scheduled far
  /// ahead (the burst fast path) and one scheduled one byte-time ahead
  /// (per-byte stepping) land at the same position in the tick.
  EventHandle schedule(Time when, Action action, bool late = false) {
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
  EventHandle schedule_keyed(Time when, std::uint64_t key, Action action);

  /// Cancels a previously scheduled event. Cancelling an already-fired or
  /// already-cancelled event is a harmless no-op.
  void cancel(EventHandle handle);

  [[nodiscard]] bool empty() const { return live_count_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_count_; }

  /// Time of the earliest live event; kTimeNever when empty. Pure read:
  /// the head-is-live invariant means no cleanup is ever needed here.
  [[nodiscard]] Time next_time() const {
    return live_count_ == 0 ? kTimeNever : heap_.front().time;
  }

  /// Tie-break key of the event pop() returns next. Precondition: !empty().
  [[nodiscard]] std::uint64_t next_key() const { return heap_.front().key; }

  /// Removes and returns the earliest live event. Precondition: !empty().
  struct Popped {
    Time time = 0;
    Action action;
  };
  Popped pop();

  /// High-water mark of queue occupancy (live + lazily-cancelled entries);
  /// the hot-path bench reports it as the queue's peak memory proxy.
  [[nodiscard]] std::size_t peak_size() const { return peak_size_; }
  /// Dead entries currently parked awaiting a skip/compaction.
  [[nodiscard]] std::size_t cancelled_in_heap() const { return dead_parked_; }

  /// Estimated heap bytes behind the queue (slot arena and heap storage).
  /// Capacity-based, so it is deterministic for a given event sequence —
  /// the memory audit's mem_queue_bytes counter.
  [[nodiscard]] std::size_t heap_bytes_estimate() const {
    return slots_.capacity() * sizeof(Slot) +
           free_slots_.capacity() * sizeof(std::uint32_t) +
           heap_.capacity() * sizeof(Entry);
  }

 private:
  /// POD pending-event entry. `key` packs the tie-break: bit 63 is the
  /// late flag (late fires after every same-time normal event) and the low
  /// 63 bits are the insertion sequence — so ordering by (time, key)
  /// equals ordering by (time, late, seq). The key is unique, so it also
  /// names the event for liveness checks. The action itself lives in the
  /// slot arena, so sifts shuffle 24 trivially-copyable bytes, never a
  /// closure.
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
  /// parked entries.
  struct Slot {
    Action action;
    std::uint64_t key = kFree;
  };
  /// No event has key 0: sequence numbers start at 1.
  static constexpr std::uint64_t kFree = 0;

  /// The key check matters: a cancelled entry stays parked while its slot
  /// may be reused by a newer event, and the newer event's key differs.
  [[nodiscard]] bool entry_live(const Entry& e) const {
    return slots_[e.slot].key == e.key;
  }
  std::uint32_t acquire_slot(Action action, std::uint64_t key);
  void retire_slot(std::uint32_t slot);
  /// Pops dead entries off the top until the head is live (or the heap is
  /// empty).
  void drop_dead_head();
  /// Drops every dead entry and re-heapifies.
  void compact();

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<Entry> heap_;

  std::size_t live_count_ = 0;
  std::size_t dead_parked_ = 0;
  std::uint64_t next_seq_ = 1;
  std::size_t peak_size_ = 0;
};

}  // namespace wormcast

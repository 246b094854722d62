#include "sim/event_queue.h"

#include <algorithm>
#include <cassert>

namespace wormcast {

namespace {

// Typical experiments keep a few hundred in-flight events per host; one
// up-front reservation avoids the incremental regrowth entirely.
constexpr std::size_t kInitialSlotCapacity = 1024;
constexpr std::uint64_t kSeqMask = (std::uint64_t{1} << 63) - 1;

}  // namespace

EventQueue::EventQueue() {
  slots_.reserve(kInitialSlotCapacity);
  free_slots_.reserve(kInitialSlotCapacity);
  heap_.reserve(kInitialSlotCapacity);
}

std::uint32_t EventQueue::acquire_slot(Action action, std::uint64_t key) {
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

void EventQueue::retire_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  assert(s.key != kFree);
  // Invalidates every outstanding handle and parked entry: the slot's next
  // event comes with a new key.
  s.key = kFree;
  // Destroy the action now, not at compaction: cancelled retransmit timers
  // capture worm shared_ptrs, and holding those until a sweep would keep
  // whole payloads alive for no reason.
  s.action.reset();
  free_slots_.push_back(slot);
}

EventHandle EventQueue::schedule_keyed(Time when, std::uint64_t key,
                                       Action action) {
  assert(action);
  assert((key & kSeqMask) < next_seq_ && "key was never reserved");
  const std::uint32_t slot = acquire_slot(std::move(action), key);
  heap_.push_back(Entry{when, key, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++live_count_;
  peak_size_ = std::max(peak_size_, heap_.size());
  return EventHandle(slot, key);
}

void EventQueue::cancel(EventHandle handle) {
  if (!handle.valid() || handle.slot_ >= slots_.size()) return;
  // Already fired or cancelled: the slot is free or holds another key.
  if (slots_[handle.slot_].key != handle.key_) return;
  retire_slot(handle.slot_);
  --live_count_;
  ++dead_parked_;
  drop_dead_head();
  if (dead_parked_ * 2 > heap_.size()) compact();
}

EventQueue::Popped EventQueue::pop() {
  assert(live_count_ > 0 && "pop() on empty EventQueue");
  assert(entry_live(heap_.front()));
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Entry e = heap_.back();
  heap_.pop_back();
  drop_dead_head();  // restore the head-is-live invariant
  Popped out;
  out.time = e.time;
  out.action = std::move(slots_[e.slot].action);
  retire_slot(e.slot);
  --live_count_;
  return out;
  // The caller runs the action after we return, so a re-entrant schedule()
  // sees fully consistent counters and may immediately reuse this slot.
}

void EventQueue::drop_dead_head() {
  while (!heap_.empty() && !entry_live(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    assert(dead_parked_ > 0);
    --dead_parked_;
  }
}

void EventQueue::compact() {
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                             [this](const Entry& e) { return !entry_live(e); }),
              heap_.end());
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  dead_parked_ = 0;
}

}  // namespace wormcast

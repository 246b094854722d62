#include "sim/event_queue.h"

namespace wormcast {

namespace {

// Typical experiments keep a few hundred in-flight events per host; one
// up-front reservation avoids the incremental regrowth entirely.
constexpr std::size_t kInitialSlotCapacity = 1024;

}  // namespace

EventQueue::EventQueue() {
  slots_.reserve(kInitialSlotCapacity);
  free_slots_.reserve(kInitialSlotCapacity);
  heap_.reserve(kInitialSlotCapacity);
}

void EventQueue::cancel(EventHandle handle) {
  if (!handle.valid() || handle.slot_ >= slots_.size()) return;
  // Already fired or cancelled: the slot is free or holds another key.
  if (slots_[handle.slot_].key != handle.key_) return;
  const bool in_heap = slots_[handle.slot_].bucket == kNil;
  if (!in_heap) wheel_unlink(handle.slot_);
  retire_slot(handle.slot_);
  --live_count_;
  if (!in_heap) return;
  ++dead_parked_;
  drop_dead_head();
  if (dead_parked_ * 2 > heap_.size()) compact();
}

void EventQueue::wheel_unlink(std::uint32_t slot) {
  const std::uint32_t b = slots_[slot].bucket;
  Bucket& bucket = buckets_[b];
  std::uint32_t prev = kNil;
  std::uint32_t* link = &bucket.first;
  while (*link != slot) link = &slots_[prev = *link].next;
  *link = slots_[slot].next;
  if (bucket.last == slot) bucket.last = prev;
  if (bucket.first == kNil) vacate(b);
}

void EventQueue::compact() {
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                             [this](const Entry& e) { return !entry_live(e); }),
              heap_.end());
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  dead_parked_ = 0;
}

}  // namespace wormcast

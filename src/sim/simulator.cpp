#include "sim/simulator.h"

#include <cassert>
#include <utility>

namespace wormcast {

EventHandle Simulator::at(Time when, EventQueue::Action action) {
  assert(when >= now_ && "scheduling into the past");
  return queue_.schedule(when, std::move(action));
}

EventHandle Simulator::after(Time delay, EventQueue::Action action) {
  assert(delay >= 0 && "negative delay");
  return queue_.schedule(now_ + delay, std::move(action));
}

EventHandle Simulator::at_late(Time when, EventQueue::Action action) {
  assert(when >= now_ && "scheduling into the past");
  return queue_.schedule(when, std::move(action), /*late=*/true);
}

EventHandle Simulator::at_keyed(Time when, std::uint64_t key,
                               EventQueue::Action action) {
  assert(when >= now_ && "scheduling into the past");
  return queue_.schedule_keyed(when, key, std::move(action));
}

void Simulator::dispatch_one() {
  key_ = queue_.next_key();
  auto [time, action] = queue_.pop();
  assert(time >= now_);
  now_ = time;
  ++dispatched_;
  action();
}

void Simulator::run() {
  stopped_ = false;
  while (!stopped_ && !queue_.empty()) dispatch_one();
}

void Simulator::run_until(Time deadline) {
  stopped_ = false;
  while (!stopped_ && queue_.next_time() <= deadline) dispatch_one();
  if (stopped_ || now_ > deadline) return;
  now_ = deadline;
  // Every event queued by now at or before the deadline has fired.
  key_ = queue_.newest_key(/*late=*/true);
}

}  // namespace wormcast

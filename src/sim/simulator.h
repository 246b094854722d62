// The discrete-event simulation engine.
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>

#include "sim/event_queue.h"
#include "sim/trace.h"
#include "sim/types.h"

namespace wormcast {

/// Discrete-event simulator with a byte-time clock.
///
/// Components schedule callbacks with `at` (absolute) or `after` (relative)
/// and the engine fires them in timestamp order from one two-tier
/// EventQueue (a timing wheel for the next 256 byte-times, a heap for later
/// timers); channels feed it through delivery lanes (reserve_key +
/// at_keyed), so it holds one delivery per busy channel, not one per byte
/// in flight. Scheduling and dispatch are inline: they are the event
/// loop's hot path. The engine also maintains a global *progress counter*
/// that components bump whenever payload moves; the DeadlockWatchdog uses
/// it to distinguish "quiescent" from "deadlocked".
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] Time now() const { return now_; }

  /// Schedules `action` at absolute time `when >= now()`.
  EventHandle at(Time when, EventQueue::Action&& action) {
    assert(when >= now_ && "scheduling into the past");
    return queue_.schedule(when, std::move(action));
  }

  /// Schedules `action` at `now() + delay`, `delay >= 0`.
  EventHandle after(Time delay, EventQueue::Action&& action) {
    assert(delay >= 0 && "negative delay");
    return queue_.schedule(now_ + delay, std::move(action));
  }

  /// Late-class variant of at(): fires after every same-time normal event
  /// no matter when it was inserted. Used for channel pump self-schedules
  /// so burst-mode (scheduled a whole run ahead) and per-byte (scheduled
  /// one byte-time ahead) pumps occupy the same slot within a tick.
  EventHandle at_late(Time when, EventQueue::Action&& action) {
    assert(when >= now_ && "scheduling into the past");
    return queue_.schedule(when, std::move(action), /*late=*/true);
  }

  /// Delivery lanes (see EventQueue): reserve_key() takes an event's
  /// tie-break key now; at_keyed() inserts it later, at `when >= now()`,
  /// where at() at reservation time would have put it.
  [[nodiscard]] std::uint64_t reserve_key(bool late = false) {
    return queue_.reserve_key(late);
  }
  EventHandle at_keyed(Time when, std::uint64_t key,
                       EventQueue::Action&& action) {
    assert(when >= now_ && "scheduling into the past");
    return queue_.schedule_keyed(when, key, std::move(action));
  }

  /// True when an event at `when` under `key` would still fire: it is
  /// later than the event being dispatched (or than a finished run_until).
  [[nodiscard]] bool yet_to_fire(Time when, std::uint64_t key) const {
    return when > now_ || (when == now_ && key > key_);
  }

  void cancel(EventHandle handle) { queue_.cancel(handle); }

  /// Runs until the queue drains or `stop()` is called.
  void run();

  /// Runs events with time <= `deadline`; the clock ends at `deadline`
  /// (or at the stop point) even if the queue drained earlier.
  void run_until(Time deadline);

  /// Stops the run loop after the current event completes.
  void stop() { stopped_ = true; }
  [[nodiscard]] bool stopped() const { return stopped_; }

  [[nodiscard]] bool idle() const { return queue_.empty(); }
  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }

  /// Total events fired since construction (hot-path bench instrumentation).
  [[nodiscard]] std::int64_t events_dispatched() const { return dispatched_; }
  /// High-water mark of the event queue (live + lazily-cancelled entries).
  [[nodiscard]] std::size_t event_queue_peak() const {
    return queue_.peak_size();
  }
  /// Estimated heap bytes behind the event queue (memory audit).
  [[nodiscard]] std::size_t event_queue_heap_bytes() const {
    return queue_.heap_bytes_estimate();
  }

  /// Progress accounting: bumped by components when a byte of payload moves
  /// anywhere in the network. Monotone; used for deadlock detection.
  void note_progress(std::int64_t amount = 1) { progress_ += amount; }
  [[nodiscard]] std::int64_t progress() const { return progress_; }

  /// The wormtrace flight recorder (disabled until Tracer::enable); every
  /// component reaches it through its Simulator reference via WORMTRACE.
  [[nodiscard]] Tracer& tracer() { return tracer_; }
  [[nodiscard]] const Tracer& tracer() const { return tracer_; }

 private:
  void dispatch_one() {
    auto [time, action, key] = queue_.pop();
    assert(time >= now_);
    now_ = time;
    key_ = key;
    ++dispatched_;
    action();
  }

  EventQueue queue_;
  Tracer tracer_;
  Time now_ = 0;
  /// Key of the dispatching event (after run_until: the newest reserved).
  std::uint64_t key_ = 0;
  bool stopped_ = false;
  std::int64_t progress_ = 0;
  std::int64_t dispatched_ = 0;
};

}  // namespace wormcast

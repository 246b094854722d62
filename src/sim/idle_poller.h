// Idle fast-forward for fixed-period pollers.
//
// The engine itself is event-driven, but workload drivers (the saturating
// and rate-limited applications in the testbed benches) poll on a fixed
// grid: "is the adapter drained / has the next send deadline passed? then
// inject the next message". When the fabric or the deadline is the
// bottleneck, most polls find the condition false and burn an event for
// nothing — at a 512-byte-time period that dead air dominates the event
// count at 1k-host scale. IdlePoller removes it: the body returns a lower
// bound on when it could next have work, and the poller either jumps the
// grid straight to that time or — when the bound is kTimeNever, i.e. the
// condition is event-driven — parks until an explicit wake() (called from
// the event that makes the condition true again, e.g. the adapter's drain
// notification) re-arms the poll at the next grid point.
//
// Correctness argument (why fast-forward matches naive polling): polls
// only ever happen at grid points first + k*period. While the condition
// is false a naive poll is a pure no-op, so skipping it cannot change
// simulation state. There are two ways the condition becomes true:
//
//  * Time passes (a deadline): the body returned a valid lower bound t,
//    and the poller re-arms at the first grid point >= t. Every naive
//    poll before that grid point would have observed condition-false, so
//    both pollers next run the body productively at the same grid point.
//    (If the condition is still false there — the bound was conservative —
//    the body simply returns a new bound; still a no-op, still aligned.)
//
//  * An event E calls wake(): wake() re-arms at the first grid point
//    strictly after E — exactly the first grid point at which a naive
//    poll would have observed the new state, because a naive poll queued
//    at E's own timestamp was inserted before E and fires ahead of it,
//    still seeing the old state. (wake() no-ops while a poll is armed:
//    an armed grid point came from a valid lower bound or an earlier
//    wake, and the naive poller would act no earlier.)
//
// Hence fast-forward runs the body productively at the same times as a
// naive poller. (The parked period shifts event insertion order, so
// same-tick ordering against unrelated events can differ; the protocol
// stack is insensitive to that, which idle_poller_test pins on the
// testbed.) Naive polling needs no mode of its own: a body that always
// returns a bound <= now re-arms every period, which is exactly what the
// testbed's reference runs do.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "sim/simulator.h"
#include "sim/types.h"

namespace wormcast {

/// Polls `body` on the grid first + k*period (while the grid point is
/// <= stop_at). `body` returns the earliest time it could have work again:
/// kTimeNever parks the poller until wake(); any time <= now means "poll
/// again next period"; a future time jumps the grid across the gap.
class IdlePoller {
 public:
  IdlePoller(Simulator& sim, Time first, Time period,
             std::function<Time()> body, Time stop_at = kTimeNever)
      : sim_(sim),
        body_(std::move(body)),
        first_(first),
        period_(period),
        stop_at_(stop_at) {}
  IdlePoller(const IdlePoller&) = delete;
  IdlePoller& operator=(const IdlePoller&) = delete;
  ~IdlePoller() { stop(); }

  void start() {
    if (first_ <= stop_at_) arm(first_);
  }

  /// Tells a parked poller its condition may be true again. No-op while a
  /// poll is already pending, so callers can invoke it unconditionally
  /// from every potentially-unblocking event.
  void wake() {
    if (!parked_) return;
    const Time next = next_grid_after(sim_.now());
    if (next > stop_at_) return;
    parked_ = false;
    arm(next);
  }

  void stop() {
    sim_.cancel(handle_);
    handle_ = EventHandle();
    parked_ = false;
  }

  [[nodiscard]] bool parked() const { return parked_; }
  /// Number of times the body actually ran.
  [[nodiscard]] std::int64_t polls() const { return polls_; }

 private:
  void arm(Time when) {
    handle_ = sim_.at(when, [this] { fire(); });
  }

  /// First grid point strictly after `t` (see the header comment for why
  /// "strictly": a poll at t itself would have preceded the waking event).
  [[nodiscard]] Time next_grid_after(Time t) const {
    if (t < first_) return first_;
    const Time k = (t - first_) / period_;
    return first_ + (k + 1) * period_;
  }

  /// First grid point at or after `t` (time-bound jumps: a naive poll at
  /// exactly t observes the deadline as passed, so that grid point counts).
  [[nodiscard]] Time next_grid_at_or_after(Time t) const {
    if (t <= first_) return first_;
    const Time k = (t - first_ + period_ - 1) / period_;
    return first_ + k * period_;
  }

  void fire() {
    handle_ = EventHandle();
    ++polls_;
    const Time bound = body_();
    if (bound == kTimeNever) {
      parked_ = true;
      return;
    }
    // Polls fire on grid points only, so now is on the grid and both
    // branches land strictly in the future.
    const Time next = bound <= sim_.now() ? sim_.now() + period_
                                          : next_grid_at_or_after(bound);
    if (next <= stop_at_) arm(next);
  }

  Simulator& sim_;
  std::function<Time()> body_;
  const Time first_;
  const Time period_;
  const Time stop_at_;
  EventHandle handle_;
  bool parked_ = false;
  std::int64_t polls_ = 0;
};

}  // namespace wormcast

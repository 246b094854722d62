#include "sim/watchdog.h"

#include <cassert>
#include <cstdio>
#include <utility>

#include "sim/trace_export.h"

namespace wormcast {

DeadlockWatchdog::DeadlockWatchdog(Simulator& sim, Time check_interval,
                                   OutstandingFn outstanding, OnDeadlock on_deadlock)
    : sim_(sim),
      interval_(check_interval),
      outstanding_(std::move(outstanding)),
      on_deadlock_(std::move(on_deadlock)) {
  assert(interval_ > 0);
}

void DeadlockWatchdog::arm() {
  last_progress_ = sim_.progress();
  sim_.after(interval_, [this] { check(); });
}

void DeadlockWatchdog::check() {
  if (detected_) return;
  const std::int64_t progress = sim_.progress();
  if (progress == last_progress_ && outstanding_() > 0) {
    detected_ = true;
    detection_time_ = sim_.now();
    if (diagnostics_) {
      report_ = diagnostics_();
      // The flight recorder explains *how* the run wedged: append the last
      // decisions (grants, holds, STOP/GO, timer fires) to the state dump.
      report_ += format_trace_tail(sim_.tracer());
      std::fprintf(stderr, "wormcast watchdog: stall at t=%lld\n%s",
                   static_cast<long long>(detection_time_), report_.c_str());
    }
    if (on_deadlock_) on_deadlock_();
    return;
  }
  last_progress_ = progress;
  sim_.after(interval_, [this] { check(); });
}

}  // namespace wormcast

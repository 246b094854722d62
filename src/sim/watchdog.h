// Deadlock detection by progress monitoring.
#pragma once

#include <functional>
#include <string>

#include "sim/simulator.h"
#include "sim/types.h"

namespace wormcast {

/// Watches the simulator's global progress counter. If a check interval
/// elapses during which worms are outstanding but no payload byte moved
/// anywhere, the network is declared deadlocked (wormhole deadlocks are
/// permanent: a blocked cycle never clears by itself).
///
/// The watchdog is how the ablation benches *measure* deadlock probability
/// when the paper's prevention rules are switched off, and how integration
/// tests assert that the rules eliminate the Figure 3/4/6 scenarios.
class DeadlockWatchdog {
 public:
  using OutstandingFn = std::function<std::int64_t()>;
  using OnDeadlock = std::function<void()>;
  using DiagnosticsFn = std::function<std::string()>;

  /// `outstanding` reports how many worms are still in flight; a stall only
  /// counts as deadlock while this is non-zero. `on_deadlock` fires once,
  /// at the moment of detection.
  DeadlockWatchdog(Simulator& sim, Time check_interval, OutstandingFn outstanding,
                   OnDeadlock on_deadlock);

  void arm();
  [[nodiscard]] bool deadlock_detected() const { return detected_; }
  [[nodiscard]] Time detection_time() const { return detection_time_; }

  /// Optional state dumper (e.g. Network::debug_report): invoked once at
  /// detection, before on_deadlock; the result is kept in report() and
  /// echoed to stderr so a hung test/bench leaves evidence of *what* was
  /// stuck (which hosts hold pool bytes, which sends are un-ACKed).
  void set_diagnostics(DiagnosticsFn diagnostics) {
    diagnostics_ = std::move(diagnostics);
  }
  [[nodiscard]] const std::string& report() const { return report_; }

 private:
  void check();

  Simulator& sim_;
  Time interval_;
  OutstandingFn outstanding_;
  OnDeadlock on_deadlock_;
  DiagnosticsFn diagnostics_;
  std::string report_;
  std::int64_t last_progress_ = -1;
  bool detected_ = false;
  Time detection_time_ = kTimeNever;
};

}  // namespace wormcast

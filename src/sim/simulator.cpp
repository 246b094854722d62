#include "sim/simulator.h"

namespace wormcast {

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

// A message held at a host adapter for forwarding (the buffer reservation
// plus the successor sends still to transmit and acknowledge), and the
// ordered window of total ordering that serializes those sends.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "adapter/host_adapter.h"
#include "net/worm.h"
#include "sim/simulator.h"

namespace wormcast {

struct SendTask {
  std::shared_ptr<MessageContext> ctx;
  GroupId group = kNoGroup;
  std::uint64_t message_id = 0;
  HostId origin = kNoHost;
  std::int64_t payload = 0;
  std::int64_t seq = -1;
  int hops_remaining = 0;  // circuit hop budget of the *received* copy
  std::shared_ptr<RxProgress> rx;  // reception progress (cut-through)
  int cls = 0;
  std::int64_t reserved = 0;  // pool bytes held (0 for originator tasks)
  /// Successor sends: target plus the header to stamp on the copy.
  struct Send {
    HostId to = kNoHost;
    McastHeader header;
    bool started = false;
    bool acked = false;
    bool failed = false;         // gave up after max_attempts
    bool retry_pending = false;  // a back-off retransmission is scheduled
    bool queued = false;         // waiting in the ordered window
    int attempts = 0;  // NACKed / timed-out tries (drives the back-off)
    EventHandle timer;  // ACK timeout (recovery mode only)
    Time first_tx = kTimeNever;  // first transmission (suspicion clock)
  };
  std::vector<Send> sends;
  bool delivered = false;    // local delivery (or none needed) finished
  bool rx_complete = false;  // full worm present at this adapter
  bool originator = false;   // task created by originate(), holds no pool
  bool aborted = false;      // torn down (truncated reception)

  /// A send of this message to `to`, reserving `buffer_class` there.
  [[nodiscard]] Send send_to(HostId to, int buffer_class) const {
    Send s;
    s.to = to;
    s.header.group = group;
    s.header.message_id = message_id;
    s.header.origin = origin;
    s.header.seq = seq;
    s.header.buffer_class = buffer_class;
    return s;
  }
};
using SendTaskPtr = std::shared_ptr<SendTask>;

/// The ordered-forwarding window (total ordering, Sections 5-6): at most
/// one un-ACKed send per (group, successor) lane; later sends wait FIFO,
/// so a NACKed or retargeted message is never overtaken on its hop.
class OrderedWindow {
 public:
  struct Entry {
    SendTaskPtr task;
    std::size_t send_index = 0;
    bool cut_through = false;
  };

  /// True: the send's lane was idle and is now the send's to transmit on.
  /// False: the send is marked queued until advance() hands it out.
  bool claim(const SendTaskPtr& task, std::size_t send_index, bool cut_through) {
    SendTask::Send& send = task->sends[send_index];
    Lane& lane = lanes_[group_host_key(task->group, send.to)];
    if (!std::exchange(lane.busy, true)) return true;
    send.queued = true;
    lane.waiting.push_back(Entry{task, send_index, cut_through});
    return false;
  }

  /// The lane's holder resolved: the next live waiter now holds it, or
  /// (nothing returned) the lane goes idle.
  std::optional<Entry> advance(GroupId g, HostId to) {
    const auto it = lanes_.find(group_host_key(g, to));
    if (it == lanes_.end()) return std::nullopt;
    Lane& lane = it->second;
    while (!lane.waiting.empty()) {
      Entry entry = std::move(lane.waiting.front());
      lane.waiting.pop_front();
      entry.task->sends[entry.send_index].queued = false;
      if (!entry.task->aborted) return entry;  // skip torn-down tasks
    }
    lane.busy = false;
    return std::nullopt;
  }

  /// Idles every lane toward `to` (of group `g` only, unless kNoGroup) and
  /// drops its waiters: a repair retargets them to new successors.
  void release_lanes_to(HostId to, GroupId g) {
    for (auto& [k, lane] : lanes_) {
      const bool match = static_cast<HostId>(k & 0xFFFFFFFFu) == to &&
                         (g == kNoGroup || static_cast<GroupId>(k >> 32) == g);
      if (!match) continue;
      for (const Entry& e : lane.waiting)
        e.task->sends[e.send_index].queued = false;
      lane.waiting.clear();
      lane.busy = false;
    }
  }

  void clear() { lanes_.clear(); }

 private:
  struct Lane {
    std::deque<Entry> waiting;
    bool busy = false;  // an un-ACKed send holds the lane
  };
  std::unordered_map<std::uint64_t, Lane> lanes_;
};

}  // namespace wormcast

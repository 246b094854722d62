// Object recycling for the simulator's hot allocators.
//
// A saturated fig12-style run creates and destroys one Worm per fabric
// traversal — hundreds of thousands of shared_ptr<Worm> allocations, each
// dragging two or three vector allocations (route, mcast route) along.
// RecyclePool intercepts the destruction: instead of freeing, the object
// is reset in place (T::recycle() clears fields but keeps vector
// capacities) and parked on a free list, so steady state reuses warm
// objects whose internal buffers are already the right size. What remains
// per acquisition is one small shared_ptr control-block allocation — the
// aliasing deleter must live in a control block — which is an order of
// magnitude less work than the fresh-object path.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace wormcast {

/// Pool of reusable heap objects handed out as shared_ptr<T>. T must
/// provide `void recycle()` restoring the just-constructed state while
/// preserving internal buffer capacities.
///
/// Lifetime: handed-out objects may outlive the pool (metric collectors
/// keep worm references past Network teardown). The deleter holds the
/// pool's shared state; once the pool itself is destroyed the state is
/// marked closed and late returns simply free their object.
///
/// Thread safety: none needed. A pool belongs to one Network, and a run
/// is one Simulator on one thread, so every make() and every return
/// happens on that thread (parallel sweeps give each point its own
/// Network). A worm that outlives its Network is returned after the pool
/// closed, on whichever thread drops it last; the thread join that hands
/// the result back orders that read of `open` after the close.
template <typename T>
class RecyclePool {
 public:
  RecyclePool() : state_(std::make_shared<State>()) {}
  RecyclePool(const RecyclePool&) = delete;
  RecyclePool& operator=(const RecyclePool&) = delete;
  ~RecyclePool() {
    if (state_ != nullptr) state_->open = false;
  }

  /// Returns a recycled object if one is parked, else allocates fresh.
  [[nodiscard]] std::shared_ptr<T> make() {
    State& st = *state_;
    if (!st.free.empty()) {
      std::unique_ptr<T> obj = std::move(st.free.back());
      st.free.pop_back();
      ++st.reused;
      obj->recycle();
      return std::shared_ptr<T>(obj.release(), Deleter{state_});
    }
    ++st.fresh;
    return std::shared_ptr<T>(new T(), Deleter{state_});
  }

  /// Objects currently parked awaiting reuse.
  [[nodiscard]] std::size_t parked() const { return state_->free.size(); }
  /// Allocation telemetry (hot-path bench counters).
  [[nodiscard]] std::uint64_t fresh_allocs() const { return state_->fresh; }
  [[nodiscard]] std::uint64_t reuses() const { return state_->reused; }

 private:
  struct State {
    std::vector<std::unique_ptr<T>> free;
    std::uint64_t fresh = 0;
    std::uint64_t reused = 0;
    bool open = true;
  };
  struct Deleter {
    std::shared_ptr<State> state;
    void operator()(T* obj) const {
      if (state->open) {
        state->free.emplace_back(obj);
      } else {
        delete obj;
      }
    }
  };

  std::shared_ptr<State> state_;
};

}  // namespace wormcast

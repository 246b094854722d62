// Deterministic random streams for workload generation.
#pragma once

#include <cstdint>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "sim/types.h"

namespace wormcast {

/// A seeded random stream. Every stochastic component owns its own stream
/// (derived from the experiment seed) so that runs are reproducible and the
/// draw order of one component cannot perturb another.
///
/// The 2.5 KB engine is built from the seed on the first sequential draw:
/// a 1k-host network holds thousands of streams (one per host protocol,
/// one per host in the traffic generator), most of which never draw or
/// draw only keyed values, which use the seed alone. A copy carries the
/// engine's state, so it draws what the original would have drawn next.
class RandomStream {
 public:
  explicit RandomStream(std::uint64_t seed) : seed_(seed) {}
  RandomStream(const RandomStream& other) : seed_(other.seed_) {
    if (other.engine_)
      engine_ = std::make_unique<std::mt19937_64>(*other.engine_);
  }
  RandomStream& operator=(const RandomStream& other) {
    return *this = RandomStream(other);
  }
  RandomStream(RandomStream&&) noexcept = default;
  RandomStream& operator=(RandomStream&&) noexcept = default;

  /// Creates an independent child stream; deterministic in (seed, salt).
  [[nodiscard]] RandomStream fork(std::uint64_t salt) const {
    return RandomStream(seed_mix(seed_, salt));
  }

  /// Exponential inter-arrival gap with the given mean, rounded up to at
  /// least 1 byte-time (Poisson worm generation, Section 7.1).
  Time exp_interval(double mean);

  /// Geometrically distributed worm length with the given mean, at least
  /// `min_len` bytes (Section 7.1: "lengths were geometrically distributed").
  std::int64_t geometric_length(double mean, std::int64_t min_len = 1);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform(std::int64_t lo, std::int64_t hi);

  /// True with probability p.
  bool chance(double p);

  // Keyed (stateless) draws: deterministic in (stream seed, k1, k2, k3) and
  // independent of call order. Hot-path consumers (the channel fault hooks)
  // use these so that the *set* of events in a run — not the order the
  // simulator happens to interleave same-time events — decides each outcome.

  /// True with probability p; pure function of the seed and keys.
  [[nodiscard]] bool keyed_chance(double p, std::uint64_t k1, std::uint64_t k2,
                                  std::uint64_t k3 = 0) const;

  /// Uniform integer in [lo, hi]; pure function of the seed and keys.
  [[nodiscard]] std::int64_t keyed_uniform(std::int64_t lo, std::int64_t hi,
                                           std::uint64_t k1, std::uint64_t k2,
                                           std::uint64_t k3 = 0) const;

  /// Uniformly selects one element of `items` (must be non-empty).
  template <typename T>
  const T& pick(const std::vector<T>& items) {
    return items[static_cast<std::size_t>(
        uniform(0, static_cast<std::int64_t>(items.size()) - 1))];
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      const auto j =
          static_cast<std::size_t>(uniform(0, static_cast<std::int64_t>(i) - 1));
      std::swap(items[i - 1], items[j]);
    }
  }

  /// The sequential engine, built from the seed on first use.
  std::mt19937_64& engine() {
    if (!engine_) engine_ = std::make_unique<std::mt19937_64>(seed_);
    return *engine_;
  }
  /// Bytes of the engine once built, else 0 (the memory audit).
  [[nodiscard]] std::size_t heap_bytes() const {
    return engine_ ? sizeof(std::mt19937_64) : 0;
  }

  /// Splitmix-style seed derivation: an independent, well-mixed seed that
  /// is a pure function of (a, b). Components fork per-entity streams with
  /// it, and the sweep harness derives per-point seeds from the experiment
  /// base seed (harness::point_seed) so parallel sweep points never share
  /// or perturb each other's randomness.
  static std::uint64_t seed_mix(std::uint64_t a, std::uint64_t b);

 private:
  [[nodiscard]] std::uint64_t keyed_hash(std::uint64_t k1, std::uint64_t k2,
                                         std::uint64_t k3) const;

  std::uint64_t seed_ = 0;
  std::unique_ptr<std::mt19937_64> engine_;
};

}  // namespace wormcast

#include "sim/random.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace wormcast {

std::uint64_t RandomStream::seed_mix(std::uint64_t a, std::uint64_t b) {
  // splitmix64 finalizer over the combined value; good avalanche, cheap.
  std::uint64_t z = a + 0x9e3779b97f4a7c15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Time RandomStream::exp_interval(double mean) {
  assert(mean > 0.0);
  std::exponential_distribution<double> dist(1.0 / mean);
  const double gap = dist(engine());
  return std::max<Time>(1, static_cast<Time>(std::llround(gap)));
}

std::int64_t RandomStream::geometric_length(double mean, std::int64_t min_len) {
  assert(mean > static_cast<double>(min_len));
  // Geometric over {min_len, min_len+1, ...} with the requested mean:
  // success probability p = 1 / (mean - min_len + 1).
  const double p = 1.0 / (mean - static_cast<double>(min_len) + 1.0);
  std::geometric_distribution<std::int64_t> dist(p);
  return min_len + dist(engine());
}

std::int64_t RandomStream::uniform(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  std::uniform_int_distribution<std::int64_t> dist(lo, hi);
  return dist(engine());
}

bool RandomStream::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  std::bernoulli_distribution dist(p);
  return dist(engine());
}

std::uint64_t RandomStream::keyed_hash(std::uint64_t k1, std::uint64_t k2,
                                       std::uint64_t k3) const {
  // Three chained finalizer rounds; each key fully avalanches before the
  // next mixes in, so (1, 0) and (0, 1) land far apart.
  return seed_mix(seed_mix(seed_mix(seed_, k1), k2), k3);
}

bool RandomStream::keyed_chance(double p, std::uint64_t k1, std::uint64_t k2,
                                std::uint64_t k3) const {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  // Top 53 bits as a uniform double in [0, 1).
  const double u =
      static_cast<double>(keyed_hash(k1, k2, k3) >> 11) * 0x1.0p-53;
  return u < p;
}

std::int64_t RandomStream::keyed_uniform(std::int64_t lo, std::int64_t hi,
                                         std::uint64_t k1, std::uint64_t k2,
                                         std::uint64_t k3) const {
  assert(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(keyed_hash(k1, k2, k3) % span);
}

}  // namespace wormcast

#include "core/protocol_config.h"

namespace wormcast {

Time retry_backoff_delay(const ProtocolConfig& config, int prior_attempts,
                         RandomStream& rng) {
  return capped_backoff(config.retry_backoff, prior_attempts) +
         (config.retry_jitter > 0 ? rng.uniform(0, config.retry_jitter) : 0);
}

const char* scheme_name(Scheme s) {
  switch (s) {
    case Scheme::kRepeatedUnicast: return "repeated-unicast";
    case Scheme::kHamiltonianSF: return "hamiltonian-sf";
    case Scheme::kHamiltonianCT: return "hamiltonian-ct";
    case Scheme::kTreeSF: return "tree-sf";
    case Scheme::kTreeCT: return "tree-ct";
    case Scheme::kTreeBroadcast: return "tree-broadcast";
    case Scheme::kCentralizedCredit: return "centralized-credit";
  }
  return "unknown";
}

}  // namespace wormcast

#include "block/latency_model.h"

namespace zerobak::block {

SimDuration DeviceLatencyModel::Cost(IoType type, uint32_t blocks,
                                     Rng* rng) const {
  SimDuration cost =
      (type == IoType::kRead ? read_latency : write_latency) +
      static_cast<SimDuration>(blocks) * per_block;
  if (jitter > 0 && rng != nullptr) {
    cost += static_cast<SimDuration>(
        rng->Uniform(static_cast<uint64_t>(jitter)));
  }
  return cost;
}

}  // namespace zerobak::block

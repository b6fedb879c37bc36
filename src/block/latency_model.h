#ifndef ZEROBAK_BLOCK_LATENCY_MODEL_H_
#define ZEROBAK_BLOCK_LATENCY_MODEL_H_

#include <cstdint>

#include "block/block_device.h"
#include "common/rng.h"
#include "common/time.h"

namespace zerobak::block {

// Latency model of a storage medium: fixed per-IO cost plus a per-block
// transfer cost and optional uniform jitter. Defaults approximate an
// enterprise all-flash array cache-hit path.
struct DeviceLatencyModel {
  SimDuration read_latency = Microseconds(150);
  SimDuration write_latency = Microseconds(200);
  SimDuration per_block = Microseconds(5);
  SimDuration jitter = Microseconds(20);
  uint64_t seed = 11;

  // Service time of one IO of `blocks` blocks; jitter is drawn from `rng`
  // (none when null).
  SimDuration Cost(IoType type, uint32_t blocks, Rng* rng) const;
};

}  // namespace zerobak::block

#endif  // ZEROBAK_BLOCK_LATENCY_MODEL_H_

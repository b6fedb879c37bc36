#ifndef ZEROBAK_BLOCK_BLOCK_DEVICE_H_
#define ZEROBAK_BLOCK_BLOCK_DEVICE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "common/status.h"

namespace zerobak::block {

// Logical block addressing. Devices are fixed-block-size (4 KiB by
// default), matching the unit at which the array journals, replicates and
// copy-on-writes data.
using Lba = uint64_t;

inline constexpr uint32_t kDefaultBlockSize = 4096;

enum class IoType { kRead, kWrite };

// One extent of a multi-write run handed to BlockDevice::WriteRun:
// `count` blocks at `lba`, with `data` carrying count * block_size()
// bytes. Runs in one call are applied in array order.
struct BlockRun {
  Lba lba = 0;
  uint32_t count = 0;
  std::string_view data;
  // Optional: the CRC32C of each block of `data`, computed where the
  // bytes entered the system, as `count` little-endian 32-bit words (no
  // alignment). A store that keeps a checksum sidecar stores these
  // instead of computing them, so damage to the bytes on the way reads
  // back as kDataLoss; stores without a sidecar ignore them.
  const char* crcs = nullptr;
};

// Synchronous block-device interface. Every store implements it; the
// array's host IO path adds simulated media latency (DeviceLatencyModel)
// on top.
class BlockDevice {
 public:
  virtual ~BlockDevice() = default;

  virtual uint32_t block_size() const = 0;
  virtual uint64_t block_count() const = 0;
  uint64_t size_bytes() const {
    return static_cast<uint64_t>(block_size()) * block_count();
  }

  // Reads `count` blocks starting at `lba` into `out` (resized to
  // count * block_size()).
  virtual Status Read(Lba lba, uint32_t count, std::string* out) = 0;

  // Writes `data` (must be count * block_size() bytes) at `lba`.
  virtual Status Write(Lba lba, uint32_t count, std::string_view data) = 0;

  // Applies `n` writes in one call, in array order. The replication apply
  // and resync paths sort records by LBA and hand the whole run here, so
  // stores that override it (MemVolume) amortize per-call overhead and see
  // sequential access. Every run is validated before any is applied; on a
  // bad run the whole call fails without partial effects. The default
  // implementation loops over Write.
  virtual Status WriteRun(const BlockRun* runs, size_t n);

  // Validates an IO range against the device geometry.
  Status CheckRange(Lba lba, uint32_t count) const;
};

// Completion of one asynchronous host IO. The callback fires exactly
// once, at the simulated completion ("ack") time.
struct IoResult {
  Status status;
  std::string data;  // Read payload; empty for writes.
};

using IoCallback = std::function<void(IoResult)>;

}  // namespace zerobak::block

#endif  // ZEROBAK_BLOCK_BLOCK_DEVICE_H_

#ifndef ZEROBAK_STORAGE_VOLUME_H_
#define ZEROBAK_STORAGE_VOLUME_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "block/mem_volume.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "storage/pool.h"

namespace zerobak::storage {

// Array-local volume identifier (an LDEV number, in Hitachi terms).
using VolumeId = uint64_t;

class WriteInterceptor;

// An array data volume: a sparse block store plus metadata and write-path
// hooks. Hooks enable the two array features the paper relies on:
//   * pre-overwrite observers — copy-on-write snapshots save the old block
//     content the instant before it is overwritten (Section III-A-2);
//   * the owning array's write interceptor — replication journals every
//     acknowledged host write (Section III-A-1).
class Volume : public block::BlockDevice {
 public:
  // Called just before block `lba` is overwritten, with its current
  // content. Registered by copy-on-write snapshots.
  using PreOverwriteHook =
      std::function<void(block::Lba lba, std::string_view old_block)>;

  // `array_failed` is the owning array's one failure flag (read, never
  // written, here): while it is set, Write, WriteRun and AdoptImage refuse
  // with kUnavailable before touching anything. A volume outside an array
  // never fails.
  Volume(VolumeId id, std::string name, uint64_t block_count,
         uint32_t block_size = block::kDefaultBlockSize,
         StoragePool* pool = nullptr, const bool* array_failed = nullptr);

  VolumeId id() const { return id_; }
  const std::string& name() const { return name_; }
  // The thin-provisioning pool backing this volume (nullptr: unpooled).
  StoragePool* pool() { return pool_; }
  const StoragePool* pool() const { return pool_; }

  uint32_t block_size() const override { return store_.block_size(); }
  uint64_t block_count() const override { return store_.block_count(); }

  Status Read(block::Lba lba, uint32_t count, std::string* out) override;

  // Writes through the pre-overwrite hooks (COW) and then the store.
  Status Write(block::Lba lba, uint32_t count,
               std::string_view data) override;

  // Applies a sorted multi-extent run in one call (the replication apply
  // path). Every extent is range-validated before any is applied; pool
  // accounting and pre-overwrite hooks fire exactly as they would for
  // per-extent Write calls. A run's carried `crcs` become the sidecar.
  Status WriteRun(const block::BlockRun* runs, size_t n) override;

  // Lands a bulk image (the initial copy): the store takes over `image`'s
  // slabs (block::MemVolume::AdoptFrom) with no hook, pool or interceptor
  // involved, and the footprint gauges follow.
  Status AdoptImage(block::MemVolume&& image);

  // Keeps two gauges shared by every volume of one array current: each
  // write through this volume adds its change in slab bytes and written
  // blocks, and detaching (nullptr) takes its share back out. A change
  // made on store() directly shows at the next write through the volume.
  void AttachFootprint(obs::Gauge* slab_bytes, obs::Gauge* written_blocks);

  // Registers a pre-overwrite hook; returns a token for removal.
  uint64_t AddPreOverwriteHook(PreOverwriteHook hook);
  void RemovePreOverwriteHook(uint64_t token);
  size_t pre_overwrite_hook_count() const { return hooks_.size(); }

  // The write interceptor the owning array routes this volume's host
  // writes through (StorageArray::RegisterInterceptor), or null.
  WriteInterceptor* interceptor() const { return interceptor_; }
  void set_interceptor(WriteInterceptor* interceptor) {
    interceptor_ = interceptor;
  }

  block::MemVolume& store() { return store_; }
  const block::MemVolume& store() const { return store_; }

  // Content equality against another volume, used to verify replication.
  bool ContentEquals(const Volume& other) const {
    return store_.ContentEquals(other.store_);
  }

 private:
  // kUnavailable while the owning array is failed.
  Status CheckArrayUp() const;
  // Pool accounting + hooks + store write, after range validation.
  Status WriteChecked(const block::BlockRun& run);
  // Adds the store's footprint change since the last call to the gauges.
  void PublishFootprint();

  VolumeId id_;
  std::string name_;
  block::MemVolume store_;
  StoragePool* pool_;
  const bool* array_failed_;
  WriteInterceptor* interceptor_ = nullptr;
  std::vector<std::pair<uint64_t, PreOverwriteHook>> hooks_;
  uint64_t next_hook_token_ = 1;
  obs::Gauge* slab_bytes_gauge_ = nullptr;
  obs::Gauge* written_blocks_gauge_ = nullptr;
  // What the gauges hold of this volume.
  uint64_t published_slab_bytes_ = 0;
  uint64_t published_written_blocks_ = 0;
};

}  // namespace zerobak::storage

#endif  // ZEROBAK_STORAGE_VOLUME_H_

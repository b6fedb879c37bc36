#include "storage/volume.h"

#include <utility>

namespace zerobak::storage {

Volume::Volume(VolumeId id, std::string name, uint64_t block_count,
               uint32_t block_size, StoragePool* pool)
    : id_(id),
      name_(std::move(name)),
      store_(block_count, block_size),
      pool_(pool) {
  // Every array LDEV carries the per-block CRC32C sidecar: silent at-rest
  // corruption surfaces as kDataLoss on read instead of bad data, and the
  // scrubber can fingerprint extents without a second source of truth.
  store_.EnableChecksums();
}

Status Volume::Read(block::Lba lba, uint32_t count, std::string* out) {
  return store_.Read(lba, count, out);
}

Status Volume::Write(block::Lba lba, uint32_t count, std::string_view data) {
  ZB_RETURN_IF_ERROR(store_.CheckRange(lba, count));
  return WriteChecked(block::BlockRun{lba, count, data});
}

Status Volume::WriteRun(const block::BlockRun* runs, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    ZB_RETURN_IF_ERROR(store_.CheckRange(runs[i].lba, runs[i].count));
  }
  for (size_t i = 0; i < n; ++i) ZB_RETURN_IF_ERROR(WriteChecked(runs[i]));
  return OkStatus();
}

Status Volume::WriteChecked(const block::BlockRun& run) {
  const block::Lba lba = run.lba;
  const uint32_t count = run.count;
  // Thin provisioning: physical blocks are consumed on first write; a
  // full pool rejects the write before anything changes.
  if (pool_ != nullptr) {
    uint64_t fresh = 0;
    for (uint32_t i = 0; i < count; ++i) {
      if (!store_.IsAllocated(lba + i)) ++fresh;
    }
    if (fresh > 0 && !pool_->TryAllocate(fresh)) {
      return ResourceExhaustedError(
          "pool " + pool_->name() + " exhausted (" +
          std::to_string(pool_->used_blocks()) + "/" +
          std::to_string(pool_->capacity_blocks()) + " blocks used)");
    }
  }
  if (!hooks_.empty()) {
    for (uint32_t i = 0; i < count; ++i) {
      // Zero-copy: the view stays valid until store_.Write below, and
      // hooks that keep the content (COW snapshots) copy it themselves.
      const std::string_view old_block = store_.ReadBlockView(lba + i);
      for (auto& [token, hook] : hooks_) {
        hook(lba + i, old_block);
      }
    }
  }
  return store_.WriteRun(&run, 1);
}

uint64_t Volume::AddPreOverwriteHook(PreOverwriteHook hook) {
  const uint64_t token = next_hook_token_++;
  hooks_.emplace_back(token, std::move(hook));
  return token;
}

void Volume::RemovePreOverwriteHook(uint64_t token) {
  for (auto it = hooks_.begin(); it != hooks_.end(); ++it) {
    if (it->first == token) {
      hooks_.erase(it);
      return;
    }
  }
}

}  // namespace zerobak::storage

#include "storage/volume.h"

#include <utility>

namespace zerobak::storage {
namespace {
// The failure flag of a volume that belongs to no array.
constexpr bool kNeverFailed = false;
}  // namespace

Volume::Volume(VolumeId id, std::string name, uint64_t block_count,
               uint32_t block_size, StoragePool* pool,
               const bool* array_failed)
    : id_(id),
      name_(std::move(name)),
      store_(block_count, block_size),
      pool_(pool),
      array_failed_(array_failed != nullptr ? array_failed : &kNeverFailed) {
  // Every array LDEV carries the per-block CRC32C sidecar: silent at-rest
  // corruption surfaces as kDataLoss on read instead of bad data, and the
  // scrubber can fingerprint extents without a second source of truth.
  store_.EnableChecksums();
}

Status Volume::Read(block::Lba lba, uint32_t count, std::string* out) {
  return store_.Read(lba, count, out);
}

Status Volume::CheckArrayUp() const {
  if (!*array_failed_) return OkStatus();
  return UnavailableError("volume " + name_ + ": its array has failed");
}

Status Volume::Write(block::Lba lba, uint32_t count, std::string_view data) {
  ZB_RETURN_IF_ERROR(CheckArrayUp());
  ZB_RETURN_IF_ERROR(store_.CheckRange(lba, count));
  return WriteChecked(block::BlockRun{lba, count, data});
}

Status Volume::WriteRun(const block::BlockRun* runs, size_t n) {
  ZB_RETURN_IF_ERROR(CheckArrayUp());
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
  Status status = store_.WriteRun(&run, 1);
  PublishFootprint();
  return status;
}

Status Volume::AdoptImage(block::MemVolume&& image) {
  ZB_RETURN_IF_ERROR(CheckArrayUp());
  Status status = store_.AdoptFrom(std::move(image));
  PublishFootprint();
  return status;
}

void Volume::AttachFootprint(obs::Gauge* slab_bytes,
                             obs::Gauge* written_blocks) {
  if (slab_bytes_gauge_ != nullptr) {
    slab_bytes_gauge_->Add(-static_cast<int64_t>(published_slab_bytes_));
    written_blocks_gauge_->Add(
        -static_cast<int64_t>(published_written_blocks_));
  }
  slab_bytes_gauge_ = slab_bytes;
  written_blocks_gauge_ = written_blocks;
  published_slab_bytes_ = 0;
  published_written_blocks_ = 0;
  PublishFootprint();
}

void Volume::PublishFootprint() {
  const uint64_t slab_bytes = store_.slab_bytes();
  const uint64_t written_blocks = store_.allocated_blocks();
  // An overwrite changes neither, and leaves the shared gauges untouched.
  if (slab_bytes_gauge_ == nullptr ||
      (slab_bytes == published_slab_bytes_ &&
       written_blocks == published_written_blocks_)) {
    return;
  }
  slab_bytes_gauge_->Add(static_cast<int64_t>(slab_bytes) -
                         static_cast<int64_t>(published_slab_bytes_));
  written_blocks_gauge_->Add(static_cast<int64_t>(written_blocks) -
                             static_cast<int64_t>(published_written_blocks_));
  published_slab_bytes_ = slab_bytes;
  published_written_blocks_ = written_blocks;
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

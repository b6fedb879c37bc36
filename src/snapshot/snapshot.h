#ifndef ZEROBAK_SNAPSHOT_SNAPSHOT_H_
#define ZEROBAK_SNAPSHOT_SNAPSHOT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "block/block_device.h"
#include "common/status.h"
#include "common/time.h"
#include "storage/array.h"
#include "storage/volume.h"

namespace zerobak::snapshot {

using SnapshotId = uint64_t;
using SnapshotGroupId = uint64_t;

// A copy-on-write snapshot of an array volume (Section III-A-2): reading
// it yields the source volume's content at creation time, while the source
// keeps taking updates. Old block contents are preserved lazily, the
// instant before the source overwrites them, via the volume's
// pre-overwrite hook — so creating a snapshot is a metadata-only O(1)
// operation regardless of volume size.
//
// Snapshots are also writable (redirect-on-write into a private delta),
// which lets the backup site run databases directly on snapshot volumes
// for analytics (Fig. 6) without touching the replicated data.
class CowSnapshot : public block::BlockDevice {
 public:
  CowSnapshot(SnapshotId id, std::string name, storage::Volume* source,
              SimTime created_at);
  ~CowSnapshot() override;

  CowSnapshot(const CowSnapshot&) = delete;
  CowSnapshot& operator=(const CowSnapshot&) = delete;

  SnapshotId id() const { return id_; }
  const std::string& name() const { return name_; }
  storage::VolumeId source_volume() const { return source_->id(); }
  SimTime created_at() const { return created_at_; }

  uint32_t block_size() const override { return source_->block_size(); }
  uint64_t block_count() const override { return source_->block_count(); }

  // Reads the point-in-time image (plus any snapshot-local writes).
  Status Read(block::Lba lba, uint32_t count, std::string* out) override;

  // Writes into the snapshot's private delta; the source is untouched.
  Status Write(block::Lba lba, uint32_t count,
               std::string_view data) override;

  // Blocks preserved from the source because the source overwrote them.
  uint64_t preserved_blocks() const { return preserved_.size(); }
  // Blocks written into the snapshot's private delta.
  uint64_t delta_blocks() const { return delta_.size(); }

  // The logical point-in-time content of a single block (ignoring
  // snapshot-local writes). Used by restore and by consistency checks.
  std::string PointInTimeBlock(block::Lba lba) const;

 private:
  friend class SnapshotManager;
  void OnSourcePreOverwrite(block::Lba lba, std::string_view old_block);

  SnapshotId id_;
  std::string name_;
  storage::Volume* source_;
  SimTime created_at_;
  uint64_t hook_token_;
  // Old source blocks saved before overwrite (the COW pool).
  std::unordered_map<block::Lba, std::string> preserved_;
  // Snapshot-local writes (redirect-on-write delta).
  std::unordered_map<block::Lba, std::string> delta_;
};

// Metadata of a snapshot group: multiple snapshots created atomically at
// the same instant so that they form a cross-volume consistent image
// (Section III-A-2, "snapshot group technology").
struct SnapshotGroupInfo {
  SnapshotGroupId id = 0;
  std::string name;
  std::vector<SnapshotId> members;
  SimTime created_at = 0;
};

// Array-level snapshot feature: creates/deletes snapshots and atomic
// snapshot groups on one array, and can restore a volume from a snapshot.
class SnapshotManager {
 public:
  explicit SnapshotManager(storage::StorageArray* array);

  SnapshotManager(const SnapshotManager&) = delete;
  SnapshotManager& operator=(const SnapshotManager&) = delete;

  // Creates a snapshot of one volume. Metadata-only; returns immediately.
  StatusOr<SnapshotId> CreateSnapshot(storage::VolumeId source,
                                      const std::string& name);

  // Creates snapshots of all `sources` atomically (one simulation event,
  // which models the array quiescing the journal-apply at a consistency
  // boundary). All-or-nothing: if any volume is missing, nothing happens.
  StatusOr<SnapshotGroupId> CreateSnapshotGroup(
      const std::vector<storage::VolumeId>& sources,
      const std::string& name);

  Status DeleteSnapshot(SnapshotId id);
  Status DeleteSnapshotGroup(SnapshotGroupId id);

  CowSnapshot* GetSnapshot(SnapshotId id);
  StatusOr<SnapshotGroupInfo> GetGroup(SnapshotGroupId id) const;
  std::vector<SnapshotId> ListSnapshots() const;
  std::vector<SnapshotGroupId> ListGroups() const;
  // Snapshot of `source` volumes, newest first.
  std::vector<SnapshotId> ListSnapshotsOfVolume(
      storage::VolumeId source) const;

  // Rolls the source volume back to the snapshot's point-in-time image
  // (including snapshot-local writes, which become real). The rewritten
  // blocks go through the volume's write interceptor
  // (StorageArray::RestoreWrite): journaled on an ADC P-VOL, dirty-marked
  // while its pair is suspended, given back by failback on a promoted
  // S-VOL, refused on an S-VOL that still receives replication. Returns
  // the number of blocks rewritten.
  StatusOr<uint64_t> RestoreVolume(SnapshotId id);

  size_t snapshot_count() const { return snapshots_.size(); }

 private:
  storage::StorageArray* array_;
  std::map<SnapshotId, std::unique_ptr<CowSnapshot>> snapshots_;
  SnapshotId next_snapshot_id_ = 1;
  std::map<SnapshotGroupId, SnapshotGroupInfo> groups_;
  SnapshotGroupId next_group_id_ = 1;
};

}  // namespace zerobak::snapshot

#endif  // ZEROBAK_SNAPSHOT_SNAPSHOT_H_

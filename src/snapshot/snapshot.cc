#include "snapshot/snapshot.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "common/logging.h"

namespace zerobak::snapshot {

CowSnapshot::CowSnapshot(SnapshotId id, std::string name,
                         storage::Volume* source, SimTime created_at)
    : id_(id),
      name_(std::move(name)),
      source_(source),
      created_at_(created_at) {
  hook_token_ = source_->AddPreOverwriteHook(
      [this](block::Lba lba, std::string_view old_block) {
        OnSourcePreOverwrite(lba, old_block);
      });
}

CowSnapshot::~CowSnapshot() {
  source_->RemovePreOverwriteHook(hook_token_);
}

void CowSnapshot::OnSourcePreOverwrite(block::Lba lba,
                                       std::string_view old_block) {
  // First overwrite wins: the preserved copy is the content at snapshot
  // creation time.
  preserved_.try_emplace(lba, std::string(old_block));
}

std::string CowSnapshot::PointInTimeBlock(block::Lba lba) const {
  auto pit = preserved_.find(lba);
  if (pit != preserved_.end()) return pit->second;
  return source_->store().ReadBlock(lba);
}

Status CowSnapshot::Read(block::Lba lba, uint32_t count, std::string* out) {
  ZB_RETURN_IF_ERROR(CheckRange(lba, count));
  out->clear();
  out->reserve(static_cast<size_t>(count) * block_size());
  for (uint32_t i = 0; i < count; ++i) {
    auto dit = delta_.find(lba + i);
    if (dit != delta_.end()) {
      out->append(dit->second);
    } else {
      out->append(PointInTimeBlock(lba + i));
    }
  }
  return OkStatus();
}

Status CowSnapshot::Write(block::Lba lba, uint32_t count,
                          std::string_view data) {
  ZB_RETURN_IF_ERROR(CheckRange(lba, count));
  if (data.size() != static_cast<size_t>(count) * block_size()) {
    return InvalidArgumentError("snapshot write payload size mismatch");
  }
  for (uint32_t i = 0; i < count; ++i) {
    delta_[lba + i] = std::string(
        data.substr(static_cast<size_t>(i) * block_size(), block_size()));
  }
  return OkStatus();
}

SnapshotManager::SnapshotManager(storage::StorageArray* array)
    : array_(array) {}

StatusOr<SnapshotId> SnapshotManager::CreateSnapshot(
    storage::VolumeId source, const std::string& name) {
  if (array_->failed()) {
    return UnavailableError("array " + array_->serial() + " has failed");
  }
  ZB_ASSIGN_OR_RETURN(storage::Volume * vol, array_->FindVolume(source));
  const SnapshotId id = next_snapshot_id_++;
  snapshots_.emplace(id, std::make_unique<CowSnapshot>(
                             id, name, vol, array_->env()->now()));
  return id;
}

StatusOr<SnapshotGroupId> SnapshotManager::CreateSnapshotGroup(
    const std::vector<storage::VolumeId>& sources, const std::string& name) {
  if (array_->failed()) {
    return UnavailableError("array " + array_->serial() + " has failed");
  }
  if (sources.empty()) {
    return InvalidArgumentError("empty snapshot group");
  }
  // All-or-nothing: validate every source before creating anything.
  std::vector<storage::Volume*> vols;
  vols.reserve(sources.size());
  for (storage::VolumeId vid : sources) {
    ZB_ASSIGN_OR_RETURN(storage::Volume * vol, array_->FindVolume(vid));
    vols.push_back(vol);
  }
  SnapshotGroupInfo info;
  info.id = next_group_id_++;
  info.name = name;
  info.created_at = array_->env()->now();
  for (size_t i = 0; i < vols.size(); ++i) {
    const SnapshotId sid = next_snapshot_id_++;
    snapshots_.emplace(
        sid, std::make_unique<CowSnapshot>(
                 sid, name + "-" + vols[i]->name(), vols[i], info.created_at));
    info.members.push_back(sid);
  }
  const SnapshotGroupId gid = info.id;
  groups_.emplace(gid, std::move(info));
  return gid;
}

Status SnapshotManager::DeleteSnapshot(SnapshotId id) {
  auto it = snapshots_.find(id);
  if (it == snapshots_.end()) {
    return NotFoundError("snapshot " + std::to_string(id));
  }
  for (auto& [gid, info] : groups_) {
    std::erase(info.members, id);
  }
  snapshots_.erase(it);
  return OkStatus();
}

Status SnapshotManager::DeleteSnapshotGroup(SnapshotGroupId id) {
  auto it = groups_.find(id);
  if (it == groups_.end()) {
    return NotFoundError("snapshot group " + std::to_string(id));
  }
  for (SnapshotId sid : it->second.members) {
    snapshots_.erase(sid);
  }
  groups_.erase(it);
  return OkStatus();
}

CowSnapshot* SnapshotManager::GetSnapshot(SnapshotId id) {
  auto it = snapshots_.find(id);
  return it == snapshots_.end() ? nullptr : it->second.get();
}

StatusOr<SnapshotGroupInfo> SnapshotManager::GetGroup(
    SnapshotGroupId id) const {
  auto it = groups_.find(id);
  if (it == groups_.end()) {
    return NotFoundError("snapshot group " + std::to_string(id));
  }
  return it->second;
}

std::vector<SnapshotId> SnapshotManager::ListSnapshots() const {
  std::vector<SnapshotId> out;
  for (const auto& [id, s] : snapshots_) out.push_back(id);
  return out;
}

std::vector<SnapshotGroupId> SnapshotManager::ListGroups() const {
  std::vector<SnapshotGroupId> out;
  for (const auto& [id, g] : groups_) out.push_back(id);
  return out;
}

std::vector<SnapshotId> SnapshotManager::ListSnapshotsOfVolume(
    storage::VolumeId source) const {
  std::vector<SnapshotId> out;
  for (const auto& [id, s] : snapshots_) {
    if (s->source_volume() == source) out.push_back(id);
  }
  std::reverse(out.begin(), out.end());
  return out;
}

StatusOr<uint64_t> SnapshotManager::RestoreVolume(SnapshotId id) {
  CowSnapshot* snap = GetSnapshot(id);
  if (snap == nullptr) {
    return NotFoundError("snapshot " + std::to_string(id));
  }
  ZB_ASSIGN_OR_RETURN(storage::Volume * vol,
                      array_->FindVolume(snap->source_volume()));
  // Restore = write the snapshot's logical image back over the source.
  // The source can differ from the image only at blocks the source
  // overwrote (preserved_) or the snapshot wrote locally (delta_), so
  // restore cost is proportional to the change set, not the volume size.
  // Each block takes the host write path, so a replicated source carries
  // the rewind to its pair like any other write.
  std::unordered_set<block::Lba> touched;
  for (const auto& [lba, data] : snap->preserved_) touched.insert(lba);
  for (const auto& [lba, data] : snap->delta_) touched.insert(lba);
  std::string block;
  uint64_t rewritten = 0;
  for (block::Lba lba : touched) {
    ZB_RETURN_IF_ERROR(snap->Read(lba, 1, &block));
    if (block != vol->store().ReadBlock(lba)) {
      ZB_RETURN_IF_ERROR(array_->RestoreWrite(vol->id(), lba, block));
      ++rewritten;
    }
  }
  return rewritten;
}

}  // namespace zerobak::snapshot

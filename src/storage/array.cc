#include "storage/array.h"

#include <utility>

#include "common/logging.h"

namespace zerobak::storage {

StorageArray::StorageArray(sim::SimEnvironment* env, ArrayConfig config)
    : env_(env), config_(std::move(config)), rng_(config_.seed) {}

StatusOr<PoolId> StorageArray::CreatePool(const std::string& name,
                                          uint64_t capacity_blocks) {
  if (failed_) return UnavailableError("array " + serial() + " has failed");
  if (capacity_blocks == 0) {
    return InvalidArgumentError("zero-capacity pool");
  }
  const PoolId id = next_pool_id_++;
  pools_.emplace(id,
                 std::make_unique<StoragePool>(id, name, capacity_blocks));
  return id;
}

StoragePool* StorageArray::GetPool(PoolId id) {
  auto it = pools_.find(id);
  return it == pools_.end() ? nullptr : it->second.get();
}

std::vector<PoolId> StorageArray::ListPools() const {
  std::vector<PoolId> out;
  for (const auto& [id, pool] : pools_) out.push_back(id);
  return out;
}

StatusOr<VolumeId> StorageArray::CreateVolume(const std::string& name,
                                              uint64_t block_count,
                                              uint32_t block_size) {
  if (failed_) return UnavailableError("array " + serial() + " has failed");
  if (block_count == 0) return InvalidArgumentError("zero-sized volume");
  if (!name.empty() && FindVolumeByName(name) != nullptr) {
    return AlreadyExistsError("volume name in use: " + name);
  }
  const VolumeId id = next_volume_id_++;
  auto vol = std::make_unique<Volume>(id, name, block_count, block_size,
                                      /*pool=*/nullptr, &failed_);
  vol->AttachFootprint(slab_bytes_gauge_, written_blocks_gauge_);
  volumes_.emplace(id, std::move(vol));
  return id;
}

StatusOr<VolumeId> StorageArray::CreateVolumeInPool(const std::string& name,
                                                    uint64_t block_count,
                                                    PoolId pool,
                                                    uint32_t block_size) {
  if (failed_) return UnavailableError("array " + serial() + " has failed");
  if (block_count == 0) return InvalidArgumentError("zero-sized volume");
  if (!name.empty() && FindVolumeByName(name) != nullptr) {
    return AlreadyExistsError("volume name in use: " + name);
  }
  StoragePool* p = GetPool(pool);
  if (p == nullptr) return NotFoundError("pool " + std::to_string(pool));
  const VolumeId id = next_volume_id_++;
  auto vol = std::make_unique<Volume>(id, name, block_count, block_size, p,
                                      &failed_);
  vol->AttachFootprint(slab_bytes_gauge_, written_blocks_gauge_);
  volumes_.emplace(id, std::move(vol));
  return id;
}

Status StorageArray::DeleteVolume(VolumeId id) {
  if (failed_) return UnavailableError("array " + serial() + " has failed");
  auto it = volumes_.find(id);
  if (it == volumes_.end()) {
    return NotFoundError("volume " + std::to_string(id));
  }
  if (it->second->interceptor() != nullptr) {
    return FailedPreconditionError(
        "volume " + std::to_string(id) +
        " is part of a replication pair; delete the pair first");
  }
  if (it->second->pre_overwrite_hook_count() > 0) {
    return FailedPreconditionError(
        "volume " + std::to_string(id) +
        " has attached snapshots; delete them first");
  }
  if (it->second->pool() != nullptr) {
    it->second->pool()->Release(it->second->store().allocated_blocks());
  }
  it->second->AttachFootprint(nullptr, nullptr);
  volumes_.erase(it);
  return OkStatus();
}

Volume* StorageArray::GetVolume(VolumeId id) {
  auto it = volumes_.find(id);
  return it == volumes_.end() ? nullptr : it->second.get();
}

const Volume* StorageArray::GetVolume(VolumeId id) const {
  auto it = volumes_.find(id);
  return it == volumes_.end() ? nullptr : it->second.get();
}

StatusOr<Volume*> StorageArray::FindVolume(VolumeId id) {
  Volume* v = GetVolume(id);
  if (v == nullptr) return NotFoundError("volume " + std::to_string(id));
  return v;
}

Volume* StorageArray::FindVolumeByName(std::string_view name) {
  for (auto& [id, vol] : volumes_) {
    if (vol->name() == name) return vol.get();
  }
  return nullptr;
}

std::vector<VolumeId> StorageArray::ListVolumes() const {
  std::vector<VolumeId> out;
  out.reserve(volumes_.size());
  for (const auto& [id, vol] : volumes_) out.push_back(id);
  return out;
}

std::string StorageArray::VolumeHandle(VolumeId id) const {
  return serial() + ":" + std::to_string(id);
}

StatusOr<std::pair<std::string, VolumeId>> StorageArray::ParseVolumeHandle(
    std::string_view handle) {
  const size_t colon = handle.rfind(':');
  if (colon == std::string_view::npos || colon == 0 ||
      colon + 1 >= handle.size()) {
    return InvalidArgumentError("malformed volume handle: " +
                                std::string(handle));
  }
  const std::string serial(handle.substr(0, colon));
  const std::string id_text(handle.substr(colon + 1));
  char* end = nullptr;
  const unsigned long long id = std::strtoull(id_text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') {
    return InvalidArgumentError("malformed volume id in handle: " +
                                std::string(handle));
  }
  return std::make_pair(serial, static_cast<VolumeId>(id));
}

StatusOr<JournalId> StorageArray::CreateJournal(uint64_t capacity_bytes) {
  if (failed_) return UnavailableError("array " + serial() + " has failed");
  if (capacity_bytes == 0) {
    return InvalidArgumentError("zero-capacity journal");
  }
  const JournalId id = next_journal_id_++;
  journals_.emplace(
      id, std::make_unique<journal::JournalVolume>(capacity_bytes));
  return id;
}

Status StorageArray::DeleteJournal(JournalId id) {
  if (journals_.erase(id) == 0) {
    return NotFoundError("journal " + std::to_string(id));
  }
  return OkStatus();
}

journal::JournalVolume* StorageArray::GetJournal(JournalId id) {
  auto it = journals_.find(id);
  return it == journals_.end() ? nullptr : it->second.get();
}

std::vector<JournalId> StorageArray::ListJournals() const {
  std::vector<JournalId> out;
  out.reserve(journals_.size());
  for (const auto& [id, j] : journals_) out.push_back(id);
  return out;
}

Status StorageArray::RegisterInterceptor(VolumeId id,
                                         WriteInterceptor* interceptor) {
  Volume* volume = GetVolume(id);
  if (volume == nullptr) {
    return NotFoundError("volume " + std::to_string(id));
  }
  if (volume->interceptor() != nullptr) {
    return AlreadyExistsError("volume " + std::to_string(id) +
                              " already has a replication interceptor");
  }
  volume->set_interceptor(interceptor);
  return OkStatus();
}

void StorageArray::UnregisterInterceptor(VolumeId id) {
  if (Volume* volume = GetVolume(id)) volume->set_interceptor(nullptr);
}

bool StorageArray::HasInterceptor(VolumeId id) const {
  const Volume* volume = GetVolume(id);
  return volume != nullptr && volume->interceptor() != nullptr;
}

void StorageArray::AdmitIo(std::function<void()> start) {
  if (config_.max_concurrent_ios == 0) {
    start();  // Unlimited: no accounting.
    return;
  }
  if (active_ios_ < config_.max_concurrent_ios) {
    ++active_ios_;
    start();
    return;
  }
  admission_queue_.push_back(std::move(start));
  peak_queued_ = std::max(peak_queued_,
                          static_cast<uint64_t>(admission_queue_.size()));
}

void StorageArray::ReleaseIo() {
  if (config_.max_concurrent_ios == 0) return;
  ZB_CHECK(active_ios_ > 0);
  --active_ios_;
  if (!admission_queue_.empty()) {
    auto next = std::move(admission_queue_.front());
    admission_queue_.pop_front();
    ++active_ios_;
    next();
  }
}

void StorageArray::CompleteWrite(SimTime start, Status status,
                                 block::IoCallback callback) {
  ++host_writes_;
  write_latency_.Add(static_cast<uint64_t>(env_->now() - start));
  if (callback) callback(block::IoResult{std::move(status), {}});
  ReleaseIo();
}

void StorageArray::SubmitHostWrite(VolumeId id, block::Lba lba,
                                   std::string data,
                                   block::IoCallback callback) {
  const SimTime start = env_->now();
  if (failed_) {
    if (callback) {
      callback(block::IoResult{
          UnavailableError("array " + serial() + " has failed"), {}});
    }
    return;
  }
  Volume* volume = GetVolume(id);
  if (volume == nullptr) {
    if (callback) {
      callback(
          block::IoResult{NotFoundError("volume " + std::to_string(id)), {}});
    }
    return;
  }
  if (data.size() % volume->block_size() != 0 || data.empty()) {
    if (callback) {
      callback(block::IoResult{
          InvalidArgumentError("write payload not block-aligned"), {}});
    }
    return;
  }
  const uint32_t count =
      static_cast<uint32_t>(data.size() / volume->block_size());

  auto persist_and_ack = [this, volume, lba, count, start,
                          data = std::move(data),
                          callback = std::move(callback)]() mutable {
    if (failed_) {
      // The array died while the IO was in flight: no ack.
      CompleteWrite(start, UnavailableError("array failed mid-IO"),
                    std::move(callback));
      return;
    }
    WriteInterceptor* interceptor = volume->interceptor();
    if (interceptor != nullptr) {
      Status pre = interceptor->PreCheck(volume, lba, count);
      if (!pre.ok()) {
        CompleteWrite(start, std::move(pre), std::move(callback));
        return;
      }
    }
    Status status = volume->Write(lba, count, data);
    if (!status.ok()) {
      CompleteWrite(start, std::move(status), std::move(callback));
      return;
    }
    if (interceptor == nullptr) {
      CompleteWrite(start, OkStatus(), std::move(callback));
      return;
    }
    interceptor->OnHostWrite(
        volume, lba, count, data,
        [this, start, callback = std::move(callback)](Status s) mutable {
          CompleteWrite(start, std::move(s), std::move(callback));
        });
  };

  const SimDuration cost =
      config_.media.Cost(block::IoType::kWrite, count, &rng_);
  AdmitIo([this, cost, persist_and_ack = std::move(persist_and_ack)]() mutable {
    if (cost == 0) {
      persist_and_ack();
    } else {
      env_->Schedule(cost, std::move(persist_and_ack));
    }
  });
}

void StorageArray::SubmitHostRead(VolumeId id, block::Lba lba,
                                  uint32_t count,
                                  block::IoCallback callback) {
  const SimTime start = env_->now();
  if (failed_) {
    if (callback) {
      callback(block::IoResult{
          UnavailableError("array " + serial() + " has failed"), {}});
    }
    return;
  }
  Volume* volume = GetVolume(id);
  if (volume == nullptr) {
    if (callback) {
      callback(
          block::IoResult{NotFoundError("volume " + std::to_string(id)), {}});
    }
    return;
  }
  auto do_read = [this, volume, lba, count, start,
                  callback = std::move(callback)]() mutable {
    block::IoResult result;
    if (failed_) {
      result.status = UnavailableError("array failed mid-IO");
    } else {
      result.status = volume->Read(lba, count, &result.data);
    }
    ++host_reads_;
    read_latency_.Add(static_cast<uint64_t>(env_->now() - start));
    if (callback) callback(std::move(result));
    ReleaseIo();
  };
  const SimDuration cost =
      config_.media.Cost(block::IoType::kRead, count, &rng_);
  AdmitIo([this, cost, do_read = std::move(do_read)]() mutable {
    if (cost == 0) {
      do_read();
    } else {
      env_->Schedule(cost, std::move(do_read));
    }
  });
}

Status StorageArray::WriteIntercepted(VolumeId id, block::Lba lba,
                                      std::string_view data,
                                      WriteInterceptor::AckFn ack) {
  if (failed_) return UnavailableError("array " + serial() + " has failed");
  Volume* volume = GetVolume(id);
  if (volume == nullptr) {
    return NotFoundError("volume " + std::to_string(id));
  }
  if (data.empty() || data.size() % volume->block_size() != 0) {
    return InvalidArgumentError("write payload not block-aligned");
  }
  const uint32_t count =
      static_cast<uint32_t>(data.size() / volume->block_size());
  WriteInterceptor* interceptor = volume->interceptor();
  if (interceptor != nullptr) {
    ZB_RETURN_IF_ERROR(interceptor->PreCheck(volume, lba, count));
  }
  ZB_RETURN_IF_ERROR(volume->Write(lba, count, data));
  if (interceptor == nullptr) {
    ack(OkStatus());
  } else {
    interceptor->OnHostWrite(volume, lba, count, data, std::move(ack));
  }
  return OkStatus();
}

Status StorageArray::WriteSync(VolumeId id, block::Lba lba,
                               std::string_view data) {
  bool acked = false;
  Status final_status = OkStatus();
  ZB_RETURN_IF_ERROR(WriteIntercepted(id, lba, data,
                                      [&acked, &final_status](Status s) {
                                        acked = true;
                                        final_status = std::move(s);
                                      }));
  ZB_CHECK(acked) << "WriteSync requires an inline-acking interceptor "
                     "(ADC); synchronous replication must use "
                     "SubmitHostWrite";
  ++host_writes_;
  write_latency_.Add(0);
  return final_status;
}

Status StorageArray::RestoreWrite(VolumeId id, block::Lba lba,
                                  std::string_view data) {
  // Every interceptor acks OK once the write is local (an SDC group that
  // cannot reach the backup suspends and dirty-marks instead of failing
  // it), so the ack carries nothing the restore waits for.
  return WriteIntercepted(id, lba, data, [](Status) {});
}

Status StorageArray::ReadSync(VolumeId id, block::Lba lba, uint32_t count,
                              std::string* out) {
  if (failed_) return UnavailableError("array " + serial() + " has failed");
  Volume* volume = GetVolume(id);
  if (volume == nullptr) {
    return NotFoundError("volume " + std::to_string(id));
  }
  ++host_reads_;
  return volume->Read(lba, count, out);
}

void StorageArray::ResetStats() {
  write_latency_.Clear();
  read_latency_.Clear();
  host_writes_ = 0;
  host_reads_ = 0;
}

void StorageArray::AttachObservability(obs::MetricRegistry* registry,
                                       const std::string& prefix) {
  slab_bytes_gauge_ = registry->GetGauge(prefix + ".slab_bytes");
  written_blocks_gauge_ = registry->GetGauge(prefix + ".written_blocks");
  for (auto& [id, vol] : volumes_) {
    vol->AttachFootprint(slab_bytes_gauge_, written_blocks_gauge_);
  }
}

}  // namespace zerobak::storage

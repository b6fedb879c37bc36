#ifndef ZEROBAK_STORAGE_ARRAY_H_
#define ZEROBAK_STORAGE_ARRAY_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "block/latency_model.h"
#include "block/block_device.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/status.h"
#include "journal/journal.h"
#include "obs/metrics.h"
#include "sim/environment.h"
#include "storage/volume.h"

namespace zerobak::storage {

// Journal identifier within one array.
using JournalId = uint64_t;

// Write interceptor: the replication layer registers one per protected
// volume. It is invoked after a host write has been applied to the local
// volume and decides when the host ack fires:
//   - asynchronous data copy (ADC) journals the write and acks immediately;
//   - synchronous data copy (SDC) acks only after the remote site persisted
//     the write.
// The interceptor must call `ack` exactly once (inline calls are allowed).
class WriteInterceptor {
 public:
  virtual ~WriteInterceptor() = default;

  using AckFn = std::function<void(Status)>;

  // Called before the write touches the volume; a non-OK status rejects
  // the host write entirely. Used to write-protect S-VOLs while a pair is
  // active (the replication applier bypasses the host path).
  virtual Status PreCheck(Volume* volume, block::Lba lba, uint32_t count) {
    (void)volume;
    (void)lba;
    (void)count;
    return OkStatus();
  }

  virtual void OnHostWrite(Volume* volume, block::Lba lba, uint32_t count,
                           std::string_view data, AckFn ack) = 0;
};

// Array configuration. The media latency model applies to the front-end
// host IO path (cache-hit write latency of the array).
struct ArrayConfig {
  std::string serial = "G370-00000";
  block::DeviceLatencyModel media;
  // Front-end concurrency limit (port/processor credits): host IOs beyond
  // this queue and wait. 0 = unlimited. Note that a slot is held for the
  // full ack time — under SDC that includes the remote round trip, which
  // is exactly why SDC collapses throughput under load.
  uint32_t max_concurrent_ios = 0;
  uint64_t seed = 101;
};

// A simulated external storage system — the stand-in for the Hitachi VSP
// G370 in the demonstration (see DESIGN.md substitution table). It owns
// data volumes and journal volumes, runs the host IO front end with a
// latency model, dispatches write interceptors for replication, and can be
// failed wholesale to simulate a site disaster.
class StorageArray {
 public:
  StorageArray(sim::SimEnvironment* env, ArrayConfig config);

  StorageArray(const StorageArray&) = delete;
  StorageArray& operator=(const StorageArray&) = delete;

  const std::string& serial() const { return config_.serial; }
  const ArrayConfig& config() const { return config_; }
  sim::SimEnvironment* env() { return env_; }

  // --- Pool management ----------------------------------------------------
  // Creates a thin-provisioning pool; volumes created with a pool id
  // consume physical capacity only as they are written.
  StatusOr<PoolId> CreatePool(const std::string& name,
                              uint64_t capacity_blocks);
  StoragePool* GetPool(PoolId id);
  std::vector<PoolId> ListPools() const;

  // --- Volume management -------------------------------------------------
  StatusOr<VolumeId> CreateVolume(
      const std::string& name, uint64_t block_count,
      uint32_t block_size = block::kDefaultBlockSize);
  // Thin-provisioned variant backed by a pool.
  StatusOr<VolumeId> CreateVolumeInPool(const std::string& name,
                                        uint64_t block_count, PoolId pool,
                                        uint32_t block_size =
                                            block::kDefaultBlockSize);
  Status DeleteVolume(VolumeId id);
  // Returns nullptr when the volume does not exist.
  Volume* GetVolume(VolumeId id);
  const Volume* GetVolume(VolumeId id) const;
  StatusOr<Volume*> FindVolume(VolumeId id);
  Volume* FindVolumeByName(std::string_view name);
  std::vector<VolumeId> ListVolumes() const;
  size_t volume_count() const { return volumes_.size(); }

  // Globally unique volume handle ("<serial>:<id>"), used by the container
  // platform to reference array volumes from PV specs.
  std::string VolumeHandle(VolumeId id) const;
  static StatusOr<std::pair<std::string, VolumeId>> ParseVolumeHandle(
      std::string_view handle);

  // --- Journal management ------------------------------------------------
  StatusOr<JournalId> CreateJournal(uint64_t capacity_bytes);
  Status DeleteJournal(JournalId id);
  journal::JournalVolume* GetJournal(JournalId id);
  std::vector<JournalId> ListJournals() const;

  // --- Replication hook --------------------------------------------------
  // At most one interceptor per volume; the volume holds it
  // (Volume::interceptor), so a host write finds it with no lookup.
  Status RegisterInterceptor(VolumeId id, WriteInterceptor* interceptor);
  void UnregisterInterceptor(VolumeId id);
  bool HasInterceptor(VolumeId id) const;

  // --- Host IO front end ---------------------------------------------------
  // Asynchronous host write: applies to the volume after the media cost,
  // then routes through the interceptor (if any) which controls the ack.
  void SubmitHostWrite(VolumeId id, block::Lba lba, std::string data,
                       block::IoCallback callback);
  // Asynchronous host read (never intercepted).
  void SubmitHostRead(VolumeId id, block::Lba lba, uint32_t count,
                      block::IoCallback callback);

  // Synchronous functional write path used by correctness experiments: no
  // media latency is simulated, but interception (journaling) still
  // happens. Requires any registered interceptor to ack inline, which ADC
  // does; SDC does not and would be a programming error here.
  Status WriteSync(VolumeId id, block::Lba lba, std::string_view data);
  Status ReadSync(VolumeId id, block::Lba lba, uint32_t count,
                  std::string* out);

  // A snapshot restore's block write: it takes the host write path (the
  // interceptor's PreCheck may refuse it, and the interceptor sees it once
  // the volume holds it, so replication journals or dirty-marks it like
  // any host write) but is not counted as host IO. An interceptor may ack
  // it later (SDC acks once the backup holds the block, or suspends and
  // dirty-marks it); the call returns once the local volume holds it.
  Status RestoreWrite(VolumeId id, block::Lba lba, std::string_view data);

  // --- Failure injection ---------------------------------------------------
  // A failed array rejects all host and management IO (site disaster),
  // and its volumes accept no write from any path: each one reads this
  // flag (see Volume), so a replication landing fails with kUnavailable.
  void SetFailed(bool failed) { failed_ = failed; }
  bool failed() const { return failed_; }

  // --- Stats ---------------------------------------------------------------
  // Host write ack latency (ns): the paper's "system slowdown" metric.
  const Histogram& host_write_latency() const { return write_latency_; }
  const Histogram& host_read_latency() const { return read_latency_; }
  uint64_t host_writes() const { return host_writes_; }
  uint64_t host_reads() const { return host_reads_; }
  // IOs currently waiting for a front-end slot.
  size_t queued_ios() const { return admission_queue_.size(); }
  uint64_t peak_queued_ios() const { return peak_queued_; }
  void ResetStats();

  // Publishes the footprint of this array's volumes as two gauges,
  // "<prefix>.slab_bytes" (bytes of slabs held) and
  // "<prefix>.written_blocks" (blocks ever written), which every volume
  // write keeps current (Volume::AttachFootprint).
  void AttachObservability(obs::MetricRegistry* registry,
                           const std::string& prefix);

 private:
  void CompleteWrite(SimTime start, Status status,
                     block::IoCallback callback);
  // WriteSync's and RestoreWrite's shared path: the array and volume
  // checks, PreCheck, the volume write, then the interceptor, which calls
  // `ack` inline or later; with no interceptor `ack(OK)` fires inline. An
  // error return means nothing was written and `ack` was not called.
  Status WriteIntercepted(VolumeId id, block::Lba lba, std::string_view data,
                          WriteInterceptor::AckFn ack);

  // Front-end admission control (max_concurrent_ios).
  void AdmitIo(std::function<void()> start);
  void ReleaseIo();

  sim::SimEnvironment* env_;
  ArrayConfig config_;
  Rng rng_;
  bool failed_ = false;

  std::map<PoolId, std::unique_ptr<StoragePool>> pools_;
  PoolId next_pool_id_ = 1;

  std::map<VolumeId, std::unique_ptr<Volume>> volumes_;
  VolumeId next_volume_id_ = 1;

  std::map<JournalId, std::unique_ptr<journal::JournalVolume>> journals_;
  JournalId next_journal_id_ = 1;

  obs::Gauge* slab_bytes_gauge_ = nullptr;
  obs::Gauge* written_blocks_gauge_ = nullptr;

  Histogram write_latency_;
  Histogram read_latency_;
  uint64_t host_writes_ = 0;
  uint64_t host_reads_ = 0;

  uint32_t active_ios_ = 0;
  std::deque<std::function<void()>> admission_queue_;
  uint64_t peak_queued_ = 0;
};

}  // namespace zerobak::storage

#endif  // ZEROBAK_STORAGE_ARRAY_H_

#include "replication/replication.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <utility>

#include "common/logging.h"
#include "replication/scrubber.h"
#include "replication/wire.h"

namespace zerobak::replication {

namespace {

// Cadence of the scheduler's single slow heartbeat: the rescue scan for
// groups with backlog but no pending arm edge.
constexpr SimDuration kSchedulerHeartbeat = Milliseconds(50);

// Grace for a synchronous write's remote ack, past the latest possible
// arrival of the write and one unloaded reverse trip: the default group
// ack_timeout. A miss suspends the pair and acks the host locally.
constexpr SimDuration kSyncAckTimeout = Milliseconds(50);

// The one payload allocation of a replicated host write: its bytes, with
// the CRCs the P-VOL write just computed for them as a trailer. The S-VOL
// stores those CRCs instead of computing them again, so the block is
// checksummed once, at intercept, and damage on the way reads back as
// kDataLoss on the S-VOL.
journal::PayloadBuffer CapturePayload(const storage::Volume& volume,
                                      uint64_t lba, uint32_t count,
                                      std::string_view data) {
  char* bytes = nullptr;
  journal::PayloadBuffer payload =
      journal::PayloadBuffer::Allocate(data.size(), count, &bytes);
  std::memcpy(bytes, data.data(), data.size());
  volume.store().ReadCrcs(lba, count, bytes + data.size());
  return payload;
}

}  // namespace

struct ReplicationEngine::SyncWrite {
  storage::WriteInterceptor::AckFn ack;
  sim::EventId deadline{};
  bool done = false;
};

const char* PairStateName(PairState state) {
  switch (state) {
    case PairState::kCopy:
      return "COPY";
    case PairState::kPaired:
      return "PAIR";
    case PairState::kSuspended:
      return "PSUS";
    case PairState::kSwapped:
      return "SSWS";
  }
  return "?";
}

const char* ReplicationModeName(ReplicationMode mode) {
  return mode == ReplicationMode::kSynchronous ? "sync" : "async";
}

const char* SuspendReasonName(SuspendReason reason) {
  switch (reason) {
    case SuspendReason::kNone:
      return "none";
    case SuspendReason::kOperator:
      return "operator";
    case SuspendReason::kJournalOverflow:
      return "journal-overflow";
    case SuspendReason::kAckTimeout:
      return "ack-timeout";
    case SuspendReason::kResyncTimeout:
      return "resync-timeout";
    case SuspendReason::kWireReject:
      return "wire-reject";
    case SuspendReason::kMediaError:
      return "media-error";
    case SuspendReason::kScrubRepair:
      return "scrub-repair";
  }
  return "?";
}

Status ConsistencyGroupConfig::Validate() const {
  if (transfer_interval <= 0) {
    return InvalidArgumentError("transfer_interval must be positive");
  }
  if (journal_capacity_bytes == 0) {
    return InvalidArgumentError("journal_capacity_bytes must be nonzero");
  }
  if (transfer_batch_bytes == 0) {
    return InvalidArgumentError("transfer_batch_bytes must be nonzero");
  }
  if (ack_timeout < 0) {
    return InvalidArgumentError("ack_timeout must be >= 0 (0 disables)");
  }
  if (enable_adaptive_batching) {
    // The bounds only govern the adaptive controller; a fixed-batch
    // ablation sweep may pin transfer_batch_bytes anywhere it likes.
    if (transfer_batch_min_bytes == 0) {
      return InvalidArgumentError("transfer_batch_min_bytes must be nonzero");
    }
    if (transfer_batch_max_bytes < transfer_batch_min_bytes) {
      return InvalidArgumentError(
          "transfer_batch_max_bytes < transfer_batch_min_bytes");
    }
    if (transfer_batch_bytes < transfer_batch_min_bytes ||
        transfer_batch_bytes > transfer_batch_max_bytes) {
      return InvalidArgumentError(
          "transfer_batch_bytes outside [transfer_batch_min_bytes, "
          "transfer_batch_max_bytes]");
    }
  }
  if (auto_resync) {
    if (resync_backoff_initial <= 0) {
      return InvalidArgumentError("resync_backoff_initial must be positive");
    }
    if (resync_backoff_max < resync_backoff_initial) {
      return InvalidArgumentError(
          "resync_backoff_max < resync_backoff_initial");
    }
  }
  return OkStatus();
}

namespace internal {

// Interceptor installed on an async P-VOL: journals the write, acks.
class AdcInterceptor : public storage::WriteInterceptor {
 public:
  AdcInterceptor(ReplicationEngine* engine, Pair* pair)
      : engine_(engine), pair_(pair) {}

  void OnHostWrite(storage::Volume* volume, block::Lba lba, uint32_t count,
                   std::string_view data, AckFn ack) override {
    engine_->OnAsyncHostWrite(pair_, volume, lba, count, data,
                              std::move(ack));
  }

 private:
  ReplicationEngine* engine_;
  Pair* pair_;
};

// Interceptor installed on a sync P-VOL: ships the write and delays the
// host ack until the remote site persisted it.
class SyncInterceptor : public storage::WriteInterceptor {
 public:
  SyncInterceptor(ReplicationEngine* engine, Pair* pair)
      : engine_(engine), pair_(pair) {}

  void OnHostWrite(storage::Volume* volume, block::Lba lba, uint32_t count,
                   std::string_view data, AckFn ack) override {
    engine_->OnSyncHostWrite(pair_, volume, lba, count, data,
                             std::move(ack));
  }

 private:
  ReplicationEngine* engine_;
  Pair* pair_;
};

// Interceptor installed on an S-VOL: rejects host writes while the pair is
// active. The replication applier writes to the volume directly and is
// therefore unaffected.
class SecondaryGuard : public storage::WriteInterceptor {
 public:
  explicit SecondaryGuard(Pair* pair) : pair_(pair) {}

  Status PreCheck(storage::Volume* volume, block::Lba, uint32_t) override {
    return FailedPreconditionError(
        "volume " + volume->name() +
        " is an S-VOL of pair " + pair_->config().name +
        " (state " + PairStateName(pair_->state()) + "); host writes are "
        "disabled until failover");
  }

  void OnHostWrite(storage::Volume*, block::Lba, uint32_t, std::string_view,
                   AckFn ack) override {
    // PreCheck always rejects, so this is unreachable; ack defensively.
    ack(InternalError("SecondaryGuard::OnHostWrite reached"));
  }

 private:
  Pair* pair_;
};

// Interceptor installed on a promoted S-VOL after failover: the business
// writes freely, but every touched block is recorded so a later failback
// ships only the delta back to the main site.
class ReverseDirtyTracker : public storage::WriteInterceptor {
 public:
  explicit ReverseDirtyTracker(Pair* pair) : pair_(pair) {}

  void OnHostWrite(storage::Volume*, block::Lba lba, uint32_t count,
                   std::string_view, AckFn ack) override {
    pair_->reverse_dirty_.SetRange(lba, count);
    ack(OkStatus());
  }

 private:
  Pair* pair_;
};

}  // namespace internal

ReplicationEngine::ReplicationEngine(sim::SimEnvironment* env,
                                     storage::StorageArray* primary,
                                     storage::StorageArray* secondary,
                                     sim::NetworkLink* to_secondary,
                                     sim::NetworkLink* to_primary,
                                     EngineOptions options)
    : env_(env),
      primary_(primary),
      secondary_(secondary),
      to_secondary_(to_secondary),
      to_primary_(to_primary),
      scheduler_(
          env_, to_secondary_, kSchedulerHeartbeat,
          [this](GroupSchedulerId id, uint64_t max_bytes) {
            if (id >= kScrubSchedBase) {
              return scrubber_ != nullptr ? scrubber_->PumpStep(max_bytes)
                                          : PumpOutcome{};
            }
            Group* group = FindGroup(static_cast<GroupId>(id));
            if (group == nullptr) return PumpOutcome{};
            return PumpGroup(group, max_bytes);
          },
          [this] { return HeartbeatScan(); }) {
  // compute_threads: 0 = auto (one lane per hardware thread), 1 = inline.
  // A 1-lane pool would behave identically but still construct machinery,
  // so inline mode simply has no pool and every call site passes nullptr.
  const unsigned lanes = options.compute_threads == 0
                             ? exec::ThreadPool::HardwareLanes()
                             : options.compute_threads;
  if (lanes > 1) {
    compute_pool_ = std::make_unique<exec::ThreadPool>(lanes);
  }
  // Link reconnects are recovery edges: the forward one resyncs suspended
  // groups and re-arms groups with backlog without waiting for a timer,
  // the reverse one re-sends lost givebacks.
  to_secondary_->SetReadyCallback(
      [this] { env_->Schedule(0, [this] { OnForwardLinkUp(); }); });
  to_primary_->SetReadyCallback(
      [this] { env_->Schedule(0, [this] { OnReverseLinkUp(); }); });
}

ReplicationEngine::~ReplicationEngine() {
  to_secondary_->SetReadyCallback({});
  to_primary_->SetReadyCallback({});
  for (auto& [id, group] : groups_) {
    CancelResyncRetry(group.get());
    // The arrays (and their journals) may outlive the engine; detach the
    // arm hooks pointed at us.
    auto* pj = primary_->GetJournal(group->primary_journal);
    if (pj != nullptr) pj->SetAppendCallback({});
  }
  // Unregister interceptors so arrays outliving the engine behave.
  for (auto& [vid, ic] : primary_interceptors_) {
    primary_->UnregisterInterceptor(vid);
  }
  for (auto& [vid, ic] : secondary_guards_) {
    secondary_->UnregisterInterceptor(vid);
  }
}

StatusOr<GroupId> ReplicationEngine::CreateConsistencyGroup(
    ConsistencyGroupConfig config) {
  ZB_RETURN_IF_ERROR(config.Validate());
  ZB_ASSIGN_OR_RETURN(storage::JournalId pj,
                      primary_->CreateJournal(config.journal_capacity_bytes));
  auto sj_or = secondary_->CreateJournal(config.journal_capacity_bytes);
  if (!sj_or.ok()) {
    (void)primary_->DeleteJournal(pj);
    return sj_or.status();
  }
  const GroupId id = next_group_id_++;
  auto group = std::make_unique<Group>();
  group->id = id;
  group->config = std::move(config);
  group->primary_journal = pj;
  group->secondary_journal = *sj_or;
  group->batch_bytes_now = group->config.transfer_batch_bytes;
  Group* raw = group.get();
  // The group idles until a journal append (the hook below), an
  // apply-ack, a link reconnect or a resync completion arms it.
  scheduler_.Register(id, raw->config.transfer_interval, raw->batch_bytes_now);
  auto* pjv = primary_->GetJournal(pj);
  ZB_CHECK(pjv != nullptr);
  pjv->SetAppendCallback(
      [this, id](journal::SequenceNumber) { OnPrimaryJournalAppend(id); });
  groups_.emplace(id, std::move(group));
  if (registry_ != nullptr) InstrumentGroupJournals(raw);
  return id;
}

Status ReplicationEngine::DeleteConsistencyGroup(GroupId id) {
  Group* group = FindGroup(id);
  if (group == nullptr) return NotFoundError("group " + std::to_string(id));
  if (!group->pairs.empty()) {
    return FailedPreconditionError("group still has pairs");
  }
  scheduler_.Unregister(id);
  auto* pjv = primary_->GetJournal(group->primary_journal);
  if (pjv != nullptr) pjv->SetAppendCallback({});
  CancelResyncRetry(group);
  (void)primary_->DeleteJournal(group->primary_journal);
  (void)secondary_->DeleteJournal(group->secondary_journal);
  // Forget the group's ordered stream on both links, or the per-channel
  // FIFO state lives forever.
  to_secondary_->ReleaseChannel(id);
  to_primary_->ReleaseChannel(id);
  groups_.erase(id);
  return OkStatus();
}

std::vector<GroupId> ReplicationEngine::ListGroups() const {
  std::vector<GroupId> out;
  for (const auto& [id, g] : groups_) out.push_back(id);
  return out;
}

StatusOr<GroupStats> ReplicationEngine::GetGroupStats(GroupId id) const {
  const Group* group = FindGroup(id);
  if (group == nullptr) return NotFoundError("group " + std::to_string(id));
  GroupStats stats;
  // The engine keeps handles to the journal objects through the arrays.
  auto* pj = const_cast<storage::StorageArray*>(primary_)->GetJournal(
      group->primary_journal);
  auto* sj = const_cast<storage::StorageArray*>(secondary_)->GetJournal(
      group->secondary_journal);
  if (pj != nullptr) {
    stats.written = pj->written();
    stats.shipped = pj->shipped();
    stats.acked = pj->acked();
    stats.journal_used_bytes = pj->used_bytes();
    stats.journal_capacity_bytes = pj->capacity_bytes();
    stats.journal_overflows = pj->overflows();
  }
  if (sj != nullptr) stats.applied = sj->applied();
  stats.suspended = group->suspended;
  stats.suspend_reason = group->suspend_reason;
  stats.ack_timeouts = group->ack_timeouts;
  stats.resync_timeouts = group->resync_timeouts;
  stats.auto_resync_attempts = group->auto_resync_attempts;
  stats.apply_lag = ComputeGroupRpo(group);
  stats.records_folded = group->records_folded;
  stats.folded_bytes_saved = group->folded_bytes_saved;
  stats.resync_extents = group->resync_extents;
  stats.resync_blocks = group->resync_blocks;
  stats.transfer_batch_bytes_now = group->batch_bytes_now;
  stats.wire_bytes_shipped = group->wire_bytes_shipped;
  stats.logical_bytes_shipped = group->logical_bytes_shipped;
  stats.compression_ratio =
      group->wire_bytes_shipped == 0
          ? 1.0
          : static_cast<double>(group->logical_bytes_shipped) /
                static_cast<double>(group->wire_bytes_shipped);
  stats.checksum_rejects = group->checksum_rejects;
  stats.compression_ratio_window =
      group->window_wire_bytes == 0
          ? 1.0
          : static_cast<double>(group->window_logical_bytes) /
                static_cast<double>(group->window_wire_bytes);
  stats.compression_window_batches = group->recent_batches.size();
  const SimTime now = env_->now();
  if (group->resync.active) {
    stats.recovery_wait = RecoveryWait::kResyncInFlight;
    stats.recovery_age = now - group->resync.sent_at;
    if (group->resync.deadline >= 0) {
      stats.recovery_due_in = group->resync.deadline - now;
    }
  } else if (group->link_wait_since >= 0) {
    stats.recovery_wait = RecoveryWait::kLink;
    stats.recovery_age = now - group->link_wait_since;
  } else if (group->resync_retry_pending) {
    stats.recovery_wait = RecoveryWait::kBackoff;
    stats.recovery_due_in = group->resync_retry_at - now;
  }
  if (group->giveback.active) {
    stats.giveback_in_flight = true;
    stats.giveback_age = now - group->giveback_since;
  }
  return stats;
}

SimDuration ReplicationEngine::ComputeGroupRpo(const Group* group) const {
  // Two sources of unsynchronized data, take the older:
  //  - the primary journal's backlog (its front record is the oldest
  //    write the backup site has not acknowledged), and
  //  - dirty-bitmap backlog from suspensions/divergence, whose oldest
  //    host-ack instant is tracked in oldest_unsynced_time.
  // Neither present -> everything the host ever wrote is acknowledged by
  // the backup site and the RPO is exactly zero.
  SimTime oldest = group->oldest_unsynced_time;
  auto* pj = primary_->GetJournal(group->primary_journal);
  if (pj != nullptr && pj->acked() < pj->written()) {
    const SimTime front = pj->oldest_live_ack_time();
    if (front >= 0 && (oldest < 0 || front < oldest)) oldest = front;
  }
  if (oldest < 0) return 0;
  return env_->now() - oldest;
}

StatusOr<SimDuration> ReplicationEngine::GroupRpo(GroupId id) const {
  const Group* group = FindGroup(id);
  if (group == nullptr) return NotFoundError("group " + std::to_string(id));
  return ComputeGroupRpo(group);
}

Status ReplicationEngine::SetGroupCompression(GroupId id, bool compress) {
  Group* group = FindGroup(id);
  if (group == nullptr) return NotFoundError("group " + std::to_string(id));
  group->config.compress_transfers = compress;
  return OkStatus();
}

void ReplicationEngine::AttachObservability(obs::MetricRegistry* registry,
                                            obs::TraceRing* trace) {
  registry_ = registry;
  trace_ = trace;
  if (scrubber_ != nullptr) scrubber_->AttachObservability(registry, trace);
  if (registry == nullptr) {
    ins_ = EngineInstruments{};
    scheduler_.AttachObservability(GroupScheduler::Instruments{}, trace);
    return;
  }
  ins_.batches_shipped = registry->GetCounter("replication.batches_shipped");
  ins_.records_shipped = registry->GetCounter("replication.records_shipped");
  ins_.wire_bytes_shipped =
      registry->GetCounter("replication.wire_bytes_shipped");
  ins_.logical_bytes_shipped =
      registry->GetCounter("replication.logical_bytes_shipped");
  ins_.batches_acked = registry->GetCounter("replication.batches_acked");
  ins_.batches_nacked = registry->GetCounter("replication.batches_nacked");
  ins_.apply_batches = registry->GetCounter("replication.apply_batches");
  ins_.records_applied = registry->GetCounter("replication.records_applied");
  ins_.suspends = registry->GetCounter("replication.suspends");
  ins_.resyncs = registry->GetCounter("replication.resyncs");
  ins_.failovers = registry->GetCounter("replication.failovers");
  ins_.failbacks = registry->GetCounter("replication.failbacks");
  ins_.batch_wire_bytes =
      registry->GetHistogram("replication.batch_wire_bytes");
  ins_.batch_records = registry->GetHistogram("replication.batch_records");
  if (compute_pool_ != nullptr) {
    ins_.exec_sections = registry->GetCounter("exec.sections");
    ins_.exec_inline_sections = registry->GetCounter("exec.inline_sections");
    ins_.exec_tasks = registry->GetCounter("exec.tasks");
    ins_.exec_steals = registry->GetCounter("exec.steals");
    ins_.exec_queue_depth_max = registry->GetGauge("exec.max_queue_depth");
    // Baseline the delta source so a re-attach does not double-count
    // sections that ran while detached.
    exec_synced_ = compute_pool_->stats();
  }
  GroupScheduler::Instruments sins;
  sins.arms = registry->GetCounter("sched.arms");
  sins.wakeups = registry->GetCounter("sched.wakeups");
  sins.dispatches = registry->GetCounter("sched.dispatches");
  sins.heartbeats = registry->GetCounter("sched.heartbeats");
  sins.starved_turns = registry->GetCounter("sched.starved_turns");
  sins.armed_groups = registry->GetGauge("sched.armed_groups");
  scheduler_.AttachObservability(sins, trace);
  for (auto& [id, group] : groups_) InstrumentGroupJournals(group.get());
}

Status ReplicationEngine::EnableScrubbing(const ScrubConfig& config) {
  if (scrubber_ != nullptr) {
    return FailedPreconditionError("scrubbing already enabled");
  }
  scrubber_ = std::make_unique<Scrubber>(this, config);
  scrubber_->AttachObservability(registry_, trace_);
  scrubber_->Start();
  return OkStatus();
}

void ReplicationEngine::SyncExecStats() {
  if (compute_pool_ == nullptr || ins_.exec_sections == nullptr) return;
  const exec::ThreadPool::Stats now = compute_pool_->stats();
  ins_.exec_sections->Increment(now.sections - exec_synced_.sections);
  ins_.exec_inline_sections->Increment(now.inline_sections -
                                       exec_synced_.inline_sections);
  ins_.exec_tasks->Increment(now.tasks - exec_synced_.tasks);
  ins_.exec_steals->Increment(now.steals - exec_synced_.steals);
  ins_.exec_queue_depth_max->Set(
      static_cast<int64_t>(now.max_queue_depth));
  exec_synced_ = now;
}

void ReplicationEngine::InstrumentGroupJournals(Group* group) {
  if (registry_ == nullptr) return;
  const std::string prefix = "journal.g" + std::to_string(group->id);
  auto wire = [&](journal::JournalVolume* jnl, const std::string& side) {
    if (jnl == nullptr) return;
    journal::JournalVolume::Instruments ins;
    ins.appends = registry_->GetCounter(prefix + "." + side + ".appends");
    ins.overflows = registry_->GetCounter(prefix + "." + side + ".overflows");
    ins.folded_records =
        registry_->GetCounter(prefix + "." + side + ".folded_records");
    ins.used_bytes = registry_->GetGauge(prefix + "." + side + ".used_bytes");
    jnl->AttachMetrics(ins);
  };
  wire(primary_->GetJournal(group->primary_journal), "main");
  wire(secondary_->GetJournal(group->secondary_journal), "backup");
}

StatusOr<std::string> ReplicationEngine::GetGroupName(GroupId id) const {
  const Group* group = FindGroup(id);
  if (group == nullptr) return NotFoundError("group " + std::to_string(id));
  return group->config.name;
}

StatusOr<PairId> ReplicationEngine::CreatePair(const PairConfig& config) {
  const bool synchronous = config.mode == ReplicationMode::kSynchronous;
  Group* group = nullptr;
  if (synchronous) {
    if (config.group != 0) {
      return InvalidArgumentError(
          "synchronous pairs are standalone; config.group must be 0");
    }
  } else {
    if (config.group == 0) {
      return InvalidArgumentError(
          "asynchronous pairs require a consistency group (config.group)");
    }
    group = FindGroup(config.group);
    if (group == nullptr) {
      return NotFoundError("group " + std::to_string(config.group));
    }
    if (group->failed_over) {
      return FailedPreconditionError("group has been failed over");
    }
  }
  ZB_ASSIGN_OR_RETURN(storage::Volume * pvol,
                      primary_->FindVolume(config.primary));
  ZB_ASSIGN_OR_RETURN(storage::Volume * svol,
                      secondary_->FindVolume(config.secondary));
  if (pvol->block_size() != svol->block_size() ||
      pvol->block_count() != svol->block_count()) {
    return InvalidArgumentError("pair volume geometry mismatch");
  }
  if (primary_->HasInterceptor(config.primary)) {
    return AlreadyExistsError("P-VOL already replicated");
  }
  if (secondary_->HasInterceptor(config.secondary)) {
    return AlreadyExistsError("S-VOL already in use");
  }

  const PairId id = next_pair_id_++;
  auto pair = std::make_unique<Pair>();
  pair->id_ = id;
  pair->config_ = config;
  pair->group_ = synchronous ? 0 : config.group;
  pair->state_ = PairState::kCopy;
  pair->dirty_.Reset(pvol->block_count());
  pair->reverse_dirty_.Reset(pvol->block_count());
  for (uint64_t lba = 0; lba < pvol->block_count(); ++lba) {
    if (pvol->store().IsAllocated(lba)) pair->dirty_.Set(lba);
  }
  Pair* raw = pair.get();

  std::unique_ptr<storage::WriteInterceptor> interceptor;
  if (synchronous) {
    interceptor = std::make_unique<internal::SyncInterceptor>(this, raw);
  } else {
    interceptor = std::make_unique<internal::AdcInterceptor>(this, raw);
  }
  ZB_RETURN_IF_ERROR(
      primary_->RegisterInterceptor(config.primary, interceptor.get()));
  auto guard = std::make_unique<internal::SecondaryGuard>(raw);
  Status gs = secondary_->RegisterInterceptor(config.secondary, guard.get());
  if (!gs.ok()) {
    primary_->UnregisterInterceptor(config.primary);
    return gs;
  }
  primary_interceptors_.emplace(config.primary, std::move(interceptor));
  secondary_guards_.emplace(config.secondary, std::move(guard));

  if (group != nullptr) {
    group->pairs.push_back(id);
    group->by_primary.emplace(config.primary, id);
  }
  pairs_.emplace(id, std::move(pair));

  StartInitialCopy(raw, group);
  return id;
}

Status ReplicationEngine::DeletePair(PairId id) {
  Pair* pair = FindPair(id);
  if (pair == nullptr) return NotFoundError("pair " + std::to_string(id));
  primary_->UnregisterInterceptor(pair->config_.primary);
  secondary_->UnregisterInterceptor(pair->config_.secondary);
  primary_interceptors_.erase(pair->config_.primary);
  secondary_guards_.erase(pair->config_.secondary);
  if (pair->group_ == 0) {
    // A sync pair owns its per-pair channel on both links; drop the FIFO
    // state or every pair ever created leaks an entry.
    to_secondary_->ReleaseChannel(SyncChannel(id));
    to_primary_->ReleaseChannel(SyncChannel(id));
  }
  if (pair->group_ != 0) {
    Group* group = FindGroup(pair->group_);
    if (group != nullptr) {
      std::erase(group->pairs, id);
      group->by_primary.erase(pair->config_.primary);
    }
  }
  pairs_.erase(id);
  return OkStatus();
}

const Pair* ReplicationEngine::GetPair(PairId id) const {
  auto it = pairs_.find(id);
  return it == pairs_.end() ? nullptr : it->second.get();
}

PairId ReplicationEngine::FindPairByPrimary(
    storage::VolumeId primary) const {
  for (const auto& [id, pair] : pairs_) {
    if (pair->config_.primary == primary) return id;
  }
  return 0;
}

std::vector<PairId> ReplicationEngine::ListPairs() const {
  std::vector<PairId> out;
  for (const auto& [id, p] : pairs_) out.push_back(id);
  return out;
}

std::vector<PairId> ReplicationEngine::ListGroupPairs(GroupId id) const {
  const Group* group = FindGroup(id);
  return group == nullptr ? std::vector<PairId>{} : group->pairs;
}

void ReplicationEngine::OnAsyncHostWrite(
    Pair* pair, storage::Volume* volume, uint64_t lba, uint32_t count,
    std::string_view data, storage::WriteInterceptor::AckFn ack) {
  Group* group = FindGroup(pair->group_);
  ZB_CHECK(group != nullptr) << "async pair without group";
  if (group->failed_over) {
    // The group was taken over by the backup site; stop copying but keep
    // serving the host (main-site survivors see no error). Track the
    // divergence so failback can detect a split brain.
    pair->dirty_.SetRange(lba, count);
    NoteUnsynced(group, env_->now());
    ack(OkStatus());
    return;
  }
  if (group->giveback.active) {
    // The main site rewrote blocks the giveback still owes it: this write
    // is newer and must win, so the giveback no longer ships them.
    pair->reverse_dirty_.ClearRange(lba, count);
  }
  if (group->suspended) {
    pair->dirty_.SetRange(lba, count);
    NoteUnsynced(group, env_->now());
    ack(OkStatus());
    return;
  }
  journal::JournalRecord record;
  record.volume_id = volume->id();
  record.lba = lba;
  record.block_count = count;
  // The single payload allocation of the ADC path: every downstream stage
  // (ship batch, secondary journal, apply) shares this buffer.
  record.payload = CapturePayload(*volume, lba, count, data);
  record.ack_time = env_->now();
  auto* jnl = primary_->GetJournal(group->primary_journal);
  ZB_CHECK(jnl != nullptr);
  auto seq_or = jnl->Append(std::move(record));
  if (!seq_or.ok()) {
    // The two ADC journal failure modes: a full journal (classic
    // overflow) or a journal-LDEV media error (kDataLoss). Either way the
    // whole group suspends (it shares the journal) and the host keeps
    // getting acks; the reason steers observability and, for media
    // errors, tells operators the resync retries are waiting on hardware.
    const bool media =
        seq_or.status().code() == StatusCode::kDataLoss;
    ZB_LOG(Warning) << "group " << group->id
                    << (media ? " journal media error; suspending: "
                              : " journal overflow; suspending: ")
                    << seq_or.status();
    if (trace_ != nullptr && !media) {
      trace_->Record(env_->now(), obs::TraceEvent::kJournalOverflow,
                     group->id, jnl->used_bytes());
    }
    SuspendOnFailure(group, media ? SuspendReason::kMediaError
                                  : SuspendReason::kJournalOverflow);
    pair->dirty_.SetRange(lba, count);
    NoteUnsynced(group, env_->now());
  }
  // The ADC ack does not wait for anything remote: this is the paper's
  // "no system slowdown" property.
  ack(OkStatus());
}

void ReplicationEngine::OnSyncHostWrite(
    Pair* pair, storage::Volume* volume, uint64_t lba, uint32_t count,
    std::string_view data, storage::WriteInterceptor::AckFn ack) {
  if (pair->state_ == PairState::kSwapped) {
    ack(OkStatus());
    return;
  }
  if (pair->state_ == PairState::kSuspended) {
    pair->dirty_.SetRange(lba, count);
    ack(OkStatus());
    return;
  }
  const uint64_t bytes =
      journal::JournalRecord::kHeaderSize +
      static_cast<uint64_t>(count) * volume->block_size();
  // One payload allocation; the nested send/persist lambdas share it by
  // refcount instead of re-copying the bytes at each hop.
  journal::PayloadBuffer payload = CapturePayload(*volume, lba, count, data);
  const PairId pair_id = pair->id_;
  // The host ack fires once: from the remote ack, or locally when the pair
  // gives up on the remote site (fence level "never": suspend, dirty-mark
  // the blocks for the next resync, keep serving the host).
  auto op = std::make_shared<SyncWrite>();
  op->ack = std::move(ack);
  auto write_locally = [this, pair_id, lba, count, op] {
    if (op->done) return;
    Pair* p = FindPair(pair_id);
    if (p != nullptr && p->state_ != PairState::kSwapped) {
      SuspendPair(p);
      p->dirty_.SetRange(lba, count);
    }
    CompleteSyncWrite(op.get());
  };
  Status sent = to_secondary_->SendOnChannel(
      SyncChannel(pair_id), bytes,
      [this, pair_id, lba, count, payload = std::move(payload), op,
       write_locally] {
        if (op->done) return;  // The deadline already acked it locally.
        Pair* p = FindPair(pair_id);
        if (p == nullptr || p->state_ == PairState::kSwapped) {
          CompleteSyncWrite(op.get());
          return;
        }
        // The write lands at arrival, in channel order with the pair's bulk
        // frames (a resync frame sent after it lands after it); the backup
        // array's media write cost delays only the remote ack. A write
        // that cannot land is never acked as replicated: the deadline
        // acks it locally, suspends the pair and dirty-marks the blocks.
        storage::Volume* svol = secondary_->GetVolume(p->config_.secondary);
        if (svol == nullptr || secondary_->failed()) return;
        const block::BlockRun run{lba, count, payload.view(), payload.crcs()};
        Status ws = svol->WriteRun(&run, 1);
        if (!ws.ok()) {
          ZB_LOG(Warning) << "sync apply failed: " << ws;
          return;
        }
        const SimDuration cost = secondary_->config().media.Cost(
            block::IoType::kWrite, count, nullptr);
        env_->Schedule(cost, [this, pair_id, op, write_locally] {
          if (op->done) return;
          Pair* p2 = FindPair(pair_id);
          if (p2 == nullptr || p2->state_ == PairState::kSwapped) {
            CompleteSyncWrite(op.get());
            return;
          }
          // Remote ack travels back over the reverse link.
          Status back = to_primary_->SendOnChannel(
              SyncChannel(pair_id), kAckMessageBytes,
              [this, op] { CompleteSyncWrite(op.get()); });
          if (!back.ok()) write_locally();
        });
      });
  if (!sent.ok()) {
    write_locally();
    return;
  }
  // The write or its ack can die in a partition: past the latest possible
  // arrival plus one reverse trip and the grace, stop waiting.
  const sim::NetworkLinkConfig& rev = to_primary_->config();
  op->deadline = env_->ScheduleAt(
      to_secondary_->EstimateArrival(0, SyncChannel(pair_id)) +
          rev.base_latency + rev.jitter + kSyncAckTimeout,
      [pair_id, write_locally] {
        ZB_LOG(Warning) << "sync pair " << pair_id
                        << " missed its remote ack; suspending";
        write_locally();
      });
}

void ReplicationEngine::CompleteSyncWrite(SyncWrite* op) {
  if (op->done) return;
  op->done = true;
  env_->Cancel(op->deadline);
  op->ack(OkStatus());
}

PumpOutcome ReplicationEngine::PumpGroup(Group* group, uint64_t max_bytes) {
  PumpOutcome out;
  if (group->suspended || group->failed_over) return out;
  if (primary_->failed()) return out;
  auto* jnl = primary_->GetJournal(group->primary_journal);
  if (jnl == nullptr) return out;
  if (group->config.enable_adaptive_batching) AdaptBatchSize(group, jnl);
  // The scheduler's DRR quantum tracks the (possibly just adapted) batch
  // size, so a group's fair share follows its own pacing decisions.
  out.quantum = group->batch_bytes_now;
  // An adaptive group keeps its interval tick while shipped data awaits
  // its ack: that is the only window where link backlog is observable, so
  // going fully idle would freeze the controller at its last size.
  auto adaptive_keep_alive = [&] {
    return group->config.enable_adaptive_batching &&
           jnl->acked() < jnl->written();
  };
  // A dead link would refuse the send: skip the peek and the encode, and
  // report what a failed send reports (see the end of this function).
  if (!to_secondary_->connected()) return out;
  const uint64_t cap = std::min(group->batch_bytes_now, max_bytes);
  std::vector<const journal::JournalRecord*> views;
  if (jnl->PeekViews(jnl->shipped(), cap, &views) == 0) {
    out.keep_alive = adaptive_keep_alive();
    return out;
  }
  const journal::SequenceNumber last = views.back()->sequence;

  // Write-folding: a record whose every block is overwritten by later
  // records of this same batch ships as a header-only tombstone (the
  // sequence stays, the payload does not). Safe because the batch applies
  // atomically — every record carries atomic_through == last, so no
  // recovery point can cut between a tombstone and its newer cover.
  std::vector<bool> fold(views.size(), false);
  size_t fold_count = 0;
  if (group->config.enable_write_folding && views.size() > 1) {
    // Newest -> oldest; a block is "covered" once any newer record of the
    // same volume wrote it.
    std::unordered_map<uint64_t, std::unordered_set<uint64_t>> covered;
    for (size_t i = views.size(); i-- > 0;) {
      const journal::JournalRecord* rec = views[i];
      auto& vol_cov = covered[rec->volume_id];
      if (i + 1 < views.size() && !rec->payload.empty()) {
        bool all = true;
        for (uint32_t b = 0; b < rec->block_count; ++b) {
          if (!vol_cov.contains(rec->lba + b)) {
            all = false;
            break;
          }
        }
        if (all) {
          fold[i] = true;
          ++fold_count;
        }
      }
      for (uint32_t b = 0; b < rec->block_count; ++b) {
        vol_cov.insert(rec->lba + b);
      }
    }
  }

  // Build the batch to serialize: record headers are copied, payload bytes
  // are shared views (a tombstone carries no payload at all). The encoder
  // then folds everything into one self-contained wire frame, so the
  // in-flight data no longer pins the primary journal's buffers.
  std::vector<journal::JournalRecord> batch;
  batch.reserve(views.size());
  std::vector<std::pair<journal::SequenceNumber, uint64_t>> folds;
  folds.reserve(fold_count);
  for (size_t i = 0; i < views.size(); ++i) {
    journal::JournalRecord rec = *views[i];
    rec.atomic_through = last;
    if (fold[i]) {
      folds.emplace_back(rec.sequence, rec.payload.size());
      rec.payload = journal::PayloadBuffer();
      rec.folded = true;
    }
    batch.push_back(std::move(rec));
  }
  wire::EncodedBatch enc =
      wire::EncodeBatch(batch, group->config.compress_transfers);
  const uint64_t wire_bytes = enc.frame.size();
  const GroupId group_id = group->id;
  // The link serializes the (smaller) wire frame but accounts the logical
  // bytes too, so E10-style comparisons keep a pre-compression baseline.
  Status sent = to_secondary_->SendOnChannel(
      group_id, wire_bytes, enc.logical_bytes,
      [this, group_id, frame = std::move(enc.frame)]() mutable {
        Group* g = FindGroup(group_id);
        if (g == nullptr || g->failed_over) return;
        auto* sj = secondary_->GetJournal(g->secondary_journal);
        if (sj == nullptr || secondary_->failed()) return;
        auto decoded = ReceiveFrame(&frame);
        if (!decoded.ok()) {
          // Integrity gate: a corrupt batch never touches the journal.
          // Treat it exactly like a dropped message — nack so the primary
          // suspends and reships via the resync machinery (the armed ack
          // deadline is the fallback if the nack itself is lost).
          NoteRejectedFrame(g, "wire frame", decoded.status());
          if (ins_.batches_nacked != nullptr) {
            ins_.batches_nacked->Increment();
          }
          if (trace_ != nullptr) {
            trace_->Record(env_->now(), obs::TraceEvent::kBatchNacked,
                           group_id, g->checksum_rejects);
          }
          SendWireNack(g);
          return;
        }
        for (auto& rec : *decoded) {
          Status as = sj->AppendWithSequence(std::move(rec));
          if (!as.ok()) {
            ZB_LOG(Warning) << "backup journal append failed: " << as;
            return;
          }
        }
        ApplyPending(g);
      });
  if (sent.ok()) {
    // Fold only after the send succeeded: a failed send re-peeks later
    // with possibly different batch boundaries, and a tombstone whose
    // cover is not in the same atomic batch would break the write-order
    // prefix. After success the payloads can never be needed again
    // (shipping never re-reads below the shipped watermark; a suspension
    // dirty-marks from headers alone).
    for (const auto& [seq, payload_bytes] : folds) {
      ++group->records_folded;
      group->folded_bytes_saved += payload_bytes;
      (void)jnl->FoldPayload(seq);
    }
    jnl->MarkShipped(last);
    records_shipped_ += views.size();
    group->wire_bytes_shipped += wire_bytes;
    group->logical_bytes_shipped += enc.logical_bytes;
    // Windowed compression accounting: keep the last
    // kCompressionWindowBatches batches so operators see the ratio the
    // *current* workload achieves, not a lifetime average diluted by
    // history.
    group->recent_batches.emplace_back(wire_bytes, enc.logical_bytes);
    group->window_wire_bytes += wire_bytes;
    group->window_logical_bytes += enc.logical_bytes;
    while (group->recent_batches.size() > kCompressionWindowBatches) {
      group->window_wire_bytes -= group->recent_batches.front().first;
      group->window_logical_bytes -= group->recent_batches.front().second;
      group->recent_batches.pop_front();
    }
    // The instruments are attached (or left null) as one block, so a
    // single null check covers the whole update.
    if (ins_.batches_shipped != nullptr) {
      ins_.batches_shipped->Increment();
      ins_.records_shipped->Increment(views.size());
      ins_.wire_bytes_shipped->Increment(wire_bytes);
      ins_.logical_bytes_shipped->Increment(enc.logical_bytes);
      ins_.batch_wire_bytes->Add(wire_bytes);
      ins_.batch_records->Add(views.size());
    }
    if (trace_ != nullptr) {
      trace_->Record(env_->now(), obs::TraceEvent::kBatchShipped, group->id,
                     last, wire_bytes);
    }
    // "Shipped" only means handed to the link; the batch (or its ack) can
    // still be lost to a partition. Arm a deadline so a silent loss
    // surfaces as a suspension instead of a stalled watermark.
    ArmAckDeadline(group, last);
    out.sent = true;
    out.wire_bytes = wire_bytes;
    out.backlog = jnl->shipped() < jnl->written();
    out.keep_alive = adaptive_keep_alive();
  }
  // With the link down (caught by the up-front check; a refused send ends
  // the same way) the records stay unshipped and the outcome reports
  // neither progress nor keep-alive, so the scheduler disarms the group
  // instead of hot-retrying a dead link; the heartbeat or the link-ready
  // edge re-arms it. The journal absorbs the backlog until it overflows
  // and the group suspends.
  return out;
}

void ReplicationEngine::OnPrimaryJournalAppend(GroupId id) {
  Group* group = FindGroup(id);
  if (group == nullptr || group->suspended || group->failed_over) return;
  scheduler_.Arm(id);
}

void ReplicationEngine::OnForwardLinkUp() {
  if (!to_secondary_->connected()) return;  // Flapped down again.
  for (const auto& [id, group] : groups_) {
    // Every failure suspension resyncs now: one parked for the link, and
    // one waiting out a backoff it no longer needs. A media error still
    // waits for the hardware (TryAutoResync keeps it on its backoff).
    if (group->suspended && !group->failed_over &&
        group->suspend_reason != SuspendReason::kOperator) {
      TryAutoResync(group.get());
    }
    ArmIfPending(id);
  }
}

void ReplicationEngine::OnReverseLinkUp() {
  if (!to_primary_->connected()) return;
  for (const auto& [id, group] : groups_) {
    if (group->giveback.active) SendGiveback(group.get());
  }
}

void ReplicationEngine::ArmIfPending(GroupId id) {
  Group* group = FindGroup(id);
  if (group == nullptr || group->suspended || group->failed_over) return;
  auto* jnl = primary_->GetJournal(group->primary_journal);
  if (jnl == nullptr) return;
  if (jnl->shipped() < jnl->written() ||
      (group->config.enable_adaptive_batching &&
       jnl->acked() < jnl->written())) {
    scheduler_.Arm(id);
  }
}

uint64_t ReplicationEngine::HeartbeatScan() {
  // Rescue scan: a group can lose its arm edge without losing its backlog
  // (the pump failed while the link was down and the reconnect callback
  // is not attached, or the arming append happened mid-failure). One slow
  // walk re-arms them; steady state never depends on it.
  uint64_t rescued = 0;
  for (const auto& [id, group] : groups_) {
    if (group->suspended || group->failed_over) continue;
    if (scheduler_.armed(id)) continue;
    auto* jnl = primary_->GetJournal(group->primary_journal);
    if (jnl == nullptr) continue;
    if (jnl->shipped() < jnl->written()) {
      scheduler_.Arm(id);
      ++rescued;
    }
  }
  return rescued;
}

void ReplicationEngine::AdaptBatchSize(Group* group,
                                       journal::JournalVolume* jnl) {
  const ConsistencyGroupConfig& cfg = group->config;
  // Link backlog: how long past one unloaded trip the next message on the
  // group's channel would take to arrive. Growth means the link cannot
  // absorb the current rate — halve the batch so serialization bursts
  // shrink and the ack deadline stays honest. Journal pressure: a journal
  // filling past a quarter means ingest outruns the drain — double the
  // batch to raise wire efficiency (fewer header/latency round-trips per
  // byte, and bigger batches fold better).
  const SimDuration backlog =
      to_secondary_->EstimateArrival(0, group->id) - env_->now() -
      to_secondary_->config().base_latency - to_secondary_->config().jitter;
  uint64_t next = group->batch_bytes_now;
  if (backlog > 4 * cfg.transfer_interval) {
    next /= 2;
  } else if (jnl->used_bytes() * 4 > jnl->capacity_bytes()) {
    next *= 2;
  }
  group->batch_bytes_now = std::clamp(next, cfg.transfer_batch_min_bytes,
                                      cfg.transfer_batch_max_bytes);
}

void ReplicationEngine::ArmAckDeadline(Group* group,
                                       journal::SequenceNumber expect) {
  if (group->config.ack_timeout == 0) return;
  // The batch just sent is the newest message on the group's channel, so
  // EstimateArrival bounds its arrival; the ack must be back within
  // ack_timeout of that (covering the apply and the reverse trip).
  const SimTime deadline =
      to_secondary_->EstimateArrival(0, group->id) + group->config.ack_timeout;
  const GroupId group_id = group->id;
  const uint64_t epoch = group->ship_epoch;
  env_->ScheduleAt(deadline, [this, group_id, expect, epoch] {
    Group* g = FindGroup(group_id);
    if (g == nullptr || g->failed_over || g->suspended) return;
    if (g->ship_epoch != epoch) return;  // Journal sequence space restarted.
    auto* pj = primary_->GetJournal(g->primary_journal);
    if (pj == nullptr || pj->acked() >= expect) return;
    ++g->ack_timeouts;
    ZB_LOG(Warning) << "group " << group_id << " missed ack for seq "
                    << expect << " (acked " << pj->acked()
                    << "); suspending";
    SuspendOnFailure(g, SuspendReason::kAckTimeout);
  });
}

internal::CopyInFlight* ReplicationEngine::FindCopy(const CopyRef& ref) {
  if (ref.pair != 0) {
    Pair* pair = FindPair(ref.pair);
    return pair == nullptr ? nullptr : &pair->copy_;
  }
  Group* group = FindGroup(ref.group);
  if (group == nullptr) return nullptr;
  return ref.giveback ? &group->giveback : &group->resync;
}

void ReplicationEngine::ArmCopyDeadline(const CopyRef& ref) {
  internal::CopyInFlight* copy = FindCopy(ref);
  const Group* group = FindGroup(ref.group);
  copy->active = true;
  copy->sent_at = env_->now();
  copy->deadline = -1;
  const SimDuration grace =
      group == nullptr ? kSyncAckTimeout : group->config.ack_timeout;
  if (grace == 0) return;
  // The copy is the newest message on its channel, so EstimateArrival
  // bounds its arrival.
  const sim::NetworkLink* link = ref.giveback ? to_primary_ : to_secondary_;
  copy->deadline =
      link->EstimateArrival(
          0, group == nullptr ? SyncChannel(ref.pair) : ref.group) +
      grace;
  const uint64_t epoch = copy->epoch;
  env_->ScheduleAt(copy->deadline, [this, ref, epoch] {
    const internal::CopyInFlight* c = FindCopy(ref);
    if (c != nullptr && IsLive(*c, epoch)) OnCopyLost(ref);
  });
}

void ReplicationEngine::OnCopyLost(const CopyRef& ref) {
  Group* group = FindGroup(ref.group);
  if (group == nullptr) {
    ZB_LOG(Warning) << "sync pair " << ref.pair
                    << " copy lost in flight; suspending";
    SuspendPair(FindPair(ref.pair));
  } else if (ref.giveback) {
    ZB_LOG(Warning) << "group " << ref.group
                    << " giveback lost in flight; re-sending";
    if (to_primary_->connected()) SendGiveback(group);
  } else {
    ++group->resync_timeouts;
    ZB_LOG(Warning) << "group " << ref.group
                    << " copy lost in flight; re-suspending";
    SuspendOnFailure(group, SuspendReason::kResyncTimeout);
  }
}

void ReplicationEngine::SuspendOnFailure(Group* group, SuspendReason reason) {
  MarkGroupSuspended(group);
  group->suspend_reason = reason;
  if (ins_.suspends != nullptr) ins_.suspends->Increment();
  if (trace_ != nullptr) {
    trace_->Record(env_->now(), obs::TraceEvent::kSuspend, group->id,
                   static_cast<uint64_t>(reason));
  }
  if (!group->config.auto_resync) return;
  if (!to_secondary_->connected()) {
    // No timer can help while the link is down: wait for its ready edge.
    group->link_wait_since = env_->now();
    return;
  }
  ScheduleResyncRetry(group, /*reset_backoff=*/true);
}

void ReplicationEngine::ScheduleResyncRetry(Group* group, bool reset_backoff) {
  // Doubling starts from the initial backoff: a group parked for the link
  // reaches its first media-error backoff with none armed yet.
  const ConsistencyGroupConfig& cfg = group->config;
  group->resync_backoff =
      reset_backoff ? cfg.resync_backoff_initial
                    : std::clamp(group->resync_backoff * 2,
                                 cfg.resync_backoff_initial,
                                 cfg.resync_backoff_max);
  CancelResyncRetry(group);
  const GroupId group_id = group->id;
  group->resync_retry_pending = true;
  group->resync_retry_at = env_->now() + group->resync_backoff;
  group->resync_retry_event =
      env_->Schedule(group->resync_backoff, [this, group_id] {
        Group* g = FindGroup(group_id);
        if (g == nullptr) return;
        g->resync_retry_pending = false;
        TryAutoResync(g);
      });
}

void ReplicationEngine::CancelResyncRetry(Group* group) {
  group->link_wait_since = -1;
  if (group->resync_retry_pending) {
    env_->Cancel(group->resync_retry_event);
    group->resync_retry_pending = false;
  }
}

void ReplicationEngine::TryAutoResync(Group* group) {
  if (!group->config.auto_resync || !group->suspended ||
      group->failed_over || group->suspend_reason == SuspendReason::kOperator) {
    return;
  }
  if (group->suspend_reason == SuspendReason::kMediaError) {
    // A resync would succeed (it bypasses the journal), but the next host
    // write hits the broken journal LDEV and re-suspends immediately.
    // Stay suspended and keep backing off until the hardware heals; a
    // link edge leaves a pending backoff alone.
    auto* jnl = primary_->GetJournal(group->primary_journal);
    if (jnl != nullptr && jnl->media_failed()) {
      if (!group->resync_retry_pending) {
        ScheduleResyncRetry(group, /*reset_backoff=*/false);
      }
      return;
    }
  }
  if (!to_secondary_->connected()) {
    // Park until the ready edge; no timer polls a dead link.
    group->link_wait_since = env_->now();
    return;
  }
  ++group->auto_resync_attempts;
  // The link is up, so the send (and with it the resync) cannot fail.
  ZB_CHECK(ResyncGroup(group->id).ok());
}

void ReplicationEngine::ApplyPending(Group* group) {
  auto* sj = secondary_->GetJournal(group->secondary_journal);
  if (sj == nullptr) return;
  journal::SequenceNumber applied = sj->applied();
  bool progressed = false;
  while (applied < sj->written()) {
    const journal::JournalRecord* first = sj->Find(applied + 1);
    if (first == nullptr) break;
    // A shipped batch applies atomically: the apply watermark only moves
    // in whole batches. Write-folding depends on this — a *partial*
    // folded batch is not a write-order prefix, because a tombstone's
    // newer cover could be in the unapplied remainder.
    const journal::SequenceNumber end =
        std::max(first->atomic_through, first->sequence);
    if (end > sj->written()) break;  // Batch tail still in flight.
    // The whole batch must be applicable before any of it is: a pair
    // still in initial copy stalls the group at this batch boundary to
    // preserve the cross-volume total order.
    bool stalled = false;
    journal::JournalVolume::Cursor scan = sj->ScanFrom(applied + 1);
    for (journal::SequenceNumber s = applied + 1; s <= end; ++s) {
      const journal::JournalRecord* rec = scan.Next();
      if (rec == nullptr) {
        stalled = true;
        break;
      }
      auto pit = group->by_primary.find(rec->volume_id);
      if (pit == group->by_primary.end()) continue;
      Pair* pair = FindPair(pit->second);
      if (pair != nullptr && pair->state_ == PairState::kCopy) {
        stalled = true;
        break;
      }
    }
    if (stalled) break;
    // A batch that did not land stops the apply here, unacked: the
    // shipped batch's ack deadline then suspends the group, dirty-marks
    // from the acked watermark and resyncs, as for a lost batch.
    const Status landed = ApplyBatch(group, applied + 1, end);
    if (!landed.ok()) {
      ZB_LOG(Warning) << "group " << group->id << " journal apply failed: "
                      << landed;
      break;
    }
    applied = end;
    progressed = true;
  }
  if (progressed) {
    ZB_CHECK(sj->TrimThrough(applied).ok());
    SendApplyAck(group, applied);
  }
}

Status ReplicationEngine::ApplyBatch(Group* group,
                                     journal::SequenceNumber first,
                                     journal::SequenceNumber last) {
  auto* sj = secondary_->GetJournal(group->secondary_journal);
  ZB_CHECK(sj != nullptr);
  // Bucket the batch per volume. std::map keeps the volume order (and so
  // the whole apply) deterministic across runs and stdlibs.
  std::map<uint64_t, std::vector<const journal::JournalRecord*>> by_volume;
  SimTime last_ack_time = 0;
  journal::JournalVolume::Cursor scan = sj->ScanFrom(first);
  for (journal::SequenceNumber s = first; s <= last; ++s) {
    const journal::JournalRecord* rec = scan.Next();
    ZB_CHECK(rec != nullptr) << "atomic batch not contiguous in journal";
    last_ack_time = rec->ack_time;
    // A tombstone's blocks are fully rewritten by a newer record of this
    // same batch; it only advances the watermark.
    if (rec->folded) continue;
    by_volume[rec->volume_id].push_back(rec);
  }
  for (auto& [volume_id, recs] : by_volume) {
    auto pit = group->by_primary.find(volume_id);
    if (pit == group->by_primary.end()) continue;
    Pair* pair = FindPair(pit->second);
    if (pair == nullptr) continue;
    storage::Volume* svol = secondary_->GetVolume(pair->config_.secondary);
    if (svol == nullptr) continue;
    bool sorted_ok = recs.size() > 1;
    if (sorted_ok) {
      // Scan order is sequence order, so the stable sort keeps same-LBA
      // records in write order — but any overlap (folding only removes
      // *fully* covered records, partial overlaps survive) makes
      // reordering unsafe; that volume falls back to sequence order.
      std::stable_sort(recs.begin(), recs.end(),
                       [](const journal::JournalRecord* a,
                          const journal::JournalRecord* b) {
                         return a->lba < b->lba;
                       });
      for (size_t i = 0; i + 1 < recs.size(); ++i) {
        if (recs[i]->lba + recs[i]->block_count > recs[i + 1]->lba) {
          sorted_ok = false;
          break;
        }
      }
      if (!sorted_ok) {
        std::sort(recs.begin(), recs.end(),
                  [](const journal::JournalRecord* a,
                     const journal::JournalRecord* b) {
                    return a->sequence < b->sequence;
                  });
      }
    }
    if (sorted_ok) {
      std::vector<block::BlockRun> runs;
      runs.reserve(recs.size());
      for (const journal::JournalRecord* rec : recs) {
        runs.push_back(block::BlockRun{rec->lba, rec->block_count,
                                       rec->data(), rec->block_crcs()});
      }
      ZB_RETURN_IF_ERROR(svol->WriteRun(runs.data(), runs.size()));
    } else {
      for (const journal::JournalRecord* rec : recs) {
        const block::BlockRun run{rec->lba, rec->block_count, rec->data(),
                                  rec->block_crcs()};
        ZB_RETURN_IF_ERROR(svol->WriteRun(&run, 1));
      }
    }
  }
  group->last_applied_ack_time = last_ack_time;
  records_applied_ += last - first + 1;
  if (ins_.apply_batches != nullptr) {
    ins_.apply_batches->Increment();
    ins_.records_applied->Increment(last - first + 1);
  }
  return OkStatus();
}

void ReplicationEngine::SendApplyAck(Group* group,
                                     journal::SequenceNumber seq) {
  const GroupId group_id = group->id;
  Status sent = to_primary_->SendOnChannel(
      group_id, kAckMessageBytes, [this, group_id, seq] {
        Group* g = FindGroup(group_id);
        if (g == nullptr) return;
        auto* pj = primary_->GetJournal(g->primary_journal);
        if (pj == nullptr) return;
        // Records applied remotely are safe to trim from the main journal.
        if (seq <= pj->written()) {
          (void)pj->TrimThrough(seq);
          if (ins_.batches_acked != nullptr) ins_.batches_acked->Increment();
          if (trace_ != nullptr) {
            trace_->Record(env_->now(), obs::TraceEvent::kBatchAcked,
                           group_id, seq);
          }
        }
        // The trim freed journal capacity; if records queued up behind the
        // in-flight window, this ack is their arm edge.
        ArmIfPending(group_id);
      });
  (void)sent;  // A lost ack only delays trimming.
}

void ReplicationEngine::SendWireNack(Group* group) {
  const GroupId group_id = group->id;
  Status sent = to_primary_->SendOnChannel(
      group_id, kAckMessageBytes, [this, group_id] {
        Group* g = FindGroup(group_id);
        if (g == nullptr || g->failed_over || g->suspended) return;
        ZB_LOG(Warning) << "group " << group_id
                        << " nacked a corrupt batch; suspending for resync";
        SuspendOnFailure(g, SuspendReason::kWireReject);
      });
  // If the nack is lost too, the armed ack deadline catches the stall.
  (void)sent;
}

void ReplicationEngine::MaybeCorruptFrame(std::string* frame) {
  const double p = fault_options_.wire_corrupt_probability;
  if (p <= 0.0 || frame->empty()) return;
  if (!wire_corrupt_rng_.Bernoulli(p)) return;
  const size_t byte = wire_corrupt_rng_.Uniform(frame->size());
  (*frame)[byte] ^= static_cast<char>(1u << wire_corrupt_rng_.Uniform(8));
  ++wire_frames_corrupted_;
}

StatusOr<std::vector<journal::JournalRecord>> ReplicationEngine::ReceiveFrame(
    std::string* frame) {
  MaybeCorruptFrame(frame);
  return wire::DecodeBatch(*frame);
}

void ReplicationEngine::NoteRejectedFrame(Group* group, const char* what,
                                          const Status& why) {
  ++group->checksum_rejects;
  ZB_LOG(Warning) << "group " << group->id << " rejected " << what << ": "
                  << why;
}

void ReplicationEngine::StartInitialCopy(Pair* pair, Group* group) {
  // What the copy owes is the pair's dirty bits, set at CreatePair.
  if (pair->dirty_.empty()) {
    pair->state_ = PairState::kPaired;
    if (group != nullptr) ApplyPending(group);
    return;
  }
  const PairId pair_id = pair->id_;
  const GroupId group_id = group == nullptr ? 0 : group->id;
  // Use the same channel as the pair's subsequent traffic so the base
  // image is guaranteed to arrive before any update shipped after it.
  const uint64_t channel =
      group == nullptr ? SyncChannel(pair_id) : group_id;
  storage::Volume* pvol = primary_->GetVolume(pair->config_.primary);
  ZB_CHECK(pvol != nullptr);
  // Freeze the P-VOL image at this instant; updates from now on are
  // journaled (async) or shipped inline (sync) behind it on the channel,
  // so no write touches the bits it owes while it is in flight. A group
  // in bitmap mode (suspended) sends nothing: its resync ships the bits.
  // This is the copy's only pass over the bytes: the image carries the
  // P-VOL's checksum sidecar and the S-VOL adopts it whole at landing, so
  // latent rot on the P-VOL stays detectable on the S-VOL.
  const uint64_t epoch = ++pair->copy_.epoch;
  Status sent = FailedPreconditionError("group is suspended");
  if (group == nullptr || !group->suspended) {
    auto frozen = std::make_shared<block::MemVolume>(pvol->block_count(),
                                                     pvol->block_size());
    frozen->EnableChecksums();
    ZB_CHECK(frozen->CloneFrom(pvol->store()).ok());
    sent = to_secondary_->SendOnChannel(
        channel, pvol->store().allocated_blocks() * pvol->block_size(),
        [this, pair_id, group_id, frozen, epoch] {
          Pair* p = FindPair(pair_id);
          // A suspension or failover superseded the copy; its bits stay.
          if (p == nullptr || !IsLive(p->copy_, epoch)) return;
          storage::Volume* svol = secondary_->GetVolume(p->config_.secondary);
          // A failed array lands nothing, as with a journal batch: the
          // copy stays in flight and its deadline suspends the owner.
          if (svol == nullptr || secondary_->failed()) return;
          p->copy_.active = false;
          // The image is the whole owed set (the bits froze at the send).
          ZB_CHECK(svol->store().AdoptFrom(std::move(*frozen)).ok());
          p->dirty_.ClearAll();
          p->state_ = PairState::kPaired;
          if (Group* g = FindGroup(group_id)) ApplyPending(g);
        });
  }
  if (!sent.ok()) {
    // The pair starts suspended with its owed bits dirty; a later resync
    // performs the initial copy.
    pair->state_ = PairState::kSuspended;
    if (group != nullptr) NoteUnsynced(group, env_->now());
    return;
  }
  ArmCopyDeadline({.group = group_id, .pair = pair_id});
}

void ReplicationEngine::MarkGroupSuspended(Group* group) {
  group->suspended = true;
  // A suspended group ships nothing; it re-arms on resync completion.
  scheduler_.Disarm(group->id);
  // Bitmap mode supersedes any resync or initial copy in flight: it lands
  // nothing, and the bits it owed are still set for the next resync.
  Supersede(&group->resync);
  auto* jnl = primary_->GetJournal(group->primary_journal);
  // Unacknowledged journal records become dirty blocks and are dropped;
  // the sequence watermarks are preserved so post-resync shipping stays
  // dense. Dirty-marking must start at the *acked* watermark, not the
  // shipped one: "shipped" only means handed to the link, and a partition
  // drops in-flight traffic, losing everything in (acked, shipped].
  if (jnl != nullptr) {
    // The backlog's front record is the oldest write the backup never
    // acknowledged; its host-ack instant dates the dirty blocks it is
    // about to become, keeping the RPO honest across the suspension.
    const SimTime front_time = jnl->oldest_live_ack_time();
    if (jnl->acked() < jnl->written() && front_time >= 0) {
      NoteUnsynced(group, front_time);
    }
    std::vector<const journal::JournalRecord*> rest;
    jnl->PeekViews(jnl->acked(), UINT64_MAX, &rest);
    for (const journal::JournalRecord* rec : rest) {
      auto pit = group->by_primary.find(rec->volume_id);
      if (pit == group->by_primary.end()) continue;
      Pair* pair = FindPair(pit->second);
      if (pair == nullptr) continue;
      // Headers suffice here: even a folded (tombstoned) record still
      // names the blocks that must be re-shipped.
      pair->dirty_.SetRange(rec->lba, rec->block_count);
    }
    (void)jnl->TrimThrough(jnl->written());
    jnl->MarkShipped(jnl->written());
  }
  for (PairId pid : group->pairs) {
    Pair* pair = FindPair(pid);
    if (pair != nullptr && pair->state_ != PairState::kSwapped) {
      SuspendPair(pair);
    }
  }
  if (group->oldest_unsynced_time < 0) {
    // Dirty blocks of unknown age (a superseded copy's owed bits): date
    // them now — an under-estimate, but it keeps the RPO nonzero while
    // data is provably unsynchronized.
    for (PairId pid : group->pairs) {
      Pair* pair = FindPair(pid);
      if (pair != nullptr && !pair->dirty_.empty()) {
        NoteUnsynced(group, env_->now());
        break;
      }
    }
  }
}

Status ReplicationEngine::SuspendGroup(GroupId id) {
  Group* group = FindGroup(id);
  if (group == nullptr) return NotFoundError("group " + std::to_string(id));
  if (group->failed_over) {
    return FailedPreconditionError("group has been failed over");
  }
  if (group->suspended) {
    // Upgrade a failure suspension to an operator one: the operator takes
    // over and auto-resync must stand down.
    group->suspend_reason = SuspendReason::kOperator;
    CancelResyncRetry(group);
    return OkStatus();
  }
  MarkGroupSuspended(group);
  group->suspend_reason = SuspendReason::kOperator;
  if (ins_.suspends != nullptr) ins_.suspends->Increment();
  if (trace_ != nullptr) {
    trace_->Record(env_->now(), obs::TraceEvent::kSuspend, group->id,
                   static_cast<uint64_t>(SuspendReason::kOperator));
  }
  CancelResyncRetry(group);
  return OkStatus();
}

Status ReplicationEngine::SuspendSyncPair(PairId id) {
  Pair* pair = FindPair(id);
  if (pair == nullptr) return NotFoundError("pair " + std::to_string(id));
  if (pair->config_.mode != ReplicationMode::kSynchronous) {
    return InvalidArgumentError("pair is not synchronous");
  }
  if (pair->state_ == PairState::kSwapped) {
    return FailedPreconditionError("pair has been swapped");
  }
  SuspendPair(pair);
  return OkStatus();
}

ReplicationEngine::BulkFrame ReplicationEngine::CaptureBulk(
    const std::vector<Pair*>& pairs, DirtyBitmap Pair::*bits,
    bool from_primary, bool compress) {
  BulkFrame bulk;
  std::vector<wire::Extent> extents;
  for (Pair* pair : pairs) {
    storage::Volume* vol =
        from_primary ? primary_->GetVolume(pair->config_.primary)
                     : secondary_->GetVolume(pair->config_.secondary);
    if (vol == nullptr) continue;
    (pair->*bits).ForEachRun(
        [&](DirtyBitmap::Run run) {
          extents.push_back(wire::Extent{pair->config_.primary, run.lba,
                                         static_cast<uint32_t>(run.count),
                                         &vol->store()});
          bulk.blocks += run.count;
        },
        kResyncMaxExtentBlocks);
  }
  wire::EncodedBatch enc =
      wire::EncodeExtents(extents, compress, compute_pool_.get());
  SyncExecStats();
  bulk.frame = std::move(enc.frame);
  bulk.logical_bytes = enc.logical_bytes;
  bulk.extent_count = extents.size();
  return bulk;
}

bool ReplicationEngine::LandBulk(
    const std::vector<journal::JournalRecord>& records, Group* group,
    Pair* pair, DirtyBitmap Pair::*bits, bool to_primary) {
  bool landed = true;
  for (const journal::JournalRecord& rec : records) {
    Pair* p = pair;
    if (group != nullptr) {
      auto pit = group->by_primary.find(rec.volume_id);
      p = pit == group->by_primary.end() ? nullptr : FindPair(pit->second);
    }
    if (p == nullptr) continue;
    storage::Volume* vol = to_primary
                               ? primary_->GetVolume(p->config_.primary)
                               : secondary_->GetVolume(p->config_.secondary);
    if (vol == nullptr) continue;
    // A block whose bit is clear was rewritten after the capture (a
    // main-site write during a giveback) and is newer than this copy.
    DirtyBitmap& owed = p->*bits;
    const uint64_t end = rec.lba + rec.block_count;
    const size_t bs = vol->block_size();
    for (uint64_t at = rec.lba; at < end;) {
      const DirtyBitmap::Run run = owed.NextRun(at, end - at);
      if (run.count == 0 || run.lba >= end) break;
      const uint64_t n = std::min(run.count, end - run.lba);
      const uint64_t skip = run.lba - rec.lba;
      const char* crcs = rec.block_crcs();
      const block::BlockRun write{
          run.lba, static_cast<uint32_t>(n),
          rec.data().substr(skip * bs, n * bs),
          crcs == nullptr ? nullptr : crcs + 4 * skip};
      Status ws = vol->WriteRun(&write, 1);
      if (ws.ok()) {
        owed.ClearRange(run.lba, n);
      } else {
        // The run stays owed; the caller leaves the copy in flight.
        ZB_LOG(Warning) << "bulk copy apply failed: " << ws;
        landed = false;
      }
      at = run.lba + n;
    }
  }
  return landed;
}

Status ReplicationEngine::ResyncGroup(GroupId id) {
  Group* group = FindGroup(id);
  if (group == nullptr) return NotFoundError("group " + std::to_string(id));
  if (group->failed_over) {
    return FailedPreconditionError("group has been failed over");
  }
  if (!group->suspended) return OkStatus();
  if (!to_secondary_->connected()) {
    return UnavailableError("replication link is down");
  }
  CancelResyncRetry(group);

  // Capture the dirty contents now into one frame; journaling resumes
  // immediately, and the FIFO link guarantees the resync frame applies
  // first. The frame is a copy of the blocks at this instant, so host
  // writes made while it is on the wire cannot leak into it, and none of
  // them touches the bits: the group leaves bitmap mode at the send. The
  // bits are cleared only on delivery, so a failed send — or a frame lost
  // or rejected in flight — loses no part of the delta. The bitmap walk is
  // in ascending LBA order, so the frame is canonical and adjacent dirty
  // blocks merge into one extent each.
  std::vector<Pair*> pairs;
  for (PairId pid : group->pairs) {
    Pair* pair = FindPair(pid);
    if (pair != nullptr && pair->state_ != PairState::kSwapped) {
      pairs.push_back(pair);
    }
  }
  BulkFrame bulk = CaptureBulk(pairs, &Pair::dirty_, /*from_primary=*/true,
                               group->config.compress_transfers);

  auto* pj = primary_->GetJournal(group->primary_journal);
  const journal::SequenceNumber resume_seq =
      pj == nullptr ? 0 : pj->written();
  const uint64_t resync_id = ++group->resync.epoch;

  const GroupId group_id = id;
  const uint64_t wire_bytes =
      std::max<uint64_t>(bulk.frame.size(), kAckMessageBytes);
  Status sent = to_secondary_->SendOnChannel(
      group_id, wire_bytes, bulk.logical_bytes,
      [this, group_id, frame = std::move(bulk.frame), resume_seq,
       resync_id]() mutable {
        Group* g = FindGroup(group_id);
        // A suspension or failover superseded this frame.
        if (g == nullptr || !IsLive(g->resync, resync_id)) return;
        // A frame that cannot land counts as lost, as a rejected one
        // does: it stays in flight with its deadline armed, and the
        // deadline re-suspends the group and reships the bits it still
        // owes.
        if (secondary_->failed()) return;
        auto records = ReceiveFrame(&frame);
        if (!records.ok()) {
          NoteRejectedFrame(g, "resync frame", records.status());
          return;
        }
        if (!LandBulk(*records, g, nullptr, &Pair::dirty_,
                      /*to_primary=*/false)) {
          return;
        }
        g->resync.active = false;
        auto* sj = secondary_->GetJournal(g->secondary_journal);
        if (sj != nullptr) {
          // Records this journal holds but never applied (a batch that
          // did not land) are superseded: the primary dirty-marked them
          // from its acked watermark, so this frame carried their blocks,
          // newer.
          ZB_CHECK(sj->TrimThrough(sj->written()).ok());
          if (sj->written() < resume_seq) {
            Status ff = sj->FastForward(resume_seq);
            if (!ff.ok()) ZB_LOG(Warning) << "resync fast-forward: " << ff;
          }
        }
        for (PairId pid : g->pairs) {
          Pair* pair = FindPair(pid);
          if (pair != nullptr && pair->state_ == PairState::kSuspended) {
            pair->state_ = PairState::kPaired;
          }
        }
        // The bitmap backlog is drained: the primary journal's front
        // record takes over as the group's oldest-unsynced bound. Any
        // residual dirty blocks keep the old bound, which can only
        // over-estimate the RPO; the bits an initial copy owes are not
        // backlog.
        bool residue = false;
        for (PairId pid : g->pairs) {
          Pair* pair = FindPair(pid);
          if (pair != nullptr && pair->state_ != PairState::kCopy &&
              !pair->dirty_.empty()) {
            residue = true;
            break;
          }
        }
        if (!residue) g->oldest_unsynced_time = -1;
        if (trace_ != nullptr) {
          trace_->Record(env_->now(), obs::TraceEvent::kResyncDone, group_id,
                         resync_id);
        }
        g->suspend_reason = SuspendReason::kNone;
        ApplyPending(g);
        // Records journaled while the resync frame was in flight are an
        // existing backlog with no future arm edge; resume shipping now.
        ArmIfPending(group_id);
      });
  if (!sent.ok()) {
    // Dirty bitmaps are untouched; the group simply stays suspended.
    return sent;
  }
  group->suspended = false;
  group->resync_extents += bulk.extent_count;
  group->resync_blocks += bulk.blocks;
  if (ins_.resyncs != nullptr) ins_.resyncs->Increment();
  if (trace_ != nullptr) {
    trace_->Record(env_->now(), obs::TraceEvent::kResyncStart, id,
                   bulk.extent_count, bulk.blocks);
  }
  // The resync frame itself can be dropped by a partition; watch for it.
  ArmCopyDeadline({.group = id});
  return OkStatus();
}

Status ReplicationEngine::ResyncSyncPair(PairId id) {
  Pair* pair = FindPair(id);
  if (pair == nullptr) return NotFoundError("pair " + std::to_string(id));
  if (pair->config_.mode != ReplicationMode::kSynchronous) {
    return InvalidArgumentError("pair is not synchronous");
  }
  if (pair->state_ != PairState::kSuspended) {
    return FailedPreconditionError("pair is not suspended");
  }
  if (primary_->GetVolume(pair->config_.primary) == nullptr) {
    return NotFoundError("P-VOL vanished");
  }

  // The group resync's capture, send and landing: a standalone pair has
  // no group config, so its frames are always compressed (the stored
  // variant still wins when the blocks do not shrink).
  BulkFrame bulk = CaptureBulk({pair}, &Pair::dirty_, /*from_primary=*/true,
                               /*compress=*/true);
  const PairId pair_id = id;
  const uint64_t epoch = ++pair->copy_.epoch;
  const uint64_t wire_bytes =
      std::max<uint64_t>(bulk.frame.size(), kAckMessageBytes);
  ZB_RETURN_IF_ERROR(to_secondary_->SendOnChannel(
      SyncChannel(pair_id), wire_bytes, bulk.logical_bytes,
      [this, pair_id, frame = std::move(bulk.frame), epoch]() mutable {
        Pair* p = FindPair(pair_id);
        // A suspension (the operator, or a write acked locally)
        // superseded the frame.
        if (p == nullptr || !IsLive(p->copy_, epoch)) return;
        // A frame that is rejected or cannot land leaves the copy in
        // flight; the deadline re-suspends the pair with the blocks it
        // still owes dirty.
        if (secondary_->failed()) return;
        auto records = ReceiveFrame(&frame);
        if (!records.ok()) {
          ZB_LOG(Warning) << "sync pair " << pair_id
                          << " rejected resync frame: " << records.status();
          return;
        }
        if (LandBulk(*records, nullptr, p, &Pair::dirty_,
                     /*to_primary=*/false)) {
          p->copy_.active = false;
        }
      }));
  // The pair re-pairs at the send: later writes ship inline behind the
  // frame on the FIFO channel, so none of them touches the bits it owes.
  pair->state_ = PairState::kPaired;
  ArmCopyDeadline({.pair = pair_id});
  return OkStatus();
}

StatusOr<FailoverReport> ReplicationEngine::FailoverGroup(GroupId id) {
  Group* group = FindGroup(id);
  if (group == nullptr) return NotFoundError("group " + std::to_string(id));
  if (group->failed_over) {
    return FailedPreconditionError("group already failed over");
  }
  group->failed_over = true;
  scheduler_.Disarm(id);
  // Recovery machinery stands down: no auto-resync on a failed-over group,
  // and a resync batch still in flight is moot (its target volumes are
  // about to be promoted).
  CancelResyncRetry(group);
  Supersede(&group->resync);
  group->suspend_reason = SuspendReason::kNone;
  // A giveback still in flight can no longer land; its blocks stay in
  // reverse_dirty_ and ship with the next failback.
  Supersede(&group->giveback);

  // Apply everything that reached the backup site (Section I: "DR systems
  // recover the backup site under the condition of data consistency").
  ApplyPending(group);

  FailoverReport report;
  auto* sj = secondary_->GetJournal(group->secondary_journal);
  report.recovery_point = sj == nullptr ? 0 : sj->applied();
  report.recovery_point_time = group->last_applied_ack_time;
  auto* pj = primary_->GetJournal(group->primary_journal);
  if (pj != nullptr && pj->written() >= report.recovery_point) {
    report.lost_records = pj->written() - report.recovery_point;
  }
  // Divergence tracking restarts from the takeover instant.
  group->oldest_unsynced_time = -1;
  if (ins_.failovers != nullptr) ins_.failovers->Increment();
  if (trace_ != nullptr) {
    trace_->Record(env_->now(), obs::TraceEvent::kFailover, id,
                   report.recovery_point, report.lost_records);
  }

  // Promote the S-VOLs: swap the write guards for dirty trackers so the
  // business can run on the backup site while failback stays possible.
  for (PairId pid : group->pairs) {
    Pair* pair = FindPair(pid);
    if (pair == nullptr) continue;
    secondary_->UnregisterInterceptor(pair->config_.secondary);
    secondary_guards_.erase(pair->config_.secondary);
    auto tracker = std::make_unique<internal::ReverseDirtyTracker>(pair);
    if (secondary_->RegisterInterceptor(pair->config_.secondary,
                                        tracker.get())
            .ok()) {
      secondary_guards_.emplace(pair->config_.secondary,
                                std::move(tracker));
    }
    pair->state_ = PairState::kSwapped;
    Supersede(&pair->copy_);
    pair->dirty_.ClearAll();
  }
  return report;
}

StatusOr<FailbackReport> ReplicationEngine::FailbackGroup(GroupId id,
                                                          bool force) {
  Group* group = FindGroup(id);
  if (group == nullptr) return NotFoundError("group " + std::to_string(id));
  if (!group->failed_over) {
    return FailedPreconditionError("group has not been failed over");
  }
  if (primary_->failed()) {
    return FailedPreconditionError("main array is still failed");
  }
  if (!to_primary_->connected() || !to_secondary_->connected()) {
    return UnavailableError("inter-site links are down");
  }

  // Split-brain check: the main volumes must not have diverged.
  FailbackReport report;
  for (PairId pid : group->pairs) {
    Pair* pair = FindPair(pid);
    if (pair == nullptr) continue;
    if (!pair->dirty_.empty()) {
      if (!force) {
        return FailedPreconditionError(
            "pair " + pair->config_.name + " diverged on the main site (" +
            std::to_string(pair->dirty_.count()) +
            " blocks); quiesce and retry with force to let the backup "
            "side win");
      }
      report.conflicts_overwritten += pair->dirty_.count();
    }
  }

  // The giveback owes all blocks the backup business wrote, plus (under
  // force) the main-side diverged blocks: they stay in reverse_dirty_
  // until it lands.
  if (force) {
    for (PairId pid : group->pairs) {
      Pair* pair = FindPair(pid);
      if (pair != nullptr) pair->reverse_dirty_.UnionWith(pair->dirty_);
    }
  }

  // Resume the forward direction immediately: re-protect the S-VOLs,
  // clear the divergence state, reset both journals (a fresh sequence
  // space) and restart the transfer engine. Host writes to the P-VOLs from
  // this instant are journaled again; the giveback skips any block the
  // main site rewrites in the meantime, so newer data always wins.
  for (PairId pid : group->pairs) {
    Pair* pair = FindPair(pid);
    if (pair == nullptr) continue;
    secondary_->UnregisterInterceptor(pair->config_.secondary);
    secondary_guards_.erase(pair->config_.secondary);
    auto guard = std::make_unique<internal::SecondaryGuard>(pair);
    if (secondary_->RegisterInterceptor(pair->config_.secondary,
                                        guard.get())
            .ok()) {
      secondary_guards_.emplace(pair->config_.secondary, std::move(guard));
    }
    pair->state_ = PairState::kPaired;
    pair->dirty_.ClearAll();
  }
  auto* pj = primary_->GetJournal(group->primary_journal);
  auto* sj = secondary_->GetJournal(group->secondary_journal);
  if (pj != nullptr) pj->Reset();
  if (sj != nullptr) sj->Reset();
  group->failed_over = false;
  group->suspended = false;
  group->suspend_reason = SuspendReason::kNone;
  // The journals restart their sequence space: ack deadlines armed against
  // the old space would misread the fresh acked watermark as a loss.
  ++group->ship_epoch;
  group->last_applied_ack_time = env_->now();
  // The giveback's blocks already live on the S-VOLs, so nothing is
  // unsynced towards the backup site; the journal bound covers new writes.
  group->oldest_unsynced_time = -1;
  // No explicit scheduler restart: the journals were Reset in place, so
  // the append hook survives and the next P-VOL write arms the group.

  group->giveback_since = env_->now();
  report.blocks_shipped = SendGiveback(group);
  if (ins_.failbacks != nullptr) ins_.failbacks->Increment();
  if (trace_ != nullptr) {
    trace_->Record(env_->now(), obs::TraceEvent::kFailback, id,
                   report.blocks_shipped, report.conflicts_overwritten);
  }
  return report;
}

uint64_t ReplicationEngine::SendGiveback(Group* group) {
  // Re-captured at every send from the bits still owed: an owed block is
  // one the main site has not rewritten since failback, so its S-VOL
  // content (never touched by forward apply) is the same at every send.
  std::vector<Pair*> pairs;
  for (PairId pid : group->pairs) {
    if (Pair* pair = FindPair(pid)) pairs.push_back(pair);
  }
  BulkFrame bulk = CaptureBulk(pairs, &Pair::reverse_dirty_,
                               /*from_primary=*/false,
                               group->config.compress_transfers);
  const uint64_t epoch = ++group->giveback.epoch;
  const GroupId group_id = group->id;
  const uint64_t wire_bytes =
      std::max<uint64_t>(bulk.frame.size(), kAckMessageBytes);
  group->giveback.active = true;
  Status sent = to_primary_->SendOnChannel(
      group_id, wire_bytes, bulk.logical_bytes,
      [this, group_id, frame = std::move(bulk.frame), epoch]() mutable {
        Group* g = FindGroup(group_id);
        // A re-send superseded this copy, or a failover cancelled it.
        if (g == nullptr || !IsLive(g->giveback, epoch)) return;
        // A frame that is rejected or cannot land fully stays owed; its
        // loss deadline (or the reverse link's ready edge) re-sends what
        // is still owed.
        if (primary_->failed()) return;
        auto records = ReceiveFrame(&frame);
        if (!records.ok()) {
          NoteRejectedFrame(g, "giveback frame", records.status());
          return;
        }
        if (LandBulk(*records, g, nullptr, &Pair::reverse_dirty_,
                     /*to_primary=*/true)) {
          g->giveback.active = false;
        }
      });
  // A refused send stays owed until the reverse link's ready edge. A sent
  // one can die in a partition: re-send it if it has not landed by its
  // latest possible arrival plus the ack grace (the resync rule).
  if (sent.ok()) ArmCopyDeadline({.group = group_id, .giveback = true});
  return bulk.blocks;
}

bool ReplicationEngine::GroupInitialCopyDone(GroupId id) const {
  const Group* group = FindGroup(id);
  if (group == nullptr) return false;
  for (PairId pid : group->pairs) {
    auto it = pairs_.find(pid);
    if (it == pairs_.end()) continue;
    if (it->second->state_ == PairState::kCopy) return false;
  }
  return true;
}

journal::JournalVolume* ReplicationEngine::primary_journal(GroupId id) {
  Group* group = FindGroup(id);
  return group == nullptr ? nullptr
                          : primary_->GetJournal(group->primary_journal);
}

journal::JournalVolume* ReplicationEngine::secondary_journal(GroupId id) {
  Group* group = FindGroup(id);
  return group == nullptr ? nullptr
                          : secondary_->GetJournal(group->secondary_journal);
}

ReplicationEngine::Group* ReplicationEngine::FindGroup(GroupId id) {
  auto it = groups_.find(id);
  return it == groups_.end() ? nullptr : it->second.get();
}

const ReplicationEngine::Group* ReplicationEngine::FindGroup(
    GroupId id) const {
  auto it = groups_.find(id);
  return it == groups_.end() ? nullptr : it->second.get();
}

Pair* ReplicationEngine::FindPair(PairId id) {
  auto it = pairs_.find(id);
  return it == pairs_.end() ? nullptr : it->second.get();
}

}  // namespace zerobak::replication

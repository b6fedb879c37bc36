#include "replication/scrubber.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"

namespace zerobak::replication {

namespace {

// Bumps a cumulative stat and its attached counter in one place, so the
// stats struct and the registry can never drift apart.
inline void Bump(uint64_t* stat, obs::Counter* counter, uint64_t n = 1) {
  *stat += n;
  if (counter != nullptr) counter->Increment(n);
}

}  // namespace

Scrubber::Scrubber(ReplicationEngine* engine, ScrubConfig config)
    : engine_(engine), config_(config) {
  if (config_.extent_blocks == 0) config_.extent_blocks = 1;
  if (config_.max_extents_per_step == 0) config_.max_extents_per_step = 1;
  if (config_.step_interval <= 0) config_.step_interval = Milliseconds(5);
  if (config_.cycle_interval <= 0) config_.cycle_interval = Milliseconds(200);
}

Scrubber::~Scrubber() {
  if (restart_pending_) engine_->env_->Cancel(restart_event_);
  engine_->scheduler_.Unregister(ReplicationEngine::kScrubSchedBase);
}

void Scrubber::Start() {
  // One scheduler slot for the whole scrubber: ticks at step_interval,
  // ships zero wire bytes, so it can never crowd a group's DRR turn.
  engine_->scheduler_.Register(ReplicationEngine::kScrubSchedBase,
                               config_.step_interval, /*quantum=*/1);
  StartCycle();
  if (cycle_active_) {
    engine_->scheduler_.Arm(ReplicationEngine::kScrubSchedBase);
  }
}

PumpOutcome Scrubber::PumpStep(uint64_t /*max_bytes*/) {
  if (!cycle_active_) return PumpOutcome{};
  for (uint32_t i = 0; i < config_.max_extents_per_step; ++i) {
    if (!ScrubNextExtent()) {
      FinishCycle();
      return PumpOutcome{};  // All-false: the slot disarms until restart.
    }
  }
  PumpOutcome out;
  out.keep_alive = true;  // Next tick, please — never "drain immediately".
  out.quantum = 1;
  return out;
}

void Scrubber::StartCycle() {
  work_.clear();
  work_index_ = 0;
  next_lba_ = 0;
  extents_this_cycle_ = 0;
  repairs_this_cycle_ = 0;
  for (auto& [gid, group] : engine_->groups_) {
    if (group->failed_over) continue;
    for (PairId pid : group->pairs) {
      Pair* pair = engine_->FindPair(pid);
      if (pair == nullptr) continue;
      storage::Volume* pvol =
          engine_->primary_->GetVolume(pair->config_.primary);
      if (pvol == nullptr) continue;
      work_.push_back(WorkItem{gid, pid, pvol->block_count()});
    }
  }
  cycle_active_ = !work_.empty();
  if (ins_.cycle_active != nullptr) {
    ins_.cycle_active->Set(cycle_active_ ? 1 : 0);
  }
  if (cycle_active_) {
    if (trace_ != nullptr) {
      trace_->Record(engine_->env_->now(), obs::TraceEvent::kScrubStart, 0,
                     stats_.cycles_completed + 1);
    }
  } else {
    // Nothing to scrub yet (no pairs): look again after the cycle gap.
    ScheduleRestart();
  }
}

void Scrubber::FinishCycle() {
  cycle_active_ = false;
  Bump(&stats_.cycles_completed, ins_.cycles);
  if (ins_.cycle_active != nullptr) ins_.cycle_active->Set(0);
  if (trace_ != nullptr) {
    trace_->Record(engine_->env_->now(), obs::TraceEvent::kScrubDone, 0,
                   extents_this_cycle_, repairs_this_cycle_);
  }
  ScheduleRestart();
}

void Scrubber::ScheduleRestart() {
  if (restart_pending_) return;
  restart_pending_ = true;
  restart_event_ = engine_->env_->ScheduleAt(
      engine_->env_->now() + config_.cycle_interval, [this] {
        restart_pending_ = false;
        StartCycle();
        if (cycle_active_) {
          engine_->scheduler_.Arm(ReplicationEngine::kScrubSchedBase);
        }
      });
}

bool Scrubber::ScrubNextExtent() {
  while (work_index_ < work_.size()) {
    const WorkItem& item = work_[work_index_];
    if (next_lba_ >= item.block_count) {
      ++work_index_;
      next_lba_ = 0;
      continue;
    }
    const uint64_t lba = next_lba_;
    const uint32_t count = static_cast<uint32_t>(std::min<uint64_t>(
        config_.extent_blocks, item.block_count - lba));
    next_lba_ += count;
    ScrubExtent(item, lba, count);
    return true;
  }
  return false;
}

void Scrubber::ScrubExtent(const WorkItem& item, uint64_t lba,
                           uint32_t count) {
  auto git = engine_->groups_.find(item.group);
  if (git == engine_->groups_.end()) return;
  auto* group = git->second.get();
  if (group->failed_over) return;
  Pair* pair = engine_->FindPair(item.pair);
  if (pair == nullptr) return;
  // Initial copy still running (the S-VOL is not a replica yet) or the
  // pair is dissolved: nothing to compare against.
  if (pair->state_ != PairState::kPaired &&
      pair->state_ != PairState::kSuspended) {
    return;
  }
  storage::Volume* pvol = engine_->primary_->GetVolume(pair->config_.primary);
  storage::Volume* svol =
      engine_->secondary_->GetVolume(pair->config_.secondary);
  if (pvol == nullptr || svol == nullptr) return;
  block::MemVolume& pstore = pvol->store();
  block::MemVolume& sstore = svol->store();

  ++extents_this_cycle_;
  Bump(&stats_.extents_scanned, ins_.extents_scanned);
  Bump(&stats_.blocks_scanned, ins_.blocks_scanned, count);

  // Holes on both sides have no media to rot and nothing to diverge.
  const bool p_alloc = pstore.AnyAllocated(lba, count);
  const bool s_alloc = sstore.AnyAllocated(lba, count);
  if (!p_alloc && !s_alloc) return;

  block::Lba bad = 0;
  const auto pv = pstore.VerifyExtent(lba, count, &bad);
  const auto sv = sstore.VerifyExtent(lba, count, &bad);

  // Fingerprints are only comparable at a write-order-consistent point:
  // with acked == written nothing is in flight, on the wire or pending
  // apply, so a byte difference is corruption, not replication lag.
  auto* pj = engine_->primary_->GetJournal(group->primary_journal);
  const bool quiescent =
      !group->suspended && !group->giveback.active &&
      !group->resync.active && !group->resync_retry_pending &&
      pj != nullptr && pj->acked() == pj->written() &&
      pair->dirty_.count() == 0;
  // A repair is already in motion (resync batch on the wire, a retry
  // scheduled, or a resync due on the link's ready edge): suspending again
  // now would supersede and kill it, and the extent it carries still
  // verifies bad until the batch lands. Leave the group alone; the next
  // cycle re-checks whatever the resync missed.
  const bool repair_in_motion = group->resync.active ||
                                group->resync_retry_pending ||
                                group->link_wait_since >= 0;
  // Already queued for repair by an earlier pass or a suspension.
  const bool already_marked = pair->dirty_.NextDirty(lba) < lba + count;

  using Health = block::MemVolume::ExtentHealth;
  if (pv == Health::kMediaError || sv == Health::kMediaError) {
    Bump(&stats_.media_errors, ins_.media_errors);
  }
  if (pv == Health::kChecksumMismatch || sv == Health::kChecksumMismatch) {
    Bump(&stats_.checksum_mismatches, ins_.checksum_mismatches);
  }

  // Secondary-side repair: dirty-mark the extent and lean on the existing
  // suspend -> backoff -> resync machinery, which ships exactly the
  // marked blocks from the (clean) primary and re-pairs.
  auto mark_for_resync = [&] {
    if (!config_.repair || repair_in_motion || already_marked) return;
    pair->dirty_.SetRange(lba, count);
    ReplicationEngine::NoteUnsynced(group, engine_->env_->now());
    Bump(&stats_.repairs_scheduled, ins_.repairs_scheduled);
    RecordRepair(item.group, pair->config_.secondary, lba);
    if (!group->suspended) {
      engine_->SuspendOnFailure(group, SuspendReason::kScrubRepair);
    }
  };

  if (pv == Health::kClean && sv != Health::kClean) {
    mark_for_resync();
    return;
  }

  if (pv != Health::kClean && sv == Health::kClean) {
    // Primary-side damage with a trustworthy replica. Restoring is only
    // safe when no un-replicated writes exist — otherwise the (older)
    // secondary bytes could clobber data the journal has not shipped yet.
    if (!config_.repair) return;
    if (!quiescent) {
      Bump(&stats_.deferred_repairs, ins_.deferred_repairs);
      return;
    }
    const size_t bytes = static_cast<size_t>(count) * pvol->block_size();
    scratch_secondary_.resize(bytes);
    sstore.ReadInto(lba, count, scratch_secondary_.data());
    Status restored = pvol->Write(lba, count, scratch_secondary_);
    if (restored.ok()) {
      Bump(&stats_.primary_restores, ins_.primary_restores);
      RecordRepair(item.group, pair->config_.primary, lba);
    } else {
      // Media still failing (an active error episode): retry next cycle.
      Bump(&stats_.deferred_repairs, ins_.deferred_repairs);
    }
    return;
  }

  if (pv != Health::kClean && sv != Health::kClean) {
    // No clean side to heal from. Count it; never resync a corrupt
    // primary extent onto the secondary (that would propagate the rot).
    Bump(&stats_.unrecoverable_extents, ins_.unrecoverable);
    return;
  }

  // Both sides clean: compare content, but only at a quiescent point.
  // Each side just verified against its own CRC sidecar, so comparing
  // sidecar fingerprints is byte-comparison (modulo CRC collision) at
  // ~1/1000th of the memory traffic — this is what keeps scrub overhead
  // on a clean busy group inside the E15a acceptance.
  if (!quiescent) return;
  bool divergent;
  if (pstore.checksums_enabled() && sstore.checksums_enabled()) {
    divergent = pstore.ExtentFingerprint(lba, count) !=
                sstore.ExtentFingerprint(lba, count);
  } else {
    const size_t bytes = static_cast<size_t>(count) * pvol->block_size();
    scratch_primary_.resize(bytes);
    scratch_secondary_.resize(bytes);
    pstore.ReadInto(lba, count, scratch_primary_.data());
    sstore.ReadInto(lba, count, scratch_secondary_.data());
    divergent = std::memcmp(scratch_primary_.data(),
                            scratch_secondary_.data(), bytes) != 0;
  }
  if (divergent) {
    Bump(&stats_.divergent_extents, ins_.divergent_extents);
    mark_for_resync();
  }
}

void Scrubber::RecordRepair(GroupId group, storage::VolumeId volume,
                            uint64_t lba) {
  ++repairs_this_cycle_;
  if (trace_ != nullptr) {
    trace_->Record(engine_->env_->now(), obs::TraceEvent::kScrubRepair,
                   group, volume, lba);
  }
}

void Scrubber::AttachObservability(obs::MetricRegistry* registry,
                                   obs::TraceRing* trace) {
  trace_ = trace;
  if (registry == nullptr) {
    ins_ = Instruments{};
    return;
  }
  ins_.cycles = registry->GetCounter("scrub.cycles");
  ins_.extents_scanned = registry->GetCounter("scrub.extents_scanned");
  ins_.blocks_scanned = registry->GetCounter("scrub.blocks_scanned");
  ins_.checksum_mismatches =
      registry->GetCounter("scrub.checksum_mismatches");
  ins_.media_errors = registry->GetCounter("scrub.media_errors");
  ins_.divergent_extents = registry->GetCounter("scrub.divergent_extents");
  ins_.repairs_scheduled = registry->GetCounter("scrub.repairs_scheduled");
  ins_.primary_restores = registry->GetCounter("scrub.primary_restores");
  ins_.deferred_repairs = registry->GetCounter("scrub.deferred_repairs");
  ins_.unrecoverable = registry->GetCounter("scrub.unrecoverable_extents");
  ins_.cycle_active = registry->GetGauge("scrub.cycle_active");
  ins_.cycle_active->Set(cycle_active_ ? 1 : 0);
}

}  // namespace zerobak::replication

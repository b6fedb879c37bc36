#ifndef ZEROBAK_REPLICATION_REPLICATION_H_
#define ZEROBAK_REPLICATION_REPLICATION_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/time.h"
#include "exec/thread_pool.h"
#include "journal/journal.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "replication/borrow_index.h"
#include "replication/dirty_bitmap.h"
#include "replication/group_scheduler.h"
#include "sim/environment.h"
#include "sim/network.h"
#include "storage/array.h"

namespace zerobak::replication {

// Remote-copy mode (Section V: SDC vs ADC): the host-ack policy of a
// consistency group, which every pair of the group shares. Both modes ship
// through the group journal.
enum class ReplicationMode {
  kSynchronous,   // SDC: host ack waits for the backup's apply ack.
  kAsynchronous,  // ADC: host ack after the local journal write.
};

// Pair state machine, following the conventional remote-copy states.
enum class PairState {
  kCopy,       // Initial copy in progress; S-VOL not yet usable.
  kPaired,     // Steady state: updates flowing, S-VOL consistent.
  kSuspended,  // Replication stopped (overflow, link down or operator);
               // P-VOL writes are tracked in a dirty bitmap.
  kSwapped,    // After failover: S-VOL promoted, pair dissolved logically.
};

// Why a consistency group is suspended. Failure reasons are eligible for
// auto-resync; an operator suspension never is.
enum class SuspendReason {
  kNone,
  kOperator,         // Explicit SuspendGroup call.
  kJournalOverflow,  // The shared journal filled up (Section III-A-1).
  kAckTimeout,       // A shipped batch missed its apply-ack deadline.
  kResyncTimeout,    // A resync batch was lost in flight.
  kWireReject,       // The backup site nacked a corrupt wire frame.
  kMediaError,       // The journal volume failed an append (kDataLoss);
                     // backoff/resync retries until the media heals.
  kScrubRepair,      // The scrubber dirty-marked corrupt/divergent extents
                     // and suspended for a targeted resync.
};

// What a suspended group's recovery is waiting for. Each failure cause has
// one trigger: a failure seen with the forward link down waits for the
// link's ready edge; a failure seen with the link up (lost resync batch,
// wire reject, scrub repair) and a journal media error wait for the capped
// backoff timer.
enum class RecoveryWait {
  kNone,
  kLink,            // Parked until the forward link comes back.
  kBackoff,         // The auto-resync backoff timer is pending.
  kResyncInFlight,  // A resync batch is on the wire.
};

const char* PairStateName(PairState state);
const char* ReplicationModeName(ReplicationMode mode);
const char* SuspendReasonName(SuspendReason reason);

using PairId = uint64_t;
using GroupId = uint64_t;

// Configuration of a consistency group: the shared journal and the
// transfer engine parameters (Section III-A-1).
struct ConsistencyGroupConfig {
  std::string name;
  uint64_t journal_capacity_bytes = 256ull << 20;  // 256 MiB.
  // How often the transfer engine wakes up to ship journal batches.
  SimDuration transfer_interval = Milliseconds(2);

  // --- Transfer pipeline (batch sizing + coalescing) ------------------------
  // Every batch-sizing knob lives here and is checked by Validate() when
  // the group is created: a zero batch size or inverted min/max bounds is
  // rejected up front instead of being silently rewritten. Adaptive
  // resizing clamps its own values into [min, max].
  //
  // Bytes shipped per wakeup. Under adaptive batching this is only the
  // starting point; the engine moves within [min, max].
  uint64_t transfer_batch_bytes = 4ull << 20;  // 4 MiB.
  // Scale the batch size: up (x2) while the journal backlog builds, down
  // (/2) when the link backlog grows past a few transfer intervals. Keeps
  // the drain rate >= the ingest rate without tripping ack deadlines.
  bool enable_adaptive_batching = true;
  uint64_t transfer_batch_min_bytes = 64ull << 10;  // 64 KiB.
  uint64_t transfer_batch_max_bytes = 16ull << 20;  // 16 MiB.
  // Fold duplicate (volume, block) overwrites inside a shipped batch down
  // to the newest payload: superseded records ship as header-only
  // tombstones, their payload bytes are freed from the primary journal,
  // and the batch applies atomically so every recovery point is still a
  // write-order prefix.
  bool enable_write_folding = true;
  // Compress shipped batches inside the wire frame. The frame (and its
  // CRC integrity check) is always on; this knob only controls whether
  // the body is run through the block compressor. Incompressible batches
  // fall back to the stored escape automatically.
  bool compress_transfers = true;

  // Checks the knobs a user could plausibly get wrong: zero/negative
  // intervals and capacities, inverted or violated adaptive-batch bounds
  // (only checked when adaptive batching is on — ablation sweeps pin the
  // batch size with the bounds left at defaults), nonsensical backoff.
  // Returns InvalidArgumentError naming the offending field.
  Status Validate() const;

  // --- Failure detection and recovery ---------------------------------------
  // Grace period, measured from a shipped batch's latest possible arrival,
  // for the apply-ack to come back. A miss means the batch or its ack was
  // lost (a real partition drops in-flight traffic) and the group suspends
  // rather than silently stalling its watermarks. 0 disables detection.
  SimDuration ack_timeout = Milliseconds(50);
  // Automatically run ResyncGroup after a *failure* suspension (overflow,
  // timeout, wire reject, scrub repair, media error — never an operator
  // suspend). A failure seen while the forward link is down resyncs at the
  // instant the link comes back; any other failure retries with capped
  // exponential backoff (a media error keeps backing off until the journal
  // hardware heals).
  bool auto_resync = true;
  SimDuration resync_backoff_initial = Milliseconds(10);
  SimDuration resync_backoff_max = Milliseconds(100);
};

struct PairConfig {
  std::string name;
  storage::VolumeId primary = 0;    // P-VOL on the main array.
  storage::VolumeId secondary = 0;  // S-VOL on the backup array.
  // Must match the mode of the group's other pairs.
  ReplicationMode mode = ReplicationMode::kAsynchronous;
  // The consistency group the pair joins (required).
  GroupId group = 0;
};

// Engine-wide tunables, fixed at construction.
struct EngineOptions {
  // Compute lanes (including the simulator thread) for the engine's one
  // parallel section: bulk-frame capture (wire::EncodeExtents, the extent
  // reads and chunk compression of resync and giveback frames). Journal
  // batch encode, decode and apply always run inline: at batch sizes they
  // measured slower on more lanes. 0 = one lane per hardware thread; 1 =
  // no workers. Simulation results are bit-identical at any value — the
  // section runs entirely inside one sim event behind a join barrier and
  // writes disjoint slots of a fixed-format frame — so this knob trades
  // host CPU for wall-clock only.
  unsigned compute_threads = 0;
};

// Fault-injection knobs, settable at runtime as one struct so new lanes
// extend the struct instead of growing the engine's method surface.
struct FaultOptions {
  // Probability that a delivered wire frame has one random bit flipped
  // before the backup site decodes it (an in-flight corruption the CRC
  // must catch). Draws come from a dedicated engine-seeded Rng whose
  // stream continues across SetFaultOptions calls, so toggling a lane
  // mid-run keeps the simulation deterministic.
  double wire_corrupt_probability = 0.0;
};

// Point-in-time replication health of a consistency group.
struct GroupStats {
  journal::SequenceNumber written = 0;   // Main journal head.
  journal::SequenceNumber shipped = 0;   // Handed to the link.
  journal::SequenceNumber applied = 0;   // Applied on the backup array.
  // Highest sequence the backup has confirmed applied (the primary's
  // recovery watermark; anything in (acked, shipped] may be lost).
  journal::SequenceNumber acked = 0;
  uint64_t journal_used_bytes = 0;
  uint64_t journal_capacity_bytes = 0;
  uint64_t journal_overflows = 0;
  bool suspended = false;
  SuspendReason suspend_reason = SuspendReason::kNone;
  // Failure-detection counters.
  uint64_t ack_timeouts = 0;
  uint64_t resync_timeouts = 0;
  uint64_t auto_resync_attempts = 0;
  // The group's RPO: 0 when every write is acknowledged by the backup
  // site (acked == written and nothing is dirty), otherwise the age of
  // the oldest unacknowledged write — the data that would be lost if the
  // main site died right now. An idle, fully-caught-up group reports 0
  // no matter how long it sits (the old `now - last_applied_ack_time`
  // formula grew without bound on a quiescent group).
  SimDuration apply_lag = 0;
  // --- Transfer-pipeline health ---
  // Records tombstoned by write-folding and the payload bytes that never
  // hit the wire because of it.
  uint64_t records_folded = 0;
  uint64_t folded_bytes_saved = 0;
  // Extent records shipped by resyncs and the blocks they carried.
  uint64_t resync_extents = 0;
  uint64_t resync_blocks = 0;
  // Current (possibly adapted) transfer batch size.
  uint64_t transfer_batch_bytes_now = 0;
  // --- Wire format ---
  // Framed bytes handed to the link (post-compression) and the journal
  // bytes they represent (pre-compression).
  uint64_t wire_bytes_shipped = 0;
  uint64_t logical_bytes_shipped = 0;
  // logical / wire (>= 1 when compression wins; 1.0 before any traffic).
  double compression_ratio = 1.0;
  // Same ratio over only the newest kCompressionWindowBatches shipped
  // batches, so a config change (toggling compress_transfers) or a shift
  // in data compressibility shows up immediately instead of being
  // averaged away by hours of history.
  double compression_ratio_window = 1.0;
  // Batches currently inside that window.
  uint64_t compression_window_batches = 0;
  // Batches the backup site rejected on checksum mismatch (each one
  // nacks, suspends the group and reships via auto-resync).
  uint64_t checksum_rejects = 0;
  // --- Recovery progress (stuck work shows as an age that keeps growing) ---
  RecoveryWait recovery_wait = RecoveryWait::kNone;
  // kLink: how long the group has waited for the link; kResyncInFlight:
  // how long the batch has been on the wire. 0 otherwise.
  SimDuration recovery_age = 0;
  // kBackoff: time until the retry timer fires; kResyncInFlight: time
  // until the batch's loss deadline. -1 otherwise (or when ack_timeout
  // disables loss detection).
  SimDuration recovery_due_in = -1;
  // A failback giveback that has not landed on the main site yet, and how
  // long ago FailbackGroup captured it.
  bool giveback_in_flight = false;
  SimDuration giveback_age = 0;
  // Host writes of a synchronous group waiting for their apply ack, and
  // the age of the oldest one (0 when none).
  uint64_t pending_sync_acks = 0;
  SimDuration oldest_sync_ack_age = 0;
  // --- Journal capture ---
  // Host writes journaled as borrowed views of their P-VOL blocks, and
  // borrowed records copied into an owned buffer because a write was
  // about to overwrite their blocks before they shipped.
  uint64_t captures_borrowed = 0;
  uint64_t captures_materialized = 0;
};

// Result of a failover (disaster recovery takeover) on a group.
struct FailoverReport {
  // Sequence of the last record applied to the backup volumes.
  journal::SequenceNumber recovery_point = 0;
  // Records that were written at the main site but never made it.
  uint64_t lost_records = 0;
  // Ack-time of the last applied record; the backup image corresponds to
  // the main site as of this instant (RPO in time units).
  SimTime recovery_point_time = 0;
};

// Result of a failback (giveback to the repaired main site).
struct FailbackReport {
  // Blocks copied from the backup volumes onto the main volumes.
  uint64_t blocks_shipped = 0;
  // Main-side blocks that had diverged and were overwritten because
  // `force` was set.
  uint64_t conflicts_overwritten = 0;
};

class ReplicationEngine;
class Scrubber;
struct ScrubConfig;

namespace internal {
class PrimaryInterceptor;
class SecondaryGuard;
class ReverseDirtyTracker;

// The in-flight record of one bulk copy: an initial copy, a resync or a
// failback giveback. What the copy still owes is its owner's dirty bits,
// never this record: nothing clears them between capture and delivery, and
// delivery clears only the bits it landed.
struct CopyInFlight {
  // Bumped by every send and every supersession (the owner went back to
  // bitmap mode, or failed over); a delivery or deadline of an older epoch
  // lands nothing.
  uint64_t epoch = 0;
  // Sent and not landed yet (a giveback: owed, even while its send waits
  // for the reverse link).
  bool active = false;
  SimTime sent_at = 0;
  SimTime deadline = -1;  // Loss deadline; -1 when none is armed.
};
}  // namespace internal

// A replication pair (P-VOL on the main array, S-VOL on the backup array).
class Pair {
 public:
  PairId id() const { return id_; }
  const PairConfig& config() const { return config_; }
  PairState state() const { return state_; }
  GroupId group() const { return group_; }
  // Blocks written while suspended (or, after a failover, on the P-VOL);
  // shipped again on resync / reconciled on failback.
  size_t dirty_blocks() const { return dirty_.count(); }
  // Blocks the business wrote on the S-VOL after a failover that the main
  // site has not received yet (kept until the failback giveback lands).
  size_t reverse_dirty_blocks() const { return reverse_dirty_.count(); }

 private:
  friend class ReplicationEngine;
  friend class Scrubber;
  friend class internal::PrimaryInterceptor;
  friend class internal::ReverseDirtyTracker;

  PairId id_ = 0;
  PairConfig config_;
  GroupId group_ = 0;
  PairState state_ = PairState::kCopy;
  // Hierarchical (two-level) bitmaps sized to the volume at pair creation;
  // resync walks them as sorted extent runs instead of hash-ordered blocks.
  // Every allocated P-VOL block starts dirty: that is what the initial copy
  // owes.
  DirtyBitmap dirty_;
  DirtyBitmap reverse_dirty_;
  // The pair's initial copy.
  internal::CopyInFlight copy_;
  // The interceptors registered on the P-VOL and on the S-VOL (a write
  // guard, or a dirty tracker after failover; null if none registered).
  // Unregistered before the pair is destroyed.
  std::unique_ptr<storage::WriteInterceptor> pvol_interceptor_;
  std::unique_ptr<storage::WriteInterceptor> svol_interceptor_;
  // The pair's unshipped records that borrow P-VOL blocks, and the token
  // of the P-VOL pre-overwrite hook that materializes them (0: no hook).
  BorrowIndex borrowed_;
  uint64_t pvol_hook_ = 0;
};

// The remote-copy feature of a main/backup array pair: creates and drives
// consistency groups (a shared journal, shipped the same way whether the
// host ack waits for the backup or not), initial copy, journal
// transfer/apply, suspend/resync and failover.
//
// One engine instance manages replication in one direction
// (primary array -> secondary array), like the demonstration system's
// main-to-backup copy (Fig. 1).
class ReplicationEngine {
 public:
  ReplicationEngine(sim::SimEnvironment* env, storage::StorageArray* primary,
                    storage::StorageArray* secondary,
                    sim::NetworkLink* to_secondary,
                    sim::NetworkLink* to_primary,
                    EngineOptions options = {});
  ~ReplicationEngine();

  ReplicationEngine(const ReplicationEngine&) = delete;
  ReplicationEngine& operator=(const ReplicationEngine&) = delete;

  // --- Consistency groups -------------------------------------------------
  StatusOr<GroupId> CreateConsistencyGroup(ConsistencyGroupConfig config);
  // Group must have no pairs.
  Status DeleteConsistencyGroup(GroupId id);
  std::vector<GroupId> ListGroups() const;
  StatusOr<GroupStats> GetGroupStats(GroupId id) const;
  StatusOr<std::string> GetGroupName(GroupId id) const;

  // --- Pairs ---------------------------------------------------------------
  // Creates a replication pair inside the consistency group named by
  // `config.group` (required). The initial copy starts immediately; the
  // pair reaches kPaired once the base image has been transferred. In a
  // suspended group the pair starts suspended and the group's resync ships
  // the base image.
  //
  // `config.mode` must match the group's other pairs (any mode joins an
  // empty group). Both modes journal every host write; they differ only in
  // the host ack:
  //  - kAsynchronous: acked after the local journal append; the transfer
  //    scheduler ships batches at the group's pace.
  //  - kSynchronous: the record ships at once and the host ack waits for
  //    the apply ack that covers it. Requires a nonzero ack_timeout: a
  //    lost batch or ack suspends the group at that deadline and every
  //    waiting host write is acked locally (fence level "never").
  StatusOr<PairId> CreatePair(const PairConfig& config);

  // Dissolves a pair, unregistering all interceptors. The S-VOL keeps its
  // current content.
  Status DeletePair(PairId id);

  const Pair* GetPair(PairId id) const;
  // Finds the pair whose P-VOL is `primary`, or 0 if none.
  PairId FindPairByPrimary(storage::VolumeId primary) const;
  std::vector<PairId> ListPairs() const;
  std::vector<PairId> ListGroupPairs(GroupId id) const;

  // --- Operations ----------------------------------------------------------
  // Suspends a whole consistency group (all its pairs): unacknowledged
  // journal records become dirty blocks, and the host writes of a
  // synchronous group still waiting for their apply ack are acked locally.
  Status SuspendGroup(GroupId id);

  // Re-establishes replication after a suspension by shipping the dirty
  // blocks in one frame. The group leaves bitmap mode at the send (later
  // writes are journaled and ship behind the frame); its pairs return to
  // kPaired when the frame lands, and the group suspends again if it is
  // lost.
  Status ResyncGroup(GroupId id);

  // Disaster-recovery takeover: stops the group, applies every record that
  // reached the backup site, promotes the S-VOLs to writable and reports
  // the recovery point. Works even when the main array has failed. Writes
  // made to the S-VOLs after the takeover are dirty-tracked so a later
  // failback ships only the delta.
  StatusOr<FailoverReport> FailoverGroup(GroupId id);

  // Giveback after the main site is repaired: ships the blocks the
  // business wrote on the backup site during the outage back onto the
  // main volumes, write-protects the S-VOLs again and resumes forward
  // (main -> backup) replication with fresh journals.
  //
  // Preconditions: the group is failed over, the main array is healthy
  // and both links are connected. The backup-site application must be
  // quiesced before calling (its volumes become S-VOLs again
  // immediately). If the main volumes also changed after the failover
  // (split brain), failback is rejected unless `force` is set, in which
  // case the backup side wins.
  StatusOr<FailbackReport> FailbackGroup(GroupId id, bool force = false);

  // True once every pair of the group has finished its initial copy.
  bool GroupInitialCopyDone(GroupId id) const;

  // Toggles wire-frame body compression for an existing group. Takes
  // effect on the next shipped batch; the windowed compression ratio in
  // GroupStats reflects the change within kCompressionWindowBatches.
  Status SetGroupCompression(GroupId id, bool compress);

  // The group's current RPO (same definition as GroupStats::apply_lag),
  // cheap enough to poll on a timer — this is what RpoTracker samples.
  StatusOr<SimDuration> GroupRpo(GroupId id) const;

  // --- Observability --------------------------------------------------------
  // Attaches (or, with nulls, detaches) a metric registry and a trace
  // ring. Counters/histograms are resolved once here and updated through
  // cached pointers; every hot-path hook is a single pointer check when
  // detached. Journals of existing and future groups are instrumented
  // under "journal.g<id>.{main,backup}.*".
  void AttachObservability(obs::MetricRegistry* registry,
                           obs::TraceRing* trace);

  // --- Introspection for tests/benches -------------------------------------
  journal::JournalVolume* primary_journal(GroupId id);
  journal::JournalVolume* secondary_journal(GroupId id);
  uint64_t total_records_shipped() const { return records_shipped_; }
  uint64_t total_records_applied() const { return records_applied_; }

  // --- Fault injection ------------------------------------------------------
  // Replaces the engine's fault-injection knobs (see FaultOptions).
  // Driven by the fault framework's corruption lane; RNG streams are
  // engine-owned and continue across calls, so runs stay deterministic.
  void SetFaultOptions(const FaultOptions& options) {
    fault_options_ = options;
  }
  const FaultOptions& fault_options() const { return fault_options_; }
  // Frames actually corrupted by the injector so far.
  uint64_t wire_frames_corrupted() const { return wire_frames_corrupted_; }

  // --- Scheduler introspection ----------------------------------------------
  // Counters of the GroupScheduler that drives journal transfer.
  const SchedulerStats& scheduler_stats() const { return scheduler_.stats(); }

  // --- At-rest integrity scrubbing ------------------------------------------
  // Starts the background scrubber (see replication/scrubber.h): a
  // low-priority walk over every consistency-group volume that verifies
  // block checksums, compares primary/secondary fingerprints and
  // self-heals what it finds. Scheduled through the GroupScheduler under
  // the pseudo-id kScrubSchedBase. Fails if already enabled.
  Status EnableScrubbing(const ScrubConfig& config);
  Scrubber* scrubber() { return scrubber_.get(); }
  const Scrubber* scrubber() const { return scrubber_.get(); }

 private:
  friend class Scrubber;
  friend class internal::PrimaryInterceptor;

  // A bulk transfer (resync or failback giveback) captured at one instant
  // into one wire frame: compressed when the group compresses transfers,
  // CRC'd, and charged to the link at its frame size.
  struct BulkFrame {
    std::string frame;
    // Journal-record bytes the frame represents (header + payload per
    // extent), the link's logical byte count.
    uint64_t logical_bytes = 0;
    // Extents it carries and their total blocks.
    uint64_t extent_count = 0;
    uint64_t blocks = 0;
  };

  struct Group {
    GroupId id = 0;
    ConsistencyGroupConfig config;
    storage::JournalId primary_journal = 0;
    storage::JournalId secondary_journal = 0;
    std::vector<PairId> pairs;
    // The host-ack policy of the group's pairs (set by the first pair to
    // join an empty group).
    ReplicationMode mode = ReplicationMode::kAsynchronous;
    // P-VOL id -> pair, for the applier.
    std::unordered_map<storage::VolumeId, PairId> by_primary;
    bool suspended = false;
    SuspendReason suspend_reason = SuspendReason::kNone;
    bool failed_over = false;
    // The failback giveback, owed from FailbackGroup (`giveback_since`)
    // until it lands on the main site. What it owes is the pairs'
    // reverse_dirty_ bits: a P-VOL write clears its bits, so a stale
    // giveback block never overwrites newer data, and every (re-)send
    // re-captures the bits still set.
    internal::CopyInFlight giveback;
    SimTime giveback_since = 0;
    // Apply-side: ack_time of the newest applied record.
    SimTime last_applied_ack_time = 0;
    // Host-ack time of the oldest write living only in dirty bitmaps
    // (suspension backlog, failed-over divergence); -1 when none. The
    // group's RPO is the age of the older of this and the primary
    // journal's front record.
    SimTime oldest_unsynced_time = -1;
    // A synchronous group's host writes waiting for the apply ack that
    // covers their record, in sequence order. Each is acked exactly once:
    // by that ack, or locally when the group suspends or fails over.
    struct PendingAck {
      journal::SequenceNumber seq = 0;
      SimTime since = 0;
      storage::WriteInterceptor::AckFn ack;
    };
    std::deque<PendingAck> pending_acks;

    // --- Failure detection / auto-resync state ---
    // Bumped when the journal's sequence space restarts (failback resets
    // the journals); pending ack deadlines from the old space are stale.
    uint64_t ship_epoch = 0;
    // The group resync on the wire, superseded by a new suspension or a
    // failover.
    internal::CopyInFlight resync;
    // The primary journal's written watermark when the oldest resync that
    // has not landed was sent; kNoResyncFence once one lands. A journal
    // batch past it reaching the backup first would apply over the delta
    // that resync owes, so it is dropped like a lost batch.
    journal::SequenceNumber resync_fence = kNoResyncFence;
    // Auto-resync triggers: parked for the forward link's ready edge since
    // `link_wait_since` (-1 = not parked), or the backoff timer.
    SimTime link_wait_since = -1;
    SimDuration resync_backoff = 0;
    sim::EventId resync_retry_event{};
    bool resync_retry_pending = false;
    SimTime resync_retry_at = 0;
    // Counters surfaced in GroupStats.
    uint64_t ack_timeouts = 0;
    uint64_t resync_timeouts = 0;
    uint64_t auto_resync_attempts = 0;

    // --- Transfer-pipeline state ---
    // Current batch size; starts at config.transfer_batch_bytes and moves
    // within [min, max] under adaptive batching.
    uint64_t batch_bytes_now = 0;
    uint64_t records_folded = 0;
    uint64_t folded_bytes_saved = 0;
    uint64_t resync_extents = 0;
    uint64_t resync_blocks = 0;
    uint64_t captures_borrowed = 0;
    uint64_t captures_materialized = 0;
    // --- Wire-format accounting ---
    uint64_t wire_bytes_shipped = 0;
    uint64_t logical_bytes_shipped = 0;
    uint64_t checksum_rejects = 0;
    // Sliding window of the newest shipped batches' (wire, logical)
    // sizes, with running sums, for the windowed compression ratio.
    std::deque<std::pair<uint64_t, uint64_t>> recent_batches;
    uint64_t window_wire_bytes = 0;
    uint64_t window_logical_bytes = 0;
  };

  // The P-VOL write path, called by the interceptor: journals the write,
  // then acks it (async) or ships it at once and holds the ack for the
  // covering apply ack (sync).
  void OnHostWrite(Pair* pair, storage::Volume* volume, uint64_t lba,
                   uint32_t count, std::string_view data,
                   storage::WriteInterceptor::AckFn ack);
  // Acks, in order, the group's waiting host writes whose record is at or
  // below `through` (all of them for kNoSequenceLimit).
  void AckSyncWrites(Group* group, journal::SequenceNumber through);
  // The P-VOL pre-overwrite hook: if an unshipped journal record
  // borrows block `lba` of the pair's P-VOL, copies that whole record
  // (bytes and CRCs) into an owned buffer before the block changes. O(1):
  // one BorrowIndex lookup and one journal Find. Every P-VOL writer (host
  // front end, scrub repair, snapshot restore, giveback landing) reaches
  // it through storage::Volume, so none calls it itself.
  void MaterializeBorrower(Pair* pair, uint64_t lba);
  // Materializes every record that still borrows the pair's P-VOL and
  // removes the hook: the pair is going away, and with it the guarantee
  // that keeps a borrowed view valid.
  void ReleasePvol(Pair* pair);
  // Swaps the interceptor on the pair's S-VOL (guard <-> dirty tracker at
  // failover and failback). If registering `next` fails, the S-VOL is left
  // without one.
  void ReplaceSvolInterceptor(Pair* pair,
                              std::unique_ptr<storage::WriteInterceptor> next);

  // Transfer engine: ships one batch (capped at `max_bytes`, though the
  // journal's one-record progress guarantee may overshoot) from the
  // group's primary journal. The outcome feeds the scheduler's DRR and
  // re-arm decisions.
  PumpOutcome PumpGroup(Group* group, uint64_t max_bytes);
  // Scheduler glue: the slow-heartbeat rescue scan.
  uint64_t HeartbeatScan();
  // Link ready edges. Each is posted as one event (never run inside
  // NetworkLink::SetConnected): the forward edge starts the resync of
  // every failure-suspended group and arms every group with backlog, the
  // reverse edge re-sends every giveback still in flight, both in
  // group-id order.
  void OnForwardLinkUp();
  void OnReverseLinkUp();
  // Arms `id` if the group exists, is healthy and has unshipped backlog
  // (or demands a keep-alive tick).
  void ArmIfPending(GroupId id);
  // Applies contiguous received records to the S-VOLs, batch by batch,
  // up to the first batch that does not land; trims and acks only what
  // landed.
  void ApplyPending(Group* group);
  // Applies one atomic batch [first, last] from the secondary journal to
  // the S-VOLs: grouped by volume and sorted by LBA when safe, in
  // sequence order otherwise. Returns the first failed S-VOL write's
  // status (the batch did not land, though part of it may have).
  Status ApplyBatch(Group* group, journal::SequenceNumber first,
                    journal::SequenceNumber last);
  // Adjusts group->batch_bytes_now from journal backlog and link backlog.
  void AdaptBatchSize(Group* group, journal::JournalVolume* jnl);
  // Whether the group paces its batches adaptively. A synchronous group
  // ships every write at once, so it has no batch size to adapt.
  static bool Adaptive(const Group& group) {
    return group.config.enable_adaptive_batching &&
           group.mode == ReplicationMode::kAsynchronous;
  }
  // Sends the applied watermark back to trim the primary journal (and
  // release the host acks of a synchronous group), `delay` after now: the
  // backup media write a synchronous host write waits for.
  void SendApplyAck(Group* group, journal::SequenceNumber seq,
                    SimDuration delay);
  // Backup-side rejection of a corrupt wire frame: tells the primary to
  // treat the batch as lost (suspend + auto-resync reships the data).
  void SendWireNack(Group* group);
  // Fault-injection gate on the delivery path: with
  // wire_corrupt_probability, flips one random bit of `frame` in place.
  void MaybeCorruptFrame(std::string* frame);
  // Receive side of every wire frame: the fault injector's chance at the
  // bytes, then the CRC-checked decode. An error means nothing of the
  // frame may land.
  StatusOr<std::vector<journal::JournalRecord>> ReceiveFrame(
      std::string* frame);
  // Counts and logs a frame the backup (or, for a giveback, main) site
  // rejected.
  void NoteRejectedFrame(Group* group, const char* what, const Status& why);

  // Names one bulk copy by its owner: a pair's initial copy (`pair` set),
  // else the group's resync or, with `giveback`, its failback giveback.
  // Every other fact about the copy follows from the name: what it owes
  // (the owner's pairs that are not kSwapped, their dirty_ bits or, for a
  // giveback, their reverse_dirty_ bits), its direction (a giveback reads
  // the S-VOLs and lands on the P-VOLs), its link, and its channel, the
  // group's.
  struct CopyRef {
    GroupId group = 0;
    PairId pair = 0;
    bool giveback = false;
  };
  static DirtyBitmap Pair::*OwedBits(const CopyRef& ref) {
    return ref.giveback ? &Pair::reverse_dirty_ : &Pair::dirty_;
  }
  // The pair's volume the copy reads (`source`) or lands on.
  storage::Volume* CopyVolume(const CopyRef& ref, const Pair& pair,
                              bool source);
  sim::NetworkLink* CopyLink(const CopyRef& ref) const {
    return ref.giveback ? to_primary_ : to_secondary_;
  }
  // The copy's in-flight record, or null once its owner is gone.
  internal::CopyInFlight* FindCopy(const CopyRef& ref);

  // The one bulk-transfer capture: every owed run of the group's resync or
  // giveback (ascending LBA, at most kResyncMaxExtentBlocks per extent),
  // read from its source volumes straight into one frame. Records name the
  // pair's P-VOL. The bits are left set; delivery clears what landed.
  BulkFrame CaptureBulk(const CopyRef& ref, bool compress);
  // The one bulk-transfer landing: each decoded record goes to the group's
  // pair whose P-VOL it names, onto the copy's target volume, with the CRCs
  // it carries. Only the sub-runs
  // whose owed bits are still set are written, and exactly the bits of the
  // sub-runs that were written are cleared. Returns false when any write
  // failed (a failed array refuses them all): the copy then stays in
  // flight, and its deadline owns the recovery of what is still owed.
  bool LandBulk(const std::vector<journal::JournalRecord>& records,
                const CopyRef& ref);
  // What SendBulk captured, and whether the link took the frame.
  struct BulkSend {
    Status sent;
    uint64_t extent_count = 0;
    uint64_t blocks = 0;
  };
  // The one bulk send of a resync and a giveback:
  // captures what the copy owes, sends it under a fresh epoch and arms its
  // loss deadline. At delivery a live frame is decoded (a corrupt one is
  // counted and logged) and landed; once it lands whole the copy is no
  // longer in flight and `on_landed` runs.
  BulkSend SendBulk(const CopyRef& ref, bool compress,
                    std::function<void()> on_landed);
  // Marks the copy in flight from now and arms its loss deadline: its
  // latest possible arrival plus the group's ack_timeout (0 = none).
  // Unless that send landed or was superseded by then, OnCopyLost runs.
  void ArmCopyDeadline(const CopyRef& ref);
  // The group suspends (auto-resync ships what the copy owed), or a
  // giveback is re-sent.
  void OnCopyLost(const CopyRef& ref);
  // A superseded copy lands nothing; the bits it owed stay set.
  static void Supersede(internal::CopyInFlight* copy) {
    ++copy->epoch;
    copy->active = false;
    copy->deadline = -1;
  }
  // True while the send of `epoch` is the copy's live one.
  static bool IsLive(const internal::CopyInFlight& copy, uint64_t epoch) {
    return copy.active && copy.epoch == epoch;
  }
  // Puts `pair` in bitmap mode (kSuspended), superseding its own copy.
  static void SuspendPair(Pair* pair) {
    pair->state_ = PairState::kSuspended;
    Supersede(&pair->copy_);
  }

  void StartInitialCopy(Pair* pair, Group* group);
  // Enters bitmap mode (journal backlog -> dirty bits, copies superseded,
  // waiting sync host writes acked locally) and records why: the reason,
  // the suspends counter and the trace.
  void MarkGroupSuspended(Group* group, SuspendReason reason);

  // Failure detection: schedules a check that the batch ending at `expect`
  // is acked within ack_timeout of its latest possible arrival (for a
  // synchronous group, of that arrival plus one unloaded reverse trip).
  void ArmAckDeadline(Group* group, journal::SequenceNumber expect);
  // Suspends the group for `reason` and kicks off auto-resync.
  void SuspendOnFailure(Group* group, SuspendReason reason);
  // Arms (or re-arms, doubling the backoff) the auto-resync retry timer.
  void ScheduleResyncRetry(Group* group, bool reset_backoff);
  // Stands auto-resync down: cancels the backoff timer and the wait for
  // the link.
  void CancelResyncRetry(Group* group);
  // Starts a failure-suspended group's resync now if it can: a journal
  // whose media is still failed backs off again, a dead link parks the
  // group until the ready edge.
  void TryAutoResync(Group* group);

  // Marks the group's giveback owed and sends what it still owes
  // (SendBulk); returns the blocks captured.
  uint64_t SendGiveback(Group* group);

  // Folds the age of the primary journal's oldest unacked record with the
  // group's dirty-bitmap backlog into the RPO reported by GroupStats.
  SimDuration ComputeGroupRpo(const Group* group) const;
  // Pulls `time` (an unsynced write's host-ack instant) into the group's
  // oldest-unsynced bound.
  static void NoteUnsynced(Group* group, SimTime time) {
    if (group->oldest_unsynced_time < 0 || time < group->oldest_unsynced_time) {
      group->oldest_unsynced_time = time;
    }
  }
  // Registers the group's two journals with the attached registry.
  void InstrumentGroupJournals(Group* group);

  Group* FindGroup(GroupId id);
  const Group* FindGroup(GroupId id) const;
  Pair* FindPair(PairId id);

  sim::SimEnvironment* env_;
  storage::StorageArray* primary_;
  storage::StorageArray* secondary_;
  sim::NetworkLink* to_secondary_;
  sim::NetworkLink* to_primary_;
  // Event-driven transfer scheduler: arm edges plus DRR dispatch drive
  // every group's journal transfer and the scrubber's steps.
  GroupScheduler scheduler_;
  // Background integrity scrubber; null until EnableScrubbing.
  std::unique_ptr<Scrubber> scrubber_;
  // Bulk-frame capture pool (see EngineOptions::compute_threads); null
  // when the resolved lane count is 1, making CaptureBulk's pool argument
  // nullptr and the whole data path provably inline.
  std::unique_ptr<exec::ThreadPool> compute_pool_;

  std::map<GroupId, std::unique_ptr<Group>> groups_;
  GroupId next_group_id_ = 1;
  std::map<PairId, std::unique_ptr<Pair>> pairs_;
  PairId next_pair_id_ = 1;

  uint64_t records_shipped_ = 0;
  uint64_t records_applied_ = 0;

  // Fault-injection state (see SetFaultOptions). The corruption Rng is
  // seeded once at construction; its stream continues across option
  // changes so fault drills replay bit-identically.
  FaultOptions fault_options_;
  uint64_t wire_frames_corrupted_ = 0;
  Rng wire_corrupt_rng_{0xc0dec0de};

  // --- Observability (null when detached; hooks are pointer checks) ---
  obs::MetricRegistry* registry_ = nullptr;
  obs::TraceRing* trace_ = nullptr;
  struct EngineInstruments {
    obs::Counter* batches_shipped = nullptr;
    obs::Counter* records_shipped = nullptr;
    obs::Counter* wire_bytes_shipped = nullptr;
    obs::Counter* logical_bytes_shipped = nullptr;
    obs::Counter* batches_acked = nullptr;
    obs::Counter* batches_nacked = nullptr;
    obs::Counter* apply_batches = nullptr;
    obs::Counter* records_applied = nullptr;
    obs::Counter* suspends = nullptr;
    obs::Counter* resyncs = nullptr;
    obs::Counter* failovers = nullptr;
    obs::Counter* failbacks = nullptr;
    obs::Counter* capture_borrowed = nullptr;
    obs::Counter* capture_materialized = nullptr;
    Histogram* batch_wire_bytes = nullptr;
    Histogram* batch_records = nullptr;
    // Compute-pool health ("exec.*"). These describe HOST-side execution,
    // not simulated behavior: they vary with the lane count, so
    // determinism comparisons must exclude the exec.* prefix. Updated by
    // SyncExecStats on the sim thread after join barriers — never from
    // workers, because the registry is not thread-safe.
    obs::Counter* exec_sections = nullptr;
    obs::Counter* exec_inline_sections = nullptr;
    obs::Counter* exec_tasks = nullptr;
  };
  EngineInstruments ins_;
  // Last pool stats folded into the exec.* counters (delta source).
  exec::ThreadPool::Stats exec_synced_;

  // Folds the pool's stat deltas into the exec.* instruments; called on
  // the sim thread after each bulk-frame capture. No-op when detached or
  // inline.
  void SyncExecStats();

  // Shipped batches covered by the windowed compression ratio.
  static constexpr size_t kCompressionWindowBatches = 64;

  static constexpr uint64_t kAckMessageBytes = 64;
  // Longest extent (in blocks) a single resync or giveback record may
  // carry.
  static constexpr uint64_t kResyncMaxExtentBlocks = 256;
  static constexpr journal::SequenceNumber kNoResyncFence = UINT64_MAX;
  static constexpr journal::SequenceNumber kNoSequenceLimit = UINT64_MAX;

  // A consistency group's traffic uses channel == its group id on both
  // links: one ordered stream per group, the essence of the
  // consistency-group guarantee.
  //
  // Scheduler pseudo-id space for the scrubber, disjoint from group ids:
  // the pump callback dispatches ids at or above this base to the scrubber
  // instead of a group.
  static constexpr uint64_t kScrubSchedBase = 1ull << 33;
};

}  // namespace zerobak::replication

#endif  // ZEROBAK_REPLICATION_REPLICATION_H_

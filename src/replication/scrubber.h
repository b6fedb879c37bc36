#ifndef ZEROBAK_REPLICATION_SCRUBBER_H_
#define ZEROBAK_REPLICATION_SCRUBBER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/time.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "replication/group_scheduler.h"
#include "replication/replication.h"
#include "sim/environment.h"

namespace zerobak::replication {

// Scrub pacing and policy knobs. The defaults make one full pass over a
// demo-sized group every simulated second while staying far below the
// transfer engine's event rate (the scrubber holds one scheduler slot,
// examines a bounded number of extents per tick, and spends most of its
// life in the inter-cycle gap — E15a holds the always-on overhead on a
// busy group under 2%).
struct ScrubConfig {
  // Blocks fingerprinted per extent (the scrub and repair granularity).
  uint32_t extent_blocks = 256;
  // Extents examined per scheduler tick — the low-priority budget.
  uint32_t max_extents_per_step = 8;
  // Gap between ticks within a cycle.
  SimDuration step_interval = Milliseconds(5);
  // Idle gap between the end of one full pass and the start of the next.
  // This is the duty-cycle dial: scanning is a double-sided CRC pass
  // over resident data, so back-to-back cycles would tax a busy group.
  SimDuration cycle_interval = Milliseconds(1000);
  // Self-heal what scrub finds (dirty-mark + resync / direct restore).
  // false = detect-and-count only, the ablation arm of E15.
  bool repair = true;
};

// Cumulative scrub outcomes (engine lifetime).
struct ScrubStats {
  uint64_t cycles_completed = 0;
  uint64_t extents_scanned = 0;
  uint64_t blocks_scanned = 0;
  // Silent corruption caught by the per-block CRC sidecar.
  uint64_t checksum_mismatches = 0;
  // Extents unreadable because of an active media-error episode.
  uint64_t media_errors = 0;
  // Quiescent-group extents whose primary/secondary bytes differ.
  uint64_t divergent_extents = 0;
  // Extents dirty-marked for targeted resync (secondary-side repair).
  uint64_t repairs_scheduled = 0;
  // Extents restored secondary -> primary (primary-side rot repair).
  uint64_t primary_restores = 0;
  // Repairs postponed (journal backlog / media still failing); they are
  // retried on the next cycle.
  uint64_t deferred_repairs = 0;
  // Both sides bad — nothing trustworthy to heal from.
  uint64_t unrecoverable_extents = 0;
};

// Background at-rest integrity scrubber. Walks every consistency group's
// pairs in extent runs, verifies the per-block CRC sidecar on both sites,
// fingerprints primary against secondary when the group is quiescent, and
// self-heals what it finds:
//   * bad/divergent secondary extent -> dirty-mark + SuspendOnFailure
//     (kScrubRepair) -> the existing auto-resync ships just those extents;
//   * bad primary extent with a clean secondary -> direct secondary ->
//     primary restore (deferred while un-replicated writes exist, so a
//     restore can never clobber newer data);
//   * both bad -> counted unrecoverable, left alone.
// Scheduling: the scrubber occupies one GroupScheduler slot (pseudo-id
// kScrubSchedBase) armed at step_interval ticks. Each tick scans at most
// max_extents_per_step extents, which is what keeps scrub overhead
// invisible next to replication traffic.
class Scrubber {
 public:
  Scrubber(ReplicationEngine* engine, ScrubConfig config);
  ~Scrubber();

  Scrubber(const Scrubber&) = delete;
  Scrubber& operator=(const Scrubber&) = delete;

  // Begins the first cycle (called by ReplicationEngine::EnableScrubbing).
  void Start();

  // One scheduler tick: scans up to max_extents_per_step extents.
  // `max_bytes` is the DRR budget — unused, scrub ships nothing — and the
  // returned outcome keeps the slot armed while a cycle is in progress.
  PumpOutcome PumpStep(uint64_t max_bytes);

  const ScrubConfig& config() const { return config_; }
  const ScrubStats& stats() const { return stats_; }
  // True while a pass is walking volumes (false in the inter-cycle gap).
  bool cycle_active() const { return cycle_active_; }

  // Metrics ("scrub.*") and trace events; null pointers detach.
  void AttachObservability(obs::MetricRegistry* registry,
                           obs::TraceRing* trace);

 private:
  // One pair's scrub work for the current cycle, snapshotted at cycle
  // start (pairs created later are picked up next cycle; deleted pairs
  // are skipped when they no longer resolve).
  struct WorkItem {
    GroupId group = 0;
    PairId pair = 0;
    uint64_t block_count = 0;
  };

  void StartCycle();
  void FinishCycle();
  // Arms the inter-cycle gap timer that kicks off the next pass.
  void ScheduleRestart();
  // Scans the extent under the cursor and advances it. Returns false when
  // the cycle is exhausted.
  bool ScrubNextExtent();
  // Verifies + (optionally) repairs one extent of one pair.
  void ScrubExtent(const WorkItem& item, uint64_t lba, uint32_t count);
  void RecordRepair(GroupId group, storage::VolumeId volume, uint64_t lba);

  ReplicationEngine* engine_;
  ScrubConfig config_;

  std::vector<WorkItem> work_;
  size_t work_index_ = 0;
  uint64_t next_lba_ = 0;
  bool cycle_active_ = false;
  uint64_t extents_this_cycle_ = 0;
  uint64_t repairs_this_cycle_ = 0;

  // Pending inter-cycle restart event.
  sim::EventId restart_event_{};
  bool restart_pending_ = false;

  ScrubStats stats_;
  // Scratch buffers reused across fingerprint comparisons.
  std::string scratch_primary_;
  std::string scratch_secondary_;

  obs::TraceRing* trace_ = nullptr;
  struct Instruments {
    obs::Counter* cycles = nullptr;
    obs::Counter* extents_scanned = nullptr;
    obs::Counter* blocks_scanned = nullptr;
    obs::Counter* checksum_mismatches = nullptr;
    obs::Counter* media_errors = nullptr;
    obs::Counter* divergent_extents = nullptr;
    obs::Counter* repairs_scheduled = nullptr;
    obs::Counter* primary_restores = nullptr;
    obs::Counter* deferred_repairs = nullptr;
    obs::Counter* unrecoverable = nullptr;
    obs::Gauge* cycle_active = nullptr;
  };
  Instruments ins_;
};

}  // namespace zerobak::replication

#endif  // ZEROBAK_REPLICATION_SCRUBBER_H_

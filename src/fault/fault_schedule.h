#ifndef ZEROBAK_FAULT_FAULT_SCHEDULE_H_
#define ZEROBAK_FAULT_FAULT_SCHEDULE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "block/mem_volume.h"
#include "common/rng.h"
#include "common/time.h"
#include "journal/journal.h"
#include "sim/environment.h"
#include "sim/network.h"
#include "storage/array.h"

namespace zerobak::fault {

// One injected fault transition.
enum class FaultKind {
  kLinkDown,          // Partition a link (drops in-flight traffic).
  kLinkUp,            // Heal the partition.
  kLatencySpikeStart, // Raise a link's base latency.
  kLatencySpikeEnd,   // Restore the link's configured latency.
  kArrayFail,         // Crash a storage array (site disaster).
  kArrayRepair,       // Repair the array.
  kCorruptStart,      // Start flipping bits in in-flight wire frames.
  kCorruptEnd,        // Stop the bit flips.
  kMediaErrorStart,   // Begin a latent-sector-error episode on a volume.
  kMediaErrorEnd,     // Heal the volume's media.
  kBitRot,            // Silently flip one bit of one stored block.
};

const char* FaultKindName(FaultKind kind);

struct FaultEvent {
  SimTime at = 0;
  FaultKind kind = FaultKind::kLinkDown;
  // Index into the schedule's links()/arrays()/media-target registration
  // order (per fault class).
  size_t target = 0;
  // For kLatencySpikeStart: the spiked base latency.
  SimDuration latency = 0;
  // For kMediaErrorStart: the episode's per-LBA hash seed (drawn at
  // generation time so episodes replay on the same sectors).
  uint64_t seed = 0;
  // For kBitRot: the block and bit to flip.
  uint64_t lba = 0;
  uint32_t bit = 0;
};

// Tuning knobs for the generated fault mix. Every fault class draws its
// inter-arrival gaps from an exponential distribution (mean below) and its
// duration uniformly from [min, max]; a mean of 0 disables the class.
// Faults never overlap within one (class, target) lane: the next gap
// starts when the previous fault ends.
struct FaultScheduleConfig {
  uint64_t seed = 1;
  // Faults are generated in [arm time, arm time + horizon).
  SimDuration horizon = Seconds(1);

  // Link partitions ("flaps").
  SimDuration mean_flap_interval = Milliseconds(100);
  SimDuration min_outage = Milliseconds(2);
  SimDuration max_outage = Milliseconds(20);

  // Link latency spikes.
  SimDuration mean_spike_interval = 0;
  SimDuration spike_latency = Milliseconds(50);
  SimDuration min_spike = Milliseconds(2);
  SimDuration max_spike = Milliseconds(20);

  // Array crash/repair cycles.
  SimDuration mean_crash_interval = 0;
  SimDuration min_repair = Milliseconds(20);
  SimDuration max_repair = Milliseconds(100);

  // Wire-frame corruption episodes: while one is active, every registered
  // corruption target runs at `corrupt_probability` (bit flips on
  // in-flight batches, caught by the wire format's CRC).
  SimDuration mean_corrupt_interval = 0;
  double corrupt_probability = 0.2;
  SimDuration min_corrupt = Milliseconds(2);
  SimDuration max_corrupt = Milliseconds(20);

  // At-rest media-error episodes: while one is active, the affected
  // volume fails reads/writes per-LBA with `media_error_probability`
  // (journal targets fail every append instead — a journal LDEV error is
  // all-or-nothing for the write path). Each episode draws a fresh seed,
  // so distinct episodes hit distinct — but replayable — bad sectors.
  SimDuration mean_media_interval = 0;
  double media_error_probability = 0.01;
  SimDuration min_media = Milliseconds(2);
  SimDuration max_media = Milliseconds(20);

  // Silent bit rot: point events, each flipping one uniformly chosen bit
  // of one uniformly chosen block of a registered volume. Rot is never
  // auto-healed — Heal() ends error episodes but flipped bits stay until
  // the scrubber repairs them.
  SimDuration mean_rot_interval = 0;
};

// A deterministic fault injector: from a seeded RNG it pre-generates a
// timeline of link flaps, latency spikes and array crash/repair events
// over a finite horizon, then drives them off the simulation clock. The
// same (config, targets) always produces the identical fault sequence, so
// chaos experiments replay exactly — the property every regression test
// here leans on.
//
// Lifecycle: register targets with AddLink/AddArray, then Arm() once.
// Heal() cancels whatever has not fired yet and restores every target to
// healthy, marking the end of a chaos phase.
class FaultSchedule {
 public:
  FaultSchedule(sim::SimEnvironment* env, FaultScheduleConfig config);
  ~FaultSchedule();

  FaultSchedule(const FaultSchedule&) = delete;
  FaultSchedule& operator=(const FaultSchedule&) = delete;

  // Target registration; call before Arm().
  void AddLink(sim::NetworkLink* link);
  void AddArray(storage::StorageArray* array);
  // Registers a corruption knob: called with `corrupt_probability` when a
  // corruption episode starts and 0.0 when it ends (and on Heal). The
  // replication engine's SetFaultOptions is the usual target.
  void AddCorruptionTarget(std::function<void(double)> set_probability);

  // Registers a volume on the at-rest media lane: it receives seeded
  // media-error episodes (kMediaErrorStart/End) and, when
  // mean_rot_interval is set, silent bit flips (kBitRot).
  void AddMediaTarget(block::MemVolume* volume);
  // Journal flavor: episodes toggle JournalVolume::SetMediaError, making
  // appends fail with kDataLoss for the duration. No bit rot (journal
  // payloads are CRC-protected end to end by the wire format).
  void AddMediaTarget(journal::JournalVolume* journal);

  // Generates the timeline starting at env->now() and schedules every
  // event. Call exactly once.
  void Arm();

  // Cancels all pending events and restores every target: links
  // reconnected at their configured latency, arrays repaired.
  void Heal();

  bool armed() const { return armed_; }
  // The full generated timeline (valid after Arm()).
  const std::vector<FaultEvent>& events() const { return events_; }
  // Events that actually fired so far.
  uint64_t faults_fired() const { return fired_; }

 private:
  // One registered media target, type-erased over MemVolume / JournalVolume.
  // `flip` is null for journals (no bit rot lane).
  struct MediaTarget {
    std::function<void(double, uint64_t)> set_error;
    std::function<bool(uint64_t, uint32_t)> flip;
    uint64_t block_count = 0;
    uint32_t block_bits = 0;
  };

  void Fire(const FaultEvent& event);
  // Appends an alternating begin/end event lane for one fault class.
  void GenerateLane(SimTime from, SimTime until, SimDuration mean_gap,
                    SimDuration min_len, SimDuration max_len,
                    FaultKind begin, FaultKind end, size_t target,
                    SimDuration latency);
  // Media-error episodes (per-episode seed) for media target `target`.
  void GenerateMediaLane(SimTime from, SimTime until, size_t target);
  // Bit-rot point events for media target `target`.
  void GenerateRotLane(SimTime from, SimTime until, size_t target);

  sim::SimEnvironment* env_;
  FaultScheduleConfig config_;
  Rng rng_;
  std::vector<sim::NetworkLink*> links_;
  // Configured base latency of each link at Arm() time, for restores.
  std::vector<SimDuration> link_latency_;
  std::vector<storage::StorageArray*> arrays_;
  std::vector<std::function<void(double)>> corruption_targets_;
  std::vector<MediaTarget> media_targets_;
  std::vector<FaultEvent> events_;
  std::vector<sim::EventId> pending_;
  bool armed_ = false;
  uint64_t fired_ = 0;
};

}  // namespace zerobak::fault

#endif  // ZEROBAK_FAULT_FAULT_SCHEDULE_H_

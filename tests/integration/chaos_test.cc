// Chaos drill for the paper's "no backup-data collapse" property (E2,
// hardened): a multi-volume consistency group runs a tagged-block workload
// while a seeded FaultSchedule flaps the inter-site links, spikes their
// latency, randomly drops messages and flips bits in in-flight wire
// frames (caught by the batch CRC); one lane also crashes the backup
// array. The group must (a) auto-recover to
// kPaired and full convergence once the faults clear — journal overflows
// included — and (b) after a failover at a random instant mid-chaos, leave
// backup images that equal the primary write-order history truncated at
// ONE single instant. The prefix property is checked mechanically from
// per-block tags, not via the database layer.
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/coding.h"
#include "common/rng.h"
#include "db/minidb.h"
#include "fault/fault_schedule.h"
#include "journal/journal.h"
#include "replication/replication.h"
#include "replication/scrubber.h"
#include "storage/array.h"
#include "storage/array_device.h"
#include "workload/kv_workload.h"

namespace zerobak::replication {
namespace {

constexpr int kVolumes = 3;
constexpr uint64_t kBlocks = 96;

storage::ArrayConfig ZeroLatency(const std::string& serial) {
  storage::ArrayConfig cfg;
  cfg.serial = serial;
  cfg.media = block::DeviceLatencyModel{0, 0, 0, 0, 1};
  return cfg;
}

sim::NetworkLinkConfig ChaosLink(uint64_t seed) {
  sim::NetworkLinkConfig cfg;
  cfg.base_latency = Milliseconds(1);
  cfg.jitter = Microseconds(300);
  cfg.bandwidth_bytes_per_sec = 0;
  cfg.seed = seed;
  return cfg;
}

// Backup-array crash/repair cycles alongside link flaps: while the array
// is down every landing on it fails, so each crash ends as a copy or a
// batch that did not land, and the recovery machinery must ship it again.
fault::FaultScheduleConfig ArrayCrashChaos(uint64_t fault_seed,
                                           SimDuration horizon) {
  fault::FaultScheduleConfig fcfg;
  fcfg.seed = fault_seed;
  fcfg.horizon = horizon;
  fcfg.mean_flap_interval = Milliseconds(15);
  fcfg.min_outage = Milliseconds(2);
  fcfg.max_outage = Milliseconds(8);
  fcfg.mean_crash_interval = Milliseconds(15);
  fcfg.min_repair = Milliseconds(1);
  fcfg.max_repair = Milliseconds(10);
  return fcfg;
}

// Array crashes of `schedule` that fired by `now`.
uint64_t CrashesFired(const fault::FaultSchedule& schedule, SimTime now) {
  uint64_t n = 0;
  for (const fault::FaultEvent& e : schedule.events()) {
    n += e.kind == fault::FaultKind::kArrayFail && e.at <= now;
  }
  return n;
}

// One write of the totally ordered primary history: the block's first 8
// bytes carry a unique tag so the backup image can be decoded back into
// "which prefix of the history is this".
struct WriteEvent {
  int vol = 0;
  uint64_t lba = 0;
  uint64_t tag = 0;
};

class ChaosRun {
 public:
  // `coalesce` toggles the transfer-pipeline optimization bundle
  // (write-folding, adaptive batching, wire compression): the prefix
  // invariant must hold identically with it on and off.
  // `scrub` turns on the background at-rest integrity scrubber (the
  // repair arm of the media-fault drill).
  explicit ChaosRun(uint64_t seed, bool coalesce = true, bool scrub = false)
      : main_(&env_, ZeroLatency("MAIN")),
        backup_(&env_, ZeroLatency("BKUP")),
        to_backup_(&env_, ChaosLink(seed * 31 + 1), "fwd"),
        to_main_(&env_, ChaosLink(seed * 31 + 2), "rev"),
        engine_(&env_, &main_, &backup_, &to_backup_, &to_main_),
        rng_(seed) {
    ConsistencyGroupConfig cfg;
    cfg.name = "chaos";
    // Small journal so mid-outage backlogs genuinely overflow.
    cfg.journal_capacity_bytes = 64 << 10;
    cfg.transfer_interval = Milliseconds(1);
    cfg.ack_timeout = Milliseconds(10);
    cfg.resync_backoff_initial = Milliseconds(2);
    cfg.resync_backoff_max = Milliseconds(20);
    cfg.enable_write_folding = coalesce;
    cfg.enable_adaptive_batching = coalesce;
    cfg.compress_transfers = coalesce;
    auto g = engine_.CreateConsistencyGroup(cfg);
    EXPECT_TRUE(g.ok());
    group_ = *g;
    for (int v = 0; v < kVolumes; ++v) {
      auto p = main_.CreateVolume("vol" + std::to_string(v), kBlocks);
      auto s = backup_.CreateVolume("r-vol" + std::to_string(v), kBlocks);
      EXPECT_TRUE(p.ok() && s.ok());
      pvols_.push_back(*p);
      svols_.push_back(*s);
      PairConfig pc;
      pc.name = "pair" + std::to_string(v);
      pc.primary = *p;
      pc.secondary = *s;
      pc.mode = ReplicationMode::kAsynchronous;
      pc.group = group_;
      auto pair = engine_.CreatePair(pc);
      EXPECT_TRUE(pair.ok());
      pairs_.push_back(*pair);
    }
    if (scrub) {
      ScrubConfig scfg;
      scfg.extent_blocks = 16;
      scfg.max_extents_per_step = 32;
      scfg.step_interval = Milliseconds(1);
      scfg.cycle_interval = Milliseconds(5);
      EXPECT_TRUE(engine_.EnableScrubbing(scfg).ok());
    }
    env_.RunFor(Milliseconds(5));
  }

  void ArmChaos(uint64_t fault_seed, SimDuration horizon) {
    fault::FaultScheduleConfig fcfg;
    fcfg.seed = fault_seed;
    fcfg.horizon = horizon;
    fcfg.mean_flap_interval = Milliseconds(12);
    fcfg.min_outage = Milliseconds(2);
    fcfg.max_outage = Milliseconds(8);
    fcfg.mean_spike_interval = Milliseconds(30);
    fcfg.spike_latency = Milliseconds(4);
    fcfg.min_spike = Milliseconds(2);
    fcfg.max_spike = Milliseconds(10);
    // Corruption episodes: delivered batches get bit-flipped and must be
    // caught by the wire CRC and recovered like drops.
    fcfg.mean_corrupt_interval = Milliseconds(25);
    fcfg.corrupt_probability = 0.3;
    fcfg.min_corrupt = Milliseconds(2);
    fcfg.max_corrupt = Milliseconds(8);
    schedule_ = std::make_unique<fault::FaultSchedule>(&env_, fcfg);
    schedule_->AddLink(&to_backup_);
    schedule_->AddLink(&to_main_);
    schedule_->AddCorruptionTarget([this](double p) {
      engine_.SetFaultOptions({.wire_corrupt_probability = p});
    });
    schedule_->Arm();
    to_backup_.set_drop_probability(0.02);
    to_main_.set_drop_probability(0.02);
  }

  void HealChaos() {
    schedule_->Heal();
    to_backup_.set_drop_probability(0.0);
    to_main_.set_drop_probability(0.0);
  }

  // Link flaps and backup-array crashes (ArrayCrashChaos); HealChaos ends
  // them.
  void ArmArrayChaos(uint64_t fault_seed, SimDuration horizon) {
    schedule_ = std::make_unique<fault::FaultSchedule>(
        &env_, ArrayCrashChaos(fault_seed, horizon));
    schedule_->AddLink(&to_backup_);
    schedule_->AddLink(&to_main_);
    schedule_->AddArray(&backup_);
    schedule_->Arm();
  }

  // The at-rest media lane: seeded error episodes on the primary journal
  // LDEV (every append fails -> kMediaError suspension) and silent bit
  // rot on the S-VOL stores. Two schedules because the lanes target
  // different hardware: the journal gets all-or-nothing episodes, the
  // data volumes get per-block flips.
  void ArmMediaChaos(uint64_t fault_seed, SimDuration horizon) {
    fault::FaultScheduleConfig jcfg;
    jcfg.seed = fault_seed;
    jcfg.horizon = horizon;
    jcfg.mean_media_interval = Milliseconds(20);
    jcfg.min_media = Milliseconds(2);
    jcfg.max_media = Milliseconds(6);
    media_schedule_ = std::make_unique<fault::FaultSchedule>(&env_, jcfg);
    media_schedule_->AddMediaTarget(engine_.primary_journal(group_));
    media_schedule_->Arm();

    fault::FaultScheduleConfig rcfg;
    rcfg.seed = fault_seed * 17 + 3;
    rcfg.horizon = horizon;
    rcfg.mean_rot_interval = Milliseconds(5);
    rot_schedule_ = std::make_unique<fault::FaultSchedule>(&env_, rcfg);
    for (int v = 0; v < kVolumes; ++v) {
      rot_schedule_->AddMediaTarget(
          &backup_.GetVolume(svols_[static_cast<size_t>(v)])->store());
    }
    rot_schedule_->Arm();
  }

  // Heals the injectors only: bits already flipped stay flipped (that is
  // the scrubber's job, or the ablation's evidence).
  void HealMediaChaos() {
    media_schedule_->Heal();
    rot_schedule_->Heal();
  }

  uint64_t BitFlips() {
    uint64_t n = 0;
    for (int v = 0; v < kVolumes; ++v) {
      n += backup_.GetVolume(svols_[static_cast<size_t>(v)])
               ->store()
               .bit_flips();
    }
    return n;
  }

  // Application-visible sweep: reads every backup block through the
  // checksum-verified path, returning how many failed with kDataLoss.
  // Any other failure aborts the test.
  uint64_t CountBadReads() {
    uint64_t bad = 0;
    std::string out;
    for (int v = 0; v < kVolumes; ++v) {
      for (uint64_t lba = 0; lba < kBlocks; ++lba) {
        Status s = backup_.GetVolume(svols_[static_cast<size_t>(v)])
                       ->Read(lba, 1, &out);
        if (s.code() == StatusCode::kDataLoss) {
          ++bad;
        } else {
          EXPECT_TRUE(s.ok()) << s;
        }
      }
    }
    return bad;
  }

  // One tagged host write on the main site, or (after a failover) on the
  // backup site, where the business then runs. It goes through the host
  // front end; with zero media latency it lands at submission, so the
  // history is in submission order. acks_[i] counts the acks of the i-th
  // write.
  void WriteTagged(bool on_backup = false) {
    const int vol = static_cast<int>(rng_.Uniform(kVolumes));
    const uint64_t lba = rng_.Zipf(kBlocks, 0.8);  // Hot blocks rewrite.
    const uint64_t tag = ++next_tag_;
    std::string data(block::kDefaultBlockSize,
                     static_cast<char>('A' + vol));
    EncodeFixed64(data.data(), tag);
    storage::StorageArray& array = on_backup ? backup_ : main_;
    const auto& vols = on_backup ? svols_ : pvols_;
    const size_t w = acks_.size();
    acks_.push_back(0);
    array.SubmitHostWrite(vols[static_cast<size_t>(vol)], lba,
                          std::move(data), [this, w, tag](block::IoResult r) {
                            EXPECT_TRUE(r.status.ok())
                                << "host writes must never fail, tag " << tag
                                << ": " << r.status;
                            ++acks_[w];
                          });
    history_.push_back(WriteEvent{vol, lba, tag});
  }

  ::testing::AssertionResult EveryWriteAckedOnce() const {
    for (size_t w = 0; w < acks_.size(); ++w) {
      if (acks_[w] != 1) {
        return ::testing::AssertionFailure()
               << "host write " << w << " acked " << acks_[w] << " times";
      }
    }
    return ::testing::AssertionSuccess();
  }

  void RunWrites(int n, bool on_backup = false) {
    for (int i = 0; i < n; ++i) {
      WriteTagged(on_backup);
      env_.RunFor(static_cast<SimDuration>(
          rng_.Uniform(Microseconds(300)) + Microseconds(50)));
    }
  }

  void SetLinks(bool connected) {
    to_backup_.SetConnected(connected);
    to_main_.SetConnected(connected);
  }

  GroupStats Stats() {
    auto stats = engine_.GetGroupStats(group_);
    EXPECT_TRUE(stats.ok()) << stats.status();
    return stats.ok() ? *stats : GroupStats{};
  }

  // After HealChaos: the recovery machinery alone (no operator resync!)
  // must bring every pair back to kPaired with identical content.
  ::testing::AssertionResult DrainToConverged() {
    for (int round = 0; round < 150; ++round) {
      env_.RunFor(Milliseconds(10));
      auto stats = engine_.GetGroupStats(group_);
      if (!stats.ok()) return ::testing::AssertionFailure() << stats.status();
      if (stats->suspended || stats->applied != stats->written) continue;
      bool paired = true;
      bool equal = true;
      for (int v = 0; v < kVolumes; ++v) {
        paired &= engine_.GetPair(pairs_[static_cast<size_t>(v)])->state() ==
                  PairState::kPaired;
        equal &= main_.GetVolume(pvols_[static_cast<size_t>(v)])
                     ->ContentEquals(
                         *backup_.GetVolume(svols_[static_cast<size_t>(v)]));
      }
      if (paired && equal) return ::testing::AssertionSuccess();
    }
    auto stats = engine_.GetGroupStats(group_);
    return ::testing::AssertionFailure()
           << "never reconverged: suspended="
           << (stats.ok() ? stats->suspended : true) << " reason="
           << (stats.ok() ? SuspendReasonName(stats->suspend_reason) : "?");
  }

  FailoverReport Failover() {
    main_.SetFailed(true);
    to_backup_.SetConnected(false);
    to_main_.SetConnected(false);
    auto report = engine_.FailoverGroup(group_);
    EXPECT_TRUE(report.ok());
    return report.ok() ? *report : FailoverReport{};
  }

  ::testing::AssertionResult BackupIsWriteOrderPrefix() {
    return IsWriteOrderPrefix(backup_, svols_, /*require_all=*/false);
  }

  // Mechanical prefix check: there must exist a single cut 0 <= k <=
  // history.size() such that every block of `vols` equals the content
  // after exactly the first k writes (k == history.size() when
  // `require_all`). Each block's tag constrains k to an interval; the
  // intersection must be non-empty.
  ::testing::AssertionResult IsWriteOrderPrefix(
      storage::StorageArray& array, const std::vector<storage::VolumeId>& vols,
      bool require_all) {
    std::map<std::pair<int, uint64_t>,
             std::vector<std::pair<uint64_t, size_t>>>
        per_block;  // (vol, lba) -> [(tag, history index)] in order.
    for (size_t i = 0; i < history_.size(); ++i) {
      per_block[{history_[i].vol, history_[i].lba}].emplace_back(
          history_[i].tag, i);
    }
    size_t lo = 0;           // k >= lo.
    size_t hi = SIZE_MAX;    // k < hi.
    for (int v = 0; v < kVolumes; ++v) {
      for (uint64_t lba = 0; lba < kBlocks; ++lba) {
        const std::string blk =
            array.GetVolume(vols[static_cast<size_t>(v)])
                ->store()
                .ReadBlock(lba);
        const uint64_t tag = DecodeFixed64(blk.data());
        auto it = per_block.find({v, lba});
        if (it == per_block.end()) {
          if (tag != 0) {
            return ::testing::AssertionFailure()
                   << "vol " << v << " lba " << lba
                   << " has tag " << tag << " but was never written";
          }
          continue;
        }
        const auto& writes = it->second;
        if (tag == 0) {
          // No write to this block applied: k precedes the first one.
          hi = std::min(hi, writes.front().second + 1);
          continue;
        }
        size_t j = writes.size();
        for (size_t w = 0; w < writes.size(); ++w) {
          if (writes[w].first == tag) {
            j = w;
            break;
          }
        }
        if (j == writes.size()) {
          return ::testing::AssertionFailure()
                 << "vol " << v << " lba " << lba << " has tag " << tag
                 << " which no write to that block ever produced";
        }
        lo = std::max(lo, writes[j].second + 1);
        if (j + 1 < writes.size()) {
          hi = std::min(hi, writes[j + 1].second + 1);
        }
      }
    }
    if (lo >= hi) {
      return ::testing::AssertionFailure()
             << "no single cut satisfies all blocks (lo " << lo << " >= hi "
             << hi << "): the image mixes two instants — collapsed";
    }
    if (require_all && hi <= history_.size()) {
      return ::testing::AssertionFailure()
             << "the image misses writes from " << hi - 1 << " of "
             << history_.size() << " on";
    }
    return ::testing::AssertionSuccess();
  }

  // Tags of every backup block, for determinism comparison.
  std::vector<uint64_t> BackupFingerprint() {
    std::vector<uint64_t> out;
    for (int v = 0; v < kVolumes; ++v) {
      for (uint64_t lba = 0; lba < kBlocks; ++lba) {
        out.push_back(DecodeFixed64(
            backup_.GetVolume(svols_[static_cast<size_t>(v)])
                ->store()
                .ReadBlock(lba)
                .data()));
      }
    }
    return out;
  }

  uint64_t Overflows() {
    auto stats = engine_.GetGroupStats(group_);
    return stats.ok() ? stats->journal_overflows : 0;
  }

  uint64_t FaultsFired() const {
    return schedule_ == nullptr ? 0 : schedule_->faults_fired();
  }

  sim::SimEnvironment env_;
  storage::StorageArray main_;
  storage::StorageArray backup_;
  sim::NetworkLink to_backup_;
  sim::NetworkLink to_main_;
  ReplicationEngine engine_;
  Rng rng_;
  GroupId group_ = 0;
  std::vector<storage::VolumeId> pvols_;
  std::vector<storage::VolumeId> svols_;
  std::vector<PairId> pairs_;
  std::unique_ptr<fault::FaultSchedule> schedule_;
  std::unique_ptr<fault::FaultSchedule> media_schedule_;
  std::unique_ptr<fault::FaultSchedule> rot_schedule_;
  std::vector<WriteEvent> history_;
  std::vector<int> acks_;
  uint64_t next_tag_ = 0;
};

// One full scenario: chaos -> heal -> auto-recovery -> more chaos -> fail
// over at a random instant -> mechanical prefix check.
struct ScenarioResult {
  uint64_t overflows = 0;
  uint64_t faults = 0;
  journal::SequenceNumber recovery_point = 0;
  std::vector<uint64_t> fingerprint;
};

ScenarioResult RunScenario(uint64_t seed, bool coalesce = true) {
  ChaosRun run(seed, coalesce);
  ScenarioResult result;

  // Phase 1: sustained chaos, then heal and demand full auto-recovery.
  run.ArmChaos(seed * 101 + 1, Milliseconds(150));
  run.RunWrites(350);
  result.faults = run.FaultsFired();
  run.HealChaos();
  EXPECT_TRUE(run.DrainToConverged()) << "seed " << seed;

  // Phase 2: chaos again; disaster strikes at a random write instant.
  run.ArmChaos(seed * 101 + 7, Milliseconds(200));
  run.RunWrites(30 + static_cast<int>(run.rng_.Uniform(150)));
  result.overflows = run.Overflows();
  FailoverReport report = run.Failover();
  result.recovery_point = report.recovery_point;
  EXPECT_TRUE(run.BackupIsWriteOrderPrefix()) << "seed " << seed;
  EXPECT_TRUE(run.EveryWriteAckedOnce()) << "seed " << seed;
  result.fingerprint = run.BackupFingerprint();
  return result;
}

// Result of a recovery-edge lane: how often the lane hit the window it
// targets, and the final backup image for the replay comparison.
struct EdgeLaneResult {
  uint64_t hits = 0;
  std::vector<uint64_t> fingerprint;
};

// Edge lane: partitions long enough to suspend the group, each healed and
// cut again 0-1.2 ms later — often while the resync the link's ready edge
// started is still on the wire (one trip is 1-1.3 ms). The backup must be
// a write-order prefix at every cut, and the group must reconverge once
// the link stays up.
EdgeLaneResult RunEdgeRepartitionLane(uint64_t seed) {
  ChaosRun run(seed);
  EdgeLaneResult result;
  run.RunWrites(60);
  for (int cycle = 0; cycle < 6; ++cycle) {
    run.SetLinks(false);
    run.RunWrites(100);  // ~20 ms: past the 10 ms ack deadline.
    EXPECT_TRUE(run.Stats().suspended) << "seed " << seed;
    run.SetLinks(true);
    run.env_.RunFor(
        static_cast<SimDuration>(run.rng_.Uniform(4)) * Microseconds(400));
    if (run.Stats().recovery_wait == RecoveryWait::kResyncInFlight) {
      ++result.hits;
    }
    run.SetLinks(false);
    EXPECT_TRUE(run.BackupIsWriteOrderPrefix())
        << "seed " << seed << " cycle " << cycle;
  }
  run.SetLinks(true);
  run.RunWrites(40);
  EXPECT_TRUE(run.DrainToConverged()) << "seed " << seed;
  EXPECT_TRUE(run.IsWriteOrderPrefix(run.backup_, run.svols_,
                                     /*require_all=*/true))
      << "seed " << seed;
  EXPECT_TRUE(run.EveryWriteAckedOnce()) << "seed " << seed;
  result.fingerprint = run.BackupFingerprint();
  return result;
}

// Failback lane: the business runs on the backup site after a failover,
// then fails back while the reverse link partitions 0-1 ms after the
// giveback left (one trip is 1-1.3 ms) and keeps flapping under seeded
// faults. The giveback must land exactly once, so both sites end up
// holding the whole cross-site history.
EdgeLaneResult RunFailbackPartitionLane(uint64_t seed) {
  ChaosRun run(seed);
  EdgeLaneResult result;
  run.RunWrites(80);
  EXPECT_TRUE(run.DrainToConverged()) << "seed " << seed;
  run.Failover();
  EXPECT_TRUE(run.BackupIsWriteOrderPrefix()) << "seed " << seed;
  run.RunWrites(40, /*on_backup=*/true);

  run.main_.SetFailed(false);
  run.SetLinks(true);
  run.env_.RunFor(0);  // The heal's ready edges.
  EXPECT_TRUE(run.engine_.FailbackGroup(run.group_).ok()) << "seed " << seed;
  run.env_.RunFor(
      static_cast<SimDuration>(run.rng_.Uniform(3)) * Microseconds(500));
  run.to_main_.SetConnected(false);
  run.RunWrites(40);
  if (run.Stats().giveback_in_flight) ++result.hits;
  run.to_main_.SetConnected(true);

  fault::FaultScheduleConfig fcfg;
  fcfg.seed = seed * 101 + 3;
  fcfg.horizon = Milliseconds(60);
  fcfg.mean_flap_interval = Milliseconds(8);
  fcfg.min_outage = Milliseconds(1);
  fcfg.max_outage = Milliseconds(6);
  fault::FaultSchedule flaps(&run.env_, fcfg);
  flaps.AddLink(&run.to_main_);
  flaps.Arm();
  run.RunWrites(300);
  flaps.Heal();

  EXPECT_TRUE(run.DrainToConverged()) << "seed " << seed;
  EXPECT_FALSE(run.Stats().giveback_in_flight) << "seed " << seed;
  EXPECT_TRUE(run.IsWriteOrderPrefix(run.main_, run.pvols_,
                                     /*require_all=*/true))
      << "seed " << seed << ": the main site lost writes";
  EXPECT_TRUE(run.IsWriteOrderPrefix(run.backup_, run.svols_,
                                     /*require_all=*/true))
      << "seed " << seed;
  EXPECT_TRUE(run.EveryWriteAckedOnce()) << "seed " << seed;
  result.fingerprint = run.BackupFingerprint();
  return result;
}

// Array-crash lane, group half: the backup array crashes and is repaired
// on a seeded timeline while the links flap. The group must reconverge
// after the heal; a second crash phase is healed and failed over 0-1.2 ms
// later, often mid-recovery, and the backup must be a write-order prefix
// at that cut. `hits` counts the crashes that fired.
EdgeLaneResult RunArrayCrashLane(uint64_t seed) {
  ChaosRun run(seed);
  EdgeLaneResult result;
  run.ArmArrayChaos(seed * 101 + 11, Milliseconds(150));
  run.RunWrites(350);
  result.hits = CrashesFired(*run.schedule_, run.env_.now());
  run.HealChaos();
  EXPECT_TRUE(run.DrainToConverged()) << "seed " << seed;

  run.ArmArrayChaos(seed * 101 + 17, Milliseconds(100));
  run.RunWrites(30 + static_cast<int>(run.rng_.Uniform(150)));
  result.hits += CrashesFired(*run.schedule_, run.env_.now());
  run.HealChaos();
  run.env_.RunFor(
      static_cast<SimDuration>(run.rng_.Uniform(4)) * Microseconds(400));
  run.Failover();
  EXPECT_TRUE(run.BackupIsWriteOrderPrefix()) << "seed " << seed;
  EXPECT_TRUE(run.EveryWriteAckedOnce()) << "seed " << seed;
  result.fingerprint = run.BackupFingerprint();
  return result;
}

// SDC lane result: how often a cut caught the sync group's resync frame on
// the wire, the operator resyncs, the forward wire bytes and the final
// backup image.
struct SdcLaneResult {
  uint64_t hits = 0;
  uint64_t resyncs = 0;
  uint64_t wire_bytes = 0;
  std::vector<uint64_t> fingerprint;
};

// SDC lane: one synchronous group of three pairs under seeded partitions
// and message drops, with host writes always in flight (each is submitted
// without waiting for its ack). A write that dies on the wire falls back
// to a local ack at the group's ack deadline and suspends the group; after
// each heal the operator resyncs it (auto-resync is off), and the next cut
// often lands while that resync frame is still on the wire. Every host
// write must be acked exactly once, and once the link stays up every S-VOL
// must equal its P-VOL. With `array_crashes` the partitions and drops give
// way to the array-crash lane's seeded link flaps and backup-array
// crashes, and `hits` counts the crashes that fired.
SdcLaneResult RunSdcPartitionLane(uint64_t seed, bool array_crashes = false) {
  sim::SimEnvironment env;
  storage::StorageArray main(&env, ZeroLatency("MAIN"));
  storage::StorageArray backup(&env, ZeroLatency("BKUP"));
  sim::NetworkLink to_backup(&env, ChaosLink(seed * 31 + 1), "fwd");
  sim::NetworkLink to_main(&env, ChaosLink(seed * 31 + 2), "rev");
  ReplicationEngine engine(&env, &main, &backup, &to_backup, &to_main);
  Rng rng(seed);
  SdcLaneResult result;
  ConsistencyGroupConfig gcfg;
  gcfg.name = "sdc";
  gcfg.auto_resync = false;
  auto group = engine.CreateConsistencyGroup(gcfg);
  EXPECT_TRUE(group.ok());
  std::vector<storage::VolumeId> pvols, svols;
  std::vector<PairId> pairs;
  for (int v = 0; v < kVolumes; ++v) {
    auto p = main.CreateVolume("sdc" + std::to_string(v), kBlocks);
    auto s = backup.CreateVolume("r-sdc" + std::to_string(v), kBlocks);
    EXPECT_TRUE(p.ok() && s.ok());
    pvols.push_back(*p);
    svols.push_back(*s);
    PairConfig pc;
    pc.name = "sdc" + std::to_string(v);
    pc.primary = *p;
    pc.secondary = *s;
    pc.mode = ReplicationMode::kSynchronous;
    pc.group = *group;
    auto pair = engine.CreatePair(pc);
    EXPECT_TRUE(pair.ok());
    pairs.push_back(*pair);
  }
  env.RunFor(Milliseconds(5));

  // The ledger: acks[i] counts the acks of the i-th host write.
  std::vector<int> acks;
  uint64_t next_tag = 0;
  auto resync_suspended = [&] {
    if (engine.GetGroupStats(*group)->suspended) {
      EXPECT_TRUE(engine.ResyncGroup(*group).ok()) << "seed " << seed;
      ++result.resyncs;
    }
  };
  auto run_writes = [&](int n) {
    for (int i = 0; i < n; ++i) {
      const auto vol = static_cast<size_t>(rng.Uniform(kVolumes));
      std::string data(block::kDefaultBlockSize, static_cast<char>('S'));
      EncodeFixed64(data.data(), ++next_tag);
      const size_t w = acks.size();
      acks.push_back(0);
      main.SubmitHostWrite(pvols[vol], rng.Zipf(kBlocks, 0.8),
                           std::move(data), [&acks, w](block::IoResult r) {
                             EXPECT_TRUE(r.status.ok()) << r.status;
                             ++acks[w];
                           });
      env.RunFor(static_cast<SimDuration>(
          rng.Uniform(Microseconds(300)) + Microseconds(50)));
      // The operator also resyncs while writes are in flight, so a frame
      // often trails a write to a block it carries.
      if (to_backup.connected() && w % 8 == 7) resync_suspended();
    }
  };
  auto set_links = [&](bool up) {
    to_backup.SetConnected(up);
    to_main.SetConnected(up);
  };

  if (array_crashes) {
    fault::FaultSchedule crashes(
        &env, ArrayCrashChaos(seed * 101 + 13, Milliseconds(150)));
    crashes.AddLink(&to_backup);
    crashes.AddLink(&to_main);
    crashes.AddArray(&backup);
    crashes.Arm();
    run_writes(400);
    result.hits = CrashesFired(crashes, env.now());
    crashes.Heal();
    resync_suspended();
  } else {
    to_backup.set_drop_probability(0.02);
    to_main.set_drop_probability(0.02);
    for (int cycle = 0; cycle < 6; ++cycle) {
      run_writes(40);
      set_links(false);
      run_writes(10 + static_cast<int>(rng.Uniform(60)));
      set_links(true);
      resync_suspended();
      env.RunFor(
          static_cast<SimDuration>(rng.Uniform(4)) * Microseconds(400));
      if (engine.GetGroupStats(*group)->recovery_wait ==
          RecoveryWait::kResyncInFlight) {
        ++result.hits;
      }
      set_links(false);
      run_writes(5);
      set_links(true);
      resync_suspended();
    }
    to_backup.set_drop_probability(0.0);
    to_main.set_drop_probability(0.0);
  }
  run_writes(40);

  // Drain: late deadlines may still suspend the group; resync until every
  // pair is paired, clean and equal to its P-VOL with every write acked.
  bool converged = false;
  for (int round = 0; round < 50 && !converged; ++round) {
    env.RunFor(Milliseconds(20));
    resync_suspended();
    env.RunFor(Milliseconds(20));
    converged = true;
    for (size_t v = 0; v < pairs.size(); ++v) {
      const Pair* pair = engine.GetPair(pairs[v]);
      converged &= pair->state() == PairState::kPaired &&
                   pair->dirty_blocks() == 0 &&
                   main.GetVolume(pvols[v])->ContentEquals(
                       *backup.GetVolume(svols[v]));
    }
  }
  EXPECT_TRUE(converged) << "seed " << seed;
  for (size_t w = 0; w < acks.size(); ++w) {
    EXPECT_EQ(acks[w], 1) << "seed " << seed << " write " << w
                          << ": a host write is acked exactly once";
  }
  result.wire_bytes = to_backup.bytes_sent();
  for (size_t v = 0; v < svols.size(); ++v) {
    for (uint64_t lba = 0; lba < kBlocks; ++lba) {
      result.fingerprint.push_back(DecodeFixed64(
          backup.GetVolume(svols[v])->store().ReadBlock(lba).data()));
    }
  }
  return result;
}

TEST(ChaosTest, SdcPairsUnderPartitionAcrossSeeds) {
  uint64_t hits = 0;
  for (uint64_t seed : {11, 12, 13, 14, 15, 16, 17, 18}) {
    SdcLaneResult a = RunSdcPartitionLane(seed);
    SdcLaneResult b = RunSdcPartitionLane(seed);
    EXPECT_EQ(a.fingerprint, b.fingerprint) << "seed " << seed;
    EXPECT_EQ(a.hits, b.hits) << "seed " << seed;
    EXPECT_EQ(a.resyncs, b.resyncs) << "seed " << seed;
    EXPECT_EQ(a.wire_bytes, b.wire_bytes) << "seed " << seed;
    EXPECT_GT(a.resyncs, 0u) << "seed " << seed;
    hits += a.hits;
  }
  EXPECT_GT(hits, 0u) << "no cut landed on a sync-group resync in flight";
}

// The array-crash lane, for an async and a sync consistency group:
// every host write acked once, convergence after the heal, a write-order
// prefix at the group's failover cut, and two runs per seed identical.
TEST(ChaosTest, BackupArrayCrashesAcrossSeeds) {
  for (uint64_t seed : {11, 12, 13, 14, 15, 16, 17, 18}) {
    EdgeLaneResult a = RunArrayCrashLane(seed);
    EdgeLaneResult b = RunArrayCrashLane(seed);
    EXPECT_EQ(a.fingerprint, b.fingerprint) << "seed " << seed;
    EXPECT_EQ(a.hits, b.hits) << "seed " << seed;
    EXPECT_GT(a.hits, 0u) << "seed " << seed << ": no group-lane crash";

    SdcLaneResult sa = RunSdcPartitionLane(seed, /*array_crashes=*/true);
    SdcLaneResult sb = RunSdcPartitionLane(seed, /*array_crashes=*/true);
    EXPECT_EQ(sa.fingerprint, sb.fingerprint) << "seed " << seed;
    EXPECT_EQ(sa.hits, sb.hits) << "seed " << seed;
    EXPECT_EQ(sa.resyncs, sb.resyncs) << "seed " << seed;
    EXPECT_EQ(sa.wire_bytes, sb.wire_bytes) << "seed " << seed;
    EXPECT_GT(sa.hits, 0u) << "seed " << seed << ": no SDC-lane crash";
  }
}

TEST(ChaosTest, RepartitionDuringEdgeResyncAcrossSeeds) {
  uint64_t hits = 0;
  for (uint64_t seed : {11, 12, 13, 14, 15, 16, 17, 18}) {
    EdgeLaneResult a = RunEdgeRepartitionLane(seed);
    EdgeLaneResult b = RunEdgeRepartitionLane(seed);
    EXPECT_EQ(a.fingerprint, b.fingerprint) << "seed " << seed;
    EXPECT_EQ(a.hits, b.hits) << "seed " << seed;
    hits += a.hits;
  }
  EXPECT_GT(hits, 0u) << "no cut landed on a resync in flight";
}

TEST(ChaosTest, FailbackUnderReversePartitionAcrossSeeds) {
  uint64_t hits = 0;
  for (uint64_t seed : {11, 12, 13, 14, 15, 16, 17, 18}) {
    EdgeLaneResult a = RunFailbackPartitionLane(seed);
    EdgeLaneResult b = RunFailbackPartitionLane(seed);
    EXPECT_EQ(a.fingerprint, b.fingerprint) << "seed " << seed;
    EXPECT_EQ(a.hits, b.hits) << "seed " << seed;
    hits += a.hits;
  }
  EXPECT_GT(hits, 0u) << "no partition caught a giveback on the wire";
}

// Media-lane scenario: journal media episodes + silent S-VOL bit rot
// under write load, then heal the injectors and let the recovery
// machinery (and, in the repair arm, the scrubber) do its work.
struct MediaScenarioResult {
  uint64_t flips = 0;
  uint64_t journal_media_errors = 0;
  uint64_t mismatches_found = 0;
  uint64_t repairs = 0;
  uint64_t bad_reads = 0;
  bool converged = false;
  std::vector<uint64_t> fingerprint;
};

MediaScenarioResult RunMediaScenario(uint64_t seed, bool scrub) {
  ChaosRun run(seed, /*coalesce=*/true, scrub);
  run.ArmMediaChaos(seed * 211 + 1, Milliseconds(150));
  run.RunWrites(250);
  run.HealMediaChaos();

  MediaScenarioResult r;
  r.converged = static_cast<bool>(run.DrainToConverged());
  r.flips = run.BitFlips();
  r.journal_media_errors =
      run.engine_.primary_journal(run.group_)->media_errors();
  if (const Scrubber* s = run.engine_.scrubber()) {
    r.mismatches_found = s->stats().checksum_mismatches;
    r.repairs = s->stats().repairs_scheduled + s->stats().primary_restores;
  }
  r.bad_reads = run.CountBadReads();

  if (scrub) {
    // Repaired state must still be a write-order prefix (the full one:
    // the group reconverged, so the cut is "all of history").
    EXPECT_TRUE(run.BackupIsWriteOrderPrefix()) << "seed " << seed;
    r.fingerprint = run.BackupFingerprint();
  }
  return r;
}

// The repair arm: every seeded silent flip is caught by the CRC sidecar
// and healed — the application sees zero bad reads and the backup equals
// the primary history. The ablation arm (scrub off) proves the flips were
// real and that without repair they surface only as typed kDataLoss.
TEST(ChaosTest, MediaFaultLaneScrubRepairsAllRotAcrossSeeds) {
  uint64_t total_flips = 0;
  uint64_t total_journal_errors = 0;
  uint64_t total_repairs = 0;
  uint64_t ablation_bad_reads = 0;
  uint64_t ablation_flips = 0;
  for (uint64_t seed : {11, 12, 13, 14, 15, 16, 17, 18}) {
    MediaScenarioResult on = RunMediaScenario(seed, /*scrub=*/true);
    EXPECT_TRUE(on.converged) << "seed " << seed;
    EXPECT_EQ(on.bad_reads, 0u)
        << "seed " << seed << ": scrub left unrepaired rot visible";
    total_flips += on.flips;
    total_journal_errors += on.journal_media_errors;
    total_repairs += on.repairs;

    MediaScenarioResult off = RunMediaScenario(seed, /*scrub=*/false);
    ablation_flips += off.flips;
    ablation_bad_reads += off.bad_reads;
    EXPECT_EQ(off.mismatches_found, 0u);
  }
  // The drill must actually have exercised both media lanes.
  EXPECT_GT(total_flips, 0u) << "no bit rot landed; raise the rot rate";
  EXPECT_GT(total_journal_errors, 0u)
      << "no journal media episode hit an append; raise the episode rate";
  EXPECT_GT(total_repairs, 0u);
  // Ablation: the same rot without repair is detected, never silent.
  EXPECT_GT(ablation_flips, 0u);
  EXPECT_GE(ablation_bad_reads, 1u)
      << "rot without scrub must surface as kDataLoss reads";
}

TEST(ChaosTest, MediaFaultScenarioIsDeterministic) {
  MediaScenarioResult a = RunMediaScenario(14, /*scrub=*/true);
  MediaScenarioResult b = RunMediaScenario(14, /*scrub=*/true);
  EXPECT_EQ(a.flips, b.flips);
  EXPECT_EQ(a.journal_media_errors, b.journal_media_errors);
  EXPECT_EQ(a.mismatches_found, b.mismatches_found);
  EXPECT_EQ(a.repairs, b.repairs);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
}

TEST(ChaosTest, BackupIsWriteOrderPrefixAcrossSeeds) {
  for (bool coalesce : {true, false}) {
    uint64_t total_overflows = 0;
    uint64_t total_faults = 0;
    for (uint64_t seed : {11, 12, 13, 14, 15, 16, 17, 18}) {
      ScenarioResult r = RunScenario(seed, coalesce);
      total_overflows += r.overflows;
      total_faults += r.faults;
    }
    // The drill must actually have exercised the failure paths: injected
    // faults fired and at least one journal overflow occurred somewhere.
    EXPECT_GT(total_faults, 0u) << "coalesce=" << coalesce;
    EXPECT_GE(total_overflows, 1u)
        << "coalesce=" << coalesce
        << ": no seed overflowed the journal; shrink it or lengthen outages";
  }
}

TEST(ChaosTest, ScenarioIsDeterministic) {
  for (bool coalesce : {true, false}) {
    ScenarioResult a = RunScenario(13, coalesce);
    ScenarioResult b = RunScenario(13, coalesce);
    EXPECT_EQ(a.recovery_point, b.recovery_point) << coalesce;
    EXPECT_EQ(a.fingerprint, b.fingerprint) << coalesce;
    EXPECT_EQ(a.overflows, b.overflows) << coalesce;
    EXPECT_EQ(a.faults, b.faults) << coalesce;
  }
}

// The same chaos drill through the database layer: two MiniDb volumes in
// one consistency group under the YCSB-style KV workload; after a mid-
// chaos failover both backup databases must open (WAL recovery on a
// write-order prefix image never sees a torn state).
TEST(ChaosTest, KvWorkloadSurvivesChaosFailover) {
  for (uint64_t seed : {3, 4}) {
    sim::SimEnvironment env;
    storage::StorageArray main(&env, ZeroLatency("MAIN"));
    storage::StorageArray backup(&env, ZeroLatency("BKUP"));
    sim::NetworkLink to_backup(&env, ChaosLink(seed * 7 + 1), "fwd");
    sim::NetworkLink to_main(&env, ChaosLink(seed * 7 + 2), "rev");
    ReplicationEngine engine(&env, &main, &backup, &to_backup, &to_main);

    ConsistencyGroupConfig gcfg;
    gcfg.name = "kv";
    gcfg.journal_capacity_bytes = 1 << 20;
    gcfg.transfer_interval = Milliseconds(1);
    gcfg.ack_timeout = Milliseconds(10);
    gcfg.resync_backoff_initial = Milliseconds(2);
    gcfg.resync_backoff_max = Milliseconds(20);
    auto g = engine.CreateConsistencyGroup(gcfg);
    ASSERT_TRUE(g.ok());

    db::DbOptions opts;
    opts.checkpoint_blocks = 256;
    opts.wal_blocks = 1024;

    std::vector<storage::VolumeId> pvols, svols;
    std::vector<std::unique_ptr<storage::ArrayVolumeDevice>> devices;
    std::vector<std::unique_ptr<db::MiniDb>> dbs;
    for (int v = 0; v < 2; ++v) {
      auto p = main.CreateVolume("kv" + std::to_string(v), 2048);
      auto s = backup.CreateVolume("r-kv" + std::to_string(v), 2048);
      ASSERT_TRUE(p.ok() && s.ok());
      pvols.push_back(*p);
      svols.push_back(*s);
      storage::ArrayVolumeDevice dev(&main, *p);
      ASSERT_TRUE(db::MiniDb::Format(&dev, opts).ok());
    }
    for (int v = 0; v < 2; ++v) {
      auto dev = std::make_unique<storage::ArrayVolumeDevice>(&main,
                                                              pvols[v]);
      auto opened = db::MiniDb::Open(dev.get(), opts);
      ASSERT_TRUE(opened.ok());
      devices.push_back(std::move(dev));
      dbs.push_back(std::move(*opened));
    }

    std::vector<std::unique_ptr<workload::KvWorkload>> loads;
    for (int v = 0; v < 2; ++v) {
      workload::KvWorkloadConfig kcfg;
      kcfg.record_count = 200;
      kcfg.zipf_theta = 0.7;
      kcfg.seed = seed * 13 + static_cast<uint64_t>(v);
      loads.push_back(
          std::make_unique<workload::KvWorkload>(dbs[v].get(), kcfg));
      ASSERT_TRUE(loads[v]->Load().ok());
    }

    // Protect both volumes, ship the base images.
    for (int v = 0; v < 2; ++v) {
      PairConfig pc;
      pc.name = "kvpair" + std::to_string(v);
      pc.primary = pvols[v];
      pc.secondary = svols[v];
      pc.mode = ReplicationMode::kAsynchronous;
      pc.group = *g;
      ASSERT_TRUE(engine.CreatePair(pc).ok());
    }
    env.RunFor(Milliseconds(50));
    ASSERT_TRUE(engine.GroupInitialCopyDone(*g));

    // KV traffic under chaos.
    fault::FaultScheduleConfig fcfg;
    fcfg.seed = seed * 101 + 5;
    fcfg.horizon = Milliseconds(120);
    fcfg.mean_flap_interval = Milliseconds(15);
    fcfg.min_outage = Milliseconds(2);
    fcfg.max_outage = Milliseconds(8);
    fault::FaultSchedule schedule(&env, fcfg);
    schedule.AddLink(&to_backup);
    schedule.AddLink(&to_main);
    schedule.Arm();
    to_backup.set_drop_probability(0.02);
    to_main.set_drop_probability(0.02);

    Rng pace(seed);
    for (int slice = 0; slice < 30; ++slice) {
      for (int v = 0; v < 2; ++v) ASSERT_TRUE(loads[v]->Run(8).ok());
      env.RunFor(static_cast<SimDuration>(
          pace.Uniform(Milliseconds(3)) + Microseconds(200)));
    }

    // Disaster mid-chaos.
    main.SetFailed(true);
    to_backup.SetConnected(false);
    to_main.SetConnected(false);
    ASSERT_TRUE(engine.FailoverGroup(*g).ok());

    for (int v = 0; v < 2; ++v) {
      storage::ArrayVolumeDevice bdev(&backup, svols[v]);
      auto recovered = db::MiniDb::Open(&bdev, opts);
      ASSERT_TRUE(recovered.ok())
          << "seed " << seed << " volume " << v
          << ": backup image failed DB recovery: " << recovered.status();
      EXPECT_LE((*recovered)->RowCount("usertable"),
                loads[v]->key_count())
          << "seed " << seed << " volume " << v;
    }
  }
}

}  // namespace
}  // namespace zerobak::replication

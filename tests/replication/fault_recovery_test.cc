// Regression tests for the recovery-path bugs exposed by real partition
// semantics (in-flight drops), plus the ack-deadline / auto-resync
// machinery that reacts to them.
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "replication/replication.h"
#include "storage/array.h"

namespace zerobak::replication {
namespace {

std::string BlockOf(char c) {
  return std::string(block::kDefaultBlockSize, c);
}

storage::ArrayConfig ZeroLatency(const std::string& serial) {
  storage::ArrayConfig cfg;
  cfg.serial = serial;
  cfg.media = block::DeviceLatencyModel{0, 0, 0, 0, 1};
  return cfg;
}

class FaultRecoveryTest : public ::testing::Test {
 protected:
  FaultRecoveryTest()
      : main_(&env_, ZeroLatency("MAIN")),
        backup_(&env_, ZeroLatency("BKUP")),
        to_backup_(&env_, LinkConfig(1), "fwd"),
        to_main_(&env_, LinkConfig(2), "rev"),
        engine_(&env_, &main_, &backup_, &to_backup_, &to_main_) {}

  static sim::NetworkLinkConfig LinkConfig(uint64_t seed) {
    sim::NetworkLinkConfig cfg;
    cfg.base_latency = Milliseconds(5);
    cfg.jitter = 0;
    cfg.bandwidth_bytes_per_sec = 0;
    cfg.seed = seed;
    return cfg;
  }

  std::pair<storage::VolumeId, storage::VolumeId> MakeVolumes(
      const std::string& name, uint64_t blocks = 64) {
    auto p = main_.CreateVolume(name, blocks);
    auto s = backup_.CreateVolume("r-" + name, blocks);
    EXPECT_TRUE(p.ok() && s.ok());
    return {*p, *s};
  }

  // A group with fast failure detection so the tests stay short.
  GroupId MakeGroup() {
    ConsistencyGroupConfig cfg;
    cfg.name = "cg";
    cfg.journal_capacity_bytes = 16 << 20;
    cfg.ack_timeout = Milliseconds(20);
    cfg.resync_backoff_initial = Milliseconds(5);
    cfg.resync_backoff_max = Milliseconds(50);
    auto g = engine_.CreateConsistencyGroup(cfg);
    EXPECT_TRUE(g.ok());
    return *g;
  }

  PairId MakeAsyncPair(storage::VolumeId p, storage::VolumeId s,
                       GroupId group) {
    PairConfig cfg;
    cfg.name = "pair";
    cfg.primary = p;
    cfg.secondary = s;
    cfg.mode = ReplicationMode::kAsynchronous;
    cfg.group = group;
    auto id = engine_.CreatePair(cfg);
    EXPECT_TRUE(id.ok()) << id.status();
    return id.ok() ? *id : 0;
  }

  // A synchronous pair in a group of its own: the default 50 ms ack
  // deadline, and auto-resync off so the tests resync by hand.
  PairId MakeSyncPair(storage::VolumeId p, storage::VolumeId s) {
    ConsistencyGroupConfig gcfg;
    gcfg.name = "sync-cg";
    gcfg.auto_resync = false;
    auto g = engine_.CreateConsistencyGroup(gcfg);
    EXPECT_TRUE(g.ok());
    PairConfig cfg;
    cfg.name = "sync";
    cfg.primary = p;
    cfg.secondary = s;
    cfg.mode = ReplicationMode::kSynchronous;
    cfg.group = *g;
    auto id = engine_.CreatePair(cfg);
    EXPECT_TRUE(id.ok()) << id.status();
    return id.ok() ? *id : 0;
  }

  GroupId GroupOf(PairId pair) { return engine_.GetPair(pair)->group(); }

  void Partition() {
    to_backup_.SetConnected(false);
    to_main_.SetConnected(false);
  }

  void Heal() {
    to_backup_.SetConnected(true);
    to_main_.SetConnected(true);
  }

  // Ships one write, partitions both links while its batch is on the wire
  // and keeps writing for `outage`: the ack deadline suspends the group
  // while the link is down.
  void FailWhileLinkDown(storage::VolumeId p, SimDuration outage) {
    ASSERT_TRUE(main_.WriteSync(p, 0, BlockOf('0')).ok());
    env_.RunFor(Milliseconds(3));  // Batch shipped, in flight.
    Partition();
    for (uint64_t lba = 1; lba <= 8; ++lba) {
      ASSERT_TRUE(main_.WriteSync(p, lba, BlockOf('a' + lba)).ok());
      env_.RunFor(outage / 8);
    }
  }

  GroupStats Stats(GroupId g) {
    auto stats = engine_.GetGroupStats(g);
    EXPECT_TRUE(stats.ok());
    return stats.ok() ? *stats : GroupStats{};
  }

  bool Converged(storage::VolumeId p, storage::VolumeId s) {
    return main_.GetVolume(p)->ContentEquals(*backup_.GetVolume(s));
  }

  sim::SimEnvironment env_;
  storage::StorageArray main_;
  storage::StorageArray backup_;
  sim::NetworkLink to_backup_;
  sim::NetworkLink to_main_;
  ReplicationEngine engine_;
};

// Satellite bugfix regression: MarkGroupSuspended must dirty-mark from the
// *acked* watermark. Records handed to the link ("shipped") but dropped by
// a partition were previously skipped and silently lost.
TEST_F(FaultRecoveryTest, SuspensionDirtyMarksFromAckedWatermark) {
  auto [p, s] = MakeVolumes("v");
  GroupId g = MakeGroup();
  PairId pair = MakeAsyncPair(p, s, g);

  ASSERT_TRUE(main_.WriteSync(p, 0, BlockOf('a')).ok());
  ASSERT_TRUE(main_.WriteSync(p, 1, BlockOf('b')).ok());
  ASSERT_TRUE(main_.WriteSync(p, 2, BlockOf('c')).ok());
  // Let the pump hand the batch to the link but not long enough for the
  // apply-ack round trip: shipped == 3, acked == 0, batch in flight.
  env_.RunFor(Milliseconds(3));
  auto stats = engine_.GetGroupStats(g);
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->shipped, 3u);
  ASSERT_EQ(stats->acked, 0u);

  // The partition kills the in-flight batch.
  to_backup_.SetConnected(false);
  ASSERT_TRUE(engine_.SuspendGroup(g).ok());
  // All three records sit in (acked, shipped] and must be dirty-marked;
  // the old shipped()-based scan would find none of them.
  EXPECT_EQ(engine_.GetPair(pair)->dirty_blocks(), 3u);

  to_backup_.SetConnected(true);
  ASSERT_TRUE(engine_.ResyncGroup(g).ok());
  env_.RunFor(Milliseconds(50));
  EXPECT_EQ(engine_.GetPair(pair)->state(), PairState::kPaired);
  EXPECT_TRUE(Converged(p, s));
}

// Satellite bugfix regression: a failed resync send must not discard the
// captured delta. Previously the dirty bitmaps were cleared before the
// send result was known.
TEST_F(FaultRecoveryTest, ResyncSendFailurePreservesDirtyBitmap) {
  auto [p, s] = MakeVolumes("v");
  GroupId g = MakeGroup();
  PairId pair = MakeAsyncPair(p, s, g);

  ASSERT_TRUE(engine_.SuspendGroup(g).ok());
  ASSERT_TRUE(main_.WriteSync(p, 4, BlockOf('d')).ok());
  ASSERT_TRUE(main_.WriteSync(p, 5, BlockOf('e')).ok());
  ASSERT_EQ(engine_.GetPair(pair)->dirty_blocks(), 2u);

  to_backup_.SetConnected(false);
  Status rs = engine_.ResyncGroup(g);
  EXPECT_EQ(rs.code(), StatusCode::kUnavailable);
  EXPECT_EQ(engine_.GetPair(pair)->dirty_blocks(), 2u)
      << "failed resync must not lose the delta";
  auto stats = engine_.GetGroupStats(g);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->suspended);

  to_backup_.SetConnected(true);
  ASSERT_TRUE(engine_.ResyncGroup(g).ok());
  env_.RunFor(Milliseconds(50));
  EXPECT_EQ(engine_.GetPair(pair)->dirty_blocks(), 0u);
  EXPECT_TRUE(Converged(p, s));
}

// Tentpole behavior: a batch dropped in flight stalls no watermark forever;
// the missed ack deadline suspends the group and auto-resync heals it.
TEST_F(FaultRecoveryTest, AckTimeoutSuspendsAndAutoResyncConverges) {
  auto [p, s] = MakeVolumes("v");
  GroupId g = MakeGroup();
  PairId pair = MakeAsyncPair(p, s, g);

  ASSERT_TRUE(main_.WriteSync(p, 7, BlockOf('x')).ok());
  env_.RunFor(Milliseconds(3));  // Batch shipped, in flight.
  // Quick flap: the link is healthy again long before the deadline, but
  // the batch is gone.
  to_backup_.SetConnected(false);
  env_.RunFor(Milliseconds(1));
  to_backup_.SetConnected(true);

  env_.RunFor(Milliseconds(40));  // Past the 20 ms ack deadline.
  auto stats = engine_.GetGroupStats(g);
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->ack_timeouts, 1u);
  EXPECT_GE(stats->auto_resync_attempts, 1u);

  env_.RunFor(Milliseconds(100));  // Backoff + resync + drain.
  EXPECT_EQ(engine_.GetPair(pair)->state(), PairState::kPaired);
  EXPECT_TRUE(Converged(p, s));
  stats = engine_.GetGroupStats(g);
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(stats->suspended);
  EXPECT_EQ(stats->suspend_reason, SuspendReason::kNone);
}

// The resync batch itself can be lost to a partition: the resync deadline
// restores the captured blocks into the dirty bitmaps and retries.
TEST_F(FaultRecoveryTest, ResyncBatchLostInFlightIsRetried) {
  auto [p, s] = MakeVolumes("v");
  GroupId g = MakeGroup();
  PairId pair = MakeAsyncPair(p, s, g);

  ASSERT_TRUE(engine_.SuspendGroup(g).ok());
  ASSERT_TRUE(main_.WriteSync(p, 9, BlockOf('r')).ok());
  ASSERT_EQ(engine_.GetPair(pair)->dirty_blocks(), 1u);

  ASSERT_TRUE(engine_.ResyncGroup(g).ok());
  // Flap while the resync batch is on the wire.
  env_.RunFor(Milliseconds(1));
  to_backup_.SetConnected(false);
  env_.RunFor(Milliseconds(1));
  to_backup_.SetConnected(true);

  env_.RunFor(Milliseconds(200));
  auto stats = engine_.GetGroupStats(g);
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->resync_timeouts, 1u);
  EXPECT_EQ(engine_.GetPair(pair)->state(), PairState::kPaired);
  EXPECT_EQ(engine_.GetPair(pair)->dirty_blocks(), 0u);
  EXPECT_TRUE(Converged(p, s));
}

// A resync frame the backup site rejects (CRC mismatch) is a lost frame:
// nothing of it lands, it stays in flight until its deadline re-suspends
// the group, and the blocks ship again once frames verify. The group must
// never re-pair with the blocks left dirty.
TEST_F(FaultRecoveryTest, CorruptResyncFrameIsReshippedNotLeftDirty) {
  auto [p, s] = MakeVolumes("v");
  GroupId g = MakeGroup();
  PairId pair = MakeAsyncPair(p, s, g);
  env_.RunFor(Milliseconds(4));  // Empty initial copy settles.

  ASSERT_TRUE(engine_.SuspendGroup(g).ok());
  for (uint64_t lba = 3; lba <= 5; ++lba) {
    ASSERT_TRUE(main_.WriteSync(p, lba, BlockOf('r' + lba)).ok());
  }
  ASSERT_EQ(engine_.GetPair(pair)->dirty_blocks(), 3u);

  engine_.SetFaultOptions({.wire_corrupt_probability = 1.0});
  ASSERT_TRUE(engine_.ResyncGroup(g).ok());
  env_.RunFor(Milliseconds(6));  // Delivered at 5 ms and rejected.
  GroupStats stats = Stats(g);
  EXPECT_EQ(engine_.wire_frames_corrupted(), 1u);
  EXPECT_EQ(stats.checksum_rejects, 1u);
  EXPECT_EQ(engine_.GetPair(pair)->dirty_blocks(), 3u);
  EXPECT_EQ(engine_.GetPair(pair)->state(), PairState::kSuspended);
  EXPECT_FALSE(Converged(p, s));
  // Counted as lost: still in flight, with its deadline armed.
  EXPECT_EQ(stats.recovery_wait, RecoveryWait::kResyncInFlight);

  env_.RunFor(Milliseconds(20));  // Past the deadline at 5 + 20 ms.
  stats = Stats(g);
  EXPECT_EQ(stats.resync_timeouts, 1u);
  EXPECT_TRUE(stats.suspended);
  EXPECT_EQ(stats.suspend_reason, SuspendReason::kResyncTimeout);
  EXPECT_EQ(engine_.GetPair(pair)->dirty_blocks(), 3u);

  engine_.SetFaultOptions({.wire_corrupt_probability = 0.0});
  env_.RunFor(Milliseconds(200));
  stats = Stats(g);
  EXPECT_FALSE(stats.suspended);
  EXPECT_EQ(engine_.GetPair(pair)->state(), PairState::kPaired);
  EXPECT_EQ(engine_.GetPair(pair)->dirty_blocks(), 0u);
  EXPECT_TRUE(Converged(p, s));
}

// An operator suspension is an explicit decision: auto-resync must not
// undo it, no matter how healthy the link is.
TEST_F(FaultRecoveryTest, OperatorSuspendNeverAutoResyncs) {
  auto [p, s] = MakeVolumes("v");
  GroupId g = MakeGroup();
  PairId pair = MakeAsyncPair(p, s, g);

  ASSERT_TRUE(engine_.SuspendGroup(g).ok());
  ASSERT_TRUE(main_.WriteSync(p, 3, BlockOf('o')).ok());
  env_.RunFor(Milliseconds(500));
  auto stats = engine_.GetGroupStats(g);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->suspended);
  EXPECT_EQ(stats->suspend_reason, SuspendReason::kOperator);
  EXPECT_EQ(stats->auto_resync_attempts, 0u);
  EXPECT_EQ(engine_.GetPair(pair)->state(), PairState::kSuspended);
  EXPECT_FALSE(Converged(p, s));

  ASSERT_TRUE(engine_.ResyncGroup(g).ok());
  env_.RunFor(Milliseconds(50));
  EXPECT_TRUE(Converged(p, s));
}

// A base image dropped in flight must not strand the pair in kCopy: the
// suspension treats every allocated P-VOL block as dirty so the resync
// re-creates the image.
TEST_F(FaultRecoveryTest, LostInitialCopyIsRecoveredByResync) {
  auto [p, s] = MakeVolumes("v");
  for (uint64_t lba = 0; lba < 5; ++lba) {
    ASSERT_TRUE(main_.WriteSync(p, lba,
                                BlockOf(static_cast<char>('a' + lba)))
                    .ok());
  }
  GroupId g = MakeGroup();
  PairId pair = MakeAsyncPair(p, s, g);
  ASSERT_EQ(engine_.GetPair(pair)->state(), PairState::kCopy);

  // The flap kills the in-flight base image.
  env_.RunFor(Milliseconds(1));
  to_backup_.SetConnected(false);
  env_.RunFor(Milliseconds(1));
  to_backup_.SetConnected(true);

  // Updates keep flowing into the journal; the applier stalls on the
  // missing base image, the ack deadline fires and the recovery machinery
  // rebuilds the pair from scratch.
  ASSERT_TRUE(main_.WriteSync(p, 10, BlockOf('z')).ok());
  env_.RunFor(Milliseconds(200));
  EXPECT_EQ(engine_.GetPair(pair)->state(), PairState::kPaired);
  EXPECT_TRUE(Converged(p, s));
}

// An idle group's base image dropped in flight: no write follows, so no
// ack deadline can notice. The copy's own loss deadline suspends the group
// with the bits it owed still dirty, and auto-resync ships them. The group
// used to stay in COPY forever.
TEST_F(FaultRecoveryTest, LostInitialCopyOfIdleGroupHitsItsDeadline) {
  auto [p, s] = MakeVolumes("v");
  for (uint64_t lba = 0; lba < 5; ++lba) {
    ASSERT_TRUE(main_.WriteSync(p, lba,
                                BlockOf(static_cast<char>('a' + lba)))
                    .ok());
  }
  GroupId g = MakeGroup();
  PairId pair = MakeAsyncPair(p, s, g);
  ASSERT_EQ(engine_.GetPair(pair)->state(), PairState::kCopy);
  EXPECT_EQ(engine_.GetPair(pair)->dirty_blocks(), 5u);

  env_.RunFor(Milliseconds(1));
  to_backup_.SetConnected(false);  // The base image dies on the wire.
  env_.RunFor(Milliseconds(1));
  to_backup_.SetConnected(true);

  env_.RunFor(Milliseconds(25));  // Deadline at 5 + 20 ms.
  GroupStats stats = Stats(g);
  EXPECT_TRUE(stats.suspended);
  EXPECT_EQ(stats.suspend_reason, SuspendReason::kResyncTimeout);
  EXPECT_EQ(stats.resync_timeouts, 1u);
  EXPECT_EQ(engine_.GetPair(pair)->dirty_blocks(), 5u);

  env_.RunFor(Seconds(2));
  EXPECT_TRUE(engine_.GroupInitialCopyDone(g));
  EXPECT_EQ(engine_.GetPair(pair)->state(), PairState::kPaired);
  EXPECT_EQ(engine_.GetPair(pair)->dirty_blocks(), 0u);
  EXPECT_FALSE(Stats(g).suspended);
  EXPECT_TRUE(Converged(p, s));
}

// A base image that reaches a failed backup array lands nothing, like a
// journal batch would: its deadline suspends the whole group, and
// auto-resync ships the bits it owed with no operator call. The pair used
// to suspend on its own under a healthy group, and an idle group never
// resynced it.
TEST_F(FaultRecoveryTest, InitialCopyOntoFailedArrayIsRecoveredByTheGroup) {
  auto [p, s] = MakeVolumes("v");
  for (uint64_t lba = 0; lba < 5; ++lba) {
    ASSERT_TRUE(main_.WriteSync(p, lba,
                                BlockOf(static_cast<char>('a' + lba)))
                    .ok());
  }
  GroupId g = MakeGroup();
  PairId pair = MakeAsyncPair(p, s, g);
  ASSERT_EQ(engine_.GetPair(pair)->state(), PairState::kCopy);

  backup_.SetFailed(true);  // Before the image lands at 5 ms.
  env_.RunFor(Milliseconds(27));  // Deadline at 5 + 20 ms.
  GroupStats stats = Stats(g);
  EXPECT_TRUE(stats.suspended);
  EXPECT_EQ(stats.suspend_reason, SuspendReason::kResyncTimeout);
  EXPECT_EQ(engine_.GetPair(pair)->state(), PairState::kSuspended);
  EXPECT_EQ(engine_.GetPair(pair)->dirty_blocks(), 5u);

  env_.RunFor(Milliseconds(100));
  backup_.SetFailed(false);
  env_.RunFor(Seconds(2));
  EXPECT_EQ(engine_.GetPair(pair)->state(), PairState::kPaired);
  EXPECT_EQ(engine_.GetPair(pair)->dirty_blocks(), 0u);
  EXPECT_FALSE(Stats(g).suspended);
  EXPECT_TRUE(Converged(p, s));

  // The group streams again.
  ASSERT_TRUE(main_.WriteSync(p, 20, BlockOf('z')).ok());
  env_.RunFor(Milliseconds(50));
  EXPECT_TRUE(Converged(p, s));
}

// Satellite bugfix regression: per-channel FIFO state must not outlive its
// pair / group (previously last_arrival_ grew forever).
TEST_F(FaultRecoveryTest, DeletingPairsReleasesLinkChannelState) {
  // A sync group uses its group id as the channel on both links.
  auto [p1, s1] = MakeVolumes("sync");
  const PairId sync_pair = MakeSyncPair(p1, s1);
  const GroupId sync_group = GroupOf(sync_pair);
  env_.RunFor(Milliseconds(20));
  Status acked = InternalError("no ack");
  main_.SubmitHostWrite(p1, 0, BlockOf('s'),
                        [&](block::IoResult r) { acked = r.status; });
  env_.RunFor(Milliseconds(50));
  ASSERT_TRUE(acked.ok());

  // An async group uses its group id as the channel on both links.
  auto [p2, s2] = MakeVolumes("async");
  GroupId g = MakeGroup();
  PairId async_pair = MakeAsyncPair(p2, s2, g);
  ASSERT_TRUE(main_.WriteSync(p2, 0, BlockOf('a')).ok());
  env_.RunFor(Milliseconds(50));

  EXPECT_GT(to_backup_.tracked_channels(), 0u);
  EXPECT_GT(to_main_.tracked_channels(), 0u);

  ASSERT_TRUE(engine_.DeletePair(sync_pair).ok());
  ASSERT_TRUE(engine_.DeletePair(async_pair).ok());
  ASSERT_TRUE(engine_.DeleteConsistencyGroup(sync_group).ok());
  ASSERT_TRUE(engine_.DeleteConsistencyGroup(g).ok());
  EXPECT_EQ(to_backup_.tracked_channels(), 0u)
      << "forward-link channel state leaked";
  EXPECT_EQ(to_main_.tracked_channels(), 0u)
      << "reverse-link channel state leaked";
}

// Wire-integrity regression: a bit-flipped batch must be rejected by the
// frame CRC, must never reach the backup journal or volumes, and the
// group must reconverge through the nack -> suspend -> auto-resync path —
// corruption behaves exactly like a dropped message.
TEST_F(FaultRecoveryTest, CorruptBatchIsRejectedNeverAppliedAndResent) {
  auto [p, s] = MakeVolumes("v");
  GroupId g = MakeGroup();
  MakeAsyncPair(p, s, g);
  env_.RunFor(Milliseconds(4));  // Empty initial copy settles.

  // Flip a bit in every delivered frame while the first batch ships.
  engine_.SetFaultOptions({.wire_corrupt_probability = 1.0});
  ASSERT_TRUE(main_.WriteSync(p, 0, BlockOf('x')).ok());
  ASSERT_TRUE(main_.WriteSync(p, 1, BlockOf('y')).ok());
  // Pump (<= 2 ms) + frame delivery (5 ms) + nack trip (5 ms), but short
  // of the first auto-resync retry (5 ms backoff after the nack).
  env_.RunFor(Milliseconds(14));

  auto stats = engine_.GetGroupStats(g);
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(engine_.wire_frames_corrupted(), 1u);
  EXPECT_GE(stats->checksum_rejects, 1u);
  // The corrupt batch was rejected wholesale: nothing was applied.
  EXPECT_EQ(stats->applied, 0u);
  EXPECT_FALSE(Converged(p, s));
  // The nack suspended the group so the resync machinery reships it.
  EXPECT_TRUE(stats->suspended);
  EXPECT_EQ(stats->suspend_reason, SuspendReason::kWireReject);

  // Corruption clears; auto-resync reships the data and reconverges.
  engine_.SetFaultOptions({.wire_corrupt_probability = 0.0});
  env_.RunFor(Milliseconds(200));
  stats = engine_.GetGroupStats(g);
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(stats->suspended);
  EXPECT_TRUE(Converged(p, s));

  // Steady state afterwards: new writes flow through verified frames.
  ASSERT_TRUE(main_.WriteSync(p, 2, BlockOf('z')).ok());
  env_.RunFor(Milliseconds(50));
  EXPECT_TRUE(Converged(p, s));
}

// A pump on a dead link neither encodes nor sends: the link refuses
// nothing because nothing is offered, and no batch counts as shipped.
// Once the link heals, the ready edge ships the backlog.
TEST_F(FaultRecoveryTest, DeadLinkShipsNothingUntilHealed) {
  auto [p, s] = MakeVolumes("v");
  GroupId g = MakeGroup();
  PairId pair = MakeAsyncPair(p, s, g);
  env_.RunFor(Milliseconds(4));  // Empty initial copy settles.

  to_backup_.SetConnected(false);
  const uint64_t heartbeats = engine_.scheduler_stats().heartbeats;
  for (uint64_t lba = 0; lba < 6; ++lba) {
    ASSERT_TRUE(main_.WriteSync(p, lba, BlockOf('a' + lba)).ok());
    env_.RunFor(Milliseconds(7));
  }
  env_.RunFor(Milliseconds(300));
  EXPECT_GE(engine_.scheduler_stats().heartbeats, heartbeats + 5);
  EXPECT_EQ(to_backup_.send_failures(), 0u);
  auto stats = engine_.GetGroupStats(g);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->written, 6u);
  EXPECT_EQ(stats->shipped, 0u);
  EXPECT_EQ(stats->wire_bytes_shipped, 0u);
  EXPECT_FALSE(stats->suspended);

  to_backup_.SetConnected(true);
  env_.RunFor(Milliseconds(100));
  stats = engine_.GetGroupStats(g);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->acked, 6u);
  EXPECT_EQ(to_backup_.send_failures(), 0u);
  EXPECT_EQ(engine_.GetPair(pair)->state(), PairState::kPaired);
  EXPECT_TRUE(Converged(p, s));
}

// Recovery is edge-triggered: a failure seen while the link is down parks
// the group, and its resync goes out at the instant the link heals — not
// when a backoff timer (long since at its 50 ms cap after a 300 ms outage)
// next fires. With no bandwidth limit the batch lands one propagation
// delay (5 ms) after the heal.
TEST_F(FaultRecoveryTest, ResyncStartsOnLinkUpEdge) {
  auto [p, s] = MakeVolumes("v");
  GroupId g = MakeGroup();
  PairId pair = MakeAsyncPair(p, s, g);
  env_.RunFor(Milliseconds(4));
  FailWhileLinkDown(p, Milliseconds(300));
  ASSERT_TRUE(Stats(g).suspended);

  Heal();
  const SimTime healed = env_.now();
  env_.RunFor(0);  // The posted ready-edge event.
  GroupStats stats = Stats(g);
  EXPECT_FALSE(stats.suspended);
  EXPECT_EQ(stats.recovery_wait, RecoveryWait::kResyncInFlight);
  EXPECT_EQ(stats.recovery_age, 0);
  EXPECT_EQ(stats.recovery_due_in, Milliseconds(5) + Milliseconds(20));

  while (!Converged(p, s) && env_.now() - healed < Milliseconds(200)) {
    env_.RunFor(Microseconds(100));
  }
  EXPECT_LE(env_.now() - healed, Milliseconds(5) + Microseconds(100))
      << "resync did not start at the heal instant";
  EXPECT_EQ(engine_.GetPair(pair)->state(), PairState::kPaired);
  EXPECT_EQ(Stats(g).auto_resync_attempts, 1u);
  EXPECT_EQ(Stats(g).recovery_wait, RecoveryWait::kNone);
}

// No timer polls a dead link: the suspended group parks, visible as a
// "link" wait whose age keeps growing, and makes exactly one attempt once
// the link is back.
TEST_F(FaultRecoveryTest, NoAutoResyncAttemptsWhileLinkDown) {
  auto [p, s] = MakeVolumes("v");
  GroupId g = MakeGroup();
  MakeAsyncPair(p, s, g);
  env_.RunFor(Milliseconds(4));
  FailWhileLinkDown(p, Milliseconds(300));

  GroupStats stats = Stats(g);
  ASSERT_TRUE(stats.suspended);
  EXPECT_EQ(stats.suspend_reason, SuspendReason::kAckTimeout);
  EXPECT_EQ(stats.auto_resync_attempts, 0u);
  EXPECT_EQ(stats.recovery_wait, RecoveryWait::kLink);
  // The ack deadline (arrival bound + 20 ms) fired about 25 ms into the
  // 300 ms outage: parked ever since.
  EXPECT_GE(stats.recovery_age, Milliseconds(270));
  env_.RunFor(Milliseconds(100));
  EXPECT_EQ(Stats(g).recovery_age, stats.recovery_age + Milliseconds(100));
  EXPECT_EQ(Stats(g).auto_resync_attempts, 0u);

  Heal();
  env_.RunFor(Milliseconds(50));
  stats = Stats(g);
  EXPECT_EQ(stats.auto_resync_attempts, 1u);
  EXPECT_FALSE(stats.suspended);
  EXPECT_TRUE(Converged(p, s));
}

// An operator suspension is never undone by a link edge, including one
// that took over a group parked for the link.
TEST_F(FaultRecoveryTest, OperatorSuspendSurvivesLinkFlap) {
  auto [p, s] = MakeVolumes("v");
  GroupId g = MakeGroup();
  PairId pair = MakeAsyncPair(p, s, g);
  env_.RunFor(Milliseconds(4));
  FailWhileLinkDown(p, Milliseconds(100));
  ASSERT_EQ(Stats(g).recovery_wait, RecoveryWait::kLink);
  ASSERT_TRUE(engine_.SuspendGroup(g).ok());
  EXPECT_EQ(Stats(g).recovery_wait, RecoveryWait::kNone);

  Heal();
  env_.RunFor(Milliseconds(20));
  Partition();
  env_.RunFor(Milliseconds(5));
  Heal();
  env_.RunFor(Milliseconds(200));
  GroupStats stats = Stats(g);
  EXPECT_TRUE(stats.suspended);
  EXPECT_EQ(stats.suspend_reason, SuspendReason::kOperator);
  EXPECT_EQ(stats.auto_resync_attempts, 0u);
  EXPECT_EQ(engine_.GetPair(pair)->state(), PairState::kSuspended);

  ASSERT_TRUE(engine_.ResyncGroup(g).ok());
  env_.RunFor(Milliseconds(50));
  EXPECT_TRUE(Converged(p, s));
}

// A journal media error is waiting for hardware, not for the link: the
// link edge leaves it on its backoff, and it resyncs once the media heals.
TEST_F(FaultRecoveryTest, MediaErrorStillWaitsForHardwareAfterLinkEdge) {
  auto [p, s] = MakeVolumes("v");
  GroupId g = MakeGroup();
  MakeAsyncPair(p, s, g);
  env_.RunFor(Milliseconds(4));
  Partition();
  engine_.primary_journal(g)->SetMediaError(true);
  ASSERT_TRUE(main_.WriteSync(p, 1, BlockOf('m')).ok());
  GroupStats stats = Stats(g);
  ASSERT_TRUE(stats.suspended);
  ASSERT_EQ(stats.suspend_reason, SuspendReason::kMediaError);
  EXPECT_EQ(stats.recovery_wait, RecoveryWait::kLink);

  Heal();
  env_.RunFor(0);
  stats = Stats(g);
  EXPECT_EQ(stats.recovery_wait, RecoveryWait::kBackoff);
  env_.RunFor(Milliseconds(200));
  stats = Stats(g);
  EXPECT_TRUE(stats.suspended);
  EXPECT_EQ(stats.suspend_reason, SuspendReason::kMediaError);
  EXPECT_EQ(stats.recovery_wait, RecoveryWait::kBackoff);
  EXPECT_EQ(stats.auto_resync_attempts, 0u);

  engine_.primary_journal(g)->SetMediaError(false);
  // At most one capped backoff (50 ms) plus the 5 ms trip.
  env_.RunFor(Milliseconds(60));
  stats = Stats(g);
  EXPECT_FALSE(stats.suspended);
  EXPECT_EQ(stats.auto_resync_attempts, 1u);
  EXPECT_TRUE(Converged(p, s));
}

// Failback regression: a giveback killed by a reverse-link partition used
// to be gone for good (the giveback flag stuck, the backup-site writes
// never reached the main site). The group keeps the captured extents
// until they land and re-sends them on the reverse link's ready edge.
TEST_F(FaultRecoveryTest, GivebackLostInFlightIsResent) {
  auto [p, s] = MakeVolumes("v");
  GroupId g = MakeGroup();
  PairId pair = MakeAsyncPair(p, s, g);
  ASSERT_TRUE(main_.WriteSync(p, 0, BlockOf('a')).ok());
  env_.RunFor(Milliseconds(50));
  main_.SetFailed(true);
  Partition();
  ASSERT_TRUE(engine_.FailoverGroup(g).ok());
  ASSERT_TRUE(backup_.WriteSync(s, 1, BlockOf('b')).ok());
  ASSERT_TRUE(backup_.WriteSync(s, 2, BlockOf('c')).ok());
  main_.SetFailed(false);
  Heal();
  env_.RunFor(0);  // The heal's ready edges.
  ASSERT_TRUE(engine_.FailbackGroup(g).ok());

  env_.RunFor(Milliseconds(1));
  to_main_.SetConnected(false);  // The giveback dies on the wire.
  env_.RunFor(Milliseconds(40));  // Past its loss deadline: nothing to do.
  GroupStats stats = Stats(g);
  EXPECT_TRUE(stats.giveback_in_flight);
  EXPECT_EQ(stats.giveback_age, Milliseconds(41));
  EXPECT_EQ(engine_.GetPair(pair)->reverse_dirty_blocks(), 2u);

  to_main_.SetConnected(true);
  env_.RunFor(Milliseconds(10));
  EXPECT_EQ(main_.GetVolume(p)->store().ReadBlock(1), BlockOf('b'));
  EXPECT_EQ(main_.GetVolume(p)->store().ReadBlock(2), BlockOf('c'));
  EXPECT_FALSE(Stats(g).giveback_in_flight);
  EXPECT_EQ(engine_.GetPair(pair)->reverse_dirty_blocks(), 0u);

  // Main-site writes no longer leave dirty blocks behind.
  ASSERT_TRUE(main_.WriteSync(p, 3, BlockOf('n')).ok());
  env_.RunFor(Milliseconds(50));
  EXPECT_EQ(engine_.GetPair(pair)->dirty_blocks(), 0u);
  EXPECT_TRUE(Converged(p, s));
}

// A giveback dropped on a link that never went down is re-sent when its
// loss deadline (latest arrival + ack_timeout) passes; a main-site write
// made meanwhile still wins over the giveback copy.
TEST_F(FaultRecoveryTest, GivebackDroppedOnHealthyLinkIsResentAtDeadline) {
  auto [p, s] = MakeVolumes("v");
  GroupId g = MakeGroup();
  MakeAsyncPair(p, s, g);
  env_.RunFor(Milliseconds(50));
  main_.SetFailed(true);
  Partition();
  ASSERT_TRUE(engine_.FailoverGroup(g).ok());
  ASSERT_TRUE(backup_.WriteSync(s, 4, BlockOf('b')).ok());
  ASSERT_TRUE(backup_.WriteSync(s, 5, BlockOf('c')).ok());
  main_.SetFailed(false);
  Heal();
  env_.RunFor(0);  // The heal's ready edges.
  to_main_.set_drop_probability(1.0);
  ASSERT_TRUE(engine_.FailbackGroup(g).ok());
  to_main_.set_drop_probability(0.0);
  ASSERT_TRUE(main_.WriteSync(p, 5, BlockOf('N')).ok());

  env_.RunFor(Milliseconds(24));  // Deadline at 5 + 20 ms.
  EXPECT_TRUE(Stats(g).giveback_in_flight);
  env_.RunFor(Milliseconds(10));  // Re-sent at 25 ms, lands at 30 ms.
  EXPECT_FALSE(Stats(g).giveback_in_flight);
  EXPECT_EQ(main_.GetVolume(p)->store().ReadBlock(4), BlockOf('b'));
  EXPECT_EQ(main_.GetVolume(p)->store().ReadBlock(5), BlockOf('N'));
  env_.RunFor(Milliseconds(50));
  EXPECT_TRUE(Converged(p, s));
}

// A giveback frame the main site rejects lands nothing and stays owed;
// its loss deadline re-sends it like a dropped one.
TEST_F(FaultRecoveryTest, CorruptGivebackFrameIsResentAtDeadline) {
  auto [p, s] = MakeVolumes("v");
  GroupId g = MakeGroup();
  PairId pair = MakeAsyncPair(p, s, g);
  env_.RunFor(Milliseconds(50));
  main_.SetFailed(true);
  Partition();
  ASSERT_TRUE(engine_.FailoverGroup(g).ok());
  ASSERT_TRUE(backup_.WriteSync(s, 4, BlockOf('b')).ok());
  ASSERT_TRUE(backup_.WriteSync(s, 5, BlockOf('c')).ok());
  main_.SetFailed(false);
  Heal();
  env_.RunFor(0);  // The heal's ready edges.
  engine_.SetFaultOptions({.wire_corrupt_probability = 1.0});
  ASSERT_TRUE(engine_.FailbackGroup(g).ok());

  env_.RunFor(Milliseconds(6));  // Delivered at 5 ms and rejected.
  EXPECT_EQ(Stats(g).checksum_rejects, 1u);
  EXPECT_TRUE(Stats(g).giveback_in_flight);
  EXPECT_EQ(engine_.GetPair(pair)->reverse_dirty_blocks(), 2u);
  EXPECT_NE(main_.GetVolume(p)->store().ReadBlock(4), BlockOf('b'));

  engine_.SetFaultOptions({.wire_corrupt_probability = 0.0});
  env_.RunFor(Milliseconds(18));  // Deadline at 5 + 20 ms: re-sent.
  EXPECT_TRUE(Stats(g).giveback_in_flight);
  env_.RunFor(Milliseconds(10));  // Lands at 30 ms.
  EXPECT_FALSE(Stats(g).giveback_in_flight);
  EXPECT_EQ(Stats(g).checksum_rejects, 1u);
  EXPECT_EQ(main_.GetVolume(p)->store().ReadBlock(4), BlockOf('b'));
  EXPECT_EQ(main_.GetVolume(p)->store().ReadBlock(5), BlockOf('c'));
  EXPECT_EQ(engine_.GetPair(pair)->reverse_dirty_blocks(), 0u);
  env_.RunFor(Milliseconds(50));
  EXPECT_TRUE(Converged(p, s));
}

// The giveback epoch: behind a buffering hop (kDelayInFlight) a giveback
// can outlive its failback. After the group failed over and back again,
// that old copy must not land over the blocks the newer giveback owes.
TEST(GivebackEpochTest, StaleGivebackOfEarlierFailbackIsDropped) {
  sim::SimEnvironment env;
  storage::StorageArray main(&env, ZeroLatency("MAIN"));
  storage::StorageArray backup(&env, ZeroLatency("BKUP"));
  sim::NetworkLinkConfig link;
  link.base_latency = Milliseconds(5);
  link.bandwidth_bytes_per_sec = 0;
  sim::NetworkLink fwd(&env, link, "fwd");
  link.partition_policy = sim::PartitionPolicy::kDelayInFlight;
  sim::NetworkLink rev(&env, link, "rev");
  ReplicationEngine engine(&env, &main, &backup, &fwd, &rev);
  auto p = main.CreateVolume("v", 16);
  auto s = backup.CreateVolume("r-v", 16);
  ASSERT_TRUE(p.ok() && s.ok());
  auto g = engine.CreateConsistencyGroup({.name = "cg"});
  ASSERT_TRUE(g.ok());
  PairConfig pc;
  pc.primary = *p;
  pc.secondary = *s;
  pc.group = *g;
  ASSERT_TRUE(engine.CreatePair(pc).ok());
  env.RunFor(Milliseconds(10));
  auto set_links = [&](bool up) {
    fwd.SetConnected(up);
    rev.SetConnected(up);
    env.RunFor(0);  // The ready edges.
  };

  set_links(false);
  ASSERT_TRUE(engine.FailoverGroup(*g).ok());
  ASSERT_TRUE(backup.WriteSync(*s, 1, BlockOf('x')).ok());
  set_links(true);
  ASSERT_TRUE(engine.FailbackGroup(*g).ok());
  env.RunFor(Milliseconds(1));
  set_links(false);  // The first giveback ('x') is held at the hop.

  env.RunFor(Milliseconds(10));
  ASSERT_TRUE(engine.FailoverGroup(*g).ok());
  ASSERT_TRUE(backup.WriteSync(*s, 1, BlockOf('y')).ok());
  set_links(true);  // Releases the held copy: it arrives in 5 ms.
  ASSERT_TRUE(engine.FailbackGroup(*g).ok());
  env.RunFor(Milliseconds(20));
  EXPECT_EQ(main.GetVolume(*p)->store().ReadBlock(1), BlockOf('y'));
  EXPECT_TRUE(main.GetVolume(*p)->ContentEquals(*backup.GetVolume(*s)));
}

// SDC regression: a synchronous write in flight when the forward link
// partitions used to hang the host forever. Its deadline suspends the
// pair, dirty-marks the block and acks locally (fence level "never").
TEST_F(FaultRecoveryTest, SyncWriteInFlightAtPartitionAcksLocally) {
  auto [p, s] = MakeVolumes("v");
  PairId pair = MakeSyncPair(p, s);
  env_.RunFor(Milliseconds(20));
  int acks = 0;
  Status acked = InternalError("no ack");
  main_.SubmitHostWrite(p, 6, BlockOf('w'), [&](block::IoResult r) {
    ++acks;
    acked = r.status;
  });
  env_.RunFor(Milliseconds(1));
  to_backup_.SetConnected(false);  // The write dies on the wire.
  // Arrival bound 5 ms + reverse trip 5 ms + 50 ms grace.
  env_.RunFor(Milliseconds(65));
  EXPECT_EQ(acks, 1) << "a host write never hangs";
  EXPECT_TRUE(acked.ok()) << acked;
  EXPECT_EQ(engine_.GetPair(pair)->state(), PairState::kSuspended);
  EXPECT_EQ(engine_.GetPair(pair)->dirty_blocks(), 1u);

  to_backup_.SetConnected(true);
  ASSERT_TRUE(engine_.ResyncGroup(GroupOf(pair)).ok());
  env_.RunFor(Milliseconds(20));
  EXPECT_EQ(engine_.GetPair(pair)->state(), PairState::kPaired);
  EXPECT_TRUE(Converged(p, s));
}

// The once-guard: a remote ack that arrives after the deadline already
// acked the write locally does not complete it a second time.
TEST_F(FaultRecoveryTest, LateSyncAckDoesNotCompleteTheWriteTwice) {
  auto [p, s] = MakeVolumes("v");
  PairId pair = MakeSyncPair(p, s);
  env_.RunFor(Milliseconds(20));
  const uint64_t writes = main_.host_writes();
  int acks = 0;
  main_.SubmitHostWrite(p, 7, BlockOf('l'),
                        [&](block::IoResult r) {
                          EXPECT_TRUE(r.status.ok());
                          ++acks;
                        });
  // The reverse link slows down after the deadline was armed: the ack
  // leaves at 5 ms and arrives at 205 ms, the deadline fires at 60 ms.
  to_main_.set_base_latency(Milliseconds(200));
  env_.RunFor(Milliseconds(100));
  EXPECT_EQ(acks, 1);
  EXPECT_EQ(engine_.GetPair(pair)->state(), PairState::kSuspended);
  env_.RunFor(Milliseconds(200));
  EXPECT_EQ(acks, 1);
  // A second completion would count the write, and release its IO slot,
  // twice.
  EXPECT_EQ(main_.host_writes(), writes + 1);
}

// A sync group leaves bitmap mode when its resync frame leaves: a write
// made while the frame is on the wire is journaled, ships behind it and
// lands after it. The write used to be dirty-marked locally and its bit
// then cleared by the frame's landing, leaving the pair PAIR, clean and
// one write behind.
TEST_F(FaultRecoveryTest, SyncWriteDuringResyncLandsAfterTheFrame) {
  auto [p, s] = MakeVolumes("v");
  PairId pair = MakeSyncPair(p, s);
  env_.RunFor(Milliseconds(20));
  ASSERT_TRUE(engine_.SuspendGroup(GroupOf(pair)).ok());
  ASSERT_TRUE(main_.WriteSync(p, 3, BlockOf('a')).ok());
  ASSERT_TRUE(engine_.ResyncGroup(GroupOf(pair)).ok());
  EXPECT_FALSE(Stats(GroupOf(pair)).suspended);

  env_.RunFor(Milliseconds(1));  // The frame is on the wire until 5 ms.
  int acks = 0;
  main_.SubmitHostWrite(p, 3, BlockOf('b'), [&](block::IoResult r) {
    EXPECT_TRUE(r.status.ok()) << r.status;
    ++acks;
  });
  env_.RunFor(Milliseconds(30));
  EXPECT_EQ(acks, 1);
  EXPECT_EQ(engine_.GetPair(pair)->state(), PairState::kPaired);
  EXPECT_EQ(engine_.GetPair(pair)->dirty_blocks(), 0u);
  EXPECT_EQ(backup_.GetVolume(s)->store().ReadBlock(3), BlockOf('b'));
  EXPECT_TRUE(Converged(p, s));
}

// A sync pair's base image dropped in flight: its loss deadline suspends
// the pair with every allocated block still dirty, so the next resync
// ships the whole image. The pair used to stay in COPY, and a later resync
// re-paired it with only the blocks written since.
TEST_F(FaultRecoveryTest, LostSyncInitialCopyHitsItsDeadline) {
  auto [p, s] = MakeVolumes("v");
  for (uint64_t lba = 0; lba < 5; ++lba) {
    ASSERT_TRUE(main_.WriteSync(p, lba,
                                BlockOf(static_cast<char>('a' + lba)))
                    .ok());
  }
  PairId pair = MakeSyncPair(p, s);
  ASSERT_EQ(engine_.GetPair(pair)->state(), PairState::kCopy);

  env_.RunFor(Milliseconds(1));
  to_backup_.SetConnected(false);  // The base image dies on the wire.
  env_.RunFor(Milliseconds(60));   // Deadline at 5 + 50 ms.
  EXPECT_EQ(engine_.GetPair(pair)->state(), PairState::kSuspended);
  EXPECT_EQ(engine_.GetPair(pair)->dirty_blocks(), 5u);

  // Acked locally: the pair is suspended and the link is down.
  int acks = 0;
  main_.SubmitHostWrite(p, 10, BlockOf('z'),
                        [&](block::IoResult r) {
                          EXPECT_TRUE(r.status.ok()) << r.status;
                          ++acks;
                        });
  env_.RunFor(0);
  EXPECT_EQ(acks, 1);
  EXPECT_EQ(engine_.GetPair(pair)->dirty_blocks(), 6u);

  to_backup_.SetConnected(true);
  ASSERT_TRUE(engine_.ResyncGroup(GroupOf(pair)).ok());
  env_.RunFor(Milliseconds(20));
  EXPECT_EQ(engine_.GetPair(pair)->state(), PairState::kPaired);
  EXPECT_EQ(engine_.GetPair(pair)->dirty_blocks(), 0u);
  EXPECT_TRUE(Converged(p, s));
}

// A sync write already on the wire when its pair suspends lands in channel
// order, ahead of the resync frame sent after it. Its S-VOL write used to
// wait for a separate media-cost event, so a frame arriving at the same
// instant landed first and the stale write overwrote the newer block.
TEST_F(FaultRecoveryTest, SyncWriteInFlightLandsBeforeTheResyncFrame) {
  auto [p, s] = MakeVolumes("v");
  PairId pair = MakeSyncPair(p, s);
  env_.RunFor(Milliseconds(20));
  int acks = 0;
  main_.SubmitHostWrite(p, 3, BlockOf('a'), [&](block::IoResult r) {
    EXPECT_TRUE(r.status.ok()) << r.status;
    ++acks;
  });
  ASSERT_TRUE(engine_.SuspendGroup(GroupOf(pair)).ok());
  ASSERT_TRUE(main_.WriteSync(p, 3, BlockOf('b')).ok());
  // The frame leaves at the same instant as the write: both arrive at 5 ms.
  ASSERT_TRUE(engine_.ResyncGroup(GroupOf(pair)).ok());
  env_.RunFor(Milliseconds(30));
  EXPECT_EQ(acks, 1);
  EXPECT_EQ(engine_.GetPair(pair)->state(), PairState::kPaired);
  EXPECT_EQ(engine_.GetPair(pair)->dirty_blocks(), 0u);
  EXPECT_TRUE(Converged(p, s));
}

// Bulk frames are billed to the link at their frame size. Random blocks
// ship stored, so a giveback of two blocks and a sync-pair resync of
// three cost at least their payload in wire bytes.
TEST_F(FaultRecoveryTest, BulkFramesAreBilledAtTheirFrameSize) {
  Rng rng(5);
  auto noise = [&rng] {
    std::string block(block::kDefaultBlockSize, '\0');
    for (char& c : block) c = static_cast<char>(rng.Uniform(256));
    return block;
  };
  auto [p, s] = MakeVolumes("v");
  GroupId g = MakeGroup();
  MakeAsyncPair(p, s, g);
  env_.RunFor(Milliseconds(50));
  main_.SetFailed(true);
  Partition();
  ASSERT_TRUE(engine_.FailoverGroup(g).ok());
  ASSERT_TRUE(backup_.WriteSync(s, 1, noise()).ok());
  ASSERT_TRUE(backup_.WriteSync(s, 2, noise()).ok());
  main_.SetFailed(false);
  Heal();
  env_.RunFor(0);  // The heal's ready edges.
  const uint64_t rev0 = to_main_.bytes_sent();
  ASSERT_TRUE(engine_.FailbackGroup(g).ok());
  EXPECT_GE(to_main_.bytes_sent() - rev0, 2 * block::kDefaultBlockSize);

  auto [sp, ss] = MakeVolumes("sync");
  PairId pair = MakeSyncPair(sp, ss);
  env_.RunFor(Milliseconds(20));
  ASSERT_TRUE(engine_.SuspendGroup(GroupOf(pair)).ok());
  for (uint64_t lba = 0; lba < 3; ++lba) {
    ASSERT_TRUE(main_.WriteSync(sp, lba, noise()).ok());
  }
  const uint64_t fwd0 = to_backup_.bytes_sent();
  ASSERT_TRUE(engine_.ResyncGroup(GroupOf(pair)).ok());
  EXPECT_GE(to_backup_.bytes_sent() - fwd0, 3 * block::kDefaultBlockSize);
  env_.RunFor(Milliseconds(50));
  EXPECT_TRUE(Converged(p, s));
  EXPECT_TRUE(Converged(sp, ss));
}

// A group resync frame that reaches a failed backup array lands nothing:
// the pair stays suspended with its bits owed and the frame counts as
// lost, so its deadline re-suspends the group and auto-resync ships the
// bits once the array is back.
TEST_F(FaultRecoveryTest, GroupResyncOntoFailedArrayLandsNothing) {
  auto [p, s] = MakeVolumes("v");
  GroupId g = MakeGroup();
  PairId pair = MakeAsyncPair(p, s, g);
  env_.RunFor(Milliseconds(4));  // Empty initial copy settles.
  ASSERT_TRUE(engine_.SuspendGroup(g).ok());
  for (uint64_t lba = 0; lba < 5; ++lba) {
    ASSERT_TRUE(main_.WriteSync(p, lba, BlockOf('a' + lba)).ok());
  }
  backup_.SetFailed(true);
  ASSERT_TRUE(engine_.ResyncGroup(g).ok());
  env_.RunFor(Milliseconds(10));  // Delivered at 5 ms.
  EXPECT_EQ(engine_.GetPair(pair)->state(), PairState::kSuspended);
  EXPECT_EQ(engine_.GetPair(pair)->dirty_blocks(), 5u);
  EXPECT_EQ(Stats(g).recovery_wait, RecoveryWait::kResyncInFlight);

  env_.RunFor(Milliseconds(17));  // Past the deadline at 5 + 20 ms.
  GroupStats stats = Stats(g);
  EXPECT_TRUE(stats.suspended);
  EXPECT_EQ(stats.suspend_reason, SuspendReason::kResyncTimeout);
  EXPECT_EQ(stats.resync_timeouts, 1u);
  EXPECT_EQ(engine_.GetPair(pair)->dirty_blocks(), 5u);

  backup_.SetFailed(false);
  env_.RunFor(Seconds(1));
  EXPECT_FALSE(Stats(g).suspended);
  EXPECT_EQ(engine_.GetPair(pair)->state(), PairState::kPaired);
  EXPECT_EQ(engine_.GetPair(pair)->dirty_blocks(), 0u);
  EXPECT_TRUE(Converged(p, s));
}

// A resync that does not land (refused by a failed array, or dropped in a
// partition) leaves the backup journal where it was, so the first journal
// batch sent behind it would be contiguous and apply over the delta the
// resync owes: write 6 on the backup without writes 1-5. The batch is
// dropped instead, and the deadlines bring the group back.
TEST_F(FaultRecoveryTest, BatchBehindAnUnlandedResyncDoesNotApply) {
  for (const bool drop_frame : {false, true}) {
    SCOPED_TRACE(drop_frame ? "frame dropped" : "array failed");
    auto [p, s] = MakeVolumes(drop_frame ? "dropped" : "failed");
    GroupId g = MakeGroup();
    MakeAsyncPair(p, s, g);
    env_.RunFor(Milliseconds(4));
    ASSERT_TRUE(engine_.SuspendGroup(g).ok());
    for (uint64_t lba = 0; lba < 5; ++lba) {
      ASSERT_TRUE(main_.WriteSync(p, lba, BlockOf('a' + lba)).ok());
    }
    backup_.SetFailed(!drop_frame);
    ASSERT_TRUE(engine_.ResyncGroup(g).ok());
    if (drop_frame) {
      Partition();
      Heal();
    }
    env_.RunFor(Milliseconds(6));  // The frame is gone or refused.
    backup_.SetFailed(false);
    ASSERT_TRUE(main_.WriteSync(p, 10, BlockOf('z')).ok());
    env_.RunFor(Milliseconds(9));  // Its batch arrived at 5 ms.
    const block::MemVolume& sstore = backup_.GetVolume(s)->store();
    EXPECT_FALSE(sstore.IsAllocated(10)) << "write 6 applied without 1-5";
    EXPECT_FALSE(sstore.IsAllocated(0));

    env_.RunFor(Seconds(1));
    EXPECT_FALSE(Stats(g).suspended);
    EXPECT_TRUE(Converged(p, s));
  }
}

// The same rule when the array is up but the S-VOL's media fails every
// write: a run that does not land keeps its owed bits, and the copy stays
// in flight for its deadline.
TEST_F(FaultRecoveryTest, ResyncOntoFailingSvolMediaKeepsTheBitsOwed) {
  auto [p, s] = MakeVolumes("v");
  GroupId g = MakeGroup();
  PairId pair = MakeAsyncPair(p, s, g);
  env_.RunFor(Milliseconds(4));
  ASSERT_TRUE(engine_.SuspendGroup(g).ok());
  for (uint64_t lba = 0; lba < 5; ++lba) {
    ASSERT_TRUE(main_.WriteSync(p, lba, BlockOf('m' + lba)).ok());
  }
  block::MemVolume& sstore = backup_.GetVolume(s)->store();
  sstore.SetMediaError(1.0, 7);
  ASSERT_TRUE(engine_.ResyncGroup(g).ok());
  env_.RunFor(Milliseconds(10));
  EXPECT_GT(sstore.media_errors(), 0u);
  EXPECT_EQ(engine_.GetPair(pair)->state(), PairState::kSuspended);
  EXPECT_EQ(engine_.GetPair(pair)->dirty_blocks(), 5u);
  EXPECT_EQ(Stats(g).recovery_wait, RecoveryWait::kResyncInFlight);

  env_.RunFor(Milliseconds(17));  // Past the deadline at 5 + 20 ms.
  EXPECT_TRUE(Stats(g).suspended);
  EXPECT_EQ(Stats(g).suspend_reason, SuspendReason::kResyncTimeout);
  EXPECT_EQ(engine_.GetPair(pair)->dirty_blocks(), 5u);

  sstore.SetMediaError(0.0, 0);
  env_.RunFor(Seconds(1));
  EXPECT_EQ(engine_.GetPair(pair)->state(), PairState::kPaired);
  EXPECT_EQ(engine_.GetPair(pair)->dirty_blocks(), 0u);
  EXPECT_TRUE(Converged(p, s));
}

// A journal batch whose S-VOL write fails does not land, so it is never
// acked: the primary keeps its records until the ack deadline suspends the
// group and dirty-marks them, and the resync after the media heals carries
// the blocks, including one the host rewrote while the group was
// suspended (the stuck batch must not overwrite it afterwards).
TEST_F(FaultRecoveryTest, JournalApplyOntoFailingSvolMediaIsNotAcked) {
  auto [p0, s0] = MakeVolumes("v0");
  auto [p1, s1] = MakeVolumes("v1");
  GroupId g = MakeGroup();
  PairId pair0 = MakeAsyncPair(p0, s0, g);
  PairId pair1 = MakeAsyncPair(p1, s1, g);
  env_.RunFor(Milliseconds(4));
  block::MemVolume& sstore = backup_.GetVolume(s1)->store();
  sstore.SetMediaError(1.0, 7);
  for (uint64_t lba = 0; lba < 3; ++lba) {
    ASSERT_TRUE(main_.WriteSync(p0, lba, BlockOf('a' + lba)).ok());
    ASSERT_TRUE(main_.WriteSync(p1, lba, BlockOf('k' + lba)).ok());
  }
  env_.RunFor(Milliseconds(12));  // Arrived at 9 ms; an ack would be back.
  EXPECT_GT(sstore.media_errors(), 0u);
  journal::JournalVolume* pj = engine_.primary_journal(g);
  EXPECT_EQ(pj->acked(), 0u);
  EXPECT_EQ(pj->record_count(), 6u);
  EXPECT_FALSE(Stats(g).suspended);

  // Past the deadline (ack timeout after the estimated arrival), before
  // the first resync retry 5 ms later.
  env_.RunFor(Milliseconds(16));
  EXPECT_TRUE(Stats(g).suspended);
  EXPECT_EQ(Stats(g).suspend_reason, SuspendReason::kAckTimeout);
  EXPECT_EQ(engine_.GetPair(pair0)->dirty_blocks(), 3u);
  EXPECT_EQ(engine_.GetPair(pair1)->dirty_blocks(), 3u);
  ASSERT_TRUE(main_.WriteSync(p1, 0, BlockOf('z')).ok());

  sstore.SetMediaError(0.0, 0);
  env_.RunFor(Seconds(1));
  for (PairId pair : {pair0, pair1}) {
    EXPECT_EQ(engine_.GetPair(pair)->state(), PairState::kPaired);
    EXPECT_EQ(engine_.GetPair(pair)->dirty_blocks(), 0u);
  }
  EXPECT_TRUE(Converged(p0, s0));
  EXPECT_TRUE(Converged(p1, s1));
  EXPECT_TRUE(backup_.GetVolume(s1)->store().ReadBlock(0) == BlockOf('z'));
}

// A sync pair's resync frame that reaches a failed backup array lands
// nothing either; its deadline suspends the pair with the blocks owed.
TEST_F(FaultRecoveryTest, SyncPairResyncOntoFailedArrayLandsNothing) {
  auto [p, s] = MakeVolumes("v");
  PairId pair = MakeSyncPair(p, s);
  env_.RunFor(Milliseconds(20));
  ASSERT_TRUE(engine_.SuspendGroup(GroupOf(pair)).ok());
  for (uint64_t lba = 0; lba < 3; ++lba) {
    ASSERT_TRUE(main_.WriteSync(p, lba, BlockOf('k' + lba)).ok());
  }
  backup_.SetFailed(true);
  ASSERT_TRUE(engine_.ResyncGroup(GroupOf(pair)).ok());
  env_.RunFor(Milliseconds(10));  // Delivered at 5 ms.
  EXPECT_EQ(engine_.GetPair(pair)->dirty_blocks(), 3u);
  env_.RunFor(Milliseconds(50));  // Deadline at 5 + 50 ms.
  EXPECT_EQ(engine_.GetPair(pair)->state(), PairState::kSuspended);
  EXPECT_EQ(engine_.GetPair(pair)->dirty_blocks(), 3u);

  backup_.SetFailed(false);
  ASSERT_TRUE(engine_.ResyncGroup(GroupOf(pair)).ok());
  env_.RunFor(Milliseconds(20));
  EXPECT_EQ(engine_.GetPair(pair)->state(), PairState::kPaired);
  EXPECT_EQ(engine_.GetPair(pair)->dirty_blocks(), 0u);
  EXPECT_TRUE(Converged(p, s));
}

// The same rule for a sync pair: a write sent behind a resync that never
// landed (refused by a failed array, or dropped) lands nothing and is
// acked once, locally; the pair suspends with every block owed.
TEST_F(FaultRecoveryTest, SyncWriteBehindAnUnlandedResyncDoesNotLand) {
  for (const bool drop_frame : {false, true}) {
    SCOPED_TRACE(drop_frame ? "frame dropped" : "array failed");
    auto [p, s] = MakeVolumes(drop_frame ? "dropped" : "failed");
    PairId pair = MakeSyncPair(p, s);
    env_.RunFor(Milliseconds(20));
    ASSERT_TRUE(engine_.SuspendGroup(GroupOf(pair)).ok());
    for (uint64_t lba = 0; lba < 5; ++lba) {
      ASSERT_TRUE(main_.WriteSync(p, lba, BlockOf('a' + lba)).ok());
    }
    backup_.SetFailed(!drop_frame);
    ASSERT_TRUE(engine_.ResyncGroup(GroupOf(pair)).ok());
    if (drop_frame) {
      Partition();
      Heal();
    }
    env_.RunFor(Milliseconds(6));  // The frame is gone or refused.
    backup_.SetFailed(false);
    int acks = 0;
    main_.SubmitHostWrite(p, 10, BlockOf('z'), [&](block::IoResult r) {
      EXPECT_TRUE(r.status.ok()) << r.status;
      ++acks;
    });
    env_.RunFor(Milliseconds(9));  // The write arrived at 5 ms.
    EXPECT_FALSE(backup_.GetVolume(s)->store().IsAllocated(10))
        << "write 6 landed without 1-5";
    env_.RunFor(Milliseconds(100));  // Past both deadlines.
    EXPECT_EQ(acks, 1);
    EXPECT_EQ(engine_.GetPair(pair)->state(), PairState::kSuspended);
    EXPECT_EQ(engine_.GetPair(pair)->dirty_blocks(), 6u);

    ASSERT_TRUE(engine_.ResyncGroup(GroupOf(pair)).ok());
    env_.RunFor(Milliseconds(20));
    EXPECT_EQ(engine_.GetPair(pair)->state(), PairState::kPaired);
    EXPECT_TRUE(Converged(p, s));
  }
}

// A giveback that reaches a failed main array lands nothing and stays
// owed; its loss deadline re-sends it once the array is back.
TEST_F(FaultRecoveryTest, GivebackOntoFailedMainArrayLandsNothing) {
  auto [p, s] = MakeVolumes("v");
  GroupId g = MakeGroup();
  PairId pair = MakeAsyncPair(p, s, g);
  env_.RunFor(Milliseconds(50));
  main_.SetFailed(true);
  Partition();
  ASSERT_TRUE(engine_.FailoverGroup(g).ok());
  ASSERT_TRUE(backup_.WriteSync(s, 1, BlockOf('b')).ok());
  ASSERT_TRUE(backup_.WriteSync(s, 2, BlockOf('c')).ok());
  main_.SetFailed(false);
  Heal();
  env_.RunFor(0);  // The heal's ready edges.
  ASSERT_TRUE(engine_.FailbackGroup(g).ok());
  main_.SetFailed(true);  // Before the giveback lands at 5 ms.
  env_.RunFor(Milliseconds(10));
  EXPECT_TRUE(Stats(g).giveback_in_flight);
  EXPECT_EQ(engine_.GetPair(pair)->reverse_dirty_blocks(), 2u);
  EXPECT_EQ(main_.GetVolume(p)->store().ReadBlock(1), BlockOf('\0'));

  main_.SetFailed(false);
  env_.RunFor(Milliseconds(30));  // Re-sent at 25 ms, lands at 30 ms.
  EXPECT_FALSE(Stats(g).giveback_in_flight);
  EXPECT_EQ(engine_.GetPair(pair)->reverse_dirty_blocks(), 0u);
  EXPECT_EQ(main_.GetVolume(p)->store().ReadBlock(1), BlockOf('b'));
  EXPECT_EQ(main_.GetVolume(p)->store().ReadBlock(2), BlockOf('c'));
  env_.RunFor(Milliseconds(50));
  EXPECT_TRUE(Converged(p, s));
}

// An SDC write that finds the backup array failed is never acked as
// replicated: its deadline acks the host locally, suspends the pair and
// dirty-marks the block, so a resync after the repair converges.
TEST_F(FaultRecoveryTest, SyncWriteOntoFailedArrayIsNotAckedAsReplicated) {
  auto [p, s] = MakeVolumes("v");
  PairId pair = MakeSyncPair(p, s);
  env_.RunFor(Milliseconds(20));
  ASSERT_EQ(engine_.GetPair(pair)->state(), PairState::kPaired);
  backup_.SetFailed(true);
  int acks = 0;
  Status acked = InternalError("no ack");
  main_.SubmitHostWrite(p, 4, BlockOf('w'), [&](block::IoResult r) {
    ++acks;
    acked = r.status;
  });
  env_.RunFor(Milliseconds(30));
  EXPECT_EQ(acks, 0) << "a failed array sends no remote ack";
  backup_.SetFailed(false);
  env_.RunFor(Milliseconds(35));  // Deadline at 5 + 5 + 50 ms.
  EXPECT_EQ(acks, 1) << "a host write never hangs";
  EXPECT_TRUE(acked.ok()) << acked;
  EXPECT_EQ(engine_.GetPair(pair)->state(), PairState::kSuspended);
  EXPECT_EQ(engine_.GetPair(pair)->dirty_blocks(), 1u);

  ASSERT_TRUE(engine_.ResyncGroup(GroupOf(pair)).ok());
  env_.RunFor(Milliseconds(20));
  EXPECT_EQ(engine_.GetPair(pair)->state(), PairState::kPaired);
  EXPECT_TRUE(Converged(p, s));
}

}  // namespace
}  // namespace zerobak::replication

// Regression tests for the recovery-path bugs exposed by real partition
// semantics (in-flight drops), plus the ack-deadline / auto-resync
// machinery that reacts to them.
#include <string>
#include <utility>

#include <gtest/gtest.h>

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

// Satellite bugfix regression: per-channel FIFO state must not outlive its
// pair / group (previously last_arrival_ grew forever).
TEST_F(FaultRecoveryTest, DeletingPairsReleasesLinkChannelState) {
  // A sync pair uses a dedicated channel on both links.
  auto [p1, s1] = MakeVolumes("sync");
  PairConfig sync_cfg;
  sync_cfg.name = "sp";
  sync_cfg.primary = p1;
  sync_cfg.secondary = s1;
  sync_cfg.mode = ReplicationMode::kSynchronous;
  auto sync_pair = engine_.CreatePair(sync_cfg);
  ASSERT_TRUE(sync_pair.ok());
  env_.RunFor(Milliseconds(20));
  Status acked = InternalError("no ack");
  main_.SubmitHostWrite(p1, 0, BlockOf('s'),
                        [&](block::IoResult r) { acked = r.status; });
  env_.RunUntilIdle();
  ASSERT_TRUE(acked.ok());

  // An async group uses its group id as the channel on both links.
  auto [p2, s2] = MakeVolumes("async");
  GroupId g = MakeGroup();
  PairId async_pair = MakeAsyncPair(p2, s2, g);
  ASSERT_TRUE(main_.WriteSync(p2, 0, BlockOf('a')).ok());
  env_.RunFor(Milliseconds(50));

  EXPECT_GT(to_backup_.tracked_channels(), 0u);
  EXPECT_GT(to_main_.tracked_channels(), 0u);

  ASSERT_TRUE(engine_.DeletePair(*sync_pair).ok());
  ASSERT_TRUE(engine_.DeletePair(async_pair).ok());
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

}  // namespace
}  // namespace zerobak::replication

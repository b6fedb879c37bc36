// A snapshot restore over a replicated volume takes the host write path:
// the rewound blocks are journaled on an ADC P-VOL, dirty-marked while
// the pair is suspended, shipped by an SDC group, refused on an S-VOL that
// still receives replication and given back by failback on a promoted
// S-VOL. Without that the backup keeps the pre-restore blocks while the
// pair reports PAIR.
#include <string>

#include <gtest/gtest.h>

#include "replication/replication.h"
#include "snapshot/snapshot.h"
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

class SnapshotRestoreTest : public ::testing::Test {
 protected:
  SnapshotRestoreTest()
      : main_(&env_, ZeroLatency("MAIN")),
        backup_(&env_, ZeroLatency("BKUP")),
        to_backup_(&env_, LinkConfig(1), "fwd"),
        to_main_(&env_, LinkConfig(2), "rev"),
        engine_(&env_, &main_, &backup_, &to_backup_, &to_main_),
        main_snapshots_(&main_),
        backup_snapshots_(&backup_) {
    auto p = main_.CreateVolume("v", 64);
    auto s = backup_.CreateVolume("r-v", 64);
    EXPECT_TRUE(p.ok() && s.ok());
    pvol_ = *p;
    svol_ = *s;
  }

  static sim::NetworkLinkConfig LinkConfig(uint64_t seed) {
    sim::NetworkLinkConfig cfg;
    cfg.base_latency = Milliseconds(2);
    cfg.jitter = 0;
    cfg.bandwidth_bytes_per_sec = 0;
    cfg.seed = seed;
    return cfg;
  }

  void MakeAsyncPair() {
    ConsistencyGroupConfig gcfg;
    gcfg.name = "cg";
    gcfg.auto_resync = false;
    auto g = engine_.CreateConsistencyGroup(gcfg);
    ASSERT_TRUE(g.ok());
    group_ = *g;
    PairConfig pcfg;
    pcfg.name = "pair";
    pcfg.primary = pvol_;
    pcfg.secondary = svol_;
    pcfg.mode = ReplicationMode::kAsynchronous;
    pcfg.group = group_;
    auto pair = engine_.CreatePair(pcfg);
    ASSERT_TRUE(pair.ok());
    pair_ = *pair;
    env_.RunFor(Milliseconds(20));
  }

  // Writes 'a'..'d' to blocks 0-3, snapshots the P-VOL once they reached
  // the S-VOL, then overwrites blocks 1 and 2; returns the snapshot.
  snapshot::SnapshotId WriteSnapshotOverwrite() {
    for (block::Lba lba = 0; lba < 4; ++lba) {
      EXPECT_TRUE(main_.WriteSync(pvol_, lba, BlockOf('a' + lba)).ok());
    }
    env_.RunFor(Milliseconds(20));
    EXPECT_TRUE(Converged());
    auto snap = main_snapshots_.CreateSnapshot(pvol_, "good");
    EXPECT_TRUE(snap.ok());
    EXPECT_TRUE(main_.WriteSync(pvol_, 1, BlockOf('x')).ok());
    EXPECT_TRUE(main_.WriteSync(pvol_, 2, BlockOf('y')).ok());
    return snap.ok() ? *snap : 0;
  }

  storage::Volume* pvol() { return main_.GetVolume(pvol_); }
  storage::Volume* svol() { return backup_.GetVolume(svol_); }
  bool Converged() { return pvol()->ContentEquals(*svol()); }
  std::string SvolBlock(block::Lba lba) {
    return svol()->store().ReadBlock(lba);
  }

  sim::SimEnvironment env_;
  storage::StorageArray main_;
  storage::StorageArray backup_;
  sim::NetworkLink to_backup_;
  sim::NetworkLink to_main_;
  ReplicationEngine engine_;
  snapshot::SnapshotManager main_snapshots_;
  snapshot::SnapshotManager backup_snapshots_;
  storage::VolumeId pvol_ = 0;
  storage::VolumeId svol_ = 0;
  GroupId group_ = 0;
  PairId pair_ = 0;
};

TEST_F(SnapshotRestoreTest, RestoreOverAnAdcPvolConvergesTheSvol) {
  MakeAsyncPair();
  const snapshot::SnapshotId snap = WriteSnapshotOverwrite();
  env_.RunFor(Milliseconds(20));
  ASSERT_EQ(SvolBlock(1), BlockOf('x'));
  const uint64_t appends = engine_.primary_journal(group_)->written();
  auto restored = main_snapshots_.RestoreVolume(snap);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(*restored, 2u);
  // One journal record per rewritten block.
  EXPECT_EQ(engine_.primary_journal(group_)->written(), appends + 2);
  env_.RunFor(Milliseconds(20));
  EXPECT_EQ(engine_.GetPair(pair_)->state(), PairState::kPaired);
  EXPECT_EQ(SvolBlock(1), BlockOf('b'));
  EXPECT_EQ(SvolBlock(2), BlockOf('c'));
  EXPECT_TRUE(Converged());
}

TEST_F(SnapshotRestoreTest, RestoreWhileSuspendedIsDirtyMarkedAndResynced) {
  MakeAsyncPair();
  const snapshot::SnapshotId snap = WriteSnapshotOverwrite();
  env_.RunFor(Milliseconds(20));
  ASSERT_TRUE(engine_.SuspendGroup(group_).ok());
  const size_t dirty = engine_.GetPair(pair_)->dirty_blocks();
  auto restored = main_snapshots_.RestoreVolume(snap);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(*restored, 2u);
  EXPECT_EQ(engine_.GetPair(pair_)->dirty_blocks(), dirty + 2);
  EXPECT_EQ(SvolBlock(1), BlockOf('x'));
  ASSERT_TRUE(engine_.ResyncGroup(group_).ok());
  env_.RunFor(Milliseconds(50));
  EXPECT_EQ(engine_.GetPair(pair_)->state(), PairState::kPaired);
  EXPECT_TRUE(Converged());
}

TEST_F(SnapshotRestoreTest, RestoreOnAGuardedSvolIsRefused) {
  MakeAsyncPair();
  ASSERT_TRUE(main_.WriteSync(pvol_, 0, BlockOf('a')).ok());
  env_.RunFor(Milliseconds(20));
  auto snap = backup_snapshots_.CreateSnapshot(svol_, "replica");
  ASSERT_TRUE(snap.ok());
  ASSERT_TRUE(main_.WriteSync(pvol_, 0, BlockOf('b')).ok());
  env_.RunFor(Milliseconds(20));
  ASSERT_EQ(SvolBlock(0), BlockOf('b'));
  auto restored = backup_snapshots_.RestoreVolume(*snap);
  EXPECT_EQ(restored.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(SvolBlock(0), BlockOf('b'));
  EXPECT_TRUE(Converged());
}

TEST_F(SnapshotRestoreTest, RestoreOverAnSdcPvolShipsWithoutAnInlineAck) {
  auto g = engine_.CreateConsistencyGroup({.name = "sync-cg"});
  ASSERT_TRUE(g.ok());
  PairConfig pcfg;
  pcfg.name = "sync";
  pcfg.primary = pvol_;
  pcfg.secondary = svol_;
  pcfg.mode = ReplicationMode::kSynchronous;
  pcfg.group = *g;
  auto pair = engine_.CreatePair(pcfg);
  ASSERT_TRUE(pair.ok());
  env_.RunFor(Milliseconds(20));
  int acked = 0;
  auto host_write = [&](block::Lba lba, char c) {
    main_.SubmitHostWrite(pvol_, lba, BlockOf(c), [&](block::IoResult r) {
      EXPECT_TRUE(r.status.ok()) << r.status;
      ++acked;
    });
    env_.RunFor(Milliseconds(10));
  };
  host_write(0, 'a');
  host_write(1, 'b');
  auto snap = main_snapshots_.CreateSnapshot(pvol_, "good");
  ASSERT_TRUE(snap.ok());
  host_write(1, 'x');
  ASSERT_EQ(acked, 3);
  ASSERT_EQ(SvolBlock(1), BlockOf('x'));
  auto restored = main_snapshots_.RestoreVolume(*snap);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(*restored, 1u);
  env_.RunFor(Milliseconds(20));
  EXPECT_EQ(engine_.GetPair(*pair)->state(), PairState::kPaired);
  EXPECT_EQ(SvolBlock(1), BlockOf('b'));
  EXPECT_TRUE(Converged());
}

TEST_F(SnapshotRestoreTest, RestoreOnAPromotedSvolIsGivenBackByFailback) {
  MakeAsyncPair();
  for (block::Lba lba = 0; lba < 4; ++lba) {
    ASSERT_TRUE(main_.WriteSync(pvol_, lba, BlockOf('a' + lba)).ok());
  }
  env_.RunFor(Milliseconds(20));
  auto snap = backup_snapshots_.CreateSnapshot(svol_, "good");
  ASSERT_TRUE(snap.ok());
  ASSERT_TRUE(main_.WriteSync(pvol_, 3, BlockOf('!')).ok());
  env_.RunFor(Milliseconds(20));
  ASSERT_EQ(SvolBlock(3), BlockOf('!'));
  ASSERT_TRUE(engine_.FailoverGroup(group_).ok());
  auto restored = backup_snapshots_.RestoreVolume(*snap);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(*restored, 1u);
  EXPECT_EQ(engine_.GetPair(pair_)->reverse_dirty_blocks(), 1u);
  ASSERT_TRUE(engine_.FailbackGroup(group_).ok());
  env_.RunFor(Milliseconds(50));
  EXPECT_EQ(pvol()->store().ReadBlock(3), BlockOf('d'));
  EXPECT_TRUE(Converged());
}

}  // namespace
}  // namespace zerobak::replication

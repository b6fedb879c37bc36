// Failback (giveback) tests: after a disaster-recovery takeover, the
// business runs on the backup site; once the main site is repaired, the
// delta ships back and forward replication resumes.
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

class FailbackTest : public ::testing::Test {
 protected:
  FailbackTest()
      : main_(&env_, ZeroLatency("MAIN")),
        backup_(&env_, ZeroLatency("BKUP")),
        to_backup_(&env_, LinkConfig(), "fwd"),
        to_main_(&env_, LinkConfig(), "rev"),
        engine_(&env_, &main_, &backup_, &to_backup_, &to_main_) {
    auto p = main_.CreateVolume("v", 64);
    auto s = backup_.CreateVolume("r-v", 64);
    EXPECT_TRUE(p.ok() && s.ok());
    pvol_ = *p;
    svol_ = *s;
    auto g = engine_.CreateConsistencyGroup({.name = "cg"});
    EXPECT_TRUE(g.ok());
    group_ = *g;
    PairConfig pc;
    pc.name = "pair";
    pc.primary = pvol_;
    pc.secondary = svol_;
    pc.mode = ReplicationMode::kAsynchronous;
    pc.group = group_;
    auto pair = engine_.CreatePair(pc);
    EXPECT_TRUE(pair.ok());
    pair_ = *pair;
  }

  static sim::NetworkLinkConfig LinkConfig() {
    sim::NetworkLinkConfig cfg;
    cfg.base_latency = Milliseconds(5);
    cfg.jitter = 0;
    cfg.bandwidth_bytes_per_sec = 0;
    return cfg;
  }

  void Disaster() {
    main_.SetFailed(true);
    to_backup_.SetConnected(false);
    to_main_.SetConnected(false);
    auto report = engine_.FailoverGroup(group_);
    ASSERT_TRUE(report.ok());
  }

  void Repair() {
    main_.SetFailed(false);
    to_backup_.SetConnected(true);
    to_main_.SetConnected(true);
  }

  bool Converged() {
    return main_.GetVolume(pvol_)->ContentEquals(*backup_.GetVolume(svol_));
  }

  sim::SimEnvironment env_;
  storage::StorageArray main_;
  storage::StorageArray backup_;
  sim::NetworkLink to_backup_;
  sim::NetworkLink to_main_;
  ReplicationEngine engine_;
  storage::VolumeId pvol_ = 0;
  storage::VolumeId svol_ = 0;
  GroupId group_ = 0;
  PairId pair_ = 0;
};

TEST_F(FailbackTest, RequiresFailedOverGroup) {
  EXPECT_EQ(engine_.FailbackGroup(group_).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(FailbackTest, RequiresHealthyMainAndLinks) {
  Disaster();
  // Main array still dead.
  EXPECT_EQ(engine_.FailbackGroup(group_).status().code(),
            StatusCode::kFailedPrecondition);
  main_.SetFailed(false);
  // Links still down.
  EXPECT_EQ(engine_.FailbackGroup(group_).status().code(),
            StatusCode::kUnavailable);
}

TEST_F(FailbackTest, ShipsBackupDeltaAndResumesReplication) {
  ASSERT_TRUE(main_.WriteSync(pvol_, 0, BlockOf('a')).ok());
  env_.RunFor(Milliseconds(50));
  ASSERT_TRUE(Converged());
  Disaster();

  // The business runs on the backup site during the outage.
  ASSERT_TRUE(backup_.WriteSync(svol_, 1, BlockOf('b')).ok());
  ASSERT_TRUE(backup_.WriteSync(svol_, 2, BlockOf('c')).ok());
  EXPECT_EQ(engine_.GetPair(pair_)->reverse_dirty_blocks(), 2u);

  Repair();
  auto report = engine_.FailbackGroup(group_);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->blocks_shipped, 2u);
  EXPECT_EQ(report->conflicts_overwritten, 0u);

  env_.RunFor(Milliseconds(50));
  // The main volume received the outage writes.
  EXPECT_EQ(main_.GetVolume(pvol_)->store().ReadBlock(1), BlockOf('b'));
  EXPECT_EQ(main_.GetVolume(pvol_)->store().ReadBlock(2), BlockOf('c'));
  EXPECT_TRUE(Converged());
  EXPECT_EQ(engine_.GetPair(pair_)->state(), PairState::kPaired);

  // The backup volume is write-protected again.
  EXPECT_EQ(backup_.WriteSync(svol_, 0, BlockOf('x')).code(),
            StatusCode::kFailedPrecondition);

  // Forward replication flows with the fresh journals.
  ASSERT_TRUE(main_.WriteSync(pvol_, 5, BlockOf('n')).ok());
  env_.RunFor(Milliseconds(50));
  EXPECT_TRUE(Converged());
}

TEST_F(FailbackTest, SplitBrainRejectedWithoutForce) {
  env_.RunFor(Milliseconds(20));
  // A network partition (not an array death): the backup site takes over
  // while the main site survives and keeps writing — the split brain.
  to_backup_.SetConnected(false);
  to_main_.SetConnected(false);
  ASSERT_TRUE(engine_.FailoverGroup(group_).ok());
  ASSERT_TRUE(main_.WriteSync(pvol_, 3, BlockOf('m')).ok());
  ASSERT_TRUE(backup_.WriteSync(svol_, 3, BlockOf('s')).ok());
  Repair();
  auto rejected = engine_.FailbackGroup(group_);
  EXPECT_EQ(rejected.status().code(), StatusCode::kFailedPrecondition);

  // Force: the backup side wins the conflict.
  auto forced = engine_.FailbackGroup(group_, /*force=*/true);
  ASSERT_TRUE(forced.ok());
  EXPECT_EQ(forced->conflicts_overwritten, 1u);
  env_.RunFor(Milliseconds(50));
  EXPECT_EQ(main_.GetVolume(pvol_)->store().ReadBlock(3), BlockOf('s'));
  EXPECT_TRUE(Converged());
}

TEST_F(FailbackTest, MainWritesDuringGivebackWin) {
  env_.RunFor(Milliseconds(20));
  Disaster();
  ASSERT_TRUE(backup_.WriteSync(svol_, 7, BlockOf('o')).ok());
  Repair();
  ASSERT_TRUE(engine_.FailbackGroup(group_).ok());
  // Replication already resumed: a main write to the same block while the
  // giveback batch is still on the wire must not be clobbered.
  ASSERT_TRUE(main_.WriteSync(pvol_, 7, BlockOf('N')).ok());
  env_.RunFor(Milliseconds(50));
  EXPECT_EQ(main_.GetVolume(pvol_)->store().ReadBlock(7), BlockOf('N'));
  EXPECT_TRUE(Converged());
}

TEST_F(FailbackTest, DoubleFailbackRejected) {
  env_.RunFor(Milliseconds(20));
  Disaster();
  Repair();
  ASSERT_TRUE(engine_.FailbackGroup(group_).ok());
  EXPECT_EQ(engine_.FailbackGroup(group_).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(FailbackTest, FullCycleFailoverFailbackFailover) {
  // The system survives repeated disasters.
  for (int cycle = 0; cycle < 3; ++cycle) {
    ASSERT_TRUE(main_
                    .WriteSync(pvol_, static_cast<uint64_t>(cycle),
                               BlockOf(static_cast<char>('a' + cycle)))
                    .ok());
    env_.RunFor(Milliseconds(50));
    ASSERT_TRUE(Converged()) << "cycle " << cycle;
    Disaster();
    ASSERT_TRUE(backup_
                    .WriteSync(svol_, 10 + static_cast<uint64_t>(cycle),
                               BlockOf('z'))
                    .ok());
    Repair();
    ASSERT_TRUE(engine_.FailbackGroup(group_).ok()) << "cycle " << cycle;
    env_.RunFor(Milliseconds(50));
    ASSERT_TRUE(Converged()) << "cycle " << cycle;
    ASSERT_EQ(engine_.GetPair(pair_)->state(), PairState::kPaired);
  }
}

// An apply ack still on the reverse link when the group fails over and
// straight back names a sequence of the old journal space. Landing after
// the failback, it must not trim the fresh journal: those records would
// count as acked, so losing their batch would go unnoticed and the backup
// would never get them.
TEST_F(FailbackTest, StaleApplyAckDoesNotTrimTheFreshJournal) {
  for (uint64_t lba = 0; lba < 3; ++lba) {
    ASSERT_TRUE(main_.WriteSync(pvol_, lba, BlockOf('a' + lba)).ok());
  }
  // Shipped at the 2 ms tick and applied at 7 ms; the ack is out until
  // 12 ms.
  env_.RunFor(Milliseconds(9));
  ASSERT_EQ(backup_.GetVolume(svol_)->store().ReadBlock(2), BlockOf('c'));
  ASSERT_EQ(engine_.primary_journal(group_)->acked(), 0u);
  ASSERT_TRUE(engine_.FailoverGroup(group_).ok());
  ASSERT_TRUE(engine_.FailbackGroup(group_).ok());
  for (uint64_t lba = 10; lba < 13; ++lba) {
    ASSERT_TRUE(main_.WriteSync(pvol_, lba, BlockOf('x')).ok());
  }
  env_.RunFor(Milliseconds(4));  // Shipped at 10 ms; the stale ack is in.
  EXPECT_EQ(engine_.primary_journal(group_)->acked(), 0u)
      << "a stale ack trimmed the fresh journal";
  // The fresh batch dies on the wire: its ack deadline must notice.
  to_backup_.SetConnected(false);
  to_backup_.SetConnected(true);
  env_.RunFor(Milliseconds(200));
  EXPECT_TRUE(Converged());
}

}  // namespace
}  // namespace zerobak::replication

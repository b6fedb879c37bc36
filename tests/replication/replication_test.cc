#include "replication/replication.h"

#include <string>

#include <gtest/gtest.h>

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

class ReplicationTest : public ::testing::Test {
 protected:
  ReplicationTest()
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

  // Creates same-geometry volumes on both arrays.
  std::pair<storage::VolumeId, storage::VolumeId> MakeVolumes(
      const std::string& name, uint64_t blocks = 64) {
    auto p = main_.CreateVolume(name, blocks);
    auto s = backup_.CreateVolume("r-" + name, blocks);
    EXPECT_TRUE(p.ok() && s.ok());
    return {*p, *s};
  }

  GroupId MakeGroup(uint64_t capacity = 16 << 20) {
    ConsistencyGroupConfig cfg;
    cfg.name = "cg";
    cfg.journal_capacity_bytes = capacity;
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

  // A synchronous pair in a group of its own, with auto-resync off: the
  // tests resync by hand.
  PairId MakeSyncPair(storage::VolumeId p, storage::VolumeId s,
                      GroupId* group = nullptr) {
    ConsistencyGroupConfig gcfg;
    gcfg.name = "sync-cg";
    gcfg.auto_resync = false;
    auto g = engine_.CreateConsistencyGroup(gcfg);
    EXPECT_TRUE(g.ok());
    if (group != nullptr) *group = *g;
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

TEST_F(ReplicationTest, EmptyPairIsImmediatelyPaired) {
  auto [p, s] = MakeVolumes("v");
  GroupId g = MakeGroup();
  PairId pair = MakeAsyncPair(p, s, g);
  EXPECT_EQ(engine_.GetPair(pair)->state(), PairState::kPaired);
  EXPECT_TRUE(engine_.GroupInitialCopyDone(g));
}

TEST_F(ReplicationTest, InitialCopyTransfersExistingData) {
  auto [p, s] = MakeVolumes("v");
  ASSERT_TRUE(main_.WriteSync(p, 0, BlockOf('a')).ok());
  ASSERT_TRUE(main_.WriteSync(p, 9, BlockOf('b')).ok());
  GroupId g = MakeGroup();
  PairId pair = MakeAsyncPair(p, s, g);
  EXPECT_EQ(engine_.GetPair(pair)->state(), PairState::kCopy);
  EXPECT_FALSE(Converged(p, s));
  env_.RunFor(Milliseconds(20));
  EXPECT_EQ(engine_.GetPair(pair)->state(), PairState::kPaired);
  EXPECT_TRUE(Converged(p, s));
}

// The initial copy carries the P-VOL's checksum sidecar to the S-VOL, so
// latent rot in a P-VOL block stays detectable in the backup instead of
// getting a fresh, valid checksum there, for async and sync groups
// alike.
TEST_F(ReplicationTest, InitialCopyKeepsLatentRotDetectable) {
  for (const bool sync : {false, true}) {
    SCOPED_TRACE(sync ? "sync group" : "async group");
    auto [p, s] = MakeVolumes(sync ? "sv" : "av");
    for (uint64_t lba = 0; lba < 8; ++lba) {
      ASSERT_TRUE(main_.WriteSync(p, lba,
                                  BlockOf(static_cast<char>('a' + lba)))
                      .ok());
    }
    block::MemVolume& pstore = main_.GetVolume(p)->store();
    ASSERT_TRUE(pstore.FlipBit(3, 17));
    const uint64_t frozen_blocks = pstore.allocated_blocks();
    PairId pair = 0;
    if (sync) {
      pair = MakeSyncPair(p, s);
      ASSERT_NE(pair, 0u);
    } else {
      pair = MakeAsyncPair(p, s, MakeGroup());
    }
    ASSERT_EQ(engine_.GetPair(pair)->state(), PairState::kCopy);
    env_.RunFor(Milliseconds(20));
    ASSERT_EQ(engine_.GetPair(pair)->state(), PairState::kPaired);

    block::MemVolume& sstore = backup_.GetVolume(s)->store();
    EXPECT_EQ(sstore.allocated_blocks(), frozen_blocks);
    std::string out;
    EXPECT_EQ(sstore.Read(3, 1, &out).code(), StatusCode::kDataLoss);
    EXPECT_EQ(sstore.VerifyExtent(0, 3), block::MemVolume::ExtentHealth::kClean);
    EXPECT_EQ(sstore.VerifyExtent(4, 60),
              block::MemVolume::ExtentHealth::kClean);
  }
}

// The initial copy of a sparse P-VOL lands only the slabs that hold
// written blocks: the S-VOL's footprint is the P-VOL's, a 256 KiB slab
// per written region of the 20 MiB volume, not the whole volume.
TEST_F(ReplicationTest, InitialCopyOfASparsePvolKeepsItsSlabFootprint) {
  for (const bool sync : {false, true}) {
    SCOPED_TRACE(sync ? "sync group" : "async group");
    auto [p, s] = MakeVolumes(sync ? "sv" : "av", 5120);
    for (const uint64_t lba : {0, 1, 2000, 5119}) {
      ASSERT_TRUE(main_.WriteSync(p, lba, BlockOf('f')).ok());
    }
    const block::MemVolume& pstore = main_.GetVolume(p)->store();
    ASSERT_EQ(pstore.slab_bytes(), 3u * 256 * 1024);
    PairId pair = 0;
    if (sync) {
      pair = MakeSyncPair(p, s);
      ASSERT_NE(pair, 0u);
    } else {
      pair = MakeAsyncPair(p, s, MakeGroup());
    }
    env_.RunFor(Milliseconds(20));
    ASSERT_EQ(engine_.GetPair(pair)->state(), PairState::kPaired);
    const block::MemVolume& sstore = backup_.GetVolume(s)->store();
    EXPECT_EQ(sstore.slab_bytes(), pstore.slab_bytes());
    EXPECT_EQ(sstore.allocated_blocks(), 4u);
    EXPECT_TRUE(Converged(p, s));
  }
}

// A resync ships the P-VOL's sidecar CRCs with the blocks and the S-VOL
// stores them, so a P-VOL block that rotted before the resync reads back
// as kDataLoss on the S-VOL instead of getting a fresh, valid checksum
// there, for async and sync groups alike.
TEST_F(ReplicationTest, ResyncKeepsLatentRotDetectable) {
  for (const bool sync : {false, true}) {
    SCOPED_TRACE(sync ? "sync group" : "async group");
    auto [p, s] = MakeVolumes(sync ? "sv" : "av");
    PairId pair = 0;
    GroupId g = 0;
    if (sync) {
      pair = MakeSyncPair(p, s, &g);
      ASSERT_NE(pair, 0u);
    } else {
      g = MakeGroup();
      pair = MakeAsyncPair(p, s, g);
    }
    ASSERT_TRUE(engine_.SuspendGroup(g).ok());
    for (uint64_t lba = 0; lba < 8; ++lba) {
      ASSERT_TRUE(main_.WriteSync(p, lba,
                                  BlockOf(static_cast<char>('a' + lba)))
                      .ok());
    }
    ASSERT_TRUE(main_.GetVolume(p)->store().FlipBit(3, 17));
    ASSERT_TRUE(engine_.ResyncGroup(g).ok());
    env_.RunFor(Milliseconds(20));
    ASSERT_EQ(engine_.GetPair(pair)->state(), PairState::kPaired);
    ASSERT_EQ(engine_.GetPair(pair)->dirty_blocks(), 0u);

    block::MemVolume& sstore = backup_.GetVolume(s)->store();
    std::string out;
    EXPECT_EQ(sstore.Read(3, 1, &out).code(), StatusCode::kDataLoss);
    EXPECT_EQ(sstore.VerifyExtent(0, 3), block::MemVolume::ExtentHealth::kClean);
    EXPECT_EQ(sstore.VerifyExtent(4, 60),
              block::MemVolume::ExtentHealth::kClean);
  }
}

// A journaled write lands on the S-VOL with the CRCs its P-VOL write
// computed: the two sidecars agree block for block.
TEST_F(ReplicationTest, AppliedBlocksCarryTheInterceptCrcs) {
  auto [p, s] = MakeVolumes("v");
  GroupId g = MakeGroup();
  MakeAsyncPair(p, s, g);
  ASSERT_TRUE(main_.WriteSync(p, 2, BlockOf('x') + BlockOf('y')).ok());
  ASSERT_TRUE(main_.WriteSync(p, 9, BlockOf('z')).ok());
  const journal::JournalRecord* rec = engine_.primary_journal(g)->Find(1);
  ASSERT_NE(rec, nullptr);
  ASSERT_NE(rec->block_crcs(), nullptr);
  EXPECT_EQ(rec->EncodedSize(),
            journal::JournalRecord::kHeaderSize + 2 * block::kDefaultBlockSize);
  env_.RunFor(Milliseconds(20));
  ASSERT_TRUE(Converged(p, s));
  std::string pcrcs(4 * 16, '\0'), scrcs(4 * 16, '\0');
  main_.GetVolume(p)->store().ReadCrcs(0, 16, pcrcs.data());
  backup_.GetVolume(s)->store().ReadCrcs(0, 16, scrcs.data());
  EXPECT_EQ(pcrcs, scrcs);
  EXPECT_EQ(backup_.GetVolume(s)->store().VerifyExtent(0, 64),
            block::MemVolume::ExtentHealth::kClean);
}

TEST_F(ReplicationTest, AdcAcksImmediatelyAndShipsInBackground) {
  auto [p, s] = MakeVolumes("v");
  GroupId g = MakeGroup();
  MakeAsyncPair(p, s, g);

  // ADC: the sync (functional) write path must ack inline.
  ASSERT_TRUE(main_.WriteSync(p, 3, BlockOf('x')).ok());
  EXPECT_FALSE(Converged(p, s));  // Not yet shipped.

  env_.RunFor(Milliseconds(20));
  EXPECT_TRUE(Converged(p, s));

  auto stats = engine_.GetGroupStats(g);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->written, 1u);
  EXPECT_EQ(stats->applied, 1u);
}

TEST_F(ReplicationTest, JournalTrimsAfterRemoteAck) {
  auto [p, s] = MakeVolumes("v");
  GroupId g = MakeGroup();
  MakeAsyncPair(p, s, g);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(main_.WriteSync(p, i, BlockOf('x')).ok());
  }
  EXPECT_GT(engine_.primary_journal(g)->used_bytes(), 0u);
  env_.RunFor(Milliseconds(50));
  EXPECT_EQ(engine_.primary_journal(g)->used_bytes(), 0u);
  EXPECT_EQ(engine_.primary_journal(g)->applied(), 10u);
}

TEST_F(ReplicationTest, CrossVolumeOrderPreservedInGroup) {
  auto [pa, sa] = MakeVolumes("a");
  auto [pb, sb] = MakeVolumes("b");
  GroupId g = MakeGroup();
  MakeAsyncPair(pa, sa, g);
  MakeAsyncPair(pb, sb, g);

  // Alternate writes across the two volumes; counters encode the order.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        main_.WriteSync(pa, 0, BlockOf(static_cast<char>('0' + i))).ok());
    ASSERT_TRUE(
        main_.WriteSync(pb, 0, BlockOf(static_cast<char>('0' + i))).ok());
  }
  // At ANY point during the drain, volume b's counter must never be ahead
  // of volume a's on the backup array (b was always written second).
  for (int step = 0; step < 100; ++step) {
    env_.RunFor(Microseconds(500));
    const char a = backup_.GetVolume(sa)->store().ReadBlock(0)[0];
    const char b = backup_.GetVolume(sb)->store().ReadBlock(0)[0];
    EXPECT_LE(b, a) << "backup reordered across volumes at step " << step;
  }
  EXPECT_TRUE(Converged(pa, sa));
  EXPECT_TRUE(Converged(pb, sb));
}

TEST_F(ReplicationTest, SecondaryVolumeIsWriteProtected) {
  auto [p, s] = MakeVolumes("v");
  GroupId g = MakeGroup();
  MakeAsyncPair(p, s, g);
  EXPECT_EQ(backup_.WriteSync(s, 0, BlockOf('h')).code(),
            StatusCode::kFailedPrecondition);
  // Reads are fine.
  std::string out;
  EXPECT_TRUE(backup_.ReadSync(s, 0, 1, &out).ok());
}

TEST_F(ReplicationTest, DeletePairReleasesVolumes) {
  auto [p, s] = MakeVolumes("v");
  GroupId g = MakeGroup();
  PairId pair = MakeAsyncPair(p, s, g);
  ASSERT_TRUE(engine_.DeletePair(pair).ok());
  EXPECT_FALSE(main_.HasInterceptor(p));
  EXPECT_TRUE(backup_.WriteSync(s, 0, BlockOf('w')).ok());
  EXPECT_EQ(engine_.GetPair(pair), nullptr);
  // Group can now be deleted.
  ASSERT_TRUE(engine_.DeleteConsistencyGroup(g).ok());
}

TEST_F(ReplicationTest, GroupWithPairsCannotBeDeleted) {
  auto [p, s] = MakeVolumes("v");
  GroupId g = MakeGroup();
  MakeAsyncPair(p, s, g);
  EXPECT_EQ(engine_.DeleteConsistencyGroup(g).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(ReplicationTest, GeometryMismatchRejected) {
  auto p = main_.CreateVolume("v", 64);
  auto s = backup_.CreateVolume("r-v", 128);
  ASSERT_TRUE(p.ok() && s.ok());
  GroupId g = MakeGroup();
  PairConfig cfg;
  cfg.primary = *p;
  cfg.secondary = *s;
  cfg.mode = ReplicationMode::kAsynchronous;
  cfg.group = g;
  EXPECT_EQ(engine_.CreatePair(cfg).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ReplicationTest, DoubleProtectionRejected) {
  auto [p, s] = MakeVolumes("v");
  auto s2 = backup_.CreateVolume("r-v2", 64);
  ASSERT_TRUE(s2.ok());
  GroupId g = MakeGroup();
  MakeAsyncPair(p, s, g);
  PairConfig cfg;
  cfg.primary = p;
  cfg.secondary = *s2;
  cfg.mode = ReplicationMode::kAsynchronous;
  cfg.group = g;
  EXPECT_EQ(engine_.CreatePair(cfg).status().code(),
            StatusCode::kAlreadyExists);
}

// --- Synchronous pairs -------------------------------------------------------

TEST_F(ReplicationTest, SyncPairAckWaitsForRoundTrip) {
  auto [p, s] = MakeVolumes("v");
  ASSERT_NE(MakeSyncPair(p, s), 0u);
  env_.RunFor(Milliseconds(10));  // Initial copy (empty -> instant-ish).

  const SimTime start = env_.now();
  SimTime acked = -1;
  main_.SubmitHostWrite(p, 0, BlockOf('s'), [&](block::IoResult r) {
    ASSERT_TRUE(r.status.ok());
    acked = env_.now();
  });
  env_.RunFor(Milliseconds(50));
  // 5 ms forward + 5 ms back (zero media latency on both arrays).
  EXPECT_EQ(acked - start, Milliseconds(10));
  EXPECT_TRUE(Converged(p, s));
}

TEST_F(ReplicationTest, SyncPairSuspendsWhenLinkDies) {
  auto [p, s] = MakeVolumes("v");
  GroupId g = 0;
  const PairId pair = MakeSyncPair(p, s, &g);
  ASSERT_NE(pair, 0u);
  env_.RunFor(Milliseconds(10));

  to_backup_.SetConnected(false);
  Status acked = InternalError("no ack");
  main_.SubmitHostWrite(p, 2, BlockOf('d'),
                        [&](block::IoResult r) { acked = r.status; });
  env_.RunFor(Milliseconds(50));
  // Fence level "never": the host still gets its ack, the pair suspends.
  EXPECT_TRUE(acked.ok());
  EXPECT_EQ(engine_.GetPair(pair)->state(), PairState::kSuspended);
  EXPECT_EQ(engine_.GetPair(pair)->dirty_blocks(), 1u);

  // Resync after the link returns.
  to_backup_.SetConnected(true);
  ASSERT_TRUE(engine_.ResyncGroup(g).ok());
  env_.RunFor(Milliseconds(50));
  EXPECT_EQ(engine_.GetPair(pair)->state(), PairState::kPaired);
  EXPECT_TRUE(Converged(p, s));
}

// A sync group resyncs through the same compressed bulk frame as an async
// one: compressible dirty blocks cost the link far fewer bytes than raw,
// while the logical count still carries every block.
TEST_F(ReplicationTest, SyncPairResyncShipsACompressedFrame) {
  auto [p, s] = MakeVolumes("v");
  GroupId g = 0;
  const PairId pair = MakeSyncPair(p, s, &g);
  ASSERT_NE(pair, 0u);
  env_.RunFor(Milliseconds(10));

  ASSERT_TRUE(engine_.SuspendGroup(g).ok());
  for (uint64_t lba = 0; lba < 8; ++lba) {
    ASSERT_TRUE(main_.WriteSync(p, lba, BlockOf('a' + lba)).ok());
  }
  ASSERT_EQ(engine_.GetPair(pair)->dirty_blocks(), 8u);

  const uint64_t wire0 = to_backup_.bytes_sent();
  const uint64_t logical0 = to_backup_.logical_bytes_sent();
  ASSERT_TRUE(engine_.ResyncGroup(g).ok());
  env_.RunFor(Milliseconds(50));
  const uint64_t raw = 8 * block::kDefaultBlockSize;
  // One 8-block extent: its payload plus one journal-record header.
  EXPECT_EQ(to_backup_.logical_bytes_sent() - logical0,
            raw + journal::JournalRecord::kHeaderSize);
  EXPECT_LT(to_backup_.bytes_sent() - wire0, raw / 8);
  EXPECT_EQ(engine_.GetPair(pair)->state(), PairState::kPaired);
  EXPECT_EQ(engine_.GetPair(pair)->dirty_blocks(), 0u);
  EXPECT_TRUE(Converged(p, s));
}

// --- Suspension, overflow and resync ----------------------------------------

TEST_F(ReplicationTest, JournalOverflowSuspendsGroupButNotTheHost) {
  auto [p, s] = MakeVolumes("v");
  // A journal that fits only a couple of records.
  GroupId g = MakeGroup(10000);
  MakeAsyncPair(p, s, g);
  to_backup_.SetConnected(false);  // Nothing drains.

  // Blocks are 4 KiB, journal 10 KB: the third write overflows.
  Status st;
  for (int i = 0; i < 5; ++i) {
    st = main_.WriteSync(p, i, BlockOf('o'));
    EXPECT_TRUE(st.ok()) << "host write must never fail: " << st;
  }
  auto stats = engine_.GetGroupStats(g);
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->journal_overflows, 1u);
  EXPECT_EQ(engine_.GetPair(engine_.ListGroupPairs(g)[0])->state(),
            PairState::kSuspended);
  EXPECT_GT(engine_.GetPair(engine_.ListGroupPairs(g)[0])->dirty_blocks(),
            0u);
}

TEST_F(ReplicationTest, ResyncAfterOverflowConverges) {
  auto [p, s] = MakeVolumes("v");
  GroupId g = MakeGroup(10000);
  MakeAsyncPair(p, s, g);
  to_backup_.SetConnected(false);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(main_.WriteSync(p, i, BlockOf(static_cast<char>('a' + i)))
                    .ok());
  }
  to_backup_.SetConnected(true);
  ASSERT_TRUE(engine_.ResyncGroup(g).ok());
  env_.RunFor(Milliseconds(50));
  EXPECT_EQ(engine_.GetPair(engine_.ListGroupPairs(g)[0])->state(),
            PairState::kPaired);
  EXPECT_TRUE(Converged(p, s));

  // Replication keeps working after the resync.
  ASSERT_TRUE(main_.WriteSync(p, 20, BlockOf('z')).ok());
  env_.RunFor(Milliseconds(50));
  EXPECT_TRUE(Converged(p, s));
}

TEST_F(ReplicationTest, OperatorSuspendAndResync) {
  auto [p, s] = MakeVolumes("v");
  GroupId g = MakeGroup();
  MakeAsyncPair(p, s, g);
  ASSERT_TRUE(engine_.SuspendGroup(g).ok());
  ASSERT_TRUE(main_.WriteSync(p, 1, BlockOf('q')).ok());
  env_.RunFor(Milliseconds(50));
  EXPECT_FALSE(Converged(p, s));  // Suspended: nothing flows.
  ASSERT_TRUE(engine_.ResyncGroup(g).ok());
  env_.RunFor(Milliseconds(50));
  EXPECT_TRUE(Converged(p, s));
}

// --- Failover -----------------------------------------------------------------

TEST_F(ReplicationTest, FailoverAppliesReceivedAndReportsLoss) {
  auto [p, s] = MakeVolumes("v");
  GroupId g = MakeGroup();
  MakeAsyncPair(p, s, g);

  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(main_.WriteSync(p, i, BlockOf('x')).ok());
  }
  env_.RunFor(Milliseconds(50));  // All 10 replicated.
  for (int i = 10; i < 15; ++i) {
    ASSERT_TRUE(main_.WriteSync(p, i, BlockOf('y')).ok());
  }
  // Disaster strikes before the last 5 ship.
  main_.SetFailed(true);
  to_backup_.SetConnected(false);
  to_main_.SetConnected(false);

  auto report = engine_.FailoverGroup(g);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->recovery_point, 10u);
  EXPECT_EQ(report->lost_records, 5u);

  // The S-VOL is now writable.
  EXPECT_TRUE(backup_.WriteSync(s, 0, BlockOf('n')).ok());
  EXPECT_EQ(engine_.GetPair(engine_.ListGroupPairs(g)[0])->state(),
            PairState::kSwapped);

  // Double failover is rejected.
  EXPECT_EQ(engine_.FailoverGroup(g).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(ReplicationTest, FailoverDrainsRecordsAlreadyReceived) {
  auto [p, s] = MakeVolumes("v");
  GroupId g = MakeGroup();
  MakeAsyncPair(p, s, g);
  ASSERT_TRUE(main_.WriteSync(p, 0, BlockOf('k')).ok());
  // Let the batch arrive at the backup journal but do not give the apply
  // ack a chance to travel back.
  env_.RunFor(Milliseconds(8));
  auto report = engine_.FailoverGroup(g);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->recovery_point, 1u);
  EXPECT_EQ(backup_.GetVolume(s)->store().ReadBlock(0),
            BlockOf('k'));
}

TEST_F(ReplicationTest, WritesAfterFailoverStayLocal) {
  auto [p, s] = MakeVolumes("v");
  GroupId g = MakeGroup();
  MakeAsyncPair(p, s, g);
  env_.RunFor(Milliseconds(10));
  ASSERT_TRUE(engine_.FailoverGroup(g).ok());
  // A surviving main site keeps serving IO without copying anywhere.
  ASSERT_TRUE(main_.WriteSync(p, 5, BlockOf('m')).ok());
  env_.RunFor(Milliseconds(50));
  EXPECT_NE(backup_.GetVolume(s)->store().ReadBlock(5), BlockOf('m'));
}

TEST_F(ReplicationTest, GroupStatsReportLag) {
  auto [p, s] = MakeVolumes("v");
  GroupId g = MakeGroup();
  MakeAsyncPair(p, s, g);
  ASSERT_TRUE(main_.WriteSync(p, 0, BlockOf('l')).ok());
  auto before = engine_.GetGroupStats(g);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->written, 1u);
  EXPECT_EQ(before->applied, 0u);
  env_.RunFor(Milliseconds(50));
  auto after = engine_.GetGroupStats(g);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->applied, 1u);
}

// Regression: an idle, fully caught-up group must report apply_lag == 0
// no matter how much simulated time passes. The old formula (now -
// last_applied_ack_time) grew without bound on a quiescent group, so a
// perfectly healthy system looked like it was losing an hour of data per
// idle hour.
TEST_F(ReplicationTest, IdleGroupReportsZeroLag) {
  auto [p, s] = MakeVolumes("v");
  GroupId g = MakeGroup();
  MakeAsyncPair(p, s, g);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(main_.WriteSync(p, i, BlockOf('x')).ok());
  }
  env_.RunFor(Milliseconds(100));
  auto stats = engine_.GetGroupStats(g);
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->acked, stats->written);

  // A whole simulated hour of quiescence.
  env_.RunFor(Seconds(3600));
  stats = engine_.GetGroupStats(g);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->apply_lag, 0) << "idle group must not age";
  auto rpo = engine_.GroupRpo(g);
  ASSERT_TRUE(rpo.ok());
  EXPECT_EQ(*rpo, 0);
}

// While a backlog exists the RPO is the age of the oldest unacked write,
// not the time since the last apply.
TEST_F(ReplicationTest, RpoIsAgeOfOldestUnackedWrite) {
  auto [p, s] = MakeVolumes("v");
  GroupId g = MakeGroup();
  MakeAsyncPair(p, s, g);
  env_.RunFor(Milliseconds(20));

  to_backup_.SetConnected(false);
  const SimTime first_write = env_.now();
  ASSERT_TRUE(main_.WriteSync(p, 0, BlockOf('a')).ok());
  env_.RunFor(Milliseconds(30));
  ASSERT_TRUE(main_.WriteSync(p, 1, BlockOf('b')).ok());
  env_.RunFor(Milliseconds(10));

  auto rpo = engine_.GroupRpo(g);
  ASSERT_TRUE(rpo.ok());
  // The OLDEST backlogged write dates the RPO, not the newest.
  EXPECT_EQ(*rpo, env_.now() - first_write);

  // Reconnect; once everything is acked the RPO collapses back to zero.
  to_backup_.SetConnected(true);
  env_.RunFor(Milliseconds(200));
  rpo = engine_.GroupRpo(g);
  ASSERT_TRUE(rpo.ok());
  EXPECT_EQ(*rpo, 0);
}

// A suspension converts the journal backlog into dirty blocks; the RPO
// must keep aging from the oldest lost write, and only return to zero
// after the resync delta lands.
TEST_F(ReplicationTest, RpoSurvivesSuspension) {
  auto [p, s] = MakeVolumes("v");
  ConsistencyGroupConfig cfg;
  cfg.name = "cg";
  cfg.journal_capacity_bytes = 16 << 20;
  cfg.transfer_interval = Milliseconds(1);
  cfg.ack_timeout = Milliseconds(15);
  cfg.auto_resync = false;  // Manual resync keeps the timeline controlled.
  auto created = engine_.CreateConsistencyGroup(cfg);
  ASSERT_TRUE(created.ok());
  GroupId g = *created;
  MakeAsyncPair(p, s, g);
  env_.RunFor(Milliseconds(20));

  // Write while the link is up so the batch ships and arms its ack
  // deadline, then cut the link while the batch is in flight (5ms base
  // latency). The deadline fires and suspends the group.
  const SimTime lost_write = env_.now();
  ASSERT_TRUE(main_.WriteSync(p, 0, BlockOf('z')).ok());
  env_.RunFor(Milliseconds(2));
  to_backup_.SetConnected(false);
  env_.RunFor(Milliseconds(100));
  auto stats = engine_.GetGroupStats(g);
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE(stats->suspended);
  EXPECT_EQ(stats->apply_lag, env_.now() - lost_write)
      << "suspension must not reset the RPO clock";

  to_backup_.SetConnected(true);
  ASSERT_TRUE(engine_.ResyncGroup(g).ok());
  env_.RunFor(Milliseconds(100));
  stats = engine_.GetGroupStats(g);
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(stats->suspended);
  EXPECT_EQ(stats->apply_lag, 0);
}

// The windowed compression ratio reacts to a config change immediately,
// while the cumulative ratio only drifts.
TEST_F(ReplicationTest, WindowedCompressionRatioTracksToggle) {
  auto [p, s] = MakeVolumes("v", 256);
  ConsistencyGroupConfig cfg;
  cfg.name = "cg";
  cfg.journal_capacity_bytes = 16 << 20;
  cfg.compress_transfers = true;
  auto created = engine_.CreateConsistencyGroup(cfg);
  ASSERT_TRUE(created.ok());
  GroupId g = *created;
  MakeAsyncPair(p, s, g);

  // Highly compressible traffic: the ratio climbs well above 1.
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(main_.WriteSync(p, i % 200, BlockOf('c')).ok());
    env_.RunFor(Milliseconds(2));
  }
  env_.RunFor(Milliseconds(50));
  auto stats = engine_.GetGroupStats(g);
  ASSERT_TRUE(stats.ok());
  ASSERT_GT(stats->compression_ratio, 1.5);
  ASSERT_GT(stats->compression_ratio_window, 1.5);
  ASSERT_GT(stats->compression_window_batches, 0u);
  const double cumulative_before = stats->compression_ratio;

  // Turn compression off and ship enough batches to fill the window.
  ASSERT_TRUE(engine_.SetGroupCompression(g, false).ok());
  for (int i = 0; i < 80; ++i) {
    ASSERT_TRUE(main_.WriteSync(p, i % 200, BlockOf('c')).ok());
    env_.RunFor(Milliseconds(2));
  }
  env_.RunFor(Milliseconds(50));
  stats = engine_.GetGroupStats(g);
  ASSERT_TRUE(stats.ok());
  // The window sees only uncompressed batches: ratio collapses to 1.
  EXPECT_NEAR(stats->compression_ratio_window, 1.0, 0.01);
  // The cumulative ratio still remembers the compressed era.
  EXPECT_GT(stats->compression_ratio, stats->compression_ratio_window);
  EXPECT_LT(stats->compression_ratio, cumulative_before);
  EXPECT_LE(stats->compression_window_batches, 64u);
}

TEST_F(ReplicationTest, StateNamesAreStable) {
  EXPECT_STREQ(PairStateName(PairState::kCopy), "COPY");
  EXPECT_STREQ(PairStateName(PairState::kPaired), "PAIR");
  EXPECT_STREQ(PairStateName(PairState::kSuspended), "PSUS");
  EXPECT_STREQ(PairStateName(PairState::kSwapped), "SSWS");
  EXPECT_STREQ(ReplicationModeName(ReplicationMode::kSynchronous), "sync");
  EXPECT_STREQ(ReplicationModeName(ReplicationMode::kAsynchronous),
               "async");
}

}  // namespace
}  // namespace zerobak::replication

// Borrowed journal capture: an ADC write inside one P-VOL slab is
// journaled as a view of the slab bytes and CRCs, copied into an owned
// buffer ("materialized") only when something overwrites those blocks
// before the record ships, and rebound to the encoded batch body once it
// ships. These tests pin when capture borrows and materializes, that every
// P-VOL writer goes through the materializing hook, and that the backup
// stays a correct write-order prefix throughout.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>

#include "common/rng.h"
#include "journal/journal.h"
#include "obs/metrics.h"
#include "replication/replication.h"
#include "replication/scrubber.h"
#include "snapshot/snapshot.h"
#include "storage/array.h"

namespace zerobak::replication {
namespace {

constexpr size_t kBlock = block::kDefaultBlockSize;

std::string BlockOf(char c) { return std::string(kBlock, c); }

// A block that names write `index`: its first 8 bytes hold the index.
std::string Versioned(uint64_t index) {
  std::string b(kBlock, static_cast<char>('a' + index % 26));
  std::memcpy(b.data(), &index, sizeof(index));
  return b;
}

uint64_t VersionOf(std::string_view block) {
  uint64_t index = 0;
  std::memcpy(&index, block.data(), sizeof(index));
  return index;
}

storage::ArrayConfig ZeroLatency(const std::string& serial) {
  storage::ArrayConfig cfg;
  cfg.serial = serial;
  cfg.media = block::DeviceLatencyModel{0, 0, 0, 0, 1};
  return cfg;
}

class BorrowedCaptureTest : public ::testing::Test {
 protected:
  BorrowedCaptureTest()
      : main_(&env_, ZeroLatency("MAIN")),
        backup_(&env_, ZeroLatency("BKUP")),
        to_backup_(&env_, LinkConfig(1), "fwd"),
        to_main_(&env_, LinkConfig(2), "rev"),
        engine_(&env_, &main_, &backup_, &to_backup_, &to_main_) {
    engine_.AttachObservability(&metrics_, nullptr);
  }

  static sim::NetworkLinkConfig LinkConfig(uint64_t seed) {
    sim::NetworkLinkConfig cfg;
    cfg.base_latency = Milliseconds(5);
    cfg.jitter = 0;
    cfg.bandwidth_bytes_per_sec = 0;
    cfg.seed = seed;
    return cfg;
  }

  // One async pair of `blocks`-block volumes in a fresh group; the empty
  // initial copy settles before it returns.
  void MakePair(uint64_t blocks = 64) {
    auto p = main_.CreateVolume("v", blocks);
    auto s = backup_.CreateVolume("r-v", blocks);
    ASSERT_TRUE(p.ok() && s.ok());
    pvol_ = *p;
    svol_ = *s;
    ConsistencyGroupConfig gcfg;
    gcfg.name = "cg";
    gcfg.ack_timeout = Milliseconds(20);
    gcfg.resync_backoff_initial = Milliseconds(5);
    gcfg.resync_backoff_max = Milliseconds(50);
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

  storage::Volume* pvol() { return main_.GetVolume(pvol_); }
  storage::Volume* svol() { return backup_.GetVolume(svol_); }
  bool Converged() { return pvol()->ContentEquals(*svol()); }

  uint64_t Borrowed() {
    return metrics_.GetCounter("replication.capture_borrowed")->value();
  }
  uint64_t Materialized() {
    return metrics_.GetCounter("replication.capture_materialized")->value();
  }

  // The live primary-journal record holding `lba`'s newest write.
  const journal::JournalRecord* NewestRecordOf(uint64_t lba) {
    journal::JournalVolume* jnl = engine_.primary_journal(group_);
    for (journal::SequenceNumber s = jnl->written(); s > jnl->acked(); --s) {
      const journal::JournalRecord* rec = jnl->Find(s);
      if (rec != nullptr && rec->lba <= lba &&
          lba < rec->lba + rec->block_count) {
        return rec;
      }
    }
    return nullptr;
  }

  sim::SimEnvironment env_;
  storage::StorageArray main_;
  storage::StorageArray backup_;
  sim::NetworkLink to_backup_;
  sim::NetworkLink to_main_;
  ReplicationEngine engine_;
  obs::MetricRegistry metrics_;
  storage::VolumeId pvol_ = 0;
  storage::VolumeId svol_ = 0;
  GroupId group_ = 0;
  PairId pair_ = 0;
};

TEST_F(BorrowedCaptureTest, WriteInsideOneSlabBorrowsAndAcrossSlabsCopies) {
  MakePair(/*blocks=*/256);
  to_backup_.SetConnected(false);  // Keep every record unshipped.
  const uint64_t allocs = journal::PayloadBuffer::TotalAllocations();
  ASSERT_TRUE(main_.WriteSync(pvol_, 3, BlockOf('x') + BlockOf('y')).ok());
  EXPECT_EQ(journal::PayloadBuffer::TotalAllocations(), allocs);
  const journal::JournalRecord* rec = NewestRecordOf(3);
  ASSERT_NE(rec, nullptr);
  EXPECT_TRUE(rec->payload.borrowed());
  EXPECT_EQ(rec->data(), BlockOf('x') + BlockOf('y'));
  // The CRCs travel with the view: the P-VOL's own sidecar words.
  std::string crcs(8, '\0');
  pvol()->store().ReadCrcs(3, 2, crcs.data());
  ASSERT_NE(rec->block_crcs(), nullptr);
  EXPECT_EQ(std::string(rec->block_crcs(), 8), crcs);

  // Blocks 63 and 64 straddle two slabs: the record owns a copy.
  ASSERT_TRUE(main_.WriteSync(pvol_, 63, BlockOf('s') + BlockOf('t')).ok());
  EXPECT_EQ(journal::PayloadBuffer::TotalAllocations(), allocs + 1);
  rec = NewestRecordOf(63);
  ASSERT_NE(rec, nullptr);
  EXPECT_FALSE(rec->payload.borrowed());
  EXPECT_EQ(Borrowed(), 1u);
  EXPECT_EQ(Materialized(), 0u);

  to_backup_.SetConnected(true);
  env_.RunFor(Milliseconds(100));
  EXPECT_TRUE(Converged());
}

TEST_F(BorrowedCaptureTest, OverwriteBeforeShipMaterializesTheOldRecord) {
  MakePair();
  to_backup_.SetConnected(false);
  ASSERT_TRUE(main_.WriteSync(pvol_, 4, BlockOf('1') + BlockOf('2')).ok());
  const journal::SequenceNumber first = NewestRecordOf(4)->sequence;
  // Overwriting one block of a two-block record copies the whole record.
  ASSERT_TRUE(main_.WriteSync(pvol_, 5, BlockOf('3')).ok());
  const journal::JournalRecord* old =
      engine_.primary_journal(group_)->Find(first);
  ASSERT_NE(old, nullptr);
  EXPECT_FALSE(old->payload.borrowed());
  EXPECT_EQ(old->data(), BlockOf('1') + BlockOf('2'));
  EXPECT_TRUE(NewestRecordOf(5)->payload.borrowed());
  EXPECT_EQ(Materialized(), 1u);
  // Rewriting block 4 finds no live borrower: the old record already owns
  // its bytes.
  ASSERT_TRUE(main_.WriteSync(pvol_, 4, BlockOf('4')).ok());
  EXPECT_EQ(Materialized(), 1u);
  EXPECT_EQ(Borrowed(), 3u);

  to_backup_.SetConnected(true);
  env_.RunFor(Milliseconds(100));
  EXPECT_TRUE(Converged());
  auto stats = engine_.GetGroupStats(group_);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->captures_borrowed, 3u);
  EXPECT_EQ(stats->captures_materialized, 1u);
}

// Shipped records are rebound to their batch body: they no longer borrow
// the P-VOL, so an overwrite after the ship copies nothing.
TEST_F(BorrowedCaptureTest, ShippedRecordsViewTheBatchBody) {
  MakePair();
  for (uint64_t lba = 0; lba < 8; ++lba) {
    ASSERT_TRUE(main_.WriteSync(pvol_, lba, Versioned(lba)).ok());
  }
  env_.RunFor(Milliseconds(3));  // Shipped, not yet acked (5 ms link).
  journal::JournalVolume* jnl = engine_.primary_journal(group_);
  ASSERT_EQ(jnl->shipped(), 8u);
  ASSERT_LT(jnl->acked(), 8u);
  const journal::JournalRecord* a = jnl->Find(1);
  const journal::JournalRecord* b = jnl->Find(8);
  ASSERT_TRUE(a != nullptr && b != nullptr);
  EXPECT_FALSE(a->payload.borrowed());
  // One body buffer for the whole batch.
  EXPECT_GE(a->payload.use_count(), 8);
  EXPECT_EQ(a->payload.use_count(), b->payload.use_count());
  EXPECT_EQ(a->data(), Versioned(0));
  ASSERT_NE(a->block_crcs(), nullptr);
  for (uint64_t lba = 0; lba < 8; ++lba) {
    ASSERT_TRUE(main_.WriteSync(pvol_, lba, BlockOf('z')).ok());
  }
  EXPECT_EQ(Materialized(), 0u);
  EXPECT_EQ(a->data(), Versioned(0));
  env_.RunFor(Milliseconds(100));
  EXPECT_TRUE(Converged());
}

// Hot overwrites racing the ship: whatever the interleaving, the S-VOL is
// a write-order prefix of the P-VOL's history at every instant checked
// (including across suspensions and resyncs) and ends equal to it.
TEST_F(BorrowedCaptureTest, HotOverwritesKeepTheBackupAWriteOrderPrefix) {
  MakePair();
  Rng rng(7);
  // history[lba]: the write indices that hit it, ascending.
  std::map<uint64_t, std::vector<uint64_t>> history;
  uint64_t index = 0;
  auto check_prefix = [&] {
    // The newest write visible anywhere on the S-VOL bounds the prefix;
    // every block must then hold its newest write at or below that bound.
    uint64_t cut = 0;
    for (const auto& [lba, writes] : history) {
      cut = std::max(cut, VersionOf(svol()->store().ReadBlockView(lba)));
    }
    for (const auto& [lba, writes] : history) {
      uint64_t expect = 0;
      for (uint64_t w : writes) {
        if (w <= cut) expect = w;
      }
      const std::string_view got = svol()->store().ReadBlockView(lba);
      if (expect == 0) {
        EXPECT_EQ(got, std::string(kBlock, '\0')) << "lba " << lba;
      } else {
        EXPECT_EQ(VersionOf(got), expect) << "lba " << lba << " cut " << cut;
      }
    }
  };
  for (int round = 0; round < 60; ++round) {
    const int burst = 1 + static_cast<int>(rng.Uniform(12));
    for (int i = 0; i < burst; ++i) {
      const uint64_t lba = rng.Uniform(16);  // A hot set inside one slab.
      ++index;
      ASSERT_TRUE(main_.WriteSync(pvol_, lba, Versioned(index)).ok());
      history[lba].push_back(index);
    }
    if (round % 15 == 14) {
      ASSERT_TRUE(engine_.SuspendGroup(group_).ok());
      check_prefix();
      ASSERT_TRUE(engine_.ResyncGroup(group_).ok());
    }
    env_.RunFor(Microseconds(100 + rng.Uniform(2000)));
    check_prefix();
  }
  env_.RunFor(Milliseconds(100));
  EXPECT_TRUE(Converged());
  EXPECT_GT(Materialized(), 0u);
  EXPECT_LT(Materialized(), Borrowed());
}

// A long link outage: >= 10k unshipped records and repeated overwrites.
// Each overwrite of a borrowed block materializes exactly its one record
// (one allocation, no scan of the backlog), and everything ships intact.
TEST_F(BorrowedCaptureTest, LinkDownBacklogMaterializesOneRecordPerOverwrite) {
  constexpr uint64_t kBlocks = 2560;
  constexpr int kPasses = 4;
  MakePair(kBlocks);
  to_backup_.SetConnected(false);
  for (uint64_t lba = 0; lba < kBlocks; ++lba) {
    ASSERT_TRUE(main_.WriteSync(pvol_, lba, Versioned(lba + 1)).ok());
  }
  uint64_t overwrites = 0;
  for (int pass = 1; pass < kPasses; ++pass) {
    for (uint64_t lba = 0; lba < kBlocks; ++lba) {
      const uint64_t allocs = journal::PayloadBuffer::TotalAllocations();
      const uint64_t materialized = Materialized();
      ASSERT_TRUE(
          main_.WriteSync(pvol_, lba, Versioned(pass * kBlocks + lba + 1))
              .ok());
      ++overwrites;
      ASSERT_EQ(Materialized(), materialized + 1);
      ASSERT_EQ(journal::PayloadBuffer::TotalAllocations(), allocs + 1);
    }
  }
  journal::JournalVolume* jnl = engine_.primary_journal(group_);
  ASSERT_GE(jnl->written() - jnl->shipped(), 10000u);
  EXPECT_EQ(Materialized(), overwrites);
  EXPECT_EQ(Borrowed(), kBlocks * kPasses);
  // Every record still names its own write.
  for (journal::SequenceNumber s = jnl->shipped() + 1; s <= jnl->written();
       ++s) {
    const journal::JournalRecord* rec = jnl->Find(s);
    ASSERT_NE(rec, nullptr);
    ASSERT_EQ(VersionOf(rec->data()), s);
  }

  to_backup_.SetConnected(true);
  env_.RunFor(Milliseconds(500));
  EXPECT_TRUE(Converged());
  auto stats = engine_.GetGroupStats(group_);
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(stats->suspended);
  EXPECT_EQ(stats->acked, stats->written);
}

// Silent rot on the P-VOL before the record ships: the borrowed view
// carries the rotten bytes but the CRC the host write computed, so the
// S-VOL reports kDataLoss instead of serving bad data.
TEST_F(BorrowedCaptureTest, PvolBitRotBeforeShipReadsAsDataLossOnTheSvol) {
  MakePair();
  to_backup_.SetConnected(false);
  ASSERT_TRUE(main_.WriteSync(pvol_, 9, BlockOf('g')).ok());
  ASSERT_TRUE(pvol()->store().FlipBit(9, 77));
  EXPECT_EQ(Materialized(), 0u);  // Rot is no write: nothing is copied.
  to_backup_.SetConnected(true);
  env_.RunFor(Milliseconds(100));
  ASSERT_EQ(engine_.GetGroupStats(group_)->applied, 1u);
  std::string out;
  EXPECT_EQ(svol()->Read(9, 1, &out).code(), StatusCode::kDataLoss);
}

// --- Every P-VOL writer goes through the hook ---------------------------

// Snapshot restore writes over a block whose record has not shipped: the
// record is materialized first and ships the host write's bytes, and the
// restore is journaled behind it like a host write, so the S-VOL ends at
// the restored image.
TEST_F(BorrowedCaptureTest, SnapshotRestoreMaterializesFirst) {
  MakePair();
  snapshot::SnapshotManager snapshots(&main_);
  ASSERT_TRUE(main_.WriteSync(pvol_, 2, BlockOf('o')).ok());
  env_.RunFor(Milliseconds(50));
  auto snap = snapshots.CreateSnapshot(pvol_, "before");
  ASSERT_TRUE(snap.ok());
  to_backup_.SetConnected(false);
  ASSERT_TRUE(main_.WriteSync(pvol_, 2, BlockOf('n')).ok());
  const journal::SequenceNumber host_write = NewestRecordOf(2)->sequence;
  ASSERT_TRUE(NewestRecordOf(2)->payload.borrowed());
  auto restored = snapshots.RestoreVolume(*snap);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(*restored, 1u);
  EXPECT_EQ(Materialized(), 1u);
  const journal::JournalRecord* old =
      engine_.primary_journal(group_)->Find(host_write);
  ASSERT_NE(old, nullptr);
  EXPECT_FALSE(old->payload.borrowed());
  EXPECT_EQ(old->data(), BlockOf('n'));
  const journal::JournalRecord* rewind = NewestRecordOf(2);
  ASSERT_NE(rewind, nullptr);
  EXPECT_GT(rewind->sequence, host_write);
  EXPECT_EQ(rewind->data(), BlockOf('o'));
  to_backup_.SetConnected(true);
  env_.RunFor(Milliseconds(100));
  // The journal ships the host write and then the restore.
  std::string out;
  ASSERT_TRUE(svol()->Read(2, 1, &out).ok());
  EXPECT_EQ(out, BlockOf('o'));
  ASSERT_TRUE(pvol()->Read(2, 1, &out).ok());
  EXPECT_EQ(out, BlockOf('o'));
  EXPECT_TRUE(Converged());
}

// Scrub repair restores a rotten P-VOL extent only at a quiescent point
// (nothing unacked), so its write meets no live borrower: the hook runs
// and copies nothing, and the restored blocks replicate normally after.
TEST_F(BorrowedCaptureTest, ScrubRestoreGoesThroughTheHook) {
  MakePair();
  for (uint64_t lba = 0; lba < 8; ++lba) {
    ASSERT_TRUE(main_.WriteSync(pvol_, lba, BlockOf('a' + lba)).ok());
  }
  env_.RunFor(Milliseconds(50));
  ASSERT_TRUE(Converged());
  ASSERT_TRUE(pvol()->store().FlipBit(5, 999));
  ScrubConfig scrub;
  scrub.extent_blocks = 16;
  scrub.max_extents_per_step = 64;
  scrub.step_interval = Milliseconds(1);
  scrub.cycle_interval = Milliseconds(5);
  ASSERT_TRUE(engine_.EnableScrubbing(scrub).ok());
  env_.RunFor(Milliseconds(300));
  EXPECT_GE(engine_.scrubber()->stats().primary_restores, 1u);
  EXPECT_EQ(Materialized(), 0u);
  std::string out;
  ASSERT_TRUE(pvol()->Read(5, 1, &out).ok());
  EXPECT_EQ(out, BlockOf('f'));
  ASSERT_TRUE(main_.WriteSync(pvol_, 5, BlockOf('q')).ok());
  env_.RunFor(Milliseconds(50));
  EXPECT_TRUE(Converged());
}

// A giveback landing writes P-VOL blocks while the failback's fresh
// journal reuses sequence numbers: an index entry left from the old
// journal names a live record of a different block and must not
// materialize it; the new borrowed record ships intact.
TEST_F(BorrowedCaptureTest, GivebackLandingSkipsStaleEntries) {
  MakePair();
  env_.RunFor(Milliseconds(10));
  to_backup_.SetConnected(false);
  ASSERT_TRUE(main_.WriteSync(pvol_, 1, BlockOf('p')).ok());  // seq 1
  ASSERT_TRUE(engine_.FailoverGroup(group_).ok());
  ASSERT_TRUE(backup_.WriteSync(svol_, 1, BlockOf('b')).ok());
  ASSERT_TRUE(backup_.WriteSync(svol_, 2, BlockOf('c')).ok());
  to_backup_.SetConnected(true);
  auto report = engine_.FailbackGroup(group_);
  ASSERT_TRUE(report.ok()) << report.status();
  // The fresh journal's seq 1 borrows block 7, and stays unshipped while
  // the giveback lands.
  to_backup_.SetConnected(false);
  ASSERT_TRUE(main_.WriteSync(pvol_, 7, BlockOf('n')).ok());
  ASSERT_EQ(NewestRecordOf(7)->sequence, 1u);
  ASSERT_TRUE(NewestRecordOf(7)->payload.borrowed());
  env_.RunFor(Milliseconds(20));
  EXPECT_FALSE(engine_.GetGroupStats(group_)->giveback_in_flight);
  EXPECT_EQ(Materialized(), 0u);
  EXPECT_TRUE(NewestRecordOf(7)->payload.borrowed());
  to_backup_.SetConnected(true);
  env_.RunFor(Milliseconds(100));
  EXPECT_EQ(pvol()->store().ReadBlock(1), BlockOf('b'));
  EXPECT_EQ(pvol()->store().ReadBlock(2), BlockOf('c'));
  EXPECT_EQ(svol()->store().ReadBlock(7), BlockOf('n'));
  EXPECT_TRUE(Converged());
}

// Deleting the pair with unshipped borrowed records makes them owned: the
// journal no longer depends on the P-VOL, which may change or go away.
TEST_F(BorrowedCaptureTest, DeletePairMaterializesItsBorrowers) {
  MakePair();
  to_backup_.SetConnected(false);
  ASSERT_TRUE(main_.WriteSync(pvol_, 0, BlockOf('k')).ok());
  ASSERT_TRUE(main_.WriteSync(pvol_, 1, BlockOf('l')).ok());
  journal::JournalVolume* jnl = engine_.primary_journal(group_);
  ASSERT_TRUE(engine_.DeletePair(pair_).ok());
  EXPECT_EQ(Materialized(), 2u);
  EXPECT_EQ(pvol()->pre_overwrite_hook_count(), 0u);
  ASSERT_TRUE(main_.WriteSync(pvol_, 0, BlockOf('m')).ok());
  EXPECT_EQ(jnl->Find(1)->data(), BlockOf('k'));
  EXPECT_FALSE(jnl->Find(2)->payload.borrowed());
  EXPECT_TRUE(main_.DeleteVolume(pvol_).ok());
  EXPECT_EQ(jnl->Find(2)->data(), BlockOf('l'));
}

}  // namespace
}  // namespace zerobak::replication

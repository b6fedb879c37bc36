// Tests for the coalescing transfer pipeline: write-folding in shipped
// batches (header-only tombstones + atomic batch apply), sorted batch
// apply through WriteRun, extent-merging bitmap resync with a canonical
// sorted order, and adaptive batch sizing.
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "journal/journal.h"
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

class CoalesceTest : public ::testing::Test {
 protected:
  CoalesceTest()
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

  GroupId MakeGroup(ConsistencyGroupConfig cfg = {}) {
    if (cfg.name.empty()) cfg.name = "cg";
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

  GroupStats Stats(GroupId g) {
    auto stats = engine_.GetGroupStats(g);
    EXPECT_TRUE(stats.ok());
    return stats.ok() ? *stats : GroupStats{};
  }

  sim::SimEnvironment env_;
  storage::StorageArray main_;
  storage::StorageArray backup_;
  sim::NetworkLink to_backup_;
  sim::NetworkLink to_main_;
  ReplicationEngine engine_;
};

TEST_F(CoalesceTest, FoldingTombstonesSupersededWrites) {
  auto [p, s] = MakeVolumes("v");
  GroupId g = MakeGroup();
  MakeAsyncPair(p, s, g);

  // Three rewrites of the same block before the first pump: the batch
  // ships one payload and two header-only tombstones.
  ASSERT_TRUE(main_.WriteSync(p, 3, BlockOf('a')).ok());
  ASSERT_TRUE(main_.WriteSync(p, 3, BlockOf('b')).ok());
  ASSERT_TRUE(main_.WriteSync(p, 3, BlockOf('c')).ok());
  env_.RunFor(Milliseconds(40));

  GroupStats st = Stats(g);
  EXPECT_EQ(st.applied, 3u);  // Sequence density preserved.
  EXPECT_EQ(st.records_folded, 2u);
  EXPECT_EQ(st.folded_bytes_saved, 2ull * block::kDefaultBlockSize);
  EXPECT_TRUE(Converged(p, s));
  EXPECT_EQ(backup_.GetVolume(s)->store().ReadBlock(3), BlockOf('c'));
}

TEST_F(CoalesceTest, FoldingPreservesInterleavedVolumes) {
  auto [pa, sa] = MakeVolumes("a");
  auto [pb, sb] = MakeVolumes("b");
  GroupId g = MakeGroup();
  MakeAsyncPair(pa, sa, g);
  MakeAsyncPair(pb, sb, g);

  // The classic fold hazard: A=1, B=2, A=3. Only A's first write folds;
  // B's record on the other volume must not be confused with A's blocks.
  ASSERT_TRUE(main_.WriteSync(pa, 0, BlockOf('1')).ok());
  ASSERT_TRUE(main_.WriteSync(pb, 0, BlockOf('2')).ok());
  ASSERT_TRUE(main_.WriteSync(pa, 0, BlockOf('3')).ok());
  env_.RunFor(Milliseconds(40));

  EXPECT_EQ(Stats(g).records_folded, 1u);
  EXPECT_EQ(backup_.GetVolume(sa)->store().ReadBlock(0), BlockOf('3'));
  EXPECT_EQ(backup_.GetVolume(sb)->store().ReadBlock(0), BlockOf('2'));
}

TEST_F(CoalesceTest, ReDirtyAfterFoldShipsNewContent) {
  auto [p, s] = MakeVolumes("v");
  GroupId g = MakeGroup();
  MakeAsyncPair(p, s, g);

  ASSERT_TRUE(main_.WriteSync(p, 7, BlockOf('x')).ok());
  ASSERT_TRUE(main_.WriteSync(p, 7, BlockOf('y')).ok());
  env_.RunFor(Milliseconds(40));
  ASSERT_EQ(Stats(g).records_folded, 1u);
  ASSERT_EQ(backup_.GetVolume(s)->store().ReadBlock(7), BlockOf('y'));

  // The block is written again after its older record was folded: the new
  // record ships normally in a later batch.
  ASSERT_TRUE(main_.WriteSync(p, 7, BlockOf('z')).ok());
  env_.RunFor(Milliseconds(40));
  EXPECT_EQ(backup_.GetVolume(s)->store().ReadBlock(7), BlockOf('z'));
  EXPECT_TRUE(Converged(p, s));
}

TEST_F(CoalesceTest, FoldingFreesPrimaryJournalCapacity) {
  auto [p, s] = MakeVolumes("v");
  GroupId g = MakeGroup();
  MakeAsyncPair(p, s, g);

  ASSERT_TRUE(main_.WriteSync(p, 1, BlockOf('a')).ok());
  ASSERT_TRUE(main_.WriteSync(p, 1, BlockOf('b')).ok());
  auto* pj = engine_.primary_journal(g);
  ASSERT_NE(pj, nullptr);
  const uint64_t before = pj->used_bytes();
  // Run just past one pump (2 ms) but well short of the 10 ms apply-ack
  // round trip, so nothing has been trimmed yet: the drop in used bytes is
  // the folded payload alone.
  env_.RunFor(Milliseconds(4));
  EXPECT_EQ(pj->used_bytes(), before - block::kDefaultBlockSize);
  EXPECT_EQ(pj->folded_records(), 1u);
  env_.RunFor(Milliseconds(40));
  EXPECT_TRUE(Converged(p, s));
}

TEST_F(CoalesceTest, FoldingDisabledShipsEveryPayload) {
  auto [p, s] = MakeVolumes("v");
  ConsistencyGroupConfig cfg;
  cfg.enable_write_folding = false;
  GroupId g = MakeGroup(cfg);
  MakeAsyncPair(p, s, g);

  ASSERT_TRUE(main_.WriteSync(p, 3, BlockOf('a')).ok());
  ASSERT_TRUE(main_.WriteSync(p, 3, BlockOf('b')).ok());
  ASSERT_TRUE(main_.WriteSync(p, 3, BlockOf('c')).ok());
  env_.RunFor(Milliseconds(40));

  GroupStats st = Stats(g);
  EXPECT_EQ(st.records_folded, 0u);
  EXPECT_EQ(st.folded_bytes_saved, 0u);
  EXPECT_EQ(st.applied, 3u);
  EXPECT_TRUE(Converged(p, s));
}

TEST_F(CoalesceTest, DuplicateLbasWithoutFoldingApplyInWriteOrder) {
  // With folding off, two same-LBA records survive into one batch; the
  // sorted apply must detect the overlap and fall back to sequence order,
  // or the older write would win.
  auto [p, s] = MakeVolumes("v");
  ConsistencyGroupConfig cfg;
  cfg.enable_write_folding = false;
  GroupId g = MakeGroup(cfg);
  MakeAsyncPair(p, s, g);

  ASSERT_TRUE(main_.WriteSync(p, 9, BlockOf('o')).ok());
  ASSERT_TRUE(main_.WriteSync(p, 2, BlockOf('m')).ok());
  ASSERT_TRUE(main_.WriteSync(p, 9, BlockOf('n')).ok());
  env_.RunFor(Milliseconds(40));
  EXPECT_EQ(backup_.GetVolume(s)->store().ReadBlock(9), BlockOf('n'));
  EXPECT_TRUE(Converged(p, s));
}

// A partially-received folded batch must not apply at all: a tombstone's
// cover could be in the missing tail, so applying the prefix would leave
// the backup on an image that never existed (A=1 folded, B=2 applied,
// A=3 missing => A=0, B=2). The apply watermark may only move in whole
// atomic batches — checked here by injecting a truncated batch directly
// into the secondary journal and failing over.
TEST_F(CoalesceTest, FailoverIgnoresPartiallyReceivedFoldedBatch) {
  auto [p, s] = MakeVolumes("v");
  GroupId g = MakeGroup();
  MakeAsyncPair(p, s, g);
  env_.RunFor(Milliseconds(20));  // Initial copy done; journals empty.

  auto* sj = engine_.secondary_journal(g);
  ASSERT_NE(sj, nullptr);
  // Simulated truncated arrival of a 3-record folded batch [1, 3]: the
  // tombstone (seq 1) and an unrelated write (seq 2) landed, the
  // tombstone's cover (seq 3) did not.
  journal::JournalRecord t;
  t.sequence = 1;
  t.volume_id = p;
  t.lba = 0;
  t.block_count = 1;
  t.atomic_through = 3;
  t.folded = true;
  ASSERT_TRUE(sj->AppendWithSequence(std::move(t)).ok());
  journal::JournalRecord b;
  b.sequence = 2;
  b.volume_id = p;
  b.lba = 1;
  b.block_count = 1;
  b.payload = journal::PayloadBuffer::Copy(BlockOf('2'));
  b.atomic_through = 3;
  ASSERT_TRUE(sj->AppendWithSequence(std::move(b)).ok());

  auto report = engine_.FailoverGroup(g);
  ASSERT_TRUE(report.ok());
  // Nothing from the torn batch reached the S-VOL; the recovery point is
  // the previous batch boundary.
  EXPECT_EQ(report->recovery_point, 0u);
  EXPECT_EQ(backup_.GetVolume(s)->store().ReadBlock(0),
            std::string(block::kDefaultBlockSize, '\0'));
  EXPECT_EQ(backup_.GetVolume(s)->store().ReadBlock(1),
            std::string(block::kDefaultBlockSize, '\0'));
}

// Captures the order in which resync content lands on the S-VOL. The
// pre-overwrite hooks fire per block immediately before each write.
std::vector<uint64_t> ApplyOrderOfResync(ReplicationEngine* engine,
                                         sim::SimEnvironment* env,
                                         storage::StorageArray* main,
                                         storage::StorageArray* backup,
                                         storage::VolumeId p,
                                         storage::VolumeId s, GroupId g) {
  std::vector<uint64_t> order;
  const uint64_t token = backup->GetVolume(s)->AddPreOverwriteHook(
      [&order](block::Lba lba, std::string_view) { order.push_back(lba); });
  EXPECT_TRUE(engine->SuspendGroup(g).ok());
  // Scattered dirty blocks written in a deliberately non-sorted order.
  for (uint64_t lba : {41u, 7u, 40u, 20u, 8u, 42u}) {
    EXPECT_TRUE(main->WriteSync(p, lba, BlockOf('d')).ok());
  }
  EXPECT_TRUE(engine->ResyncGroup(g).ok());
  env->RunFor(Milliseconds(40));
  backup->GetVolume(s)->RemovePreOverwriteHook(token);
  return order;
}

TEST_F(CoalesceTest, ResyncShipsSortedExtents) {
  auto [p, s] = MakeVolumes("v");
  GroupId g = MakeGroup();
  PairId pair = MakeAsyncPair(p, s, g);
  env_.RunFor(Milliseconds(20));

  std::vector<uint64_t> order = ApplyOrderOfResync(&engine_, &env_, &main_,
                                                   &backup_, p, s, g);
  // Canonical ascending-LBA order regardless of write order, and the
  // adjacent blocks {7,8}, {40,41,42} merged into extents.
  EXPECT_EQ(order, (std::vector<uint64_t>{7, 8, 20, 40, 41, 42}));
  GroupStats st = Stats(g);
  EXPECT_EQ(st.resync_extents, 3u);
  EXPECT_EQ(st.resync_blocks, 6u);
  EXPECT_EQ(engine_.GetPair(pair)->state(), PairState::kPaired);
  EXPECT_TRUE(Converged(p, s));
}

TEST_F(CoalesceTest, ResyncOrderIsStableAcrossRuns) {
  // Two independent engine stacks running the identical scenario must
  // apply the resync delta in the identical (sorted) block order — the
  // old hash-set walk made this order an accident of the stdlib.
  auto run = [] {
    sim::SimEnvironment env;
    storage::StorageArray main(&env, ZeroLatency("MAIN"));
    storage::StorageArray backup(&env, ZeroLatency("BKUP"));
    sim::NetworkLink fwd(&env, CoalesceTest::LinkConfig(1), "fwd");
    sim::NetworkLink rev(&env, CoalesceTest::LinkConfig(2), "rev");
    ReplicationEngine engine(&env, &main, &backup, &fwd, &rev);
    auto p = main.CreateVolume("v", 64);
    auto s = backup.CreateVolume("r-v", 64);
    EXPECT_TRUE(p.ok() && s.ok());
    ConsistencyGroupConfig gcfg;
    gcfg.name = "cg";
    auto g = engine.CreateConsistencyGroup(gcfg);
    EXPECT_TRUE(g.ok());
    PairConfig pc;
    pc.name = "pair";
    pc.primary = *p;
    pc.secondary = *s;
    pc.mode = ReplicationMode::kAsynchronous;
    pc.group = *g;
    EXPECT_TRUE(engine.CreatePair(pc).ok());
    env.RunFor(Milliseconds(20));
    return ApplyOrderOfResync(&engine, &env, &main, &backup, *p, *s, *g);
  };
  std::vector<uint64_t> first = run();
  std::vector<uint64_t> second = run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST_F(CoalesceTest, ResyncSplitsLongRunsAtTheExtentCap) {
  // 300 contiguous dirty blocks exceed the 256-block extent cap: the
  // resync ships them as two extents (256 + 44) carrying all 300 blocks.
  auto [p, s] = MakeVolumes("v", 512);
  GroupId g = MakeGroup();
  MakeAsyncPair(p, s, g);
  env_.RunFor(Milliseconds(20));

  ASSERT_TRUE(engine_.SuspendGroup(g).ok());
  ASSERT_TRUE(
      main_.WriteSync(p, 100, std::string(300 * block::kDefaultBlockSize, 'e'))
          .ok());
  ASSERT_TRUE(engine_.ResyncGroup(g).ok());
  env_.RunFor(Milliseconds(40));
  GroupStats st = Stats(g);
  EXPECT_EQ(st.resync_extents, 2u);
  EXPECT_EQ(st.resync_blocks, 300u);
  EXPECT_TRUE(Converged(p, s));
}

TEST_F(CoalesceTest, ResyncCaptureIsStableUnderInFlightOverwrites) {
  // Resync captures the dirty extents into one wire frame at the
  // ResyncGroup instant; a host write into a captured range while the
  // frame is on the wire must see the frame deliver the *captured* image,
  // with the newer write arriving afterwards through the journal.
  auto [p, s] = MakeVolumes("v");
  ConsistencyGroupConfig cfg;
  cfg.transfer_interval = Milliseconds(64);  // Journal ships late.
  GroupId g = MakeGroup(cfg);
  MakeAsyncPair(p, s, g);
  ASSERT_TRUE(main_.WriteSync(p, 5, BlockOf('a')).ok());
  env_.RunFor(Milliseconds(80));
  ASSERT_TRUE(Converged(p, s));

  ASSERT_TRUE(engine_.SuspendGroup(g).ok());
  ASSERT_TRUE(main_.WriteSync(p, 5, BlockOf('o')).ok());
  ASSERT_TRUE(engine_.ResyncGroup(g).ok());
  // Journaling has resumed; this overwrite lands while the resync batch
  // is still in flight and must not leak into it.
  ASSERT_TRUE(main_.WriteSync(p, 5, BlockOf('n')).ok());

  // Resync delivers after the 5 ms link latency; the journaled 'n' waits
  // for the next 64 ms pump. In between, the backup must hold the
  // captured 'o' — not 'n' — or a failover here would see a write that
  // never existed at suspension time.
  env_.RunFor(Milliseconds(20));
  EXPECT_EQ(backup_.GetVolume(s)->store().ReadBlock(5), BlockOf('o'));

  env_.RunFor(Milliseconds(80));
  EXPECT_EQ(backup_.GetVolume(s)->store().ReadBlock(5), BlockOf('n'));
  EXPECT_TRUE(Converged(p, s));
}

TEST_F(CoalesceTest, AdaptiveBatchGrowsUnderJournalBacklog) {
  auto [p, s] = MakeVolumes("v", /*blocks=*/4096);
  ConsistencyGroupConfig cfg;
  cfg.journal_capacity_bytes = 1 << 20;  // 1 MiB.
  cfg.transfer_batch_bytes = 64 << 10;
  cfg.transfer_batch_min_bytes = 64 << 10;
  cfg.transfer_batch_max_bytes = 16 << 20;
  GroupId g = MakeGroup(cfg);
  MakeAsyncPair(p, s, g);
  env_.RunFor(Milliseconds(20));
  ASSERT_EQ(Stats(g).transfer_batch_bytes_now, 64u << 10);

  // ~85 distinct-block records = ~350 KiB > a quarter of the journal: the
  // controller must scale the batch up until the backlog drains.
  for (uint64_t lba = 0; lba < 85; ++lba) {
    ASSERT_TRUE(main_.WriteSync(p, lba, BlockOf('w')).ok());
  }
  env_.RunFor(Milliseconds(4));
  EXPECT_GT(Stats(g).transfer_batch_bytes_now, 64u << 10);
  env_.RunFor(Milliseconds(60));
  EXPECT_TRUE(Converged(p, s));
}

TEST_F(CoalesceTest, AdaptiveBatchShrinksUnderLinkBacklog) {
  // A 1 MB/s link serializes a 64 KiB batch in ~64 ms >> 4 transfer
  // intervals: the controller must halve down to the floor.
  sim::SimEnvironment env;
  storage::StorageArray main(&env, ZeroLatency("MAIN"));
  storage::StorageArray backup(&env, ZeroLatency("BKUP"));
  sim::NetworkLinkConfig slow = LinkConfig(1);
  slow.bandwidth_bytes_per_sec = 1e6;
  sim::NetworkLink fwd(&env, slow, "fwd");
  sim::NetworkLink rev(&env, LinkConfig(2), "rev");
  ReplicationEngine engine(&env, &main, &backup, &fwd, &rev);
  auto p = main.CreateVolume("v", 4096);
  auto s = backup.CreateVolume("r-v", 4096);
  ASSERT_TRUE(p.ok() && s.ok());
  ConsistencyGroupConfig cfg;
  cfg.name = "cg";
  cfg.ack_timeout = 0;  // The slow link is not a failure here.
  // The backlog only builds if the batches actually occupy the wire at
  // their journal size; compression would shrink these constant-byte
  // payloads to almost nothing and starve the controller of pressure.
  cfg.compress_transfers = false;
  GroupId g;
  {
    auto gid = engine.CreateConsistencyGroup(cfg);
    ASSERT_TRUE(gid.ok());
    g = *gid;
  }
  PairConfig pc;
  pc.name = "pair";
  pc.primary = *p;
  pc.secondary = *s;
  pc.mode = ReplicationMode::kAsynchronous;
  pc.group = g;
  ASSERT_TRUE(engine.CreatePair(pc).ok());
  env.RunFor(Milliseconds(20));

  for (uint64_t lba = 0; lba < 64; ++lba) {
    ASSERT_TRUE(main.WriteSync(*p, lba, BlockOf('s')).ok());
  }
  env.RunFor(Milliseconds(30));
  auto stats = engine.GetGroupStats(g);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->transfer_batch_bytes_now,
            ConsistencyGroupConfig{}.transfer_batch_min_bytes);
}

TEST_F(CoalesceTest, ZeroBatchKnobsAreRejectedNotRewritten) {
  // All-zero batch knobs used to be silently rewritten; the control
  // plane now refuses them outright so a misconfigured sweep
  // fails loudly at creation instead of running with invented values.
  ConsistencyGroupConfig cfg;
  cfg.transfer_batch_bytes = 0;
  cfg.transfer_batch_min_bytes = 0;
  cfg.transfer_batch_max_bytes = 0;
  auto gid = engine_.CreateConsistencyGroup(cfg);
  ASSERT_FALSE(gid.ok());
  EXPECT_EQ(gid.status().code(), StatusCode::kInvalidArgument);

  // A tiny-but-nonzero fixed batch is legal: the journal's one-record
  // progress guarantee keeps the group converging anyway.
  ConsistencyGroupConfig tiny;
  tiny.enable_adaptive_batching = false;
  tiny.transfer_batch_bytes = 1;
  auto tid = engine_.CreateConsistencyGroup(tiny);
  ASSERT_TRUE(tid.ok());
  auto [p, s] = MakeVolumes("v");
  MakeAsyncPair(p, s, *tid);
  ASSERT_TRUE(main_.WriteSync(p, 0, BlockOf('k')).ok());
  env_.RunFor(Milliseconds(40));
  EXPECT_TRUE(Converged(p, s));
}

}  // namespace
}  // namespace zerobak::replication

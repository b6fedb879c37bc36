// Synchronous (SDC) pairs are members of a consistency group whose host
// ack waits for the backup's apply ack. They ship through the group
// journal like ADC pairs, and a lost batch, a lost ack or a failed backup
// array goes through the group's suspend / local ack / auto-resync path.
#include <algorithm>
#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/coding.h"
#include "common/rng.h"
#include "core/inspect.h"
#include "replication/replication.h"
#include "storage/array.h"

namespace zerobak::replication {
namespace {

constexpr SimDuration kOneWay = Milliseconds(5);
constexpr SimDuration kAckTimeout = Milliseconds(20);
constexpr uint64_t kBlocks = 64;

std::string BlockOf(char c) {
  return std::string(block::kDefaultBlockSize, c);
}

// A block whose first eight bytes carry `tag`.
std::string TaggedBlock(uint64_t tag) {
  std::string data(block::kDefaultBlockSize, 'T');
  EncodeFixed64(data.data(), tag);
  return data;
}

storage::ArrayConfig Media(const std::string& serial, SimDuration write,
                           SimDuration per_block) {
  storage::ArrayConfig cfg;
  cfg.serial = serial;
  cfg.media = block::DeviceLatencyModel{0, write, per_block, 0, 1};
  return cfg;
}

sim::NetworkLinkConfig LinkConfig(uint64_t seed) {
  sim::NetworkLinkConfig cfg;
  cfg.base_latency = kOneWay;
  cfg.jitter = 0;
  cfg.bandwidth_bytes_per_sec = 0;
  cfg.seed = seed;
  return cfg;
}

class SyncGroupTest : public ::testing::Test {
 protected:
  // The main array's media is free, so a host write's latency is the
  // replication's alone; a backup write costs 300 us + 10 us per block.
  SyncGroupTest()
      : main_(&env_, Media("MAIN", 0, 0)),
        backup_(&env_, Media("BKUP", Microseconds(300), Microseconds(10))),
        to_backup_(&env_, LinkConfig(1), "fwd"),
        to_main_(&env_, LinkConfig(2), "rev"),
        engine_(&env_, &main_, &backup_, &to_backup_, &to_main_) {}

  std::pair<storage::VolumeId, storage::VolumeId> MakeVolumes(
      const std::string& name) {
    auto p = main_.CreateVolume(name, kBlocks);
    auto s = backup_.CreateVolume("r-" + name, kBlocks);
    EXPECT_TRUE(p.ok() && s.ok());
    return {*p, *s};
  }

  GroupId MakeGroup() {
    ConsistencyGroupConfig cfg;
    cfg.name = "sync-cg";
    cfg.ack_timeout = kAckTimeout;
    cfg.resync_backoff_initial = Milliseconds(5);
    cfg.resync_backoff_max = Milliseconds(20);
    auto g = engine_.CreateConsistencyGroup(cfg);
    EXPECT_TRUE(g.ok());
    return *g;
  }

  StatusOr<PairId> TryPair(storage::VolumeId p, storage::VolumeId s,
                           GroupId group, ReplicationMode mode) {
    PairConfig cfg;
    cfg.name = "pair";
    cfg.primary = p;
    cfg.secondary = s;
    cfg.mode = mode;
    cfg.group = group;
    return engine_.CreatePair(cfg);
  }

  PairId MakePair(storage::VolumeId p, storage::VolumeId s, GroupId group) {
    auto id = TryPair(p, s, group, ReplicationMode::kSynchronous);
    EXPECT_TRUE(id.ok()) << id.status();
    return id.ok() ? *id : 0;
  }

  // Submits a host write whose acks are counted in `*acks`.
  void Submit(storage::VolumeId vol, uint64_t lba, std::string data,
              int* acks) {
    main_.SubmitHostWrite(vol, lba, std::move(data),
                          [acks](block::IoResult r) {
                            EXPECT_TRUE(r.status.ok()) << r.status;
                            ++*acks;
                          });
  }

  GroupStats Stats(GroupId g) {
    auto stats = engine_.GetGroupStats(g);
    EXPECT_TRUE(stats.ok());
    return stats.ok() ? *stats : GroupStats{};
  }

  bool Converged(storage::VolumeId p, storage::VolumeId s) {
    return main_.GetVolume(p)->ContentEquals(*backup_.GetVolume(s));
  }

  SimDuration BackupWriteCost() const {
    return backup_.config().media.Cost(block::IoType::kWrite, 1, nullptr);
  }

  sim::SimEnvironment env_;
  storage::StorageArray main_;
  storage::StorageArray backup_;
  sim::NetworkLink to_backup_;
  sim::NetworkLink to_main_;
  ReplicationEngine engine_;
};

TEST_F(SyncGroupTest, HostAckWaitsForTheCoveringApplyAck) {
  auto [p, s] = MakeVolumes("v");
  GroupId g = MakeGroup();
  MakePair(p, s, g);
  env_.RunFor(Milliseconds(1));

  const SimTime start = env_.now();
  SimTime acked_at = -1;
  main_.SubmitHostWrite(p, 3, BlockOf('s'), [&](block::IoResult r) {
    EXPECT_TRUE(r.status.ok()) << r.status;
    acked_at = env_.now();
  });
  // Shipped at once, with no interval wait, and waiting for its ack.
  EXPECT_EQ(Stats(g).shipped, 1u);
  EXPECT_EQ(Stats(g).pending_sync_acks, 1u);
  ASSERT_GT(BackupWriteCost(), 0);
  const SimDuration expected = kOneWay + BackupWriteCost() + kOneWay;
  env_.RunFor(expected - 1);
  EXPECT_EQ(acked_at, -1) << "acked before the apply ack returned";
  EXPECT_EQ(backup_.GetVolume(s)->store().ReadBlock(3), BlockOf('s'));
  env_.RunFor(Milliseconds(10));
  EXPECT_EQ(acked_at - start, expected)
      << "forward trip + backup media write + reverse trip";
  EXPECT_EQ(Stats(g).pending_sync_acks, 0u);
  EXPECT_EQ(Stats(g).acked, 1u);
  EXPECT_TRUE(Converged(p, s));
}

// A lost batch, a lost ack and a failed backup array end the same way:
// the ack deadline suspends the group (kAckTimeout), the host write is
// acked exactly once, locally, its block is dirty-marked, and auto-resync
// brings the S-VOL back to the P-VOL.
TEST_F(SyncGroupTest, LostBatchAckOrArrayAcksOnceLocallyAndResyncs) {
  enum class Fault { kLostBatch, kLostAck, kFailedArray };
  for (Fault fault :
       {Fault::kLostBatch, Fault::kLostAck, Fault::kFailedArray}) {
    const char* name = fault == Fault::kLostBatch ? "lost-batch"
                       : fault == Fault::kLostAck ? "lost-ack"
                                                  : "failed-array";
    SCOPED_TRACE(name);
    auto [p, s] = MakeVolumes(name);
    GroupId g = MakeGroup();
    PairId pair = MakePair(p, s, g);
    env_.RunFor(Milliseconds(1));

    int acks = 0;
    const SimTime start = env_.now();
    if (fault == Fault::kFailedArray) backup_.SetFailed(true);
    Submit(p, 7, BlockOf('w'), &acks);
    if (fault == Fault::kLostBatch) {
      env_.RunFor(Milliseconds(1));
      to_backup_.SetConnected(false);  // The batch dies on the wire.
      to_backup_.SetConnected(true);
    } else if (fault == Fault::kLostAck) {
      env_.RunFor(kOneWay + Milliseconds(1));  // Applied; the ack is out.
      to_main_.SetConnected(false);
      to_main_.SetConnected(true);
    }
    // The deadline: the batch's arrival, one reverse trip, the timeout.
    const SimTime deadline = start + kOneWay + kOneWay + kAckTimeout;
    env_.RunFor(deadline - 1 - env_.now());
    EXPECT_EQ(acks, 0);
    EXPECT_FALSE(Stats(g).suspended);
    EXPECT_EQ(Stats(g).pending_sync_acks, 1u);

    env_.RunFor(1);
    GroupStats stats = Stats(g);
    EXPECT_EQ(acks, 1) << "a host write never hangs";
    EXPECT_TRUE(stats.suspended);
    EXPECT_EQ(stats.suspend_reason, SuspendReason::kAckTimeout);
    EXPECT_EQ(stats.ack_timeouts, 1u);
    EXPECT_EQ(stats.pending_sync_acks, 0u);
    EXPECT_EQ(engine_.GetPair(pair)->state(), PairState::kSuspended);
    EXPECT_EQ(engine_.GetPair(pair)->dirty_blocks(), 1u);

    backup_.SetFailed(false);
    env_.RunFor(Milliseconds(100));
    stats = Stats(g);
    EXPECT_FALSE(stats.suspended);
    EXPECT_EQ(stats.auto_resync_attempts, 1u);
    EXPECT_EQ(engine_.GetPair(pair)->state(), PairState::kPaired);
    EXPECT_EQ(engine_.GetPair(pair)->dirty_blocks(), 0u);
    EXPECT_TRUE(Converged(p, s));
    EXPECT_EQ(acks, 1);

    // The group serves synchronous writes again.
    Submit(p, 8, BlockOf('x'), &acks);
    env_.RunFor(Milliseconds(20));
    EXPECT_EQ(acks, 2);
    EXPECT_TRUE(Converged(p, s));
  }
}

// Both pairs ship on the group's one ordered stream, so whatever cuts the
// stream leaves the backup holding a prefix of the cross-volume write
// order: at every suspension, each S-VOL block holds what the writes up to
// the newest one on the backup left there.
TEST_F(SyncGroupTest, TwoPairGroupKeepsAWriteOrderPrefixAtEverySuspension) {
  auto [p0, s0] = MakeVolumes("v0");
  auto [p1, s1] = MakeVolumes("v1");
  GroupId g = MakeGroup();
  MakePair(p0, s0, g);
  MakePair(p1, s1, g);
  env_.RunFor(Milliseconds(1));

  constexpr uint64_t kHot = 8;
  const storage::VolumeId pvols[] = {p0, p1};
  const storage::VolumeId svols[] = {s0, s1};
  struct Write {
    int vol;
    uint64_t lba;
    uint64_t tag;
  };
  std::vector<Write> writes;
  std::deque<int> acks;
  auto backup_is_prefix = [&] {
    uint64_t newest = 0;
    for (storage::VolumeId s : svols) {
      for (uint64_t lba = 0; lba < kHot; ++lba) {
        newest = std::max(newest,
                          DecodeFixed64(backup_.GetVolume(s)
                                            ->store()
                                            .ReadBlock(lba)
                                            .data()));
      }
    }
    std::map<std::pair<int, uint64_t>, uint64_t> expect;
    for (const Write& w : writes) {
      if (w.tag <= newest) expect[{w.vol, w.lba}] = w.tag;
    }
    for (int v = 0; v < 2; ++v) {
      for (uint64_t lba = 0; lba < kHot; ++lba) {
        const uint64_t got = DecodeFixed64(
            backup_.GetVolume(svols[v])->store().ReadBlock(lba).data());
        auto it = expect.find({v, lba});
        if (got != (it == expect.end() ? 0 : it->second)) return false;
      }
    }
    return true;
  };

  Rng rng(29);
  int suspensions = 0;
  bool was_suspended = false;
  for (int step = 0; step < 600; ++step) {
    // Every 45 ms a partition of 2-7 ms drops whatever is on the wire.
    const int cycle = step / 150;
    if (step % 150 == 40 || step % 150 == 47 + 4 * cycle) {
      const bool up = step % 150 != 40;
      to_backup_.SetConnected(up);
      to_main_.SetConnected(up);
    }
    const int vol = static_cast<int>(rng.Uniform(2));
    const uint64_t lba = rng.Uniform(kHot);
    writes.push_back({vol, lba, writes.size() + 1});
    acks.push_back(0);
    Submit(pvols[vol], lba, TaggedBlock(writes.back().tag), &acks.back());
    env_.RunFor(Microseconds(300));
    const bool suspended = Stats(g).suspended;
    if (suspended && !was_suspended) {
      ++suspensions;
      EXPECT_TRUE(backup_is_prefix()) << "suspension at step " << step;
    }
    was_suspended = suspended;
  }
  EXPECT_GE(suspensions, 4);

  to_backup_.SetConnected(true);
  to_main_.SetConnected(true);
  env_.RunFor(Milliseconds(200));
  EXPECT_FALSE(Stats(g).suspended);
  EXPECT_TRUE(Converged(p0, s0));
  EXPECT_TRUE(Converged(p1, s1));
  for (size_t w = 0; w < acks.size(); ++w) {
    EXPECT_EQ(acks[w], 1) << "write " << w << " is acked exactly once";
  }
}

TEST_F(SyncGroupTest, DrainedSyncGroupFailsOverWithNoLostRecords) {
  auto [p0, s0] = MakeVolumes("v0");
  auto [p1, s1] = MakeVolumes("v1");
  GroupId g = MakeGroup();
  MakePair(p0, s0, g);
  MakePair(p1, s1, g);
  env_.RunFor(Milliseconds(1));
  int acks = 0;
  for (uint64_t i = 0; i < 6; ++i) {
    Submit(i % 2 == 0 ? p0 : p1, i, BlockOf('a' + i), &acks);
  }
  env_.RunFor(Milliseconds(20));
  ASSERT_EQ(acks, 6);
  ASSERT_EQ(Stats(g).pending_sync_acks, 0u);

  main_.SetFailed(true);
  to_backup_.SetConnected(false);
  to_main_.SetConnected(false);
  auto report = engine_.FailoverGroup(g);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->lost_records, 0u);
  EXPECT_EQ(report->recovery_point, 6u);
  EXPECT_TRUE(Converged(p0, s0));
  EXPECT_TRUE(Converged(p1, s1));
}

TEST_F(SyncGroupTest, CreatePairRejectsAModeGroupMismatch) {
  auto [p0, s0] = MakeVolumes("v0");
  auto [p1, s1] = MakeVolumes("v1");
  GroupId sync_group = MakeGroup();
  GroupId async_group = MakeGroup();
  MakePair(p0, s0, sync_group);
  ASSERT_TRUE(
      TryPair(p1, s1, async_group, ReplicationMode::kAsynchronous).ok());

  auto [p2, s2] = MakeVolumes("v2");
  EXPECT_EQ(TryPair(p2, s2, sync_group, ReplicationMode::kAsynchronous)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(TryPair(p2, s2, async_group, ReplicationMode::kSynchronous)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // The rejections consumed nothing.
  EXPECT_NE(MakePair(p2, s2, sync_group), 0u);
}

// Stuck work shows as an age that keeps growing: a sync write whose batch
// died in a partition is counted with its age in GroupStats and on the
// group's inspect line until the ack deadline acks it locally.
TEST_F(SyncGroupTest, WaitingAckAgeGrowsWhilePartitionedThenClears) {
  auto [p, s] = MakeVolumes("v");
  GroupId g = MakeGroup();
  MakePair(p, s, g);
  env_.RunFor(Milliseconds(1));
  EXPECT_EQ(core::DescribeReplication(&engine_).find("sync_acks="),
            std::string::npos);

  int acks = 0;
  Submit(p, 0, BlockOf('p'), &acks);
  env_.RunFor(Milliseconds(1));
  to_backup_.SetConnected(false);
  env_.RunFor(Milliseconds(4));
  GroupStats stats = Stats(g);
  EXPECT_EQ(stats.pending_sync_acks, 1u);
  EXPECT_EQ(stats.oldest_sync_ack_age, Milliseconds(5));
  EXPECT_NE(core::DescribeReplication(&engine_).find(
                "sync_acks=1 (oldest 5.00ms)"),
            std::string::npos)
      << core::DescribeReplication(&engine_);

  env_.RunFor(Milliseconds(20));
  stats = Stats(g);
  EXPECT_EQ(stats.pending_sync_acks, 1u);
  EXPECT_EQ(stats.oldest_sync_ack_age, Milliseconds(25));
  EXPECT_EQ(acks, 0);

  env_.RunFor(Milliseconds(10));  // Past the deadline at 30 ms.
  stats = Stats(g);
  EXPECT_EQ(acks, 1);
  EXPECT_EQ(stats.pending_sync_acks, 0u);
  EXPECT_EQ(stats.oldest_sync_ack_age, 0);
  EXPECT_EQ(core::DescribeReplication(&engine_).find("sync_acks="),
            std::string::npos);
}

}  // namespace
}  // namespace zerobak::replication

// Control-plane error paths: every mistaken or stale operator action —
// deleting twice, addressing an unknown id, pairing into a deleted group,
// mixing sync and async pairs in one group — must come back with a
// pinned StatusCode, not a crash, a silent no-op, or a code that shifts
// between releases. Consoles and the CSI controller branch on these codes.
#include <gtest/gtest.h>

#include "replication/replication.h"
#include "storage/array.h"

namespace zerobak::replication {
namespace {

storage::ArrayConfig ZeroLatency(const std::string& serial) {
  storage::ArrayConfig cfg;
  cfg.serial = serial;
  cfg.media = block::DeviceLatencyModel{0, 0, 0, 0, 1};
  return cfg;
}

class ControlPlaneTest : public ::testing::Test {
 protected:
  ControlPlaneTest()
      : main_(&env_, ZeroLatency("MAIN")),
        backup_(&env_, ZeroLatency("BKUP")),
        to_backup_(&env_, LinkConfig(1), "fwd"),
        to_main_(&env_, LinkConfig(2), "rev"),
        engine_(&env_, &main_, &backup_, &to_backup_, &to_main_) {}

  static sim::NetworkLinkConfig LinkConfig(uint64_t seed) {
    sim::NetworkLinkConfig cfg;
    cfg.base_latency = Milliseconds(1);
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

  GroupId MakeGroup(const std::string& name = "cg") {
    auto g = engine_.CreateConsistencyGroup({.name = name});
    EXPECT_TRUE(g.ok());
    return *g;
  }

  PairId MakePair(storage::VolumeId p, storage::VolumeId s, GroupId group,
                  ReplicationMode mode = ReplicationMode::kAsynchronous) {
    PairConfig cfg;
    cfg.primary = p;
    cfg.secondary = s;
    cfg.mode = mode;
    cfg.group = group;
    auto id = engine_.CreatePair(cfg);
    EXPECT_TRUE(id.ok()) << id.status();
    return id.ok() ? *id : 0;
  }

  sim::SimEnvironment env_;
  storage::StorageArray main_;
  storage::StorageArray backup_;
  sim::NetworkLink to_backup_;
  sim::NetworkLink to_main_;
  ReplicationEngine engine_;
};

constexpr GroupId kNoSuchGroup = 777;
constexpr PairId kNoSuchPair = 777;

TEST_F(ControlPlaneTest, CreatePairModeGroupRulesArePinned) {
  auto [p, s] = MakeVolumes("v");
  GroupId g = MakeGroup();

  // An async pair without a group has no journal to ride on.
  PairConfig async_no_group;
  async_no_group.primary = p;
  async_no_group.secondary = s;
  async_no_group.mode = ReplicationMode::kAsynchronous;
  EXPECT_EQ(engine_.CreatePair(async_no_group).status().code(),
            StatusCode::kInvalidArgument);

  // Nor does a sync pair: its writes ship through a group journal too.
  PairConfig sync_no_group = async_no_group;
  sync_no_group.mode = ReplicationMode::kSynchronous;
  EXPECT_EQ(engine_.CreatePair(sync_no_group).status().code(),
            StatusCode::kInvalidArgument);

  // A sync pair in a group with no ack deadline could wait forever.
  auto no_deadline =
      engine_.CreateConsistencyGroup({.name = "nd", .ack_timeout = 0});
  ASSERT_TRUE(no_deadline.ok());
  PairConfig sync_no_deadline = sync_no_group;
  sync_no_deadline.group = *no_deadline;
  EXPECT_EQ(engine_.CreatePair(sync_no_deadline).status().code(),
            StatusCode::kInvalidArgument);

  // Neither rejection consumed the volumes.
  EXPECT_NE(MakePair(p, s, g), 0u);
}

TEST_F(ControlPlaneTest, UnknownGroupIdIsNotFoundEverywhere) {
  EXPECT_EQ(engine_.DeleteConsistencyGroup(kNoSuchGroup).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(engine_.GetGroupStats(kNoSuchGroup).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(engine_.SuspendGroup(kNoSuchGroup).code(), StatusCode::kNotFound);
  EXPECT_EQ(engine_.ResyncGroup(kNoSuchGroup).code(), StatusCode::kNotFound);
  EXPECT_EQ(engine_.FailoverGroup(kNoSuchGroup).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(engine_.FailbackGroup(kNoSuchGroup).status().code(),
            StatusCode::kNotFound);
}

TEST_F(ControlPlaneTest, UnknownPairIdIsNotFoundEverywhere) {
  EXPECT_EQ(engine_.DeletePair(kNoSuchPair).code(), StatusCode::kNotFound);
}

TEST_F(ControlPlaneTest, DeleteTwiceSecondIsNotFound) {
  GroupId g = MakeGroup();
  EXPECT_TRUE(engine_.DeleteConsistencyGroup(g).ok());
  EXPECT_EQ(engine_.DeleteConsistencyGroup(g).code(), StatusCode::kNotFound);

  auto [p, s] = MakeVolumes("v");
  PairId pair = MakePair(p, s, MakeGroup("sync"),
                         ReplicationMode::kSynchronous);
  env_.RunFor(Milliseconds(10));
  EXPECT_TRUE(engine_.DeletePair(pair).ok());
  EXPECT_EQ(engine_.DeletePair(pair).code(), StatusCode::kNotFound);
}

TEST_F(ControlPlaneTest, PairIntoDeletedGroupIsNotFound) {
  GroupId g = MakeGroup();
  ASSERT_TRUE(engine_.DeleteConsistencyGroup(g).ok());
  auto [p, s] = MakeVolumes("v");
  PairConfig cfg;
  cfg.primary = p;
  cfg.secondary = s;
  cfg.mode = ReplicationMode::kAsynchronous;
  cfg.group = g;
  EXPECT_EQ(engine_.CreatePair(cfg).status().code(), StatusCode::kNotFound);
}

TEST_F(ControlPlaneTest, GroupWithPairsRefusesDeletion) {
  auto [p, s] = MakeVolumes("v");
  GroupId g = MakeGroup();
  PairId pair = MakePair(p, s, g);
  env_.RunFor(Milliseconds(10));
  EXPECT_EQ(engine_.DeleteConsistencyGroup(g).code(),
            StatusCode::kFailedPrecondition);
  // Draining the pairs makes the deletion legal again.
  ASSERT_TRUE(engine_.DeletePair(pair).ok());
  EXPECT_TRUE(engine_.DeleteConsistencyGroup(g).ok());
}

// A group's pairs share one host-ack policy: a pair of the other mode is
// rejected either way round, without consuming its volumes.
TEST_F(ControlPlaneTest, PairModeMustMatchItsGroup) {
  auto [p, s] = MakeVolumes("v");
  auto [p2, s2] = MakeVolumes("w");
  GroupId async_group = MakeGroup("async");
  GroupId sync_group = MakeGroup("sync");
  MakePair(p, s, async_group);
  MakePair(p2, s2, sync_group, ReplicationMode::kSynchronous);
  env_.RunFor(Milliseconds(10));
  auto [p3, s3] = MakeVolumes("x");
  PairConfig cfg;
  cfg.primary = p3;
  cfg.secondary = s3;
  cfg.mode = ReplicationMode::kSynchronous;
  cfg.group = async_group;
  EXPECT_EQ(engine_.CreatePair(cfg).status().code(),
            StatusCode::kInvalidArgument);
  cfg.mode = ReplicationMode::kAsynchronous;
  cfg.group = sync_group;
  EXPECT_EQ(engine_.CreatePair(cfg).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_NE(MakePair(p3, s3, sync_group, ReplicationMode::kSynchronous), 0u);
}

// A sync pair is driven by its group's verbs: a resync of a healthy group
// is a no-op, and suspend -> resync is the legal sequence.
TEST_F(ControlPlaneTest, ResyncOfHealthySyncGroupIsANoOp) {
  auto [p, s] = MakeVolumes("v");
  GroupId g = MakeGroup();
  PairId pair = MakePair(p, s, g, ReplicationMode::kSynchronous);
  env_.RunFor(Milliseconds(10));
  ASSERT_EQ(engine_.GetPair(pair)->state(), PairState::kPaired);
  EXPECT_TRUE(engine_.ResyncGroup(g).ok());
  EXPECT_FALSE(engine_.GetGroupStats(g)->suspended);
  ASSERT_TRUE(engine_.SuspendGroup(g).ok());
  EXPECT_TRUE(engine_.ResyncGroup(g).ok());
}

TEST_F(ControlPlaneTest, FailedOverGroupRejectsForwardVerbs) {
  auto [p, s] = MakeVolumes("v");
  GroupId g = MakeGroup();
  MakePair(p, s, g);
  env_.RunFor(Milliseconds(10));
  ASSERT_TRUE(engine_.FailoverGroup(g).ok());

  EXPECT_EQ(engine_.SuspendGroup(g).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine_.ResyncGroup(g).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine_.FailoverGroup(g).status().code(),
            StatusCode::kFailedPrecondition);
  // New pairs cannot join a failed-over group either.
  auto [p2, s2] = MakeVolumes("w");
  PairConfig cfg;
  cfg.primary = p2;
  cfg.secondary = s2;
  cfg.mode = ReplicationMode::kAsynchronous;
  cfg.group = g;
  EXPECT_EQ(engine_.CreatePair(cfg).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(ControlPlaneTest, FailbackOfForwardGroupIsFailedPrecondition) {
  auto [p, s] = MakeVolumes("v");
  GroupId g = MakeGroup();
  MakePair(p, s, g);
  env_.RunFor(Milliseconds(10));
  EXPECT_EQ(engine_.FailbackGroup(g).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(ControlPlaneTest, GroupConfigValidationIsPinned) {
  // Each knob violation maps to kInvalidArgument at creation time; no
  // runtime clamp masks operator typos.
  ConsistencyGroupConfig bad;
  bad.name = "bad";
  bad.transfer_interval = 0;
  EXPECT_EQ(engine_.CreateConsistencyGroup(bad).status().code(),
            StatusCode::kInvalidArgument);

  bad = {};
  bad.name = "bad";
  bad.journal_capacity_bytes = 0;
  EXPECT_EQ(engine_.CreateConsistencyGroup(bad).status().code(),
            StatusCode::kInvalidArgument);

  bad = {};
  bad.name = "bad";
  bad.enable_adaptive_batching = true;
  bad.transfer_batch_min_bytes = 1 << 20;
  bad.transfer_batch_max_bytes = 1 << 10;  // max < min
  EXPECT_EQ(engine_.CreateConsistencyGroup(bad).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace zerobak::replication

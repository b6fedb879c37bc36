// Event-driven transfer scheduling. The contract under test: an idle
// group costs (almost) no simulator events — journal appends, apply
// acks, link recovery and resync completions arm a group, one dispatch
// loop pumps the armed set, and deficit-round-robin keeps groups sharing
// a link within a fair share of the wire.
#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "replication/group_scheduler.h"
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

sim::NetworkLinkConfig QuietLink(uint64_t seed,
                                 uint64_t bandwidth_bytes_per_sec = 0) {
  sim::NetworkLinkConfig cfg;
  cfg.base_latency = Milliseconds(1);
  cfg.jitter = 0;
  cfg.bandwidth_bytes_per_sec = bandwidth_bytes_per_sec;
  cfg.seed = seed;
  return cfg;
}

// --- GroupScheduler unit tests (synthetic pump) ----------------------------

class SchedulerUnitTest : public ::testing::Test {
 protected:
  SchedulerUnitTest()
      : link_(&env_, QuietLink(7), "wire"),
        sched_(&env_, &link_, /*heartbeat_interval=*/Milliseconds(50),
               [this](GroupSchedulerId id, uint64_t max_bytes) {
                 return Pump(id, max_bytes);
               },
               [this] {
                 ++heartbeat_scans_;
                 return uint64_t{0};
               }) {}

  PumpOutcome Pump(GroupSchedulerId id, uint64_t max_bytes) {
    pumps_.push_back({id, env_.now(), max_bytes});
    PumpOutcome out;
    auto& backlog = backlog_[id];
    if (backlog == 0) return out;  // Nothing to send: scheduler disarms.
    const uint64_t sent = std::min(backlog, std::min(max_bytes, quantum_));
    backlog -= sent;
    out.sent = true;
    out.wire_bytes = sent;
    out.backlog = backlog > 0;
    out.quantum = quantum_;
    return out;
  }

  struct PumpCall {
    GroupSchedulerId id;
    SimTime at;
    uint64_t max_bytes;
  };

  sim::SimEnvironment env_;
  sim::NetworkLink link_;
  GroupScheduler sched_;
  std::map<GroupSchedulerId, uint64_t> backlog_;
  uint64_t quantum_ = 1024;
  std::vector<PumpCall> pumps_;
  int heartbeat_scans_ = 0;
};

TEST_F(SchedulerUnitTest, UnarmedGroupsScheduleNothingButTheHeartbeat) {
  sched_.Register(1, Milliseconds(2), quantum_);
  sched_.Register(2, Milliseconds(2), quantum_);
  const uint64_t before = env_.executed_events();
  env_.RunFor(Seconds(1));
  const uint64_t events = env_.executed_events() - before;
  EXPECT_TRUE(pumps_.empty());
  // 1 s / 50 ms heartbeat = 20 events, regardless of group count.
  EXPECT_LE(events, 25u);
  EXPECT_EQ(heartbeat_scans_, 20);
  EXPECT_EQ(sched_.stats().dispatches, 0u);
}

TEST_F(SchedulerUnitTest, ArmDispatchesOnTheGroupsOwnTickBoundary) {
  sched_.Register(1, Milliseconds(2), quantum_);
  env_.RunFor(Milliseconds(5));  // Registration origin = t0; now t=5ms.
  backlog_[1] = 512;
  sched_.Arm(1);
  EXPECT_TRUE(sched_.armed(1));
  env_.RunFor(Milliseconds(3));
  ASSERT_EQ(pumps_.size(), 1u);
  // Ticks land on the 2 ms grid anchored at registration: 6 ms, not 5.
  EXPECT_EQ(pumps_[0].at, Milliseconds(6));
  EXPECT_FALSE(sched_.armed(1));  // Backlog drained: disarmed.
  EXPECT_EQ(sched_.stats().arms, 1u);
  EXPECT_EQ(sched_.stats().dispatches, 1u);
}

TEST_F(SchedulerUnitTest, ArmingIsIdempotentWhileArmed) {
  sched_.Register(1, Milliseconds(2), quantum_);
  backlog_[1] = 100;
  sched_.Arm(1);
  sched_.Arm(1);
  sched_.Arm(1);
  EXPECT_EQ(sched_.stats().arms, 1u);
  env_.RunFor(Milliseconds(5));
  EXPECT_EQ(pumps_.size(), 1u);
}

TEST_F(SchedulerUnitTest, BacklogKeepsTheGroupArmedUntilDrained) {
  sched_.Register(1, Milliseconds(2), quantum_);
  backlog_[1] = quantum_ * 3;  // Three pump rounds' worth.
  sched_.Arm(1);
  env_.RunFor(Milliseconds(20));
  EXPECT_GE(pumps_.size(), 3u);
  EXPECT_EQ(backlog_[1], 0u);
  EXPECT_FALSE(sched_.armed(1));
}

TEST_F(SchedulerUnitTest, DeficitRoundRobinSharesTheWire) {
  // Two groups, same quantum, both with deep backlogs: pump calls must
  // alternate rather than letting one group monopolize the rounds.
  sched_.Register(1, Milliseconds(2), quantum_);
  sched_.Register(2, Milliseconds(2), quantum_);
  backlog_[1] = quantum_ * 8;
  backlog_[2] = quantum_ * 8;
  sched_.Arm(1);
  sched_.Arm(2);
  env_.RunFor(Milliseconds(100));
  EXPECT_EQ(backlog_[1], 0u);
  EXPECT_EQ(backlog_[2], 0u);
  uint64_t sent1 = 0;
  uint64_t sent2 = 0;
  for (size_t i = 0; i + 1 < pumps_.size(); i += 2) {
    // Within every dispatch round the two armed groups each get a turn.
    EXPECT_NE(pumps_[i].id, pumps_[i + 1].id) << "round " << i / 2;
  }
  for (const auto& call : pumps_) {
    (call.id == 1 ? sent1 : sent2) += quantum_;
  }
  EXPECT_EQ(sent1, sent2);
}

TEST_F(SchedulerUnitTest, UnregisterForgetsTheGroup) {
  sched_.Register(1, Milliseconds(2), quantum_);
  backlog_[1] = quantum_;
  sched_.Arm(1);
  sched_.Unregister(1);
  EXPECT_FALSE(sched_.armed(1));
  env_.RunFor(Milliseconds(10));
  EXPECT_TRUE(pumps_.empty());
  sched_.Arm(1);  // Arming an unknown id is a no-op, not a crash.
  EXPECT_FALSE(sched_.armed(1));
  // The heartbeat stops with the last group: a fully torn-down scheduler
  // leaves the simulator idle.
  const uint64_t before = env_.executed_events();
  env_.RunFor(Seconds(1));
  EXPECT_EQ(env_.executed_events() - before, 0u);
}

// --- Engine integration ----------------------------------------------------

class SchedulerEngineTest : public ::testing::Test {
 protected:
  SchedulerEngineTest()
      : main_(&env_, ZeroLatency("MAIN")),
        backup_(&env_, ZeroLatency("BKUP")),
        to_backup_(&env_, QuietLink(1), "fwd"),
        to_main_(&env_, QuietLink(2), "rev"),
        engine_(&env_, &main_, &backup_, &to_backup_, &to_main_) {}

  GroupId MakeGroupWithPair(const std::string& name) {
    auto g = engine_.CreateConsistencyGroup({.name = name});
    EXPECT_TRUE(g.ok());
    auto p = main_.CreateVolume(name, 64);
    auto s = backup_.CreateVolume("r-" + name, 64);
    EXPECT_TRUE(p.ok() && s.ok());
    PairConfig pc;
    pc.primary = *p;
    pc.secondary = *s;
    pc.mode = ReplicationMode::kAsynchronous;
    pc.group = *g;
    EXPECT_TRUE(engine_.CreatePair(pc).ok());
    pvols_.push_back(*p);
    svols_.push_back(*s);
    return *g;
  }

  bool Converged(size_t i) {
    return main_.GetVolume(pvols_[i])->ContentEquals(
        *backup_.GetVolume(svols_[i]));
  }

  sim::SimEnvironment env_;
  storage::StorageArray main_;
  storage::StorageArray backup_;
  sim::NetworkLink to_backup_;
  sim::NetworkLink to_main_;
  ReplicationEngine engine_;
  std::vector<storage::VolumeId> pvols_;
  std::vector<storage::VolumeId> svols_;
};

TEST_F(SchedulerEngineTest, IdleGroupsCostNoPerGroupEvents) {
  for (int i = 0; i < 32; ++i) {
    MakeGroupWithPair("g" + std::to_string(i));
  }
  env_.RunFor(Milliseconds(20));  // Initial copies settle.
  const uint64_t before = env_.executed_events();
  env_.RunFor(Seconds(1));
  const uint64_t idle_events = env_.executed_events() - before;
  // Only the 50 ms heartbeat ticks — far below the 32 groups x 500
  // fires/s a per-group 2 ms transfer timer would burn.
  EXPECT_LE(idle_events, 30u);
  EXPECT_EQ(engine_.scheduler_stats().registered_groups, 32u);
  EXPECT_EQ(engine_.scheduler_stats().armed_groups, 0u);
}

TEST_F(SchedulerEngineTest, WritesArmShipAndDisarm) {
  MakeGroupWithPair("g");
  env_.RunFor(Milliseconds(20));
  ASSERT_TRUE(main_.WriteSync(pvols_[0], 3, BlockOf('x')).ok());
  env_.RunFor(Milliseconds(50));
  EXPECT_TRUE(Converged(0));
  const auto stats = engine_.scheduler_stats();
  EXPECT_GE(stats.arms, 1u);
  EXPECT_GE(stats.dispatches, 1u);
  EXPECT_EQ(stats.armed_groups, 0u);  // Quiesced again.
}

TEST_F(SchedulerEngineTest, LinkRecoveryRearmsPendingGroups) {
  MakeGroupWithPair("g");
  env_.RunFor(Milliseconds(20));
  to_backup_.SetConnected(false);
  ASSERT_TRUE(main_.WriteSync(pvols_[0], 5, BlockOf('y')).ok());
  env_.RunFor(Milliseconds(30));
  EXPECT_FALSE(Converged(0));
  to_backup_.SetConnected(true);  // Ready callback re-arms the group.
  env_.RunFor(Milliseconds(200));
  auto gstats = engine_.GetGroupStats(1);
  ASSERT_TRUE(gstats.ok());
  EXPECT_EQ(gstats->applied, gstats->written);
}

}  // namespace
}  // namespace zerobak::replication

// Randomized property and failure-injection tests for the replication
// engine. These are the invariants the whole paper rests on:
//
//   P1  (consistency group) at EVERY instant, the backup volumes form a
//       prefix of the cross-volume write order;
//   P2  (per-volume ADC) that prefix property is genuinely violable —
//       otherwise our P1 result would be vacuous;
//   P3  whatever sequence of link failures, suspensions, overflows and
//       resyncs occurs, a final resync + drain converges the backup to
//       the main content, and replication still works afterwards.
#include <gtest/gtest.h>

#include "common/coding.h"
#include "common/rng.h"
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

// A block payload carrying a 64-bit counter (readable back for ordering
// checks).
std::string CounterBlock(uint64_t counter) {
  std::string data(block::kDefaultBlockSize, '\0');
  EncodeFixed64(data.data(), counter);
  return data;
}

uint64_t CounterOf(const std::string& data) {
  return data.size() >= 8 ? DecodeFixed64(data.data()) : 0;
}

class PropertyRig {
 public:
  explicit PropertyRig(uint64_t seed, SimDuration jitter = Milliseconds(4))
      : main_(&env_, ZeroLatency("MAIN")),
        backup_(&env_, ZeroLatency("BKUP")),
        to_backup_(&env_, LinkCfg(seed, jitter), "fwd"),
        to_main_(&env_, LinkCfg(seed + 1, jitter), "rev"),
        engine_(&env_, &main_, &backup_, &to_backup_, &to_main_) {}

  static sim::NetworkLinkConfig LinkCfg(uint64_t seed, SimDuration jitter) {
    sim::NetworkLinkConfig cfg;
    cfg.base_latency = Milliseconds(2);
    cfg.jitter = jitter;
    cfg.bandwidth_bytes_per_sec = 0;
    cfg.seed = seed;
    return cfg;
  }

  // Creates `n` volume pairs; `shared_group` controls the topology.
  void CreatePairs(int n, bool shared_group,
                   uint64_t journal_capacity = 64ull << 20) {
    GroupId shared = 0;
    if (shared_group) {
      ConsistencyGroupConfig cfg;
      cfg.journal_capacity_bytes = journal_capacity;
      shared = *engine_.CreateConsistencyGroup(cfg);
      groups_.push_back(shared);
    }
    for (int i = 0; i < n; ++i) {
      auto p = main_.CreateVolume("p" + std::to_string(i), 256);
      auto s = backup_.CreateVolume("s" + std::to_string(i), 256);
      ASSERT_TRUE(p.ok() && s.ok());
      GroupId group = shared;
      if (!shared_group) {
        ConsistencyGroupConfig cfg;
        cfg.journal_capacity_bytes = journal_capacity;
        group = *engine_.CreateConsistencyGroup(cfg);
        groups_.push_back(group);
      }
      PairConfig pc;
      pc.name = "pair" + std::to_string(i);
      pc.primary = *p;
      pc.secondary = *s;
      pc.mode = ReplicationMode::kAsynchronous;
      pc.group = group;
      auto pair = engine_.CreatePair(pc);
      ASSERT_TRUE(pair.ok());
      pvols_.push_back(*p);
      svols_.push_back(*s);
      pairs_.push_back(*pair);
    }
    env_.RunFor(Milliseconds(20));
  }

  // Writes the same monotonically increasing counter round-robin across
  // all volumes at block 0: v0 then v1 then ... (strictly ordered by
  // host acks).
  void WriteRoundRobin(uint64_t counter) {
    for (storage::VolumeId v : pvols_) {
      ASSERT_TRUE(main_.WriteSync(v, 0, CounterBlock(counter)).ok());
    }
  }

  // The prefix property: counters at the backup must be non-increasing
  // along the write order, and adjacent volumes differ by at most 1.
  bool BackupIsPrefixConsistent() const {
    uint64_t prev = UINT64_MAX;
    for (size_t i = 0; i < svols_.size(); ++i) {
      const uint64_t c = CounterOf(
          backup_.GetVolume(svols_[i])->store().ReadBlock(0));
      if (c > prev) return false;  // A later volume ran ahead.
      prev = c;
    }
    const uint64_t first =
        CounterOf(backup_.GetVolume(svols_[0])->store().ReadBlock(0));
    const uint64_t last = CounterOf(
        backup_.GetVolume(svols_.back())->store().ReadBlock(0));
    return first - last <= 1;
  }

  bool AllConverged() {
    for (size_t i = 0; i < pvols_.size(); ++i) {
      if (!main_.GetVolume(pvols_[i])
               ->ContentEquals(*backup_.GetVolume(svols_[i]))) {
        return false;
      }
    }
    return true;
  }

  sim::SimEnvironment env_;
  storage::StorageArray main_;
  storage::StorageArray backup_;
  sim::NetworkLink to_backup_;
  sim::NetworkLink to_main_;
  ReplicationEngine engine_;
  std::vector<storage::VolumeId> pvols_;
  std::vector<storage::VolumeId> svols_;
  std::vector<PairId> pairs_;
  std::vector<GroupId> groups_;
};

class SeededPropertyTest : public ::testing::TestWithParam<uint64_t> {};

// P1: the consistency group preserves the cross-volume prefix property at
// every observation instant, for every seed.
TEST_P(SeededPropertyTest, ConsistencyGroupPrefixAlwaysHolds) {
  PropertyRig rig(GetParam());
  rig.CreatePairs(4, /*shared_group=*/true);
  Rng rng(GetParam());
  uint64_t counter = 0;
  for (int step = 0; step < 400; ++step) {
    if (rng.Bernoulli(0.6)) {
      rig.WriteRoundRobin(++counter);
    }
    rig.env_.RunFor(static_cast<SimDuration>(
        rng.Uniform(Microseconds(800)) + 1));
    ASSERT_TRUE(rig.BackupIsPrefixConsistent())
        << "seed " << GetParam() << " step " << step;
  }
  rig.env_.RunFor(Milliseconds(100));
  EXPECT_TRUE(rig.AllConverged());
}

// P3: arbitrary interleavings of suspend/resync/link-flap converge after
// a final repair, and replication keeps working.
TEST_P(SeededPropertyTest, ChaosThenResyncConverges) {
  PropertyRig rig(GetParam());
  rig.CreatePairs(3, /*shared_group=*/true, /*journal=*/1 << 20);
  Rng rng(GetParam() * 7 + 1);
  const GroupId group = rig.groups_[0];
  uint64_t counter = 0;
  bool link_up = true;
  for (int step = 0; step < 300; ++step) {
    const double dice = rng.NextDouble();
    if (dice < 0.55) {
      rig.WriteRoundRobin(++counter);
    } else if (dice < 0.65) {
      link_up = !link_up;
      rig.to_backup_.SetConnected(link_up);
    } else if (dice < 0.72) {
      (void)rig.engine_.SuspendGroup(group);
    } else if (dice < 0.85 && link_up) {
      (void)rig.engine_.ResyncGroup(group);
    }
    rig.env_.RunFor(static_cast<SimDuration>(
        rng.Uniform(Microseconds(500)) + 1));
  }
  // Final repair: link up, resync, drain.
  rig.to_backup_.SetConnected(true);
  rig.to_main_.SetConnected(true);
  rig.env_.RunFor(Milliseconds(50));
  (void)rig.engine_.ResyncGroup(group);
  rig.env_.RunFor(Milliseconds(200));
  ASSERT_TRUE(rig.AllConverged()) << "seed " << GetParam();

  // And the pipe still works.
  rig.WriteRoundRobin(++counter);
  rig.env_.RunFor(Milliseconds(100));
  EXPECT_TRUE(rig.AllConverged()) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// P2: without the shared journal, the prefix property is violated for at
// least one seed/instant — the collapse mechanism is real.
TEST(PerVolumePropertyTest, PrefixViolationsObservable) {
  int violations = 0;
  for (uint64_t seed : {1, 2, 3, 5, 8, 13, 21, 34}) {
    PropertyRig rig(seed);
    rig.CreatePairs(4, /*shared_group=*/false);
    Rng rng(seed);
    uint64_t counter = 0;
    for (int step = 0; step < 200 && violations == 0; ++step) {
      if (rng.Bernoulli(0.6)) rig.WriteRoundRobin(++counter);
      rig.env_.RunFor(static_cast<SimDuration>(
          rng.Uniform(Microseconds(800)) + 1));
      if (!rig.BackupIsPrefixConsistent()) ++violations;
    }
    if (violations > 0) break;
  }
  EXPECT_GT(violations, 0)
      << "per-volume ADC never violated the prefix property; the "
         "consistency-group comparison would be vacuous";
}

// Failure injection: the backup array dies while the initial copy is on
// the wire; the image lands nothing, its deadline suspends the group
// instead of pairing, and a later resync completes the copy.
TEST(FailureInjectionTest, BackupDiesDuringInitialCopy) {
  PropertyRig rig(42, /*jitter=*/0);
  auto p = rig.main_.CreateVolume("p", 256);
  auto s = rig.backup_.CreateVolume("s", 256);
  ASSERT_TRUE(p.ok() && s.ok());
  // Populate so there is a real base image to ship.
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(rig.main_.WriteSync(*p, i, CounterBlock(1)).ok());
  }
  auto group = rig.engine_.CreateConsistencyGroup({.name = "g"});
  ASSERT_TRUE(group.ok());
  PairConfig pc;
  pc.primary = *p;
  pc.secondary = *s;
  pc.mode = ReplicationMode::kAsynchronous;
  pc.group = *group;
  auto pair = rig.engine_.CreatePair(pc);
  ASSERT_TRUE(pair.ok());
  ASSERT_EQ(rig.engine_.GetPair(*pair)->state(), PairState::kCopy);

  // The backup array fails before the base image lands (at 2 ms); the
  // copy's deadline (arrival + the 50 ms ack timeout) suspends the group.
  rig.backup_.SetFailed(true);
  rig.env_.RunFor(Milliseconds(60));
  EXPECT_EQ(rig.engine_.GetPair(*pair)->state(), PairState::kSuspended);
  auto stats = rig.engine_.GetGroupStats(*group);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->suspended);
  EXPECT_EQ(stats->suspend_reason, SuspendReason::kResyncTimeout);

  // Repair and resync: since the suspension happened before any sync,
  // the engine must re-ship everything.
  rig.backup_.SetFailed(false);
  // Mark everything dirty via suspend bookkeeping + group resync.
  ASSERT_TRUE(rig.engine_.SuspendGroup(*group).ok());
  // Touch all blocks so the dirty set covers the volume.
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(rig.main_.WriteSync(*p, i, CounterBlock(2)).ok());
  }
  ASSERT_TRUE(rig.engine_.ResyncGroup(*group).ok());
  rig.env_.RunFor(Milliseconds(100));
  EXPECT_EQ(rig.engine_.GetPair(*pair)->state(), PairState::kPaired);
  EXPECT_TRUE(rig.main_.GetVolume(*p)->ContentEquals(
      *rig.backup_.GetVolume(*s)));
}

// Failure injection: overflow happens again during the post-resync catch
// up; the group just suspends again and a second resync completes.
TEST(FailureInjectionTest, RepeatedOverflowResyncCycles) {
  PropertyRig rig(7, /*jitter=*/0);
  rig.CreatePairs(1, /*shared_group=*/true, /*journal=*/20000);
  const GroupId group = rig.groups_[0];
  Rng rng(7);
  for (int cycle = 0; cycle < 4; ++cycle) {
    rig.to_backup_.SetConnected(false);
    // Enough writes to overflow the 20 KB journal several times over.
    for (int i = 0; i < 32; ++i) {
      ASSERT_TRUE(rig.main_
                      .WriteSync(rig.pvols_[0],
                                 rng.Uniform(256),
                                 CounterBlock(static_cast<uint64_t>(
                                     cycle * 100 + i)))
                      .ok());
    }
    auto stats = rig.engine_.GetGroupStats(group);
    ASSERT_TRUE(stats.ok());
    EXPECT_GT(stats->journal_overflows, 0u) << "cycle " << cycle;
    rig.to_backup_.SetConnected(true);
    ASSERT_TRUE(rig.engine_.ResyncGroup(group).ok());
    rig.env_.RunFor(Milliseconds(100));
    ASSERT_TRUE(rig.AllConverged()) << "cycle " << cycle;
  }
}

// Failure injection: a mid-stream partition without overflow; when the
// link returns, the journal drains by itself (no resync needed).
TEST(FailureInjectionTest, ShortPartitionDrainsWithoutResync) {
  PropertyRig rig(9, /*jitter=*/0);
  rig.CreatePairs(2, /*shared_group=*/true);
  const GroupId group = rig.groups_[0];
  rig.to_backup_.SetConnected(false);
  for (uint64_t c = 1; c <= 20; ++c) rig.WriteRoundRobin(c);
  rig.env_.RunFor(Milliseconds(30));
  EXPECT_FALSE(rig.AllConverged());
  auto stats = rig.engine_.GetGroupStats(group);
  EXPECT_EQ(stats->journal_overflows, 0u);

  rig.to_backup_.SetConnected(true);
  rig.env_.RunFor(Milliseconds(100));
  EXPECT_TRUE(rig.AllConverged());
  EXPECT_EQ(rig.engine_.GetPair(rig.pairs_[0])->state(),
            PairState::kPaired);
}

}  // namespace
}  // namespace zerobak::replication

#include "workload/latency_driver.h"

#include <gtest/gtest.h>

#include "replication/replication.h"

namespace zerobak::workload {
namespace {

storage::ArrayConfig MediaModel(SimDuration write_latency) {
  storage::ArrayConfig cfg;
  cfg.media = block::DeviceLatencyModel{Microseconds(100), write_latency,
                                        0, 0, 1};
  return cfg;
}

TEST(ClosedLoopDriverTest, MeasuresPerTxnLatency) {
  sim::SimEnvironment env;
  storage::StorageArray array(&env, MediaModel(Microseconds(200)));
  auto a = array.CreateVolume("a", 64);
  auto b = array.CreateVolume("b", 64);
  ASSERT_TRUE(a.ok() && b.ok());

  DriverConfig cfg;
  cfg.steps = {TxnIoStep{*a, 1}, TxnIoStep{*b, 1}};  // Two dependent IOs.
  cfg.clients = 1;
  ClosedLoopDriver driver(&env, &array, cfg);
  driver.Start();
  env.RunFor(Milliseconds(10));
  driver.Stop();
  env.RunUntilIdle();

  // Each transaction = 2 writes x 200 us = 400 us exactly.
  EXPECT_GT(driver.completed_txns(), 0u);
  EXPECT_EQ(driver.txn_latency().min(),
            static_cast<uint64_t>(Microseconds(400)));
  EXPECT_EQ(driver.txn_latency().max(),
            static_cast<uint64_t>(Microseconds(400)));
  EXPECT_EQ(driver.completed_txns(), driver.txn_latency().count());
  EXPECT_EQ(driver.failed_txns(), 0u);
}

TEST(ClosedLoopDriverTest, ClosedLoopThroughputMatchesLatency) {
  sim::SimEnvironment env;
  storage::StorageArray array(&env, MediaModel(Microseconds(100)));
  auto a = array.CreateVolume("a", 64);
  ASSERT_TRUE(a.ok());
  DriverConfig cfg;
  cfg.steps = {TxnIoStep{*a, 1}};
  cfg.clients = 4;
  ClosedLoopDriver driver(&env, &array, cfg);
  driver.Start();
  env.RunFor(Seconds(1));
  driver.Stop();
  // 4 clients x (1 / 100us) = 40k txn/s.
  EXPECT_NEAR(driver.TxnPerSecond(), 40000.0, 400.0);
}

TEST(ClosedLoopDriverTest, ThinkTimeSlowsClients) {
  sim::SimEnvironment env;
  storage::StorageArray array(&env, MediaModel(Microseconds(100)));
  auto a = array.CreateVolume("a", 64);
  ASSERT_TRUE(a.ok());
  DriverConfig cfg;
  cfg.steps = {TxnIoStep{*a, 1}};
  cfg.clients = 1;
  cfg.think_time = Microseconds(900);
  ClosedLoopDriver driver(&env, &array, cfg);
  driver.Start();
  env.RunFor(Milliseconds(100));
  driver.Stop();
  // Cycle = 100 us IO + 900 us think = 1 ms -> ~100 txns in 100 ms.
  EXPECT_NEAR(static_cast<double>(driver.completed_txns()), 100.0, 2.0);
}

TEST(ClosedLoopDriverTest, SlowdownVisibleUnderSyncReplication) {
  // The E1 experiment in miniature: the same driver measures a higher
  // transaction latency once SDC hangs a network round trip on every
  // write ack.
  sim::SimEnvironment env;
  storage::StorageArray main(&env, MediaModel(Microseconds(200)));
  storage::StorageArray backup(&env, MediaModel(Microseconds(200)));
  sim::NetworkLinkConfig link_cfg;
  link_cfg.base_latency = Milliseconds(5);
  link_cfg.jitter = 0;
  link_cfg.bandwidth_bytes_per_sec = 0;
  sim::NetworkLink fwd(&env, link_cfg, "f");
  sim::NetworkLink rev(&env, link_cfg, "r");
  replication::ReplicationEngine engine(&env, &main, &backup, &fwd, &rev);

  auto p = main.CreateVolume("p", 64);
  auto s = backup.CreateVolume("s", 64);
  ASSERT_TRUE(p.ok() && s.ok());

  DriverConfig cfg;
  cfg.steps = {TxnIoStep{*p, 1}};
  cfg.clients = 1;

  // Baseline: no replication.
  {
    ClosedLoopDriver driver(&env, &main, cfg);
    driver.Start();
    env.RunFor(Milliseconds(50));
    driver.Stop();
    env.RunUntilIdle();
    EXPECT_EQ(driver.txn_latency().max(),
              static_cast<uint64_t>(Microseconds(200)));
  }

  // With SDC: every ack pays 2 x 5 ms + the remote media write.
  auto g = engine.CreateConsistencyGroup({.name = "sync-cg"});
  ASSERT_TRUE(g.ok());
  replication::PairConfig pc;
  pc.primary = *p;
  pc.secondary = *s;
  pc.mode = replication::ReplicationMode::kSynchronous;
  pc.group = *g;
  ASSERT_TRUE(engine.CreatePair(pc).ok());
  env.RunFor(Milliseconds(20));
  {
    ClosedLoopDriver driver(&env, &main, cfg);
    driver.Start();
    env.RunFor(Milliseconds(200));
    driver.Stop();
    env.RunFor(Milliseconds(50));  // Drains the last round trip.
    EXPECT_GE(driver.txn_latency().min(),
              static_cast<uint64_t>(Milliseconds(10)));
  }
}

}  // namespace
}  // namespace zerobak::workload

// Front-end admission (queue-depth) tests: concurrency beyond the
// configured credits queues, latency reflects the wait, and — the E1
// corollary — a held slot during SDC's remote round trip throttles the
// whole array.
#include <gtest/gtest.h>

#include "replication/replication.h"
#include "storage/array.h"
#include "workload/latency_driver.h"

namespace zerobak::storage {
namespace {

std::string BlockOf(char c) {
  return std::string(block::kDefaultBlockSize, c);
}

ArrayConfig Limited(uint32_t qd, SimDuration write_latency) {
  ArrayConfig cfg;
  cfg.media = block::DeviceLatencyModel{Microseconds(50), write_latency,
                                        0, 0, 1};
  cfg.max_concurrent_ios = qd;
  return cfg;
}

TEST(QueueDepthTest, ExcessIosQueueAndCompleteInOrder) {
  sim::SimEnvironment env;
  StorageArray array(&env, Limited(1, Microseconds(100)));
  auto vol = array.CreateVolume("v", 64);
  ASSERT_TRUE(vol.ok());
  std::vector<SimTime> completions;
  for (int i = 0; i < 4; ++i) {
    array.SubmitHostWrite(*vol, static_cast<block::Lba>(i), BlockOf('q'),
                          [&](block::IoResult r) {
                            ASSERT_TRUE(r.status.ok());
                            completions.push_back(env.now());
                          });
  }
  EXPECT_EQ(array.queued_ios(), 3u);  // One admitted, three waiting.
  env.RunUntilIdle();
  ASSERT_EQ(completions.size(), 4u);
  // Serialized: completions at 100, 200, 300, 400 us.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(completions[i], Microseconds(100) * (i + 1));
  }
  EXPECT_EQ(array.peak_queued_ios(), 3u);
  EXPECT_EQ(array.queued_ios(), 0u);
}

TEST(QueueDepthTest, UnlimitedByDefault) {
  sim::SimEnvironment env;
  StorageArray array(&env, Limited(0, Microseconds(100)));
  auto vol = array.CreateVolume("v", 64);
  ASSERT_TRUE(vol.ok());
  int done = 0;
  for (int i = 0; i < 8; ++i) {
    array.SubmitHostWrite(*vol, static_cast<block::Lba>(i), BlockOf('u'),
                          [&](block::IoResult) { ++done; });
  }
  EXPECT_EQ(array.queued_ios(), 0u);
  env.RunFor(Microseconds(100));
  EXPECT_EQ(done, 8);  // All in parallel.
}

TEST(QueueDepthTest, ReadsAndWritesShareTheCredits) {
  sim::SimEnvironment env;
  StorageArray array(&env, Limited(1, Microseconds(100)));
  auto vol = array.CreateVolume("v", 64);
  ASSERT_TRUE(vol.ok());
  std::vector<char> order;
  array.SubmitHostWrite(*vol, 0, BlockOf('w'),
                        [&](block::IoResult) { order.push_back('w'); });
  array.SubmitHostRead(*vol, 0, 1,
                       [&](block::IoResult) { order.push_back('r'); });
  EXPECT_EQ(array.queued_ios(), 1u);
  env.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<char>{'w', 'r'}));
}

TEST(QueueDepthTest, ClosedLoopThroughputCapsAtCredits) {
  sim::SimEnvironment env;
  StorageArray array(&env, Limited(2, Microseconds(100)));
  auto vol = array.CreateVolume("v", 1024);
  ASSERT_TRUE(vol.ok());
  workload::DriverConfig cfg;
  cfg.steps = {workload::TxnIoStep{*vol, 1}};
  cfg.clients = 8;  // 4x oversubscribed.
  workload::ClosedLoopDriver driver(&env, &array, cfg);
  driver.Start();
  env.RunFor(Seconds(1));
  driver.Stop();
  // 2 credits x 10k IO/s = 20k txn/s, regardless of the 8 clients.
  EXPECT_NEAR(driver.TxnPerSecond(), 20000.0, 500.0);
  // Each client sees ~4x the media latency (queueing delay).
  EXPECT_NEAR(driver.txn_latency().Mean(),
              static_cast<double>(Microseconds(400)),
              static_cast<double>(Microseconds(20)));
}

TEST(QueueDepthTest, SdcHoldsSlotsAcrossTheRoundTrip) {
  // With 2 front-end credits and a 5 ms one-way link, SDC caps the array
  // at 2 IOs per 10 ms — the amplification the paper's "system slowdown"
  // warns about.
  sim::SimEnvironment env;
  StorageArray main(&env, Limited(2, Microseconds(100)));
  StorageArray backup(&env, Limited(0, Microseconds(100)));
  sim::NetworkLinkConfig link_cfg;
  link_cfg.base_latency = Milliseconds(5);
  link_cfg.jitter = 0;
  link_cfg.bandwidth_bytes_per_sec = 0;
  sim::NetworkLink fwd(&env, link_cfg, "f");
  sim::NetworkLink rev(&env, link_cfg, "r");
  replication::ReplicationEngine engine(&env, &main, &backup, &fwd, &rev);
  auto p = main.CreateVolume("p", 1024);
  auto s = backup.CreateVolume("s", 1024);
  ASSERT_TRUE(p.ok() && s.ok());
  auto g = engine.CreateConsistencyGroup({.name = "sync-cg"});
  ASSERT_TRUE(g.ok());
  replication::PairConfig pc;
  pc.primary = *p;
  pc.secondary = *s;
  pc.mode = replication::ReplicationMode::kSynchronous;
  pc.group = *g;
  ASSERT_TRUE(engine.CreatePair(pc).ok());
  env.RunFor(Milliseconds(20));

  workload::DriverConfig cfg;
  cfg.steps = {workload::TxnIoStep{*p, 1}};
  cfg.clients = 8;
  workload::ClosedLoopDriver driver(&env, &main, cfg);
  driver.Start();
  env.RunFor(Seconds(1));
  driver.Stop();
  // ~2 slots / ~10.2 ms ack time ≈ 196 txn/s.
  EXPECT_LT(driver.TxnPerSecond(), 250.0);
  EXPECT_GT(driver.TxnPerSecond(), 150.0);
}

}  // namespace
}  // namespace zerobak::storage

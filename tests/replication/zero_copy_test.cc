// Verifies the zero-copy property of the ADC data path: a replicated host
// write allocates no payload buffer of its own (its record borrows the
// P-VOL slab until it ships), each shipped batch allocates one encoded
// body on the main site and one decoded body on the backup site, and an
// overwrite before the ship costs one buffer for the record it copies.
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

// What one ADC run allocated and shipped (ZeroCopyTest::Run).
struct AdcRun {
  uint64_t allocations = 0;
  uint64_t batches = 0;
  GroupStats stats;
};

class ZeroCopyTest : public ::testing::Test {
 protected:
  ZeroCopyTest()
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

  // Writes `writes` blocks through one async pair: write i goes to block
  // i % `blocks`, in bursts of `burst` writes with 1 ms of simulated time
  // between bursts, then drives ship, apply and trim-ack to completion.
  AdcRun Run(int writes, uint64_t blocks, int burst) {
    auto p = main_.CreateVolume("v", 64);
    auto s = backup_.CreateVolume("r-v", 64);
    EXPECT_TRUE(p.ok() && s.ok());
    ConsistencyGroupConfig gcfg;
    gcfg.name = "cg";
    auto g = engine_.CreateConsistencyGroup(gcfg);
    EXPECT_TRUE(g.ok());
    PairConfig pcfg;
    pcfg.name = "pair";
    pcfg.primary = *p;
    pcfg.secondary = *s;
    pcfg.mode = ReplicationMode::kAsynchronous;
    pcfg.group = *g;
    EXPECT_TRUE(engine_.CreatePair(pcfg).ok());
    env_.RunFor(Milliseconds(20));  // Initial copy (empty) settles.

    AdcRun run;
    const uint64_t before = journal::PayloadBuffer::TotalAllocations();
    const uint64_t batches_before = to_backup_.messages_sent();
    for (int i = 0; i < writes; ++i) {
      EXPECT_TRUE(
          main_.WriteSync(*p, i % blocks, BlockOf('a' + (i % 26))).ok());
      if (i % burst == burst - 1) env_.RunFor(Milliseconds(1));
    }
    env_.RunFor(Milliseconds(100));
    run.allocations = journal::PayloadBuffer::TotalAllocations() - before;
    run.batches = to_backup_.messages_sent() - batches_before;
    run.stats = *engine_.GetGroupStats(*g);
    // And the data really landed.
    EXPECT_TRUE(main_.GetVolume(*p)->ContentEquals(*backup_.GetVolume(*s)));
    EXPECT_EQ(run.stats.applied, static_cast<uint64_t>(writes));
    return run;
  }

  sim::SimEnvironment env_;
  storage::StorageArray main_;
  storage::StorageArray backup_;
  sim::NetworkLink to_backup_;
  sim::NetworkLink to_main_;
  ReplicationEngine engine_;
};

TEST_F(ZeroCopyTest, AdcPathAllocatesPayloadExactlyOncePerWrite) {
  // Distinct blocks: no record is overwritten before it ships.
  constexpr int kWrites = 32;
  const AdcRun run = Run(kWrites, /*blocks=*/64, /*burst=*/kWrites);
  // Send side: every write's record borrows the P-VOL slab, and a shipped
  // batch allocates its one encoded body, which its records then view.
  // Receive side: decoding a wire frame wraps the whole batch in ONE
  // backing buffer that the secondary journal and the S-VOL apply share.
  // So two allocations per batch, none per write.
  ASSERT_GE(run.batches, 1u);
  EXPECT_EQ(run.stats.captures_borrowed, static_cast<uint64_t>(kWrites));
  EXPECT_EQ(run.stats.captures_materialized, 0u);
  EXPECT_EQ(run.allocations, 2 * run.batches);
}

TEST_F(ZeroCopyTest, OverwritesBeforeShipAllocateOncePerMaterialization) {
  // 8 hot blocks rewritten in bursts of 6 between pumps: some records are
  // overwritten before they ship and are copied once each.
  constexpr int kWrites = 96;
  const AdcRun run = Run(kWrites, /*blocks=*/8, /*burst=*/6);
  ASSERT_GE(run.batches, 2u);
  EXPECT_EQ(run.stats.captures_borrowed, static_cast<uint64_t>(kWrites));
  EXPECT_GT(run.stats.captures_materialized, 0u);
  EXPECT_EQ(run.allocations,
            2 * run.batches + run.stats.captures_materialized);
}

TEST_F(ZeroCopyTest, ShippedBatchSurvivesPrimaryJournalReset) {
  auto p = main_.CreateVolume("v", 64);
  auto s = backup_.CreateVolume("r-v", 64);
  ASSERT_TRUE(p.ok() && s.ok());
  ConsistencyGroupConfig gcfg;
  gcfg.name = "cg";
  // Long transfer interval so the batch is shipped in one pump.
  gcfg.transfer_interval = Milliseconds(2);
  auto g = engine_.CreateConsistencyGroup(gcfg);
  ASSERT_TRUE(g.ok());
  PairConfig pcfg;
  pcfg.name = "pair";
  pcfg.primary = *p;
  pcfg.secondary = *s;
  pcfg.mode = ReplicationMode::kAsynchronous;
  pcfg.group = *g;
  ASSERT_TRUE(engine_.CreatePair(pcfg).ok());
  env_.RunFor(Milliseconds(20));

  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(main_.WriteSync(*p, i, BlockOf('a' + i)).ok());
  }
  // Let the pump ship the batch onto the (5 ms) link, then destroy the
  // primary journal contents while the batch is still in flight. The
  // shared payload buffers must keep the shipped bytes alive.
  env_.RunFor(Milliseconds(3));
  engine_.primary_journal(*g)->Reset();
  env_.RunFor(Milliseconds(100));

  EXPECT_TRUE(
      main_.GetVolume(*p)->ContentEquals(*backup_.GetVolume(*s)));
}

}  // namespace
}  // namespace zerobak::replication

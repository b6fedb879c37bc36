// Bit-determinism of the parallel compute layer: the number of compute
// lanes (EngineOptions::compute_threads) is a pure throughput knob. A
// seeded run must produce identical simulated histories — metrics, trace
// rings, secondary volume contents — at 1, 2 and 8 lanes, because all
// parallelism lives inside individual sim events behind a join barrier
// and results are merged in canonical order.
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "bench/bench_util.h"
#include "common/crc32c.h"
#include "common/rng.h"
#include "core/demo_system.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "replication/replication.h"
#include "sim/environment.h"
#include "sim/network.h"
#include "storage/array.h"

namespace zerobak::core {
namespace {

// CRC of a volume's full content, block by block (holes read as zeros).
uint32_t VolumeCrc(const storage::Volume& vol) {
  uint32_t crc = 0;
  const block::MemVolume& store = vol.store();
  for (uint64_t lba = 0; lba < store.block_count(); ++lba) {
    const std::string_view block = store.ReadBlockView(lba);
    crc = Crc32cExtend(crc, block.data(), block.size());
  }
  return crc;
}

std::vector<std::pair<uint64_t, uint32_t>> ArrayCrcs(
    const storage::StorageArray& array) {
  std::vector<std::pair<uint64_t, uint32_t>> out;
  for (storage::VolumeId id : array.ListVolumes()) {
    out.emplace_back(id, VolumeCrc(*array.GetVolume(id)));
  }
  return out;
}

// Metric samples as comparable tuples. Samples whose name starts with
// "exec." are host-side pool telemetry (task/steal counts depend on OS
// scheduling) and are the ONE sanctioned lane-count-dependent surface;
// everything else must match exactly.
std::vector<std::tuple<std::string, double, uint64_t, double, double,
                       uint64_t>>
SimMetrics(obs::MetricRegistry* metrics) {
  std::vector<std::tuple<std::string, double, uint64_t, double, double,
                         uint64_t>>
      out;
  for (const obs::MetricSample& s : metrics->Snapshot()) {
    if (s.name.rfind("exec.", 0) == 0) continue;
    out.emplace_back(s.name, s.value, s.count, s.p50, s.p99, s.max);
  }
  return out;
}

std::vector<std::tuple<SimTime, int, uint64_t, uint64_t, uint64_t>>
TraceEvents(obs::TraceRing* trace) {
  std::vector<std::tuple<SimTime, int, uint64_t, uint64_t, uint64_t>> out;
  for (const obs::TraceRecord& r : trace->Events()) {
    out.emplace_back(r.time, static_cast<int>(r.event), r.subject, r.arg0,
                     r.arg1);
  }
  return out;
}

// ---------------------------------------------------------------------
// Full-system scenario: the demo stack end to end (DB workload, operator,
// failover drill), fingerprinted down to metrics, traces and volumes.
// ---------------------------------------------------------------------

struct SystemFingerprint {
  uint64_t orders = 0;
  uint64_t events = 0;
  SimTime end_time = 0;
  uint64_t link_bytes = 0;
  std::vector<std::tuple<std::string, double, uint64_t, double, double,
                         uint64_t>>
      metrics;
  std::vector<std::tuple<SimTime, int, uint64_t, uint64_t, uint64_t>> trace;
  std::vector<std::pair<uint64_t, uint32_t>> backup_crcs;

  bool operator==(const SystemFingerprint& o) const {
    return orders == o.orders && events == o.events &&
           end_time == o.end_time && link_bytes == o.link_bytes &&
           metrics == o.metrics && trace == o.trace &&
           backup_crcs == o.backup_crcs;
  }
};

SystemFingerprint RunSystemOnce(uint64_t seed, unsigned compute_threads) {
  sim::SimEnvironment env;
  DemoSystemConfig config = bench::FunctionalConfig();
  config.link.base_latency = Milliseconds(2);
  config.link.jitter = Milliseconds(5);
  config.link.seed = seed;
  config.engine.compute_threads = compute_threads;
  DemoSystem system(&env, config);
  bench::BusinessProcess bp =
      bench::DeployBusinessProcess(&system, "shop", seed);
  ZB_CHECK(system.TagNamespaceForBackup("shop").ok());
  ZB_CHECK(system.WaitForBackupConfigured("shop").ok());
  Rng rng(seed);
  for (int i = 0; i < 60; ++i) {
    ZB_CHECK(bp.app->PlaceOrder().ok());
    env.RunFor(static_cast<SimDuration>(rng.Uniform(Microseconds(300))));
  }
  system.FailMainSite();
  ZB_CHECK(system.Failover("shop").ok());
  bench::RecoveryOutcome outcome = bench::RecoverOnBackup(&system, "shop");

  SystemFingerprint fp;
  fp.orders = outcome.orders;
  fp.events = env.executed_events();
  fp.end_time = env.now();
  fp.link_bytes = system.link_to_backup()->bytes_sent();
  fp.metrics = SimMetrics(system.metrics());
  fp.trace = TraceEvents(system.trace());
  fp.backup_crcs = ArrayCrcs(*system.backup_site()->array());
  return fp;
}

class ParallelSystemDeterminismTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParallelSystemDeterminismTest, LaneCountInvisibleInHistory) {
  const uint64_t seed = GetParam();
  const SystemFingerprint one = RunSystemOnce(seed, 1);
  for (unsigned threads : {2u, 8u}) {
    const SystemFingerprint many = RunSystemOnce(seed, threads);
    EXPECT_TRUE(one == many)
        << "seed " << seed << " threads " << threads << ": events "
        << one.events << " vs " << many.events << ", link bytes "
        << one.link_bytes << " vs " << many.link_bytes << ", trace "
        << one.trace.size() << " vs " << many.trace.size();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelSystemDeterminismTest,
                         ::testing::Values(1u, 7u, 42u));

// ---------------------------------------------------------------------
// Engine-level scenario sized to actually ENGAGE the parallel paths:
// multi-block extents large enough for chunked wire frames and
// multi-run batch applies, a partition to force an extent resync through
// the parallel bulk-frame capture, and a failover/failback whose giveback
// frame is built the same way from the backup volumes.
// ---------------------------------------------------------------------

struct EngineFingerprint {
  uint64_t written = 0;
  uint64_t applied = 0;
  uint64_t resync_extents = 0;
  uint64_t giveback_blocks = 0;
  uint64_t events = 0;
  SimTime end_time = 0;
  uint64_t link_bytes = 0;
  uint64_t reverse_link_bytes = 0;
  std::vector<std::pair<uint64_t, uint32_t>> backup_crcs;
  std::vector<std::pair<uint64_t, uint32_t>> main_crcs;
  bool converged = false;

  bool operator==(const EngineFingerprint&) const = default;
};

EngineFingerprint RunEngineOnce(uint64_t seed, unsigned compute_threads) {
  sim::SimEnvironment env;
  storage::ArrayConfig acfg;
  acfg.serial = "MAIN";
  acfg.media = block::DeviceLatencyModel{0, 0, 0, 0, 1};
  storage::StorageArray main(&env, acfg);
  acfg.serial = "BKUP";
  storage::StorageArray backup(&env, acfg);
  sim::NetworkLinkConfig lcfg;
  lcfg.base_latency = Milliseconds(3);
  lcfg.jitter = Milliseconds(1);
  lcfg.bandwidth_bytes_per_sec = 400u << 20;
  lcfg.seed = seed;
  sim::NetworkLink fwd(&env, lcfg, "fwd");
  lcfg.seed = seed + 1;
  sim::NetworkLink rev(&env, lcfg, "rev");
  replication::EngineOptions opts;
  opts.compute_threads = compute_threads;
  replication::ReplicationEngine engine(&env, &main, &backup, &fwd, &rev,
                                        opts);

  constexpr uint64_t kBlocks = 2048;
  std::vector<std::pair<storage::VolumeId, storage::VolumeId>> vols;
  replication::ConsistencyGroupConfig gcfg;
  gcfg.name = "cg";
  gcfg.journal_capacity_bytes = 64ull << 20;
  auto g = engine.CreateConsistencyGroup(gcfg);
  ZB_CHECK(g.ok());
  for (int v = 0; v < 3; ++v) {
    auto p = main.CreateVolume("p" + std::to_string(v), kBlocks);
    auto s = backup.CreateVolume("s" + std::to_string(v), kBlocks);
    ZB_CHECK(p.ok() && s.ok());
    replication::PairConfig pcfg;
    pcfg.name = "pair" + std::to_string(v);
    pcfg.primary = *p;
    pcfg.secondary = *s;
    pcfg.mode = replication::ReplicationMode::kAsynchronous;
    pcfg.group = *g;
    ZB_CHECK(engine.CreatePair(pcfg).ok());
    vols.emplace_back(*p, *s);
  }

  // Multi-block extents, mixed compressible/incompressible, fat enough
  // that shipped batches exceed wire::kChunkBytes (chunked frames) and
  // carry many runs (parallel apply). `on_backup` sends the writes to the
  // S-VOLs (the business after a failover) instead of the P-VOLs.
  Rng rng(seed * 2654435761u + 17);
  const uint32_t block = main.GetVolume(vols[0].first)->block_size();
  auto write_burst = [&](int extents, bool on_backup = false) {
    for (int e = 0; e < extents; ++e) {
      const auto& [p, s] = vols[rng.Uniform(3)];
      const uint32_t count = 4 + rng.Uniform(13);  // 4..16 blocks.
      const uint64_t lba = rng.Uniform(kBlocks - count);
      std::string data(static_cast<size_t>(count) * block, '\0');
      if (e % 3 == 0) {
        for (char& c : data) c = static_cast<char>(rng.Uniform(256));
      } else {
        data.assign(data.size(), static_cast<char>('A' + e % 23));
      }
      ZB_CHECK((on_backup ? backup.WriteSync(s, lba, data)
                          : main.WriteSync(p, lba, data))
                   .ok());
    }
  };
  for (int round = 0; round < 12; ++round) {
    write_burst(24);
    env.RunFor(Milliseconds(1 + rng.Uniform(9)));
  }
  // Flap the link with fat batches in flight: the lost batches trip the
  // ack deadline, which suspends the group and dirty-marks the gap;
  // writes during the suspension widen the delta, and auto-resync then
  // ships extent records through the parallel capture/verify path.
  write_burst(48);
  env.RunFor(Milliseconds(2));  // Shipped, unacked, in flight.
  fwd.SetConnected(false);
  env.RunFor(Milliseconds(2));
  fwd.SetConnected(true);
  write_burst(64);
  env.RunFor(Seconds(3));  // Ack timeout + backoff + resync + drain.

  EngineFingerprint fp;
  auto stats = engine.GetGroupStats(*g);
  ZB_CHECK(stats.ok());
  fp.written = stats->written;
  fp.applied = stats->applied;
  fp.resync_extents = stats->resync_extents;

  // Disaster drill: the business moves to the backup site and writes
  // there; the failback giveback ships that delta home as one frame.
  main.SetFailed(true);
  ZB_CHECK(engine.FailoverGroup(*g).ok());
  write_burst(64, /*on_backup=*/true);
  main.SetFailed(false);
  auto back = engine.FailbackGroup(*g);
  ZB_CHECK(back.ok());
  fp.giveback_blocks = back->blocks_shipped;
  env.RunFor(Seconds(1));

  fp.events = env.executed_events();
  fp.end_time = env.now();
  fp.link_bytes = fwd.bytes_sent();
  fp.reverse_link_bytes = rev.bytes_sent();
  fp.backup_crcs = ArrayCrcs(backup);
  fp.main_crcs = ArrayCrcs(main);
  fp.converged = true;
  for (const auto& [p, s] : vols) {
    fp.converged = fp.converged &&
                   main.GetVolume(p)->ContentEquals(*backup.GetVolume(s));
  }
  return fp;
}

class ParallelEngineDeterminismTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParallelEngineDeterminismTest, HeavyPipelineIsLaneCountInvariant) {
  const uint64_t seed = GetParam();
  const EngineFingerprint one = RunEngineOnce(seed, 1);
  EXPECT_TRUE(one.converged) << "seed " << seed << " did not converge";
  EXPECT_GT(one.resync_extents, 0u)
      << "scenario no longer exercises the resync path";
  EXPECT_GT(one.giveback_blocks, 0u)
      << "scenario no longer exercises the giveback path";
  for (unsigned threads : {2u, 8u}) {
    const EngineFingerprint many = RunEngineOnce(seed, threads);
    EXPECT_TRUE(one == many)
        << "seed " << seed << " threads " << threads << ": events "
        << one.events << " vs " << many.events << ", applied "
        << one.applied << " vs " << many.applied << ", link bytes "
        << one.link_bytes << " vs " << many.link_bytes;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelEngineDeterminismTest,
                         ::testing::Values(3u, 11u));

}  // namespace
}  // namespace zerobak::core

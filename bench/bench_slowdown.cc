// E1 — "Eliminate system slowdown" (Fig. 1 / Section I claim).
//
// Regenerates the slowdown comparison: business-transaction latency and
// throughput with (a) no remote copy, (b) synchronous data copy, and
// (c) asynchronous data copy with a consistency group, swept over the
// inter-site one-way delay. Expected shape: SDC latency grows linearly
// with the round trip; ADC stays at the no-backup baseline (<5%).
//
// E1c measures the same claim in host time: the foreground nanoseconds
// of one 4 KiB StorageArray::WriteSync with no replication and with one
// ADC pair, everything else (ship, apply, ack) excluded.
#include <chrono>
#include <memory>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "exec/thread_pool.h"
#include "replication/replication.h"
#include "sim/network.h"
#include "workload/latency_driver.h"

namespace zerobak::bench {
namespace {

struct CellResult {
  double mean_ms = 0;
  double p99_ms = 0;
  double tps = 0;
  double apply_lag_ms = 0;  // ADC only.
};

enum class Mode { kNone, kSdc, kAdc };

const char* ModeName(Mode m) {
  switch (m) {
    case Mode::kNone:
      return "no-backup";
    case Mode::kSdc:
      return "SDC";
    case Mode::kAdc:
      return "ADC+CG";
  }
  return "?";
}

CellResult RunCell(Mode mode, SimDuration one_way_delay,
                   uint32_t queue_depth = 0, int clients = 4) {
  sim::SimEnvironment env;
  // Enterprise all-flash front end: ~200 us cache-hit write.
  storage::ArrayConfig media;
  media.media = block::DeviceLatencyModel{Microseconds(150),
                                          Microseconds(200),
                                          Microseconds(5),
                                          Microseconds(20), 1};
  media.max_concurrent_ios = queue_depth;
  storage::ArrayConfig main_cfg = media;
  main_cfg.serial = "MAIN";
  storage::ArrayConfig backup_cfg = media;
  backup_cfg.serial = "BKUP";
  storage::StorageArray main(&env, main_cfg);
  storage::StorageArray backup(&env, backup_cfg);

  sim::NetworkLinkConfig link_cfg;
  link_cfg.base_latency = one_way_delay;
  link_cfg.jitter = one_way_delay / 10;
  link_cfg.bandwidth_bytes_per_sec = 1.25e9;  // 10 Gbit/s.
  sim::NetworkLink fwd(&env, link_cfg, "fwd");
  sim::NetworkLink rev(&env, link_cfg, "rev");
  replication::ReplicationEngine engine(&env, &main, &backup, &fwd, &rev);

  auto stock = main.CreateVolume("stock", 4096);
  auto sales = main.CreateVolume("sales", 4096);
  auto r_stock = backup.CreateVolume("r-stock", 4096);
  auto r_sales = backup.CreateVolume("r-sales", 4096);
  ZB_CHECK(stock.ok() && sales.ok() && r_stock.ok() && r_sales.ok());

  // Both copy modes run one two-pair consistency group; the pairs' mode
  // picks the host-ack policy.
  replication::GroupId group = 0;
  if (mode != Mode::kNone) {
    replication::ConsistencyGroupConfig cg;
    cg.name = "cg";
    auto g = engine.CreateConsistencyGroup(cg);
    ZB_CHECK(g.ok());
    group = *g;
    for (auto [p, s] : {std::pair{*stock, *r_stock}, {*sales, *r_sales}}) {
      replication::PairConfig pc;
      pc.primary = p;
      pc.secondary = s;
      pc.mode = mode == Mode::kSdc
                    ? replication::ReplicationMode::kSynchronous
                    : replication::ReplicationMode::kAsynchronous;
      pc.group = group;
      ZB_CHECK(engine.CreatePair(pc).ok());
    }
  }
  env.RunFor(Milliseconds(50));  // Initial copies settle.

  // The business transaction's IO pattern: a stock-DB WAL write, then a
  // sales-DB WAL write (dependent, in order — Section II).
  workload::DriverConfig driver_cfg;
  driver_cfg.steps = {workload::TxnIoStep{*stock, 1},
                      workload::TxnIoStep{*sales, 1}};
  driver_cfg.clients = clients;
  workload::ClosedLoopDriver driver(&env, &main, driver_cfg);
  driver.Start();
  env.RunFor(Seconds(2));

  CellResult result;
  if (mode == Mode::kAdc) {
    // Sample the replication lag while the workload is still flowing.
    auto stats = engine.GetGroupStats(group);
    if (stats.ok()) {
      result.apply_lag_ms = ToMilliseconds(stats->apply_lag);
    }
  }
  driver.Stop();
  env.RunFor(Milliseconds(200));  // Drain in-flight txns.

  result.mean_ms = driver.txn_latency().Mean() / 1e6;
  result.p99_ms = driver.txn_latency().Percentile(99) / 1e6;
  result.tps = driver.TxnPerSecond();
  return result;
}

// E1c: foreground host ns per 4 KiB WriteSync on zero-latency media, 80%
// of the writes into a 128-block hot set. Every kDrainEvery writes the
// simulation advances by their share of time at 20k writes/s (ship,
// apply and ack run then, untimed), so a ship batch holds about as many
// writes as in e2ebench's hot_overwrite. Returns the mean over `writes`
// writes; with `adc`, also the share of captures materialized.
struct HostArm {
  double fg_ns_per_write = 0;
  double materialized_share = 0;
};

HostArm RunHostArm(bool adc, int writes) {
  constexpr uint64_t kBlocks = 4096;
  constexpr uint64_t kHotBlocks = 128;
  constexpr int kDrainEvery = 50;
  sim::SimEnvironment env;
  storage::ArrayConfig main_cfg;
  main_cfg.serial = "MAIN";
  main_cfg.media = block::DeviceLatencyModel{0, 0, 0, 0, 1};
  storage::ArrayConfig backup_cfg = main_cfg;
  backup_cfg.serial = "BKUP";
  storage::StorageArray main(&env, main_cfg);
  storage::StorageArray backup(&env, backup_cfg);
  sim::NetworkLinkConfig link_cfg;
  link_cfg.base_latency = Milliseconds(1);
  link_cfg.jitter = 0;
  link_cfg.bandwidth_bytes_per_sec = 1.25e9;  // 10 Gbit/s.
  sim::NetworkLink fwd(&env, link_cfg, "fwd");
  sim::NetworkLink rev(&env, link_cfg, "rev");
  replication::ReplicationEngine engine(&env, &main, &backup, &fwd, &rev,
                                        {.compute_threads = 1});
  auto vol = main.CreateVolume("v", kBlocks);
  auto r_vol = backup.CreateVolume("r-v", kBlocks);
  ZB_CHECK(vol.ok() && r_vol.ok());
  replication::GroupId group = 0;
  if (adc) {
    replication::ConsistencyGroupConfig cg;
    cg.name = "cg";
    auto g = engine.CreateConsistencyGroup(cg);
    ZB_CHECK(g.ok());
    group = *g;
    replication::PairConfig pc;
    pc.primary = *vol;
    pc.secondary = *r_vol;
    pc.mode = replication::ReplicationMode::kAsynchronous;
    pc.group = group;
    ZB_CHECK(engine.CreatePair(pc).ok());
  }
  env.RunFor(Milliseconds(10));

  Rng rng(42);
  std::string block(block::kDefaultBlockSize, 'w');
  int64_t fg_ns = 0;
  for (int done = 0; done < writes; done += kDrainEvery) {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kDrainEvery; ++i) {
      const uint64_t lba = rng.Bernoulli(0.8)
                               ? rng.Uniform(kHotBlocks)
                               : kHotBlocks + rng.Uniform(kBlocks - kHotBlocks);
      block[0] = static_cast<char>(done + i);
      ZB_CHECK(main.WriteSync(*vol, lba, block).ok());
    }
    fg_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                 std::chrono::steady_clock::now() - start)
                 .count();
    env.RunFor(Microseconds(50 * kDrainEvery));  // 20k writes/s.
  }
  env.RunFor(Milliseconds(50));
  HostArm arm;
  arm.fg_ns_per_write = static_cast<double>(fg_ns) / writes;
  if (adc) {
    auto stats = engine.GetGroupStats(group);
    ZB_CHECK(stats.ok() && stats->acked == stats->written);
    ZB_CHECK(main.GetVolume(*vol)->ContentEquals(*backup.GetVolume(*r_vol)));
    arm.materialized_share =
        static_cast<double>(stats->captures_materialized) /
        static_cast<double>(std::max<uint64_t>(1, stats->captures_borrowed));
  }
  return arm;
}

void RunHostArms() {
  constexpr int kWrites = 200000;
  constexpr int kRounds = 11;
  PrintTitle(
      "E1c: foreground host ns per 4 KiB WriteSync (zero-latency media, "
      "80% into a 128-block hot set)");
  // Warm-up, then interleaved rounds: a drift in host load lands on both
  // arms alike.
  for (bool adc : {false, true}) RunHostArm(adc, kWrites / 10);
  std::vector<double> ns[2];
  double share = 0;
  TimeInterleaved(2, kRounds, [&](size_t arm) {
    const HostArm r = RunHostArm(arm == 1, kWrites);
    ns[arm].push_back(r.fg_ns_per_write);
    if (arm == 1) share = r.materialized_share;
  });
  const Spread none = Summarize(ns[0]);
  const Spread adc = Summarize(ns[1]);
  PrintLine("hardware_lanes=%u rounds=%d writes/round=%d",
            exec::ThreadPool::HardwareLanes(), kRounds, kWrites);
  PrintLine("%12s %12s %22s", "arm", "median_ns", "IQR_ns");
  PrintRule(50);
  PrintLine("%12s %12.0f %10.0f - %-10.0f", "no-backup", none.median,
            none.q1, none.q3);
  PrintLine("%12s %12.0f %10.0f - %-10.0f", "ADC", adc.median, adc.q1,
            adc.q3);
  PrintRule(50);
  PrintLine("ADC / no-backup = %.2fx (medians); ADC captures materialized "
            "before ship: %.1f%%",
            adc.median / none.median, 100.0 * share);
}

void Run() {
  PrintTitle(
      "E1: transaction latency/throughput vs inter-site delay "
      "(no-backup / SDC / ADC+CG)");
  PrintLine("%10s %10s %10s %10s %10s %12s %12s", "one_way_ms", "mode",
            "mean_ms", "p99_ms", "txn_per_s", "vs_baseline", "adc_lag_ms");
  PrintRule();
  const SimDuration delays[] = {Microseconds(100), Microseconds(500),
                                Milliseconds(1),   Milliseconds(2),
                                Milliseconds(5),   Milliseconds(10),
                                Milliseconds(20),  Milliseconds(50)};
  for (SimDuration delay : delays) {
    CellResult base = RunCell(Mode::kNone, delay);
    for (Mode mode : {Mode::kNone, Mode::kSdc, Mode::kAdc}) {
      CellResult r = mode == Mode::kNone ? base : RunCell(mode, delay);
      PrintLine("%10.1f %10s %10.3f %10.3f %10.0f %11.2fx %12.2f",
                ToMilliseconds(delay), ModeName(mode), r.mean_ms, r.p99_ms,
                r.tps, r.mean_ms / base.mean_ms, r.apply_lag_ms);
    }
    PrintRule();
  }
  PrintLine("Expected shape: SDC mean grows ~linearly with the RTT; ADC "
            "stays within ~5%% of no-backup at every delay.");

  // E1b: the saturation view. With finite front-end credits, SDC's held
  // slots collapse array throughput, not just per-IO latency.
  PrintTitle(
      "E1b: saturated array (16 front-end credits, 64 clients, 5 ms "
      "one-way)");
  PrintLine("%10s %10s %10s %12s", "mode", "mean_ms", "p99_ms",
            "txn_per_s");
  PrintRule();
  for (Mode mode : {Mode::kNone, Mode::kSdc, Mode::kAdc}) {
    CellResult r = RunCell(mode, Milliseconds(5), /*queue_depth=*/16,
                           /*clients=*/64);
    PrintLine("%10s %10.3f %10.3f %12.0f", ModeName(mode), r.mean_ms,
              r.p99_ms, r.tps);
  }
  PrintRule();
  PrintLine("Expected shape: ADC throughput equals no-backup; SDC "
            "collapses by ~RTT/media_latency because every credit is "
            "pinned for the round trip.");

  RunHostArms();
}

}  // namespace
}  // namespace zerobak::bench

int main() {
  zerobak::SetLogLevel(zerobak::LogLevel::kError); zerobak::bench::Run(); }

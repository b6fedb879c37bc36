#ifndef ZEROBAK_BENCH_BENCH_UTIL_H_
#define ZEROBAK_BENCH_BENCH_UTIL_H_

// Shared harness pieces for the experiment benches (E1-E7). Each bench
// binary regenerates one table/figure of the evaluation; see DESIGN.md
// section 4 for the experiment index and EXPERIMENTS.md for the recorded
// results.

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "core/demo_system.h"
#include "db/minidb.h"
#include "storage/array_device.h"
#include "workload/ecommerce.h"
#include "workload/invariants.h"

namespace zerobak::bench {

// ---- Table printing ---------------------------------------------------------

inline void PrintTitle(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void PrintLine(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vprintf(fmt, args);
  va_end(args);
  std::printf("\n");
}

inline void PrintRule(int width = 96) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

// ---- Repeated timing --------------------------------------------------------

// Median and quartiles of repeated samples: how a bench reports a timing,
// and what its gates compare (a median, never a best-of-N).
struct Spread {
  double median = 0;
  double q1 = 0;  // 25th percentile.
  double q3 = 0;  // 75th percentile.
};

// Quantiles of `samples` by linear interpolation between order statistics.
inline Spread Summarize(std::vector<double> samples) {
  ZB_CHECK(!samples.empty()) << "no samples to summarize";
  std::sort(samples.begin(), samples.end());
  auto quantile = [&samples](double q) {
    const double pos = q * static_cast<double>(samples.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, samples.size() - 1);
    return samples[lo] + (pos - static_cast<double>(lo)) *
                             (samples[hi] - samples[lo]);
  };
  return Spread{quantile(0.5), quantile(0.25), quantile(0.75)};
}

// Times `arms` variants of one measurement in `repeats` rounds, each
// running run_arm(0) .. run_arm(arms - 1) in turn, so a drift in host load
// lands on every arm alike. Returns each arm's wall-clock seconds, one
// sample per round. Run every arm once untimed first (a warm-up round,
// which can double as a correctness check).
template <typename Fn>
std::vector<std::vector<double>> TimeInterleaved(size_t arms, int repeats,
                                                 Fn&& run_arm) {
  std::vector<std::vector<double>> seconds(arms);
  for (int r = 0; r < repeats; ++r) {
    for (size_t a = 0; a < arms; ++a) {
      const auto start = std::chrono::steady_clock::now();
      run_arm(a);
      const std::chrono::duration<double> took =
          std::chrono::steady_clock::now() - start;
      seconds[a].push_back(took.count());
    }
  }
  return seconds;
}

// The host cost of switching a feature on, for a deterministic workload:
// one untimed run of each arm warms caches and the allocator, then
// `repeats` interleaved off/on rounds each give one overhead sample (the
// loss in applies per host-second). `Run` is any result with `applied`,
// `wire_bytes`, `host_seconds` and `applies_per_host_sec`.
template <typename Run>
struct OnOffOverhead {
  Run off;  // The median-time run of each arm.
  Run on;
  Spread overhead_pct;  // One sample per round.
  int repeats = 0;
  bool identical = false;  // Simulated results equal in every run.
};

template <typename Run, typename Fn>
OnOffOverhead<Run> MeasureOnOffOverhead(int repeats, Fn&& run /* (bool on) */) {
  OnOffOverhead<Run> out;
  out.repeats = repeats;
  for (const bool on : {false, true}) run(on);
  std::vector<Run> runs[2];
  TimeInterleaved(2, repeats,
                  [&](size_t arm) { runs[arm].push_back(run(arm == 1)); });
  std::vector<double> overhead;
  out.identical = true;
  for (int r = 0; r < repeats; ++r) {
    const Run& off = runs[0][r];
    const Run& on = runs[1][r];
    out.identical &= off.applied == on.applied &&
                     off.wire_bytes == on.wire_bytes &&
                     off.applied == runs[0][0].applied;
    overhead.push_back(100.0 * (1.0 - on.applies_per_host_sec /
                                          off.applies_per_host_sec));
  }
  out.overhead_pct = Summarize(std::move(overhead));
  for (std::vector<Run>& arm : runs) {
    std::sort(arm.begin(), arm.end(), [](const Run& a, const Run& b) {
      return a.host_seconds < b.host_seconds;
    });
  }
  out.off = runs[0][runs[0].size() / 2];
  out.on = runs[1][runs[1].size() / 2];
  return out;
}

// ---- A deployed business process on a DemoSystem ----------------------------

inline db::DbOptions BenchDbOptions() {
  db::DbOptions opts;
  opts.checkpoint_blocks = 256;
  opts.wal_blocks = 1024;
  return opts;
}

// The demonstration's business process, deployed and ready: namespace,
// two PVCs, formatted databases, catalog loaded.
struct BusinessProcess {
  std::unique_ptr<storage::ArrayVolumeDevice> sales_dev;
  std::unique_ptr<storage::ArrayVolumeDevice> stock_dev;
  std::unique_ptr<db::MiniDb> sales_db;
  std::unique_ptr<db::MiniDb> stock_db;
  std::unique_ptr<workload::EcommerceApp> app;
};

inline BusinessProcess DeployBusinessProcess(core::DemoSystem* system,
                                             const std::string& ns,
                                             uint64_t seed = 1234) {
  BusinessProcess bp;
  ZB_CHECK(system->CreateBusinessNamespace(ns).ok());
  ZB_CHECK(system->CreatePvc(ns, "sales-db", 8 << 20).ok());
  ZB_CHECK(system->CreatePvc(ns, "stock-db", 8 << 20).ok());
  system->env()->RunFor(Milliseconds(10));

  auto sales_vol = system->ResolveMainVolume(ns, "sales-db");
  auto stock_vol = system->ResolveMainVolume(ns, "stock-db");
  ZB_CHECK(sales_vol.ok() && stock_vol.ok());
  bp.sales_dev = std::make_unique<storage::ArrayVolumeDevice>(
      system->main_site()->array(), *sales_vol);
  bp.stock_dev = std::make_unique<storage::ArrayVolumeDevice>(
      system->main_site()->array(), *stock_vol);
  ZB_CHECK(db::MiniDb::Format(bp.sales_dev.get(), BenchDbOptions()).ok());
  ZB_CHECK(db::MiniDb::Format(bp.stock_dev.get(), BenchDbOptions()).ok());
  bp.sales_db =
      std::move(db::MiniDb::Open(bp.sales_dev.get(), BenchDbOptions()))
          .value();
  bp.stock_db =
      std::move(db::MiniDb::Open(bp.stock_dev.get(), BenchDbOptions()))
          .value();
  workload::EcommerceConfig cfg;
  cfg.seed = seed;
  bp.app = std::make_unique<workload::EcommerceApp>(bp.sales_db.get(),
                                                    bp.stock_db.get(), cfg);
  ZB_CHECK(bp.app->InitializeCatalog().ok());
  return bp;
}

// Opens the recovered databases on the backup site after a failover and
// returns the business-consistency report plus the recovered order count.
struct RecoveryOutcome {
  bool recovered = false;
  uint64_t orders = 0;
  workload::CollapseReport report;
};

inline RecoveryOutcome RecoverOnBackup(core::DemoSystem* system,
                                       const std::string& ns) {
  RecoveryOutcome out;
  auto sales_vol = system->ResolveBackupVolume(ns, "sales-db");
  auto stock_vol = system->ResolveBackupVolume(ns, "stock-db");
  if (!sales_vol.ok() || !stock_vol.ok()) return out;
  storage::ArrayVolumeDevice sales_dev(system->backup_site()->array(),
                                       *sales_vol);
  storage::ArrayVolumeDevice stock_dev(system->backup_site()->array(),
                                       *stock_vol);
  auto sales = db::MiniDb::Open(&sales_dev, BenchDbOptions());
  auto stock = db::MiniDb::Open(&stock_dev, BenchDbOptions());
  if (!sales.ok() || !stock.ok()) return out;
  out.recovered = true;
  out.orders = (*sales)->RowCount(workload::kOrderTable);
  out.report = workload::CheckConsistency(sales->get(), stock->get());
  return out;
}

// Three-resource business process (stock + payments + sales databases),
// for the Section-I variant with an extra seam in the commit chain.
struct ThreeDbBusinessProcess {
  std::unique_ptr<storage::ArrayVolumeDevice> sales_dev;
  std::unique_ptr<storage::ArrayVolumeDevice> stock_dev;
  std::unique_ptr<storage::ArrayVolumeDevice> payments_dev;
  std::unique_ptr<db::MiniDb> sales_db;
  std::unique_ptr<db::MiniDb> stock_db;
  std::unique_ptr<db::MiniDb> payments_db;
  std::unique_ptr<workload::EcommerceApp> app;
};

inline ThreeDbBusinessProcess DeployThreeDbBusinessProcess(
    core::DemoSystem* system, const std::string& ns, uint64_t seed = 1234) {
  ThreeDbBusinessProcess bp;
  ZB_CHECK(system->CreateBusinessNamespace(ns).ok());
  for (const char* pvc : {"sales-db", "stock-db", "payments-db"}) {
    ZB_CHECK(system->CreatePvc(ns, pvc, 8 << 20).ok());
  }
  system->env()->RunFor(Milliseconds(10));
  auto open = [&](const char* pvc,
                  std::unique_ptr<storage::ArrayVolumeDevice>* dev) {
    auto vol = system->ResolveMainVolume(ns, pvc);
    ZB_CHECK(vol.ok());
    *dev = std::make_unique<storage::ArrayVolumeDevice>(
        system->main_site()->array(), *vol);
    ZB_CHECK(db::MiniDb::Format(dev->get(), BenchDbOptions()).ok());
    return std::move(db::MiniDb::Open(dev->get(), BenchDbOptions()))
        .value();
  };
  bp.sales_db = open("sales-db", &bp.sales_dev);
  bp.stock_db = open("stock-db", &bp.stock_dev);
  bp.payments_db = open("payments-db", &bp.payments_dev);
  workload::EcommerceConfig cfg;
  cfg.seed = seed;
  bp.app = std::make_unique<workload::EcommerceApp>(
      bp.sales_db.get(), bp.stock_db.get(), bp.payments_db.get(), cfg);
  ZB_CHECK(bp.app->InitializeCatalog().ok());
  return bp;
}

// Recovered-state check for the three-resource process.
inline RecoveryOutcome RecoverThreeDbOnBackup(core::DemoSystem* system,
                                              const std::string& ns) {
  RecoveryOutcome out;
  db::DbOptions ro = BenchDbOptions();
  ro.read_only = true;
  auto open = [&](const char* pvc)
      -> std::pair<std::unique_ptr<storage::ArrayVolumeDevice>,
                   std::unique_ptr<db::MiniDb>> {
    auto vol = system->ResolveBackupVolume(ns, pvc);
    if (!vol.ok()) return {nullptr, nullptr};
    auto dev = std::make_unique<storage::ArrayVolumeDevice>(
        system->backup_site()->array(), *vol);
    auto db = db::MiniDb::Open(dev.get(), ro);
    if (!db.ok()) return {nullptr, nullptr};
    return {std::move(dev), std::move(db).value()};
  };
  auto [sales_dev, sales] = open("sales-db");
  auto [stock_dev, stock] = open("stock-db");
  auto [pay_dev, payments] = open("payments-db");
  if (!sales || !stock || !payments) return out;
  out.recovered = true;
  out.orders = sales->RowCount(workload::kOrderTable);
  out.report = workload::CheckConsistency(sales.get(), stock.get(),
                                          payments.get());
  return out;
}

// Zero-latency media: functional mode for consistency/RPO drills where
// database writes must ack inline.
inline core::DemoSystemConfig FunctionalConfig() {
  core::DemoSystemConfig config;
  config.main_array.media = block::DeviceLatencyModel{0, 0, 0, 0, 1};
  config.backup_array.media = block::DeviceLatencyModel{0, 0, 0, 0, 2};
  return config;
}

}  // namespace zerobak::bench

#endif  // ZEROBAK_BENCH_BENCH_UTIL_H_

// E10/E11 — Transfer pipeline benches: what the coalescing machinery
// (DESIGN.md section 3c) and the wire format (section 3d) actually buy on
// the wire and in CPU.
//
//   E10a Skewed-overwrite workload (hot 10% of blocks takes 90% of the
//        writes): bytes shipped (journal-logical and framed wire), fold
//        ratio, steady-state journal depth and apply throughput with
//        write-folding on vs off, at the same host write rate.
//   E10b Resync of a 25%-dirty volume through extent-merged transfer.
//        Volumes use 512 B sectors — the granularity storage arrays
//        address LBAs at — so per-record overhead is visible next to the
//        memcpy, which is exactly the cost extent merging amortizes. The
//        dirty set is 16-sector runs scattered across a 1 GiB volume —
//        the shape a suspended OLTP workload leaves behind. Extent capture
//        is zero-copy (slab views under pre-overwrite COW protection).
//        Reported in host CPU time, simulated time, extents and wire
//        bytes. The per-block and unordered-set baselines, measured
//        before those paths were removed, are kept in EXPERIMENTS.md E10.
//
//   E11  Wire-format shipping under a bandwidth-constrained (100 Mbit/s)
//        inter-site link, driven by real database workloads (the
//        e-commerce order flow and the KV mix) whose WAL pages are what
//        the compressor actually sees. Reports logical vs framed wire
//        bytes, compression ratio, applies/s and the apply-lag RPO
//        estimate for the compression x write-folding ablation.
//
// Writes the results as JSON (default BENCH_pipeline.json; --out PATH to
// override), with the host's hardware lane count. --quick shrinks volumes
// and durations for the ctest smoke run; --wire-only runs just E11 (the
// bench_wire_smoke ctest entry); the committed JSON comes from the full
// run via scripts/run_benches.sh.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "replication/replication.h"
#include "workload/kv_workload.h"

namespace zerobak::bench {
namespace {

struct Rig {
  std::unique_ptr<sim::SimEnvironment> env;
  std::unique_ptr<storage::StorageArray> main;
  std::unique_ptr<storage::StorageArray> backup;
  std::unique_ptr<sim::NetworkLink> fwd;
  std::unique_ptr<sim::NetworkLink> rev;
  std::unique_ptr<replication::ReplicationEngine> engine;
};

Rig MakeRig(double bandwidth_bytes_per_sec) {
  Rig rig;
  rig.env = std::make_unique<sim::SimEnvironment>();
  storage::ArrayConfig zero;
  zero.media = block::DeviceLatencyModel{0, 0, 0, 0, 1};
  storage::ArrayConfig main_cfg = zero;
  main_cfg.serial = "MAIN";
  storage::ArrayConfig backup_cfg = zero;
  backup_cfg.serial = "BKUP";
  rig.main = std::make_unique<storage::StorageArray>(rig.env.get(),
                                                     main_cfg);
  rig.backup = std::make_unique<storage::StorageArray>(rig.env.get(),
                                                       backup_cfg);
  sim::NetworkLinkConfig link_cfg;
  link_cfg.base_latency = Milliseconds(5);
  link_cfg.jitter = 0;
  link_cfg.bandwidth_bytes_per_sec = bandwidth_bytes_per_sec;
  rig.fwd = std::make_unique<sim::NetworkLink>(rig.env.get(), link_cfg,
                                               "fwd");
  rig.rev = std::make_unique<sim::NetworkLink>(rig.env.get(), link_cfg,
                                               "rev");
  rig.engine = std::make_unique<replication::ReplicationEngine>(
      rig.env.get(), rig.main.get(), rig.backup.get(), rig.fwd.get(),
      rig.rev.get());
  return rig;
}

// ---- E10a: write-folding under skewed overwrites -----------------------------

struct FoldResult {
  uint64_t logical_bytes = 0;       // Journal bytes the frames represent.
  uint64_t wire_bytes = 0;          // Framed (compressed) bytes on the link.
  uint64_t host_bytes = 0;          // Payload bytes the host wrote.
  uint64_t records_folded = 0;
  uint64_t folded_bytes_saved = 0;
  double mean_journal_depth = 0;    // Bytes, sampled each millisecond.
  double apply_throughput = 0;      // Records applied per sim-second.
};

FoldResult RunFoldScenario(bool folding, bool quick) {
  constexpr uint64_t kBlocks = 1024;
  constexpr uint64_t kHot = kBlocks / 10;  // Hot 10% takes 90% of writes.
  constexpr double kRate = 20000.0;        // Host writes per second.
  const SimDuration warmup = quick ? Milliseconds(32) : Milliseconds(160);
  const SimDuration measure = quick ? Milliseconds(96) : Milliseconds(480);

  Rig rig = MakeRig(1.25e8);  // 1 Gbit/s inter-site link.
  auto p = rig.main->CreateVolume("p", kBlocks);
  auto s = rig.backup->CreateVolume("s", kBlocks);
  ZB_CHECK(p.ok() && s.ok());
  replication::ConsistencyGroupConfig cg;
  cg.name = "fold";
  // A 16 ms cycle batches ~320 writes: long enough for the hot set to
  // fold, short enough that the link round trip still dominates lag.
  cg.transfer_interval = Milliseconds(16);
  cg.journal_capacity_bytes = 64ull << 20;
  cg.enable_write_folding = folding;
  auto group = rig.engine->CreateConsistencyGroup(cg);
  ZB_CHECK(group.ok());
  replication::PairConfig pc;
  pc.name = "pair";
  pc.primary = *p;
  pc.secondary = *s;
  pc.mode = replication::ReplicationMode::kAsynchronous;
  pc.group = *group;
  ZB_CHECK(rig.engine->CreatePair(pc).ok());
  rig.env->RunFor(Milliseconds(20));

  Rng rng(17);
  const auto period = static_cast<SimDuration>(kSecond / kRate);
  const std::string payload(block::kDefaultBlockSize, 'w');
  auto next_lba = [&] {
    return rng.Uniform(10) < 9 ? rng.Uniform(kHot)
                               : kHot + rng.Uniform(kBlocks - kHot);
  };

  // Warmup: reach the steady state before the counters start.
  const SimTime warm_until = rig.env->now() + warmup;
  while (rig.env->now() < warm_until) {
    ZB_CHECK(rig.main->WriteSync(*p, next_lba(), payload).ok());
    rig.env->RunFor(period);
  }

  FoldResult res;
  const uint64_t wire_before = rig.fwd->bytes_sent();
  const uint64_t logical_before = rig.fwd->logical_bytes_sent();
  auto before = rig.engine->GetGroupStats(*group);
  ZB_CHECK(before.ok());
  const SimTime t0 = rig.env->now();
  uint64_t samples = 0;
  SimTime next_sample = rig.env->now();
  const SimTime until = rig.env->now() + measure;
  while (rig.env->now() < until) {
    ZB_CHECK(rig.main->WriteSync(*p, next_lba(), payload).ok());
    res.host_bytes += payload.size();
    rig.env->RunFor(period);
    if (rig.env->now() >= next_sample) {
      auto stats = rig.engine->GetGroupStats(*group);
      ZB_CHECK(stats.ok());
      res.mean_journal_depth += double(stats->journal_used_bytes);
      ++samples;
      next_sample += Milliseconds(1);
    }
  }
  auto after = rig.engine->GetGroupStats(*group);
  ZB_CHECK(after.ok());
  res.wire_bytes = rig.fwd->bytes_sent() - wire_before;
  res.logical_bytes = rig.fwd->logical_bytes_sent() - logical_before;
  res.records_folded = after->records_folded - before->records_folded;
  res.folded_bytes_saved =
      after->folded_bytes_saved - before->folded_bytes_saved;
  if (samples > 0) res.mean_journal_depth /= double(samples);
  res.apply_throughput = double(after->applied - before->applied) /
                         (double(rig.env->now() - t0) / double(kSecond));
  return res;
}

// ---- E10b: extent resync -------------------------------------------------

struct ResyncResult {
  double host_seconds = 0;     // CPU time for capture + apply, all iters.
  double sim_seconds = 0;      // Simulated suspend->converged time.
  uint64_t wire_bytes = 0;
  uint64_t extents = 0;
  uint64_t blocks = 0;
};

// Resync volumes use sector-granular addressing: a storage array tracks
// dirty LBAs at 512 B, not at the journal's 4 KiB record payload size.
constexpr uint32_t kSectorBytes = 512;

// Dirty 25% of the volume as 16-sector runs with 48-sector gaps, spread
// across the whole address space.
constexpr uint64_t kDirtyRunBlocks = 16;
constexpr uint64_t kDirtyStride = 64;

template <typename WriteFn>
void WriteDirtyPattern(uint64_t blocks, WriteFn&& write) {
  for (uint64_t base = 0; base + kDirtyRunBlocks <= blocks;
       base += kDirtyStride) {
    for (uint64_t lba = base; lba < base + kDirtyRunBlocks; ++lba) {
      write(lba);
    }
  }
}

ResyncResult RunResyncScenario(bool quick) {
  // 1 GiB in the full run: the dirty quarter of source+destination
  // overflows the (large) last-level cache.
  const uint64_t kBlocks = quick ? 16384 : 2097152;
  const int iters = quick ? 2 : 10;

  Rig rig = MakeRig(1.25e9);  // 10 Gbit/s: CPU, not wire, is the subject.
  auto p = rig.main->CreateVolume("p", kBlocks, kSectorBytes);
  auto s = rig.backup->CreateVolume("s", kBlocks, kSectorBytes);
  ZB_CHECK(p.ok() && s.ok());
  replication::ConsistencyGroupConfig cg;
  cg.name = "resync";
  cg.journal_capacity_bytes = 256ull << 20;
  auto group = rig.engine->CreateConsistencyGroup(cg);
  ZB_CHECK(group.ok());
  replication::PairConfig pc;
  pc.name = "pair";
  pc.primary = *p;
  pc.secondary = *s;
  pc.mode = replication::ReplicationMode::kAsynchronous;
  pc.group = *group;
  auto pair = rig.engine->CreatePair(pc);
  ZB_CHECK(pair.ok());
  rig.env->RunFor(Milliseconds(20));

  ResyncResult res;
  uint64_t wire_before = rig.fwd->bytes_sent();
  // Iteration 0 is an untimed warmup: it pays the first-touch page faults
  // of both volumes' backing chunks, which would otherwise be billed to
  // the first measured iteration.
  for (int it = 0; it <= iters; ++it) {
    ZB_CHECK(rig.engine->SuspendGroup(*group).ok());
    const std::string payload(kSectorBytes, static_cast<char>('a' + it));
    WriteDirtyPattern(kBlocks, [&](uint64_t lba) {
      ZB_CHECK(rig.main->WriteSync(*p, lba, payload).ok());
    });
    const SimTime sim0 = rig.env->now();
    const auto t0 = std::chrono::steady_clock::now();
    ZB_CHECK(rig.engine->ResyncGroup(*group).ok());
    // Drain until the batch delivers; its serialization time on the wire
    // scales with the dirty set, so poll rather than hardcode a window.
    for (int spin = 0;
         spin < 1000 && rig.engine->GetPair(*pair)->state() !=
                            replication::PairState::kPaired;
         ++spin) {
      rig.env->RunFor(Milliseconds(1));
    }
    const auto t1 = std::chrono::steady_clock::now();
    ZB_CHECK(rig.engine->GetPair(*pair)->state() ==
             replication::PairState::kPaired);
    if (it == 0) {
      wire_before = rig.fwd->bytes_sent();
      auto warm = rig.engine->GetGroupStats(*group);
      ZB_CHECK(warm.ok());
      res.extents = warm->resync_extents;
      res.blocks = warm->resync_blocks;
      continue;
    }
    res.host_seconds +=
        std::chrono::duration<double>(t1 - t0).count();
    res.sim_seconds += double(rig.env->now() - sim0) / double(kSecond);
  }
  ZB_CHECK(rig.main->GetVolume(*p)->ContentEquals(
      *rig.backup->GetVolume(*s)));
  res.wire_bytes = rig.fwd->bytes_sent() - wire_before;
  auto stats = rig.engine->GetGroupStats(*group);
  ZB_CHECK(stats.ok());
  res.extents = stats->resync_extents - res.extents;
  res.blocks = stats->resync_blocks - res.blocks;
  return res;
}

// ---- E11: wire compression under a bandwidth-constrained link ---------------

struct WireRunResult {
  uint64_t logical_bytes = 0;   // Journal bytes represented by the frames.
  uint64_t wire_bytes = 0;      // Framed bytes actually on the link.
  double ratio = 0;             // logical / wire.
  double applies_per_sec = 0;   // Records applied per sim-second.
  double mean_lag_ms = 0;       // Apply lag (RPO estimate), sampled per ms.
  double max_lag_ms = 0;
  uint64_t txns = 0;            // Workload transactions in the window.
};

// One cell of the E11 ablation.
struct WireCell {
  const char* workload;  // "ecommerce" or "kv".
  bool compress;
  bool folding;
  WireRunResult r;
};

// Replicates one (ecommerce) or two (kv uses one) MiniDb volumes over a
// 100 Mbit/s link and drives real transactions against them, so the bytes
// on the wire are genuine WAL and checkpoint pages, not synthetic fill.
WireRunResult RunWireScenario(bool ecommerce, bool compress, bool folding,
                              bool quick) {
  Rig rig = MakeRig(1.25e7);  // 100 Mbit/s: the constrained inter-site WAN.
  constexpr uint64_t kDbBlocks = 4096;  // 16 MiB per database volume.
  auto p1 = rig.main->CreateVolume("p1", kDbBlocks);
  auto s1 = rig.backup->CreateVolume("s1", kDbBlocks);
  auto p2 = rig.main->CreateVolume("p2", kDbBlocks);
  auto s2 = rig.backup->CreateVolume("s2", kDbBlocks);
  ZB_CHECK(p1.ok() && s1.ok() && p2.ok() && s2.ok());
  replication::ConsistencyGroupConfig cg;
  cg.name = "wire";
  cg.transfer_interval = Milliseconds(8);
  cg.journal_capacity_bytes = 64ull << 20;
  cg.compress_transfers = compress;
  cg.enable_write_folding = folding;
  auto group = rig.engine->CreateConsistencyGroup(cg);
  ZB_CHECK(group.ok());
  auto add_pair = [&](const char* name, storage::VolumeId pv,
                      storage::VolumeId sv) {
    replication::PairConfig pc;
    pc.name = name;
    pc.primary = pv;
    pc.secondary = sv;
    pc.mode = replication::ReplicationMode::kAsynchronous;
    pc.group = *group;
    ZB_CHECK(rig.engine->CreatePair(pc).ok());
  };
  add_pair("pair1", *p1, *s1);
  add_pair("pair2", *p2, *s2);
  rig.env->RunFor(Milliseconds(20));

  storage::ArrayVolumeDevice dev1(rig.main.get(), *p1);
  storage::ArrayVolumeDevice dev2(rig.main.get(), *p2);
  ZB_CHECK(db::MiniDb::Format(&dev1, BenchDbOptions()).ok());
  auto db1 = std::move(db::MiniDb::Open(&dev1, BenchDbOptions())).value();
  std::unique_ptr<db::MiniDb> db2;
  std::unique_ptr<workload::EcommerceApp> app;
  std::unique_ptr<workload::KvWorkload> kv;
  if (ecommerce) {
    ZB_CHECK(db::MiniDb::Format(&dev2, BenchDbOptions()).ok());
    db2 = std::move(db::MiniDb::Open(&dev2, BenchDbOptions())).value();
    app = std::make_unique<workload::EcommerceApp>(db1.get(), db2.get());
    ZB_CHECK(app->InitializeCatalog().ok());
  } else {
    workload::KvWorkloadConfig kcfg;
    kcfg.record_count = quick ? 200 : 1000;
    kcfg.zipf_theta = 0.9;
    kv = std::make_unique<workload::KvWorkload>(db1.get(), kcfg);
    ZB_CHECK(kv->Load().ok());
  }

  constexpr double kTxnRate = 2000.0;  // Transactions per sim-second.
  const auto period = static_cast<SimDuration>(kSecond / kTxnRate);
  const SimDuration warmup = quick ? Milliseconds(40) : Milliseconds(200);
  const SimDuration measure = quick ? Milliseconds(120) : Milliseconds(600);
  auto step = [&] {
    if (ecommerce) {
      ZB_CHECK(app->PlaceOrder().ok());
    } else {
      ZB_CHECK(kv->Run(1).ok());
    }
    rig.env->RunFor(period);
  };

  const SimTime warm_until = rig.env->now() + warmup;
  while (rig.env->now() < warm_until) step();

  WireRunResult res;
  auto before = rig.engine->GetGroupStats(*group);
  ZB_CHECK(before.ok());
  const SimTime t0 = rig.env->now();
  const SimTime until = rig.env->now() + measure;
  SimTime next_sample = rig.env->now();
  uint64_t samples = 0;
  while (rig.env->now() < until) {
    step();
    ++res.txns;
    if (rig.env->now() >= next_sample) {
      auto stats = rig.engine->GetGroupStats(*group);
      ZB_CHECK(stats.ok());
      const double lag_ms = double(stats->apply_lag) / double(kMillisecond);
      res.mean_lag_ms += lag_ms;
      res.max_lag_ms = std::max(res.max_lag_ms, lag_ms);
      ++samples;
      next_sample += Milliseconds(1);
    }
  }
  auto after = rig.engine->GetGroupStats(*group);
  ZB_CHECK(after.ok());
  ZB_CHECK(after->checksum_rejects == 0);  // Clean link: no CRC rejects.
  res.logical_bytes =
      after->logical_bytes_shipped - before->logical_bytes_shipped;
  res.wire_bytes = after->wire_bytes_shipped - before->wire_bytes_shipped;
  res.ratio = res.wire_bytes > 0
                  ? double(res.logical_bytes) / double(res.wire_bytes)
                  : 1.0;
  if (samples > 0) res.mean_lag_ms /= double(samples);
  res.applies_per_sec = double(after->applied - before->applied) /
                        (double(rig.env->now() - t0) / double(kSecond));
  return res;
}

std::vector<WireCell> RunWireAblation(bool quick) {
  std::vector<WireCell> cells;
  // Full compression x folding grid on the e-commerce order flow, plus
  // the compression toggle on the KV mix (folding on, its default).
  for (const bool compress : {true, false}) {
    for (const bool folding : {true, false}) {
      cells.push_back(WireCell{"ecommerce", compress, folding,
                               RunWireScenario(true, compress, folding,
                                               quick)});
    }
  }
  for (const bool compress : {true, false}) {
    cells.push_back(WireCell{
        "kv", compress, true, RunWireScenario(false, compress, true, quick)});
  }
  return cells;
}

// ---- JSON + table output ----------------------------------------------------

void WriteJson(const std::string& path, bool quick, bool wire_only,
               const FoldResult& on, const FoldResult& off,
               const ResyncResult& ext,
               const std::vector<WireCell>& wire) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  ZB_CHECK(f != nullptr);
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"bench_pipeline\",\n");
  std::fprintf(f, "  \"quick\": %s,\n", quick ? "true" : "false");
  std::fprintf(f, "  \"hardware_lanes\": %u,\n",
               std::thread::hardware_concurrency());
  if (!wire_only) {
    const double fold_reduction =
        on.logical_bytes > 0
            ? double(off.logical_bytes) / double(on.logical_bytes)
            : 0;
    const double depth_ratio =
        on.mean_journal_depth > 0
            ? off.mean_journal_depth / on.mean_journal_depth
            : 0;
    std::fprintf(f, "  \"fold\": {\n");
    auto fold_obj = [&](const char* key, const FoldResult& r,
                        const char* tail) {
      std::fprintf(f,
                   "    \"%s\": {\"logical_bytes\": %llu, \"wire_bytes\": "
                   "%llu, \"host_bytes\": %llu, \"records_folded\": %llu, "
                   "\"folded_bytes_saved\": %llu, "
                   "\"mean_journal_depth_bytes\": %.0f, "
                   "\"apply_records_per_sec\": %.0f}%s\n",
                   key, (unsigned long long)r.logical_bytes,
                   (unsigned long long)r.wire_bytes,
                   (unsigned long long)r.host_bytes,
                   (unsigned long long)r.records_folded,
                   (unsigned long long)r.folded_bytes_saved,
                   r.mean_journal_depth, r.apply_throughput, tail);
    };
    fold_obj("folding_on", on, ",");
    fold_obj("folding_off", off, ",");
    std::fprintf(f, "    \"logical_bytes_reduction\": %.3f,\n",
                 fold_reduction);
    std::fprintf(f, "    \"journal_depth_ratio\": %.3f\n", depth_ratio);
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"resync\": {\n");
    std::fprintf(f, "    \"sector_bytes\": %u,\n", kSectorBytes);
    std::fprintf(f,
                 "    \"extent\": {\"host_seconds\": %.6f, \"sim_seconds\": "
                 "%.6f, \"wire_bytes\": %llu, \"extents\": %llu, "
                 "\"blocks\": %llu}\n",
                 ext.host_seconds, ext.sim_seconds,
                 (unsigned long long)ext.wire_bytes,
                 (unsigned long long)ext.extents,
                 (unsigned long long)ext.blocks);
    std::fprintf(f, "  },\n");
  }
  std::fprintf(f, "  \"wire\": [\n");
  for (size_t i = 0; i < wire.size(); ++i) {
    const WireCell& c = wire[i];
    std::fprintf(f,
                 "    {\"workload\": \"%s\", \"compress\": %s, "
                 "\"folding\": %s, \"logical_bytes\": %llu, "
                 "\"wire_bytes\": %llu, \"compression_ratio\": %.3f, "
                 "\"applies_per_sec\": %.0f, \"mean_apply_lag_ms\": %.3f, "
                 "\"max_apply_lag_ms\": %.3f, \"txns\": %llu}%s\n",
                 c.workload, c.compress ? "true" : "false",
                 c.folding ? "true" : "false",
                 (unsigned long long)c.r.logical_bytes,
                 (unsigned long long)c.r.wire_bytes, c.r.ratio,
                 c.r.applies_per_sec, c.r.mean_lag_ms, c.r.max_lag_ms,
                 (unsigned long long)c.r.txns,
                 i + 1 < wire.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
}

int Run(bool quick, bool wire_only, const std::string& out_path) {
  FoldResult on, off;
  ResyncResult ext;
  if (!wire_only) {
    PrintTitle("E10a: write-folding on the hot-10% overwrite workload "
               "(20k writes/s, 16 ms cycle, 1 Gbit/s link)");
    PrintLine("%12s %12s %12s %12s %12s %12s %16s", "folding", "host_MB",
              "logical_MB", "wire_MB", "folded_recs", "depth_KB",
              "applied_per_s");
    PrintRule();
    on = RunFoldScenario(true, quick);
    off = RunFoldScenario(false, quick);
    for (const auto& [label, r] :
         {std::pair<const char*, const FoldResult&>{"on", on},
          {"off", off}}) {
      PrintLine("%12s %12.1f %12.1f %12.1f %12llu %12.0f %16.0f", label,
                double(r.host_bytes) / 1e6, double(r.logical_bytes) / 1e6,
                double(r.wire_bytes) / 1e6,
                (unsigned long long)r.records_folded,
                r.mean_journal_depth / 1024.0, r.apply_throughput);
    }
    PrintRule();
    const double fold_reduction =
        on.logical_bytes > 0
            ? double(off.logical_bytes) / double(on.logical_bytes)
            : 0;
    const double depth_ratio =
        on.mean_journal_depth > 0
            ? off.mean_journal_depth / on.mean_journal_depth
            : 0;
    PrintLine("logical-bytes reduction: %.2fx   journal-depth ratio: %.2fx",
              fold_reduction, depth_ratio);

    PrintTitle("E10b: 25%-dirty 1 GiB volume resync (512 B sectors) — "
               "merged extents");
    PrintLine("%14s %14s %14s %14s %14s", "host_ms", "sim_ms", "extents",
              "blocks", "wire_MB");
    PrintRule();
    ext = RunResyncScenario(quick);
    PrintLine("%14.2f %14.2f %14llu %14llu %14.1f", ext.host_seconds * 1e3,
              ext.sim_seconds * 1e3, (unsigned long long)ext.extents,
              (unsigned long long)ext.blocks, double(ext.wire_bytes) / 1e6);
    PrintRule();
  }

  PrintTitle("E11: wire-format shipping on a 100 Mbit/s link — "
             "compression x write-folding over real DB workloads "
             "(2k txn/s)");
  PrintLine("%12s %10s %10s %12s %12s %8s %14s %12s %12s", "workload",
            "compress", "folding", "logical_MB", "wire_MB", "ratio",
            "applies_per_s", "lag_ms_avg", "lag_ms_max");
  PrintRule();
  std::vector<WireCell> wire = RunWireAblation(quick);
  for (const WireCell& c : wire) {
    PrintLine("%12s %10s %10s %12.2f %12.2f %8.2f %14.0f %12.2f %12.2f",
              c.workload, c.compress ? "on" : "off",
              c.folding ? "on" : "off", double(c.r.logical_bytes) / 1e6,
              double(c.r.wire_bytes) / 1e6, c.r.ratio, c.r.applies_per_sec,
              c.r.mean_lag_ms, c.r.max_lag_ms);
  }
  PrintRule();

  WriteJson(out_path, quick, wire_only, on, off, ext, wire);
  PrintLine("wrote %s", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace zerobak::bench

int main(int argc, char** argv) {
  zerobak::SetLogLevel(zerobak::LogLevel::kError);
  bool quick = false;
  bool wire_only = false;
  std::string out_path = "BENCH_pipeline.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--wire-only") == 0) {
      wire_only = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }
  return zerobak::bench::Run(quick, wire_only, out_path);
}

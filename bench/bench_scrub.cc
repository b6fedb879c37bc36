// E15 — What the at-rest integrity scrubber costs and how fast it heals.
//
//   E15a Scrub idle overhead on the E10 fold workload (hot-10% skewed
//        overwrites at 20k writes/s, folding on, 1 Gbit/s link): the
//        identical run with the scrubber continuously cycling over the
//        group vs scrubbing disabled. On clean volumes the scrubber
//        schedules no repairs and ships zero wire bytes, so the
//        replication results (applies, wire bytes) must be bit-identical
//        either way; the cost is host CPU, reported as applies per
//        host-second and a percent slowdown, one sample per round of
//        interleaved off/on runs. Acceptance (full run): median < 2%.
//   E15b Time-to-repair vs corruption burden: a converged 4096-block
//        pair gets N secondary-side extents silently bit-rotted, then the
//        scrubber is switched on. Reports the simulated time until every
//        extent is detected, dirty-marked, resynced from the primary and
//        re-verified clean — plus the proof obligations of the chaos
//        drill: zero application-visible bad reads after repair and
//        byte-identical sites.
//
// Writes the results as JSON (default BENCH_scrub.json; --out PATH to
// override). --quick shrinks durations for the ctest smoke run; the
// committed JSON comes from the full run via scripts/run_benches.sh.
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "replication/replication.h"
#include "replication/scrubber.h"

namespace zerobak::bench {
namespace {

struct Rig {
  std::unique_ptr<sim::SimEnvironment> env;
  std::unique_ptr<storage::StorageArray> main;
  std::unique_ptr<storage::StorageArray> backup;
  std::unique_ptr<sim::NetworkLink> fwd;
  std::unique_ptr<sim::NetworkLink> rev;
  std::unique_ptr<replication::ReplicationEngine> engine;
  storage::VolumeId primary = 0;
  storage::VolumeId secondary = 0;
  replication::GroupId group = 0;
};

Rig MakeRig(uint64_t blocks) {
  Rig rig;
  rig.env = std::make_unique<sim::SimEnvironment>();
  storage::ArrayConfig zero;
  zero.media = block::DeviceLatencyModel{0, 0, 0, 0, 1};
  storage::ArrayConfig main_cfg = zero;
  main_cfg.serial = "MAIN";
  storage::ArrayConfig backup_cfg = zero;
  backup_cfg.serial = "BKUP";
  rig.main = std::make_unique<storage::StorageArray>(rig.env.get(), main_cfg);
  rig.backup =
      std::make_unique<storage::StorageArray>(rig.env.get(), backup_cfg);
  sim::NetworkLinkConfig link_cfg;
  link_cfg.base_latency = Milliseconds(5);
  link_cfg.jitter = 0;
  link_cfg.bandwidth_bytes_per_sec = 1.25e8;  // 1 Gbit/s.
  rig.fwd = std::make_unique<sim::NetworkLink>(rig.env.get(), link_cfg, "fwd");
  rig.rev = std::make_unique<sim::NetworkLink>(rig.env.get(), link_cfg, "rev");
  rig.engine = std::make_unique<replication::ReplicationEngine>(
      rig.env.get(), rig.main.get(), rig.backup.get(), rig.fwd.get(),
      rig.rev.get());
  auto p = rig.main->CreateVolume("p", blocks);
  auto s = rig.backup->CreateVolume("s", blocks);
  ZB_CHECK(p.ok() && s.ok());
  rig.primary = *p;
  rig.secondary = *s;
  replication::ConsistencyGroupConfig cg;
  cg.name = "scrubbed";
  cg.transfer_interval = Milliseconds(16);
  cg.journal_capacity_bytes = 64ull << 20;
  cg.enable_write_folding = true;
  cg.ack_timeout = Milliseconds(200);
  cg.resync_backoff_initial = Milliseconds(5);
  cg.resync_backoff_max = Milliseconds(50);
  auto group = rig.engine->CreateConsistencyGroup(cg);
  ZB_CHECK(group.ok());
  rig.group = *group;
  replication::PairConfig pc;
  pc.name = "pair";
  pc.primary = rig.primary;
  pc.secondary = rig.secondary;
  pc.mode = replication::ReplicationMode::kAsynchronous;
  pc.group = *group;
  ZB_CHECK(rig.engine->CreatePair(pc).ok());
  return rig;
}

// ---- E15a: idle overhead on the E10 fold workload ---------------------------

constexpr uint64_t kFoldBlocks = 1024;
constexpr uint64_t kHot = kFoldBlocks / 10;
constexpr double kRate = 20000.0;  // Host writes per second.

struct RunResult {
  uint64_t applied = 0;     // Records applied in the window (sim).
  uint64_t wire_bytes = 0;  // Determinism check against the twin run.
  uint64_t blocks_scanned = 0;
  double host_seconds = 0;
  double applies_per_host_sec = 0;
};

RunResult RunFoldWorkload(bool scrub, bool quick) {
  // The full-mode window must span several 1 s scrub cycles, or the
  // "scrub on" arm would be measured during the inter-cycle idle gap.
  const SimDuration warmup = quick ? Milliseconds(32) : Milliseconds(160);
  const SimDuration measure = quick ? Milliseconds(96) : Milliseconds(3200);

  Rig rig = MakeRig(kFoldBlocks);
  if (scrub) {
    // Deployment defaults: 8 x 256-block extents per 5 ms tick, one full
    // pass per second — the pacing DemoSystemConfig::enable_scrub uses.
    // This is the "idle" figure: what an always-on scrubber costs a busy
    // production group, not a deliberately saturated scan.
    ZB_CHECK(rig.engine->EnableScrubbing(replication::ScrubConfig{}).ok());
  }
  rig.env->RunFor(Milliseconds(20));

  Rng rng(17);
  const auto period = static_cast<SimDuration>(kSecond / kRate);
  const std::string payload(block::kDefaultBlockSize, 'w');
  auto next_lba = [&] {
    return rng.Uniform(10) < 9 ? rng.Uniform(kHot)
                               : kHot + rng.Uniform(kFoldBlocks - kHot);
  };

  const SimTime warm_until = rig.env->now() + warmup;
  while (rig.env->now() < warm_until) {
    ZB_CHECK(rig.main->WriteSync(rig.primary, next_lba(), payload).ok());
    rig.env->RunFor(period);
  }

  auto before = rig.engine->GetGroupStats(rig.group);
  ZB_CHECK(before.ok());
  const uint64_t wire_before = rig.fwd->bytes_sent();
  const SimTime until = rig.env->now() + measure;
  const auto host0 = std::chrono::steady_clock::now();
  while (rig.env->now() < until) {
    ZB_CHECK(rig.main->WriteSync(rig.primary, next_lba(), payload).ok());
    rig.env->RunFor(period);
  }
  const auto host1 = std::chrono::steady_clock::now();
  auto after = rig.engine->GetGroupStats(rig.group);
  ZB_CHECK(after.ok());
  // A clean system must stay untouched: detection only, zero repairs —
  // and the measurement is only honest if scanning actually happened.
  if (scrub) {
    const replication::ScrubStats& st = rig.engine->scrubber()->stats();
    ZB_CHECK(st.blocks_scanned > 0) << "scrubber never ran";
    ZB_CHECK(st.repairs_scheduled == 0 && st.primary_restores == 0 &&
             st.checksum_mismatches == 0)
        << "scrub repaired something on a clean system";
  }

  RunResult res;
  res.applied = after->applied - before->applied;
  res.wire_bytes = rig.fwd->bytes_sent() - wire_before;
  res.blocks_scanned =
      scrub ? rig.engine->scrubber()->stats().blocks_scanned : 0;
  res.host_seconds = std::chrono::duration<double>(host1 - host0).count();
  res.applies_per_host_sec =
      res.host_seconds > 0 ? double(res.applied) / res.host_seconds : 0;
  return res;
}

// An always-on scrubber may cost at most this share of host throughput,
// judged on the median of the per-round overheads (full run only: the
// quick smoke's three short rounds cannot resolve 2%).
constexpr double kMaxOverheadPct = 2.0;

using OverheadResult = OnOffOverhead<RunResult>;

OverheadResult MeasureOverhead(bool quick) {
  // The gate judges the median of the per-round overheads. Single rounds
  // scatter by several percent, so the full run takes 101 rounds (a window
  // is about 0.12 s of host time, the run about 25 s).
  return MeasureOnOffOverhead<RunResult>(
      quick ? 3 : 101, [quick](bool scrub) {
        return RunFoldWorkload(scrub, quick);
      });
}

// ---- E15b: time-to-repair vs corruption burden ------------------------------

constexpr uint64_t kRepairBlocks = 4096;
constexpr uint32_t kRepairExtent = 16;  // Scrub/repair granularity (blocks).

struct RepairCell {
  int corrupted_extents = 0;
  double detect_ms = 0;  // First mismatch seen by the scrubber.
  double repair_ms = 0;  // All extents healed and re-verified.
  uint64_t repairs_scheduled = 0;
  uint64_t resync_blocks = 0;  // Wire cost of the targeted repair.
  uint64_t bad_reads = 0;      // Application-visible corruption afterwards.
  bool converged = false;
};

RepairCell RunRepairScenario(int corrupted_extents, bool quick) {
  RepairCell cell;
  cell.corrupted_extents = corrupted_extents;

  Rig rig = MakeRig(kRepairBlocks);
  // Populate every block so rot can land anywhere, and converge.
  const std::string run(8 * block::kDefaultBlockSize, 'd');
  for (uint64_t lba = 0; lba < kRepairBlocks; lba += 8) {
    ZB_CHECK(rig.main->WriteSync(rig.primary, lba, run).ok());
    rig.env->RunFor(Microseconds(50));
  }
  rig.env->RunFor(Milliseconds(200));
  block::MemVolume& pstore = rig.main->GetVolume(rig.primary)->store();
  block::MemVolume& sstore = rig.backup->GetVolume(rig.secondary)->store();
  ZB_CHECK(pstore.ContentEquals(sstore));

  // Rot one bit in each of `corrupted_extents` distinct extents, spread
  // evenly over the volume. Deterministic bit choice per extent.
  Rng rng(1000 + corrupted_extents);
  const uint64_t total_extents = kRepairBlocks / kRepairExtent;
  const uint64_t stride = total_extents / corrupted_extents;
  for (int i = 0; i < corrupted_extents; ++i) {
    const uint64_t extent = static_cast<uint64_t>(i) * stride;
    const uint64_t lba = extent * kRepairExtent + rng.Uniform(kRepairExtent);
    ZB_CHECK(sstore.FlipBit(lba, static_cast<uint32_t>(
                                     rng.Uniform(block::kDefaultBlockSize * 8))));
  }

  replication::ScrubConfig sc;
  sc.extent_blocks = kRepairExtent;
  sc.max_extents_per_step = 32;
  sc.step_interval = Milliseconds(1);
  sc.cycle_interval = Milliseconds(5);
  ZB_CHECK(rig.engine->EnableScrubbing(sc).ok());
  const replication::Scrubber* scrub = rig.engine->scrubber();

  const SimTime t0 = rig.env->now();
  SimTime detect_at = 0;
  const SimDuration deadline = quick ? Milliseconds(2000) : Milliseconds(8000);
  while (rig.env->now() - t0 < deadline) {
    rig.env->RunFor(Milliseconds(1));
    if (detect_at == 0 && scrub->stats().checksum_mismatches > 0) {
      detect_at = rig.env->now();
    }
    auto stats = rig.engine->GetGroupStats(rig.group);
    ZB_CHECK(stats.ok());
    if (stats->suspended) continue;
    if (scrub->stats().repairs_scheduled <
        static_cast<uint64_t>(corrupted_extents)) {
      continue;
    }
    if (pstore.ContentEquals(sstore)) break;
  }
  const SimTime healed_at = rig.env->now();

  cell.detect_ms =
      detect_at > 0 ? double(detect_at - t0) / double(kMillisecond) : -1;
  cell.repair_ms = double(healed_at - t0) / double(kMillisecond);
  cell.repairs_scheduled = scrub->stats().repairs_scheduled;
  auto stats = rig.engine->GetGroupStats(rig.group);
  ZB_CHECK(stats.ok());
  cell.resync_blocks = stats->resync_blocks;
  cell.converged = pstore.ContentEquals(sstore) && !stats->suspended;
  // The application-facing proof: every secondary block reads back clean
  // (the targeted resync also refreshed the CRC sidecar).
  std::string out;
  for (uint64_t lba = 0; lba < kRepairBlocks; ++lba) {
    if (!sstore.Read(lba, 1, &out).ok()) ++cell.bad_reads;
  }
  ZB_CHECK(cell.converged) << corrupted_extents << " extents not healed in "
                           << cell.repair_ms << " ms";
  ZB_CHECK(cell.bad_reads == 0);
  return cell;
}

std::vector<RepairCell> RunRepairSweep(bool quick) {
  std::vector<RepairCell> cells;
  const std::vector<int> burdens =
      quick ? std::vector<int>{1, 8} : std::vector<int>{1, 4, 16, 64};
  for (int n : burdens) cells.push_back(RunRepairScenario(n, quick));
  return cells;
}

// ---- JSON + table output ----------------------------------------------------

void WriteJson(const std::string& path, bool quick, const OverheadResult& ov,
               const std::vector<RepairCell>& sweep) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  ZB_CHECK(f != nullptr);
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"bench_scrub\",\n");
  std::fprintf(f, "  \"quick\": %s,\n", quick ? "true" : "false");
  std::fprintf(f, "  \"hardware_lanes\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"idle_overhead\": {\n");
  auto run_obj = [&](const char* key, const RunResult& r, const char* tail) {
    std::fprintf(f,
                 "    \"%s\": {\"applied\": %llu, \"wire_bytes\": %llu, "
                 "\"blocks_scanned\": %llu, \"host_seconds\": %.6f, "
                 "\"applies_per_host_sec\": %.0f}%s\n",
                 key, (unsigned long long)r.applied,
                 (unsigned long long)r.wire_bytes,
                 (unsigned long long)r.blocks_scanned, r.host_seconds,
                 r.applies_per_host_sec, tail);
  };
  run_obj("scrub_off", ov.off, ",");
  run_obj("scrub_on", ov.on, ",");
  std::fprintf(f, "    \"sim_results_identical\": %s,\n",
               ov.identical ? "true" : "false");
  std::fprintf(f, "    \"repeats\": %d,\n", ov.repeats);
  std::fprintf(f, "    \"overhead_pct\": %.3f,\n", ov.overhead_pct.median);
  std::fprintf(f, "    \"overhead_pct_q1\": %.3f,\n", ov.overhead_pct.q1);
  std::fprintf(f, "    \"overhead_pct_q3\": %.3f\n", ov.overhead_pct.q3);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"time_to_repair\": [\n");
  for (size_t i = 0; i < sweep.size(); ++i) {
    const RepairCell& c = sweep[i];
    std::fprintf(f,
                 "    {\"corrupted_extents\": %d, \"detect_ms\": %.2f, "
                 "\"repair_ms\": %.2f, \"repairs_scheduled\": %llu, "
                 "\"resync_blocks\": %llu, \"bad_reads\": %llu, "
                 "\"converged\": %s}%s\n",
                 c.corrupted_extents, c.detect_ms, c.repair_ms,
                 (unsigned long long)c.repairs_scheduled,
                 (unsigned long long)c.resync_blocks,
                 (unsigned long long)c.bad_reads,
                 c.converged ? "true" : "false",
                 i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
}

int Run(bool quick, const std::string& out_path) {
  PrintTitle("E15a: scrub idle overhead on the E10 fold workload "
             "(deployment defaults: 8 x 256-block extents / 5 ms tick, "
             "1 s cycle gap)");
  PrintLine("%12s %12s %14s %16s %18s  (median-time run)", "mode",
            "applied", "host_ms", "blocks_scanned", "applies_per_host_s");
  PrintRule();
  OverheadResult ov = MeasureOverhead(quick);
  for (const auto& [label, r] :
       {std::pair<const char*, const RunResult&>{"scrub_off", ov.off},
        {"scrub_on", ov.on}}) {
    PrintLine("%12s %12llu %14.2f %16llu %18.0f", label,
              (unsigned long long)r.applied, r.host_seconds * 1e3,
              (unsigned long long)r.blocks_scanned, r.applies_per_host_sec);
  }
  PrintRule();
  PrintLine("replication results identical: %s   host overhead: median "
            "%.2f%% [IQR %.2f to %.2f%%] over %d interleaved rounds "
            "(acceptance: median < %.0f%%)",
            ov.identical ? "yes" : "NO", ov.overhead_pct.median,
            ov.overhead_pct.q1, ov.overhead_pct.q3, ov.repeats,
            kMaxOverheadPct);
  ZB_CHECK(ov.identical);  // Scrub must not perturb clean replication.

  PrintTitle("E15b: time to detect + repair vs corruption burden "
             "(4096-block pair, 16-block extents, silent secondary rot)");
  PrintLine("%10s %12s %12s %10s %14s %10s", "extents", "detect_ms",
            "repair_ms", "repairs", "resync_blocks", "bad_reads");
  PrintRule();
  std::vector<RepairCell> sweep = RunRepairSweep(quick);
  for (const RepairCell& c : sweep) {
    PrintLine("%10d %12.2f %12.2f %10llu %14llu %10llu", c.corrupted_extents,
              c.detect_ms, c.repair_ms,
              (unsigned long long)c.repairs_scheduled,
              (unsigned long long)c.resync_blocks,
              (unsigned long long)c.bad_reads);
  }
  PrintRule();

  WriteJson(out_path, quick, ov, sweep);
  PrintLine("wrote %s", out_path.c_str());
  // Checked after the JSON is written, so a failing run keeps its numbers.
  if (!quick) {
    ZB_CHECK(ov.overhead_pct.median < kMaxOverheadPct)
        << "scrubbing costs " << ov.overhead_pct.median
        << "% of host throughput (want < " << kMaxOverheadPct << "%)";
  }
  return 0;
}

}  // namespace
}  // namespace zerobak::bench

int main(int argc, char** argv) {
  zerobak::SetLogLevel(zerobak::LogLevel::kError);
  bool quick = false;
  std::string out_path = "BENCH_scrub.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }
  return zerobak::bench::Run(quick, out_path);
}

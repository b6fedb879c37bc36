// E12 — What the observability layer costs and what it shows.
//
//   E12a Instrumentation overhead on the E10 fold workload (hot-10%
//        skewed overwrites at 20k writes/s, folding on, 1 Gbit/s link):
//        the identical run with the metric registry, trace ring, link and
//        journal instruments and a 10 ms RpoTracker attached, vs fully
//        detached. The simulation is deterministic, so sim-side results
//        (applies, bytes, fold counts) must be bit-identical either way;
//        the overhead is host CPU, reported as applies per host-second
//        and a percent slowdown, one sample per round of interleaved
//        detached/attached runs. Acceptance (full run): median < 2%.
//   E12b Continuous RPO vs inter-site link latency: the same workload
//        swept across base latencies, with the RpoTracker sampling every
//        millisecond. Reports mean/p99/max RPO from the tracker's
//        histogram — the time-series answer to "how much data is at risk
//        right now", which GroupStats::apply_lag used to misreport for
//        idle groups.
//
// Writes the results as JSON (default BENCH_observe.json; --out PATH to
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
#include "obs/metrics.h"
#include "obs/rpo.h"
#include "obs/trace.h"
#include "replication/replication.h"

namespace zerobak::bench {
namespace {

struct Rig {
  std::unique_ptr<sim::SimEnvironment> env;
  std::unique_ptr<storage::StorageArray> main;
  std::unique_ptr<storage::StorageArray> backup;
  std::unique_ptr<sim::NetworkLink> fwd;
  std::unique_ptr<sim::NetworkLink> rev;
  std::unique_ptr<replication::ReplicationEngine> engine;
  // Present only in instrumented runs.
  std::unique_ptr<obs::MetricRegistry> registry;
  std::unique_ptr<obs::TraceRing> trace;
  std::unique_ptr<obs::RpoTracker> tracker;
};

Rig MakeRig(SimDuration link_latency, bool observed) {
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
  link_cfg.base_latency = link_latency;
  link_cfg.jitter = 0;
  link_cfg.bandwidth_bytes_per_sec = 1.25e8;  // 1 Gbit/s.
  rig.fwd = std::make_unique<sim::NetworkLink>(rig.env.get(), link_cfg, "fwd");
  rig.rev = std::make_unique<sim::NetworkLink>(rig.env.get(), link_cfg, "rev");
  rig.engine = std::make_unique<replication::ReplicationEngine>(
      rig.env.get(), rig.main.get(), rig.backup.get(), rig.fwd.get(),
      rig.rev.get());
  if (observed) {
    rig.registry = std::make_unique<obs::MetricRegistry>();
    rig.trace = std::make_unique<obs::TraceRing>(8192);
    rig.engine->AttachObservability(rig.registry.get(), rig.trace.get());
    auto wire_link = [&](sim::NetworkLink* link, const std::string& prefix,
                         uint64_t trace_id) {
      sim::NetworkLink::Instruments ins;
      ins.messages = rig.registry->GetCounter(prefix + ".messages");
      ins.wire_bytes = rig.registry->GetCounter(prefix + ".wire_bytes");
      ins.dropped = rig.registry->GetCounter(prefix + ".dropped");
      ins.send_failures = rig.registry->GetCounter(prefix + ".send_failures");
      link->AttachObservability(ins, rig.trace.get(), trace_id);
    };
    wire_link(rig.fwd.get(), "link.to_backup", 1);
    wire_link(rig.rev.get(), "link.to_main", 2);
  }
  return rig;
}

// ---- The shared workload: E10a's skewed-overwrite fold scenario -------------

constexpr uint64_t kBlocks = 1024;
constexpr uint64_t kHot = kBlocks / 10;  // Hot 10% takes 90% of writes.
constexpr double kRate = 20000.0;        // Host writes per second.

struct RunResult {
  uint64_t applied = 0;          // Records applied in the window (sim).
  uint64_t wire_bytes = 0;       // Determinism check against the twin run.
  double host_seconds = 0;       // Wall clock for the measured window.
  double applies_per_sim_sec = 0;
  double applies_per_host_sec = 0;
  // Populated from the RpoTracker in observed runs.
  uint64_t rpo_samples = 0;
  double rpo_mean_ms = 0;
  double rpo_p99_ms = 0;
  double rpo_max_ms = 0;
};

RunResult RunFoldWorkload(SimDuration link_latency, bool observed,
                          SimDuration rpo_interval, bool quick) {
  const SimDuration warmup = quick ? Milliseconds(32) : Milliseconds(160);
  const SimDuration measure = quick ? Milliseconds(96) : Milliseconds(640);

  Rig rig = MakeRig(link_latency, observed);
  auto p = rig.main->CreateVolume("p", kBlocks);
  auto s = rig.backup->CreateVolume("s", kBlocks);
  ZB_CHECK(p.ok() && s.ok());
  replication::ConsistencyGroupConfig cg;
  cg.name = "fold";
  cg.transfer_interval = Milliseconds(16);
  cg.journal_capacity_bytes = 64ull << 20;
  cg.enable_write_folding = true;
  auto group = rig.engine->CreateConsistencyGroup(cg);
  ZB_CHECK(group.ok());
  replication::PairConfig pc;
  pc.name = "pair";
  pc.primary = *p;
  pc.secondary = *s;
  pc.mode = replication::ReplicationMode::kAsynchronous;
  pc.group = *group;
  ZB_CHECK(rig.engine->CreatePair(pc).ok());
  if (observed) {
    rig.tracker = std::make_unique<obs::RpoTracker>(
        rig.env.get(),
        [&rig] {
          std::vector<obs::RpoTracker::GroupSample> samples;
          for (replication::GroupId id : rig.engine->ListGroups()) {
            auto rpo = rig.engine->GroupRpo(id);
            if (rpo.ok()) samples.push_back({id, *rpo});
          }
          return samples;
        },
        rpo_interval);
    rig.tracker->Start();
  }
  rig.env->RunFor(Milliseconds(20));

  Rng rng(17);
  const auto period = static_cast<SimDuration>(kSecond / kRate);
  const std::string payload(block::kDefaultBlockSize, 'w');
  auto next_lba = [&] {
    return rng.Uniform(10) < 9 ? rng.Uniform(kHot)
                               : kHot + rng.Uniform(kBlocks - kHot);
  };

  const SimTime warm_until = rig.env->now() + warmup;
  while (rig.env->now() < warm_until) {
    ZB_CHECK(rig.main->WriteSync(*p, next_lba(), payload).ok());
    rig.env->RunFor(period);
  }

  auto before = rig.engine->GetGroupStats(*group);
  ZB_CHECK(before.ok());
  const uint64_t wire_before = rig.fwd->bytes_sent();
  const SimTime t0 = rig.env->now();
  const SimTime until = rig.env->now() + measure;
  const auto host0 = std::chrono::steady_clock::now();
  while (rig.env->now() < until) {
    ZB_CHECK(rig.main->WriteSync(*p, next_lba(), payload).ok());
    rig.env->RunFor(period);
  }
  const auto host1 = std::chrono::steady_clock::now();
  auto after = rig.engine->GetGroupStats(*group);
  ZB_CHECK(after.ok());

  RunResult res;
  res.applied = after->applied - before->applied;
  res.wire_bytes = rig.fwd->bytes_sent() - wire_before;
  res.host_seconds = std::chrono::duration<double>(host1 - host0).count();
  const double sim_seconds = double(rig.env->now() - t0) / double(kSecond);
  res.applies_per_sim_sec = double(res.applied) / sim_seconds;
  res.applies_per_host_sec =
      res.host_seconds > 0 ? double(res.applied) / res.host_seconds : 0;
  if (observed && rig.tracker != nullptr) {
    rig.tracker->Stop();
    const obs::GroupRpoSeries* series = rig.tracker->series(*group);
    if (series != nullptr) {
      res.rpo_samples = series->samples;
      res.rpo_mean_ms = series->histogram.Mean() / double(kMillisecond);
      res.rpo_p99_ms =
          series->histogram.Percentile(99) / double(kMillisecond);
      res.rpo_max_ms = double(series->max_rpo) / double(kMillisecond);
    }
  }
  return res;
}

// ---- E12a: overhead ---------------------------------------------------------

// The instrumentation may cost at most this share of host throughput,
// judged on the median of the per-round overheads (full run only: single
// rounds scatter by several percent, and the quick smoke's three rounds
// cannot resolve 2%).
constexpr double kMaxOverheadPct = 2.0;

// Off is fully detached, on fully attached.
using OverheadResult = OnOffOverhead<RunResult>;

OverheadResult MeasureOverhead(bool quick) {
  // The gate judges the median of the per-round overheads. A window is
  // only ~30 ms of host time, so the full run takes 101 rounds (about 8 s)
  // to pin the median to within about a percent.
  return MeasureOnOffOverhead<RunResult>(
      quick ? 3 : 101, [quick](bool observed) {
        return RunFoldWorkload(Milliseconds(5), observed, Milliseconds(10),
                               quick);
      });
}

// ---- E12b: RPO vs link latency ----------------------------------------------

struct LatencyCell {
  SimDuration latency;
  RunResult r;
};

std::vector<LatencyCell> RunLatencySweep(bool quick) {
  std::vector<LatencyCell> cells;
  for (const int ms : {1, 2, 5, 10, 20, 50}) {
    LatencyCell cell;
    cell.latency = Milliseconds(ms);
    // 1 ms sampling: fine enough to see the transfer-cycle sawtooth.
    cell.r = RunFoldWorkload(cell.latency, true, Milliseconds(1), quick);
    cells.push_back(cell);
  }
  return cells;
}

// ---- JSON + table output ----------------------------------------------------

void WriteJson(const std::string& path, bool quick, const OverheadResult& ov,
               const std::vector<LatencyCell>& sweep) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  ZB_CHECK(f != nullptr);
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"bench_observe\",\n");
  std::fprintf(f, "  \"quick\": %s,\n", quick ? "true" : "false");
  std::fprintf(f, "  \"hardware_lanes\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"overhead\": {\n");
  auto run_obj = [&](const char* key, const RunResult& r, const char* tail) {
    std::fprintf(f,
                 "    \"%s\": {\"applied\": %llu, \"wire_bytes\": %llu, "
                 "\"host_seconds\": %.6f, \"applies_per_sim_sec\": %.0f, "
                 "\"applies_per_host_sec\": %.0f}%s\n",
                 key, (unsigned long long)r.applied,
                 (unsigned long long)r.wire_bytes, r.host_seconds,
                 r.applies_per_sim_sec, r.applies_per_host_sec, tail);
  };
  run_obj("detached", ov.off, ",");
  run_obj("attached", ov.on, ",");
  std::fprintf(f, "    \"sim_results_identical\": %s,\n",
               ov.identical ? "true" : "false");
  std::fprintf(f, "    \"repeats\": %d,\n", ov.repeats);
  std::fprintf(f, "    \"overhead_pct\": %.3f,\n", ov.overhead_pct.median);
  std::fprintf(f, "    \"overhead_pct_q1\": %.3f,\n", ov.overhead_pct.q1);
  std::fprintf(f, "    \"overhead_pct_q3\": %.3f\n", ov.overhead_pct.q3);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"rpo_vs_latency\": [\n");
  for (size_t i = 0; i < sweep.size(); ++i) {
    const LatencyCell& c = sweep[i];
    std::fprintf(f,
                 "    {\"link_latency_ms\": %lld, \"samples\": %llu, "
                 "\"rpo_mean_ms\": %.3f, \"rpo_p99_ms\": %.3f, "
                 "\"rpo_max_ms\": %.3f}%s\n",
                 (long long)(c.latency / kMillisecond),
                 (unsigned long long)c.r.rpo_samples, c.r.rpo_mean_ms,
                 c.r.rpo_p99_ms, c.r.rpo_max_ms,
                 i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
}

int Run(bool quick, const std::string& out_path) {
  PrintTitle("E12a: instrumentation overhead on the E10 fold workload "
             "(metrics + trace + link/journal instruments + 10 ms "
             "RpoTracker)");
  PrintLine("%12s %12s %14s %18s %18s  (median-time run)", "mode",
            "applied", "host_ms", "applies_per_sim_s", "applies_per_host_s");
  PrintRule();
  OverheadResult ov = MeasureOverhead(quick);
  for (const auto& [label, r] :
       {std::pair<const char*, const RunResult&>{"detached", ov.off},
        {"attached", ov.on}}) {
    PrintLine("%12s %12llu %14.2f %18.0f %18.0f", label,
              (unsigned long long)r.applied, r.host_seconds * 1e3,
              r.applies_per_sim_sec, r.applies_per_host_sec);
  }
  PrintRule();
  PrintLine("sim results identical: %s   host overhead: median %.2f%% "
            "[IQR %.2f to %.2f%%] over %d interleaved rounds "
            "(acceptance: median < %.0f%%)",
            ov.identical ? "yes" : "NO", ov.overhead_pct.median,
            ov.overhead_pct.q1, ov.overhead_pct.q3, ov.repeats,
            kMaxOverheadPct);
  ZB_CHECK(ov.identical);  // Instruments must not perturb the sim.
  if (!quick) {
    ZB_CHECK(ov.overhead_pct.median < kMaxOverheadPct)
        << "instrumentation costs " << ov.overhead_pct.median
        << "% of host throughput (want < " << kMaxOverheadPct << "%)";
  }

  PrintTitle("E12b: continuous RPO vs inter-site link latency "
             "(1 ms RpoTracker sampling, 16 ms transfer cycle)");
  PrintLine("%14s %10s %12s %12s %12s", "latency_ms", "samples", "mean_ms",
            "p99_ms", "max_ms");
  PrintRule();
  std::vector<LatencyCell> sweep = RunLatencySweep(quick);
  for (const LatencyCell& c : sweep) {
    PrintLine("%14lld %10llu %12.2f %12.2f %12.2f",
              (long long)(c.latency / kMillisecond),
              (unsigned long long)c.r.rpo_samples, c.r.rpo_mean_ms,
              c.r.rpo_p99_ms, c.r.rpo_max_ms);
  }
  PrintRule();

  WriteJson(out_path, quick, ov, sweep);
  PrintLine("wrote %s", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace zerobak::bench

int main(int argc, char** argv) {
  zerobak::SetLogLevel(zerobak::LogLevel::kError);
  bool quick = false;
  std::string out_path = "BENCH_observe.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }
  return zerobak::bench::Run(quick, out_path);
}

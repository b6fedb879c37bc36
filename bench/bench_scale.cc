// E13 — Thousand-group scale: idle consistency groups must cost the
// event-driven GroupScheduler nothing.
//
// The scenario mirrors a consolidation array: up to 1024 consistency
// groups configured, of which only a handful (8) carry traffic at any
// moment. The scheduler arms a group only when its journal has something
// to ship, so idle groups cost nothing beyond a slow shared heartbeat.
//
// Reported per group count, busy load held constant:
//   - simulator events per simulated second (the scale metric),
//   - records applied per simulated second on the busy groups,
//   - max/min wire-bytes ratio across the busy groups sharing the
//     inter-site link (deficit-round-robin fairness).
//
// Acceptance (checked at the 1024-group cell, >= 1016 idle):
//   - events and applies equal the 8-group cell's exactly (idle groups
//     cost zero events),
//   - events/s <= kMaxEventsPerSimSec,
//   - applies equal the writes issued in the window plus the warm-up
//     backlog still in flight when it opened (nothing is left behind),
//   - fairness ratio <= 1.25,
//   - bit-identical events/applies when a seed is re-run.
//
// The per-group timer engine's A/B cells, measured before that engine
// was removed, are kept in EXPERIMENTS.md E13.
//
// Writes the results as JSON (default BENCH_scale.json; --out PATH to
// override), with the host's hardware lane count. --quick shrinks the
// sweep durations for the ctest smoke run.
#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "replication/replication.h"

namespace zerobak::bench {
namespace {

constexpr uint64_t kBusyGroups = 8;
constexpr uint64_t kBlocksPerVolume = 64;
constexpr double kWritesPerBusyGroup = 250.0;  // Host writes/s per busy group.
// 1/10 of the 517884 events/s the per-group timer engine burned at 1024
// groups (EXPERIMENTS.md E13, measured before that engine was removed).
constexpr double kMaxEventsPerSimSec = 51788;

struct ScaleCell {
  uint64_t groups = 0;
  uint64_t busy = 0;
  uint64_t seed = 0;
  uint64_t events = 0;           // Simulator events in the measure window.
  double sim_seconds = 0;
  double events_per_sim_sec = 0;
  uint64_t applied = 0;          // Records applied on busy groups.
  uint64_t writes = 0;           // Host writes issued in the window.
  uint64_t backlog_at_start = 0; // Written but unapplied when it opened.
  double applies_per_sim_sec = 0;
  double fairness_ratio = 0;     // max/min wire bytes across busy groups.
  uint64_t sched_dispatches = 0;
  uint64_t sched_heartbeat_rescues = 0;
};

struct ScaleRig {
  std::unique_ptr<sim::SimEnvironment> env;
  std::unique_ptr<storage::StorageArray> main;
  std::unique_ptr<storage::StorageArray> backup;
  std::unique_ptr<sim::NetworkLink> fwd;
  std::unique_ptr<sim::NetworkLink> rev;
  std::unique_ptr<replication::ReplicationEngine> engine;
  std::vector<replication::GroupId> groups;
  std::vector<storage::VolumeId> pvols;
};

ScaleRig MakeRig(uint64_t n_groups, uint64_t seed) {
  ScaleRig rig;
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
  link_cfg.base_latency = Milliseconds(1);
  link_cfg.jitter = 0;
  // 25 MB/s: above the steady offered load, so queueing is transient and
  // every written record applies inside the window.
  link_cfg.bandwidth_bytes_per_sec = 2.5e7;
  link_cfg.seed = seed * 31 + 1;
  rig.fwd = std::make_unique<sim::NetworkLink>(rig.env.get(), link_cfg, "fwd");
  sim::NetworkLinkConfig rev_cfg = link_cfg;
  rev_cfg.seed = seed * 31 + 2;
  rig.rev = std::make_unique<sim::NetworkLink>(rig.env.get(), rev_cfg, "rev");
  rig.engine = std::make_unique<replication::ReplicationEngine>(
      rig.env.get(), rig.main.get(), rig.backup.get(), rig.fwd.get(),
      rig.rev.get());

  for (uint64_t g = 0; g < n_groups; ++g) {
    replication::ConsistencyGroupConfig cg;
    cg.name = "cg" + std::to_string(g);
    cg.journal_capacity_bytes = 4ull << 20;
    cg.transfer_interval = Milliseconds(2);
    // Fixed batches: every busy group carries the same quantum, so the
    // fairness ratio isolates the dispatcher rather than adaptive sizing.
    cg.enable_adaptive_batching = false;
    cg.transfer_batch_bytes = 256ull << 10;
    auto group = rig.engine->CreateConsistencyGroup(cg);
    ZB_CHECK(group.ok());
    auto p = rig.main->CreateVolume("p" + std::to_string(g),
                                    kBlocksPerVolume);
    auto s = rig.backup->CreateVolume("s" + std::to_string(g),
                                      kBlocksPerVolume);
    ZB_CHECK(p.ok() && s.ok());
    replication::PairConfig pc;
    pc.primary = *p;
    pc.secondary = *s;
    pc.mode = replication::ReplicationMode::kAsynchronous;
    pc.group = *group;
    ZB_CHECK(rig.engine->CreatePair(pc).ok());
    rig.groups.push_back(*group);
    rig.pvols.push_back(*p);
  }
  rig.env->RunFor(Milliseconds(20));  // Empty initial copies settle.
  return rig;
}

ScaleCell RunCell(uint64_t n_groups, uint64_t seed, bool quick) {
  const uint64_t busy = std::min<uint64_t>(kBusyGroups, n_groups);
  const SimDuration warmup = Milliseconds(50);
  const SimDuration measure = quick ? Milliseconds(200) : Milliseconds(600);

  ScaleRig rig = MakeRig(n_groups, seed);
  ScaleCell cell;
  Rng rng(seed);
  const std::string payload(block::kDefaultBlockSize, 'e');
  const auto period =
      static_cast<SimDuration>(kSecond / (kWritesPerBusyGroup * busy));
  uint64_t turn = 0;
  auto write_one = [&] {
    const uint64_t g = turn++ % busy;
    const uint64_t lba = rng.Uniform(kBlocksPerVolume);
    ZB_CHECK(rig.main->WriteSync(rig.pvols[g], lba, payload).ok());
  };

  const SimTime warm_until = rig.env->now() + warmup;
  while (rig.env->now() < warm_until) {
    write_one();
    rig.env->RunFor(period);
  }

  std::vector<uint64_t> wire_before(busy);
  std::vector<uint64_t> applied_before(busy);
  for (uint64_t g = 0; g < busy; ++g) {
    auto stats = rig.engine->GetGroupStats(rig.groups[g]);
    ZB_CHECK(stats.ok());
    wire_before[g] = stats->wire_bytes_shipped;
    applied_before[g] = stats->applied;
    cell.backlog_at_start += stats->written - stats->applied;
  }
  const uint64_t events_before = rig.env->executed_events();
  const SimTime t0 = rig.env->now();

  const SimTime until = rig.env->now() + measure;
  while (rig.env->now() < until) {
    write_one();
    ++cell.writes;
    rig.env->RunFor(period);
  }
  rig.env->RunFor(Milliseconds(20));  // Drain in-flight batches and acks.

  cell.groups = n_groups;
  cell.busy = busy;
  cell.seed = seed;
  cell.events = rig.env->executed_events() - events_before;
  cell.sim_seconds =
      static_cast<double>(rig.env->now() - t0) / static_cast<double>(kSecond);
  cell.events_per_sim_sec = static_cast<double>(cell.events) / cell.sim_seconds;
  uint64_t wire_min = UINT64_MAX;
  uint64_t wire_max = 0;
  for (uint64_t g = 0; g < busy; ++g) {
    auto stats = rig.engine->GetGroupStats(rig.groups[g]);
    ZB_CHECK(stats.ok());
    ZB_CHECK(!stats->suspended);
    ZB_CHECK(stats->journal_overflows == 0);
    cell.applied += stats->applied - applied_before[g];
    const uint64_t wire = stats->wire_bytes_shipped - wire_before[g];
    wire_min = std::min(wire_min, wire);
    wire_max = std::max(wire_max, wire);
  }
  cell.applies_per_sim_sec =
      static_cast<double>(cell.applied) / cell.sim_seconds;
  cell.fairness_ratio =
      wire_min == 0 ? 0.0
                    : static_cast<double>(wire_max) /
                          static_cast<double>(wire_min);
  const auto sched = rig.engine->scheduler_stats();
  cell.sched_dispatches = sched.dispatches;
  cell.sched_heartbeat_rescues = sched.heartbeat_rescues;
  return cell;
}

void WriteJson(const std::string& path, bool quick,
               const std::vector<ScaleCell>& cells, bool idle_groups_free,
               bool applies_match_writes, bool reproducible) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  ZB_CHECK(f != nullptr);
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"bench_scale\",\n");
  std::fprintf(f, "  \"quick\": %s,\n", quick ? "true" : "false");
  std::fprintf(f, "  \"hardware_lanes\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"cells\": [\n");
  for (size_t i = 0; i < cells.size(); ++i) {
    const ScaleCell& c = cells[i];
    std::fprintf(
        f,
        "    {\"groups\": %llu, \"busy\": %llu, "
        "\"seed\": %llu, \"events\": %llu, \"sim_seconds\": %.4f, "
        "\"events_per_sim_sec\": %.0f, \"writes\": %llu, "
        "\"backlog_at_start\": %llu, \"applied\": %llu, "
        "\"applies_per_sim_sec\": %.0f, \"fairness_ratio\": %.4f, "
        "\"sched_dispatches\": %llu, \"heartbeat_rescues\": %llu}%s\n",
        (unsigned long long)c.groups, (unsigned long long)c.busy,
        (unsigned long long)c.seed, (unsigned long long)c.events,
        c.sim_seconds, c.events_per_sim_sec, (unsigned long long)c.writes,
        (unsigned long long)c.backlog_at_start, (unsigned long long)c.applied,
        c.applies_per_sim_sec, c.fairness_ratio,
        (unsigned long long)c.sched_dispatches,
        (unsigned long long)c.sched_heartbeat_rescues,
        i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"acceptance\": {\n");
  std::fprintf(f, "    \"events_per_sim_sec_at_1024\": %.0f,\n",
               cells.back().events_per_sim_sec);
  std::fprintf(f, "    \"idle_groups_cost_zero_events\": %s,\n",
               idle_groups_free ? "true" : "false");
  std::fprintf(f, "    \"applies_equal_writes\": %s,\n",
               applies_match_writes ? "true" : "false");
  std::fprintf(f, "    \"seed_rerun_identical\": %s\n",
               reproducible ? "true" : "false");
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
}

int Run(bool quick, const std::string& out_path) {
  PrintTitle("E13: simulator event rate vs configured group count "
             "(8 busy groups at 250 writes/s each; the rest idle)");
  PrintLine("%8s %8s %16s %16s %10s", "groups", "idle", "events_per_s",
            "applies_per_s", "fairness");
  PrintRule();

  const std::vector<uint64_t> sweep = {1, 8, 64, 256, 1024};
  std::vector<ScaleCell> cells;
  for (uint64_t n : sweep) {
    const ScaleCell c = RunCell(n, /*seed=*/1, quick);
    PrintLine("%8llu %8llu %16.0f %16.0f %10.3f",
              (unsigned long long)c.groups,
              (unsigned long long)(c.groups - c.busy), c.events_per_sim_sec,
              c.applies_per_sim_sec, c.fairness_ratio);
    cells.push_back(c);
  }
  PrintRule();
  const ScaleCell& eight = cells[1];
  const ScaleCell& full = cells.back();
  ZB_CHECK(eight.groups == 8 && full.groups == 1024);

  // Determinism: the scheduler must not cost the sim its reproducibility.
  const ScaleCell a = RunCell(1024, /*seed=*/2, quick);
  const ScaleCell b = RunCell(1024, /*seed=*/2, quick);
  const bool reproducible = a.events == b.events && a.applied == b.applied &&
                            a.fairness_ratio == b.fairness_ratio;
  const bool idle_groups_free =
      full.events == eight.events && full.applied == eight.applied;
  const bool applies_match_writes =
      full.applied == full.writes + full.backlog_at_start;

  PrintLine("1024 vs 8 groups: events %llu vs %llu, applies %llu vs %llu "
            "(acceptance: equal)",
            (unsigned long long)full.events, (unsigned long long)eight.events,
            (unsigned long long)full.applied,
            (unsigned long long)eight.applied);
  PrintLine("1024-group events/s: %.0f (acceptance: <= %.0f)   applies: %llu "
            "= %llu writes + %llu warm-up backlog: %s",
            full.events_per_sim_sec, kMaxEventsPerSimSec,
            (unsigned long long)full.applied, (unsigned long long)full.writes,
            (unsigned long long)full.backlog_at_start,
            applies_match_writes ? "yes" : "NO");
  PrintLine("busy-group fairness: %.3f (acceptance: <= 1.25)   "
            "seed re-run identical: %s",
            full.fairness_ratio, reproducible ? "yes" : "NO");
  ZB_CHECK(idle_groups_free);
  ZB_CHECK(full.events_per_sim_sec <= kMaxEventsPerSimSec);
  ZB_CHECK(applies_match_writes);
  ZB_CHECK(full.fairness_ratio > 0 && full.fairness_ratio <= 1.25);
  ZB_CHECK(reproducible);

  WriteJson(out_path, quick, cells, idle_groups_free, applies_match_writes,
            reproducible);
  PrintLine("wrote %s", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace zerobak::bench

int main(int argc, char** argv) {
  zerobak::SetLogLevel(zerobak::LogLevel::kError);
  bool quick = false;
  std::string out_path = "BENCH_scale.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }
  return zerobak::bench::Run(quick, out_path);
}

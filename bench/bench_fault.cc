// E9 — Failure detection and automatic recovery (fault model).
//
// Two tables. (1) Time to reconverge after a clean partition of length L:
// the ack-deadline detector suspends the group, and auto-resync brings it
// back at the instant the link heals (the link's ready edge); an
// undersized journal overflows during the outage and recovers through the
// same path. A failure first seen after the heal retries on the capped
// backoff instead. (2) Behaviour
// under sustained chaos (seeded FaultSchedule link flaps + random drops)
// at increasing flap intensity: host writes never fail, and the recovery
// machinery converges on its own after the faults clear.
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "fault/fault_schedule.h"
#include "replication/replication.h"
#include "storage/array.h"

namespace zerobak::bench {
namespace {

constexpr int kVolumes = 2;
constexpr uint64_t kBlocks = 128;

storage::ArrayConfig ZeroLatencyArray(const std::string& serial,
                                      uint64_t seed) {
  storage::ArrayConfig cfg;
  cfg.serial = serial;
  cfg.media = block::DeviceLatencyModel{0, 0, 0, 0, seed};
  return cfg;
}

sim::NetworkLinkConfig BenchLink(uint64_t seed) {
  sim::NetworkLinkConfig cfg;
  cfg.base_latency = Milliseconds(1);
  cfg.jitter = Microseconds(200);
  cfg.bandwidth_bytes_per_sec = 0;
  cfg.seed = seed;
  return cfg;
}

struct Rig {
  explicit Rig(uint64_t seed, uint64_t journal_bytes)
      : main(&env, ZeroLatencyArray("MAIN", 1)),
        backup(&env, ZeroLatencyArray("BKUP", 2)),
        to_backup(&env, BenchLink(seed * 31 + 1), "fwd"),
        to_main(&env, BenchLink(seed * 31 + 2), "rev"),
        engine(&env, &main, &backup, &to_backup, &to_main),
        rng(seed) {
    replication::ConsistencyGroupConfig cfg;
    cfg.name = "bench";
    cfg.journal_capacity_bytes = static_cast<int64_t>(journal_bytes);
    cfg.transfer_interval = Milliseconds(1);
    cfg.ack_timeout = Milliseconds(10);
    cfg.resync_backoff_initial = Milliseconds(2);
    cfg.resync_backoff_max = Milliseconds(20);
    group = std::move(engine.CreateConsistencyGroup(cfg)).value();
    for (int v = 0; v < kVolumes; ++v) {
      auto p = main.CreateVolume("vol" + std::to_string(v), kBlocks);
      auto s = backup.CreateVolume("r-vol" + std::to_string(v), kBlocks);
      ZB_CHECK(p.ok() && s.ok());
      pvols.push_back(*p);
      svols.push_back(*s);
      replication::PairConfig pc;
      pc.name = "pair" + std::to_string(v);
      pc.primary = *p;
      pc.secondary = *s;
      pc.mode = replication::ReplicationMode::kAsynchronous;
      pc.group = group;
      pairs.push_back(std::move(engine.CreatePair(pc)).value());
    }
    env.RunFor(Milliseconds(5));
  }

  void Write() {
    const int vol = static_cast<int>(rng.Uniform(kVolumes));
    const uint64_t lba = rng.Uniform(kBlocks);
    std::string data(block::kDefaultBlockSize,
                     static_cast<char>('a' + (writes % 26)));
    ZB_CHECK(main.WriteSync(pvols[static_cast<size_t>(vol)], lba, data)
                 .ok());
    ++writes;
  }

  void RunWrites(int n, SimDuration mean_gap) {
    for (int i = 0; i < n; ++i) {
      Write();
      env.RunFor(static_cast<SimDuration>(
          rng.Uniform(static_cast<uint64_t>(mean_gap)) +
          Microseconds(50)));
    }
  }

  bool Converged() {
    auto stats = engine.GetGroupStats(group);
    if (!stats.ok() || stats->suspended ||
        stats->applied != stats->written) {
      return false;
    }
    for (int v = 0; v < kVolumes; ++v) {
      if (engine.GetPair(pairs[static_cast<size_t>(v)])->state() !=
          replication::PairState::kPaired) {
        return false;
      }
      if (!main.GetVolume(pvols[static_cast<size_t>(v)])
               ->ContentEquals(
                   *backup.GetVolume(svols[static_cast<size_t>(v)]))) {
        return false;
      }
    }
    return true;
  }

  // Sim-time from now until full convergence; -1 if it never happens.
  double ReconvergeMs() {
    const SimTime start = env.now();
    for (int round = 0; round < 400; ++round) {
      if (Converged()) return ToMilliseconds(env.now() - start);
      env.RunFor(Milliseconds(1));
    }
    return -1;
  }

  sim::SimEnvironment env;
  storage::StorageArray main;
  storage::StorageArray backup;
  sim::NetworkLink to_backup;
  sim::NetworkLink to_main;
  replication::ReplicationEngine engine;
  Rng rng;
  replication::GroupId group = 0;
  std::vector<storage::VolumeId> pvols;
  std::vector<storage::VolumeId> svols;
  std::vector<replication::PairId> pairs;
  uint64_t writes = 0;
};

void PartitionTable() {
  PrintTitle(
      "E9a: auto-recovery after a clean partition of length L (ack "
      "timeout 10 ms, resync backoff 2..20 ms; no operator action)");
  PrintLine("%12s %10s %10s %10s %10s %10s %14s", "outage_ms", "journal",
            "writes", "ack_to", "attempts", "overflow", "reconverge_ms");
  PrintRule();
  struct JournalSize {
    const char* label;
    uint64_t bytes;
  };
  const JournalSize sizes[] = {{"64KiB", 64ull << 10},
                               {"4MiB", 4ull << 20}};
  for (SimDuration outage : {Milliseconds(2), Milliseconds(10),
                             Milliseconds(50), Milliseconds(200)}) {
    for (const JournalSize& size : sizes) {
      Rig rig(42, size.bytes);
      rig.RunWrites(100, Microseconds(400));
      // Partition both directions; keep writing through the outage.
      rig.to_backup.SetConnected(false);
      rig.to_main.SetConnected(false);
      const int during =
          static_cast<int>(outage / Microseconds(450)) + 1;
      rig.RunWrites(during, Microseconds(400));
      rig.to_backup.SetConnected(true);
      rig.to_main.SetConnected(true);
      const double ms = rig.ReconvergeMs();
      auto stats = rig.engine.GetGroupStats(rig.group);
      ZB_CHECK(stats.ok());
      PrintLine("%12.1f %10s %10llu %10llu %10llu %10s %14.1f",
                ToMilliseconds(outage), size.label,
                static_cast<unsigned long long>(rig.writes),
                static_cast<unsigned long long>(stats->ack_timeouts),
                static_cast<unsigned long long>(
                    stats->auto_resync_attempts),
                stats->journal_overflows > 0 ? "yes" : "no", ms);
    }
    PrintRule();
  }
  PrintLine("Expected shape: a group suspended during the outage resyncs "
            "on the heal edge, so reconverge time stays near one round "
            "trip whatever the outage length; an outage shorter than the "
            "ack timeout is detected after the heal and pays the timeout "
            "plus one backoff. No operator action in any row.");
}

void ChaosTable() {
  PrintTitle(
      "E9b: sustained chaos (link flaps + 2% random drop, seeded "
      "FaultSchedule) at increasing flap intensity");
  PrintLine("%14s %8s %8s %8s %10s %10s %10s %14s", "mean_flap_ms",
            "faults", "dropped", "ack_to", "resync_to", "attempts",
            "overflow", "reconverge_ms");
  PrintRule();
  for (SimDuration mean_flap : {Milliseconds(50), Milliseconds(20),
                                Milliseconds(10), Milliseconds(5)}) {
    Rig rig(7, 256ull << 10);
    fault::FaultScheduleConfig fcfg;
    fcfg.seed = 99;
    fcfg.horizon = Milliseconds(150);
    fcfg.mean_flap_interval = mean_flap;
    fcfg.min_outage = Milliseconds(1);
    fcfg.max_outage = Milliseconds(6);
    fcfg.mean_spike_interval = Milliseconds(40);
    fcfg.spike_latency = Milliseconds(3);
    fault::FaultSchedule schedule(&rig.env, fcfg);
    schedule.AddLink(&rig.to_backup);
    schedule.AddLink(&rig.to_main);
    schedule.Arm();
    rig.to_backup.set_drop_probability(0.02);
    rig.to_main.set_drop_probability(0.02);
    rig.RunWrites(300, Microseconds(400));
    schedule.Heal();
    rig.to_backup.set_drop_probability(0.0);
    rig.to_main.set_drop_probability(0.0);
    const double ms = rig.ReconvergeMs();
    auto stats = rig.engine.GetGroupStats(rig.group);
    ZB_CHECK(stats.ok());
    PrintLine("%14.1f %8llu %8llu %8llu %10llu %10llu %10llu %14.1f",
              ToMilliseconds(mean_flap),
              static_cast<unsigned long long>(schedule.faults_fired()),
              static_cast<unsigned long long>(
                  rig.to_backup.messages_dropped() +
                  rig.to_main.messages_dropped()),
              static_cast<unsigned long long>(stats->ack_timeouts),
              static_cast<unsigned long long>(stats->resync_timeouts),
              static_cast<unsigned long long>(
                  stats->auto_resync_attempts),
              static_cast<unsigned long long>(stats->journal_overflows),
              ms);
  }
  PrintRule();
  PrintLine("Expected shape: detection and retry counters grow with flap "
            "intensity; every row reconverges after Heal with zero host "
            "write failures (all writes acked in every cell).");
}

void Run() {
  PartitionTable();
  ChaosTable();
}

}  // namespace
}  // namespace zerobak::bench

int main() {
  zerobak::SetLogLevel(zerobak::LogLevel::kError);
  zerobak::bench::Run();
}

// E14 — Parallel compute layer: host-side throughput of the one stage the
// ThreadPool offloads, bulk-frame capture (wire::EncodeExtents: the extent
// reads and per-chunk compression of resync and giveback frames), swept
// over compute lane counts at two frame sizes:
//
//   bulk_encode    512 extents x 16 blocks (32 MiB), a large backlog;
//   resync_encode   75 extents x 16 blocks (4.7 MiB), about the 1,200
//                  blocks one outage_recovery resync carries.
//
// Journal batch encode, decode and apply are not swept: they run inline,
// because at batch sizes (tens of records) more lanes measured slower.
//
// Every lane count's frame is first checked byte-identical to the
// single-lane frame; the speedup is only worth reporting if the bytes are
// the same. Then the lane counts are timed in interleaved
// rounds and each reports its median throughput with the interquartile
// range.
//
// Acceptance (checked only in the full run on a host with >= 4 hardware
// lanes, since a narrow container can only measure oversubscription): at
// 4 lanes the median speedup over one lane must reach kMinBulkSpeedup on
// the large frame and kMinResyncSpeedup on the resync-sized one.
//
// Writes BENCH_parallel.json (--out PATH to override); --quick shrinks
// the large frame for the ctest smoke run.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "block/mem_volume.h"
#include "common/logging.h"
#include "common/rng.h"
#include "exec/thread_pool.h"
#include "replication/wire.h"

namespace zerobak::bench {
namespace {

namespace wire = replication::wire;

constexpr uint32_t kBlockSize = 4096;
constexpr uint32_t kExtentBlocks = 16;
const std::vector<unsigned> kLaneCounts = {1, 2, 4, 8};
// Gates at 4 lanes, set well below the medians measured on a 4-lane VM
// (2.1-2.3x on the large frame, 1.7-2.6x on the resync-sized one, over 9
// runs) to leave margin for a loaded shared host.
constexpr double kMinBulkSpeedup = 1.5;
constexpr double kMinResyncSpeedup = 1.3;

struct StagePoint {
  unsigned threads = 0;
  Spread mb_per_s;
  double speedup = 0;  // Median vs the single-lane median of the stage.
};

struct StageResult {
  std::string name;
  int extents = 0;
  std::vector<StagePoint> points;
};

// A checksummed volume with `extents` dirty extents of kExtentBlocks
// blocks, every other extent-sized slot, like a real delta; the pages mix
// random (stored-escape) and row-like (compressible) content.
struct DirtyVolume {
  std::unique_ptr<block::MemVolume> volume;
  std::vector<wire::Extent> extents;
};

DirtyVolume MakeDirtyVolume(int extents) {
  DirtyVolume out;
  out.volume = std::make_unique<block::MemVolume>(
      static_cast<uint64_t>(extents) * kExtentBlocks * 2, kBlockSize);
  out.volume->EnableChecksums();
  Rng rng(4242);
  std::string data(static_cast<size_t>(kExtentBlocks) * kBlockSize, '\0');
  for (int i = 0; i < extents; ++i) {
    const uint64_t lba = static_cast<uint64_t>(i) * kExtentBlocks * 2;
    for (size_t off = 0; off < data.size(); ++off) {
      data[off] = i % 3 == 0 ? static_cast<char>(rng.Uniform(256))
                             : static_cast<char>('a' + (off % 97) % 26);
    }
    ZB_CHECK(out.volume->Write(lba, kExtentBlocks, data).ok());
    out.extents.push_back(
        wire::Extent{1, lba, kExtentBlocks, out.volume.get()});
  }
  return out;
}

// Each timed sample encodes the frame enough times to capture about
// `sample_bytes`: a resync-sized frame encodes in about a millisecond,
// short enough for one scheduler hiccup on a shared host to swing a
// single-encode sample.
StageResult BenchBulkEncode(const std::string& name, int extents,
                            const std::vector<exec::ThreadPool*>& pools,
                            int repeats, uint64_t sample_bytes) {
  const DirtyVolume dirty = MakeDirtyVolume(extents);
  const uint64_t frame_bytes =
      static_cast<uint64_t>(extents) * kExtentBlocks * kBlockSize;
  const uint64_t calls = std::max<uint64_t>(1, sample_bytes / frame_bytes);
  // The check round doubles as the warm-up.
  const std::string reference =
      wire::EncodeExtents(dirty.extents, /*compress=*/true).frame;
  for (size_t arm = 0; arm < pools.size(); ++arm) {
    ZB_CHECK(wire::EncodeExtents(dirty.extents, true, pools[arm]).frame ==
             reference)
        << name << " not lane-count invariant at " << kLaneCounts[arm]
        << " lanes";
  }
  const auto seconds = TimeInterleaved(pools.size(), repeats, [&](size_t arm) {
    for (uint64_t c = 0; c < calls; ++c) {
      const wire::EncodedBatch enc =
          wire::EncodeExtents(dirty.extents, true, pools[arm]);
      ZB_CHECK(enc.frame.size() == reference.size());
    }
  });

  StageResult stage{name, extents, {}};
  for (size_t arm = 0; arm < pools.size(); ++arm) {
    std::vector<double> mb_per_s;
    for (double s : seconds[arm]) {
      mb_per_s.push_back(static_cast<double>(frame_bytes * calls) / s /
                         (1024.0 * 1024.0));
    }
    stage.points.push_back(
        {kLaneCounts[arm], Summarize(std::move(mb_per_s)), 0});
  }
  for (StagePoint& p : stage.points) {
    p.speedup = p.mb_per_s.median / stage.points[0].mb_per_s.median;
  }
  return stage;
}

void WriteJson(const std::string& path, bool quick, int repeats,
               const std::vector<StageResult>& results) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  ZB_CHECK(f != nullptr) << "cannot write " << path;
  std::fprintf(f, "{\n  \"experiment\": \"E14\",\n");
  std::fprintf(f, "  \"quick\": %s,\n", quick ? "true" : "false");
  std::fprintf(f, "  \"hardware_lanes\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"repeats\": %d,\n", repeats);
  std::fprintf(f, "  \"stages\": {\n");
  for (size_t s = 0; s < results.size(); ++s) {
    std::fprintf(f, "    \"%s\": {\"extents\": %d, \"extent_blocks\": %u, "
                 "\"points\": [\n",
                 results[s].name.c_str(), results[s].extents, kExtentBlocks);
    const auto& pts = results[s].points;
    for (size_t i = 0; i < pts.size(); ++i) {
      std::fprintf(f,
                   "      {\"threads\": %u, \"mb_per_s\": %.1f, "
                   "\"mb_per_s_q1\": %.1f, \"mb_per_s_q3\": %.1f, "
                   "\"speedup\": %.2f}%s\n",
                   pts[i].threads, pts[i].mb_per_s.median, pts[i].mb_per_s.q1,
                   pts[i].mb_per_s.q3, pts[i].speedup,
                   i + 1 < pts.size() ? "," : "");
    }
    std::fprintf(f, "    ]}%s\n", s + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
}

int Run(bool quick, const std::string& out_path) {
  // On a narrow host the sweep still runs: the bit-identity checks are
  // host-independent even when the timings only show oversubscription.
  // One lane is the engine's inline path: no pool at all.
  std::vector<std::unique_ptr<exec::ThreadPool>> owned;
  std::vector<exec::ThreadPool*> pools;
  for (unsigned lanes : kLaneCounts) {
    owned.push_back(lanes > 1 ? std::make_unique<exec::ThreadPool>(lanes)
                              : nullptr);
    pools.push_back(owned.back().get());
  }
  const int repeats = quick ? 5 : 11;
  const uint64_t sample_bytes = (quick ? 4ull : 32ull) << 20;
  std::vector<StageResult> results;
  results.push_back(BenchBulkEncode("bulk_encode", quick ? 64 : 512, pools,
                                    repeats, sample_bytes));
  results.push_back(
      BenchBulkEncode("resync_encode", 75, pools, repeats, sample_bytes));

  for (const StageResult& stage : results) {
    std::printf("%-14s", stage.name.c_str());
    for (const StagePoint& p : stage.points) {
      std::printf("  %ut: %7.1f MB/s [%.1f-%.1f] (%.2fx)", p.threads,
                  p.mb_per_s.median, p.mb_per_s.q1, p.mb_per_s.q3,
                  p.speedup);
    }
    std::printf("\n");
  }

  // Acceptance: only meaningful with real hardware lanes to scale onto.
  if (std::thread::hardware_concurrency() >= 4 && !quick) {
    for (const StageResult& stage : results) {
      const double want =
          stage.name == "bulk_encode" ? kMinBulkSpeedup : kMinResyncSpeedup;
      for (const StagePoint& p : stage.points) {
        if (p.threads != 4) continue;
        ZB_CHECK(p.speedup >= want)
            << stage.name << " at 4 lanes only " << p.speedup
            << "x over single-lane (want >= " << want << "x)";
      }
    }
  }

  WriteJson(out_path, quick, repeats, results);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace zerobak::bench

int main(int argc, char** argv) {
  zerobak::SetLogLevel(zerobak::LogLevel::kError);
  bool quick = false;
  std::string out_path = "BENCH_parallel.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }
  return zerobak::bench::Run(quick, out_path);
}

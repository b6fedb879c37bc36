// E14 — Parallel compute layer: host-side throughput of the three hot
// stages the ThreadPool offloads (wire encode, wire decode, batch apply)
// plus the bulk-frame encode of resyncs and givebacks, swept over compute
// lane counts. Every stage's output is cross-checked against the
// single-lane run first: the speedup is only worth reporting if the bytes
// are bit-identical.
//
// Acceptance (checked only when the host has >= 4 hardware lanes, since
// a 1-core container can only measure oversubscription): wire encode at
// 4 lanes must reach >= 2.5x the single-lane throughput.
//
// Writes BENCH_parallel.json (--out PATH to override); --quick shrinks
// the working set for the ctest smoke run.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/crc32c.h"
#include "common/logging.h"
#include "common/rng.h"
#include "exec/thread_pool.h"
#include "journal/journal.h"
#include "replication/wire.h"
#include "storage/volume.h"

namespace zerobak::bench {
namespace {

using journal::JournalRecord;
using journal::PayloadBuffer;
namespace wire = replication::wire;

constexpr uint32_t kBlockSize = 4096;

struct StagePoint {
  unsigned threads = 0;
  double mb_per_s = 0;
  double speedup = 0;  // vs the single-lane point of the same stage.
};

struct StageResult {
  std::string name;
  std::vector<StagePoint> points;
};

// A shipped batch's worth of journal records: multi-block extents with a
// DB-like mix of structured (compressible) and random (stored-escape)
// pages, sized so the plain body is well past wire::kChunkBytes.
std::vector<JournalRecord> MakeBatch(int records, Rng* rng) {
  std::vector<JournalRecord> batch;
  batch.reserve(records);
  for (int i = 0; i < records; ++i) {
    JournalRecord rec;
    rec.sequence = 1000 + i;
    rec.volume_id = 1 + (i % 4);
    rec.lba = static_cast<uint64_t>(i) * 4;
    rec.block_count = 2;
    rec.ack_time = 1000000 + i;
    rec.atomic_through = 1000 + records - 1;
    std::string payload(2 * kBlockSize, '\0');
    if (i % 3 == 0) {
      for (char& c : payload) c = static_cast<char>(rng->Uniform(256));
    } else {
      // Row-like repetition: compresses well but not trivially.
      for (size_t off = 0; off < payload.size(); ++off) {
        payload[off] = static_cast<char>('a' + (off % 97) % 26);
      }
    }
    rec.payload = PayloadBuffer::Copy(payload);
    batch.push_back(std::move(rec));
  }
  return batch;
}

double MbPerSec(uint64_t bytes, int reps, double seconds) {
  if (seconds <= 0) return 0;
  return static_cast<double>(bytes) * reps / seconds / (1024.0 * 1024.0);
}

template <typename Fn>
double TimeReps(int reps, Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  for (int r = 0; r < reps; ++r) fn();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(stop - start).count();
}

std::unique_ptr<exec::ThreadPool> MakePool(unsigned threads) {
  // threads == 1 exercises the engine's inline path (no pool at all).
  if (threads <= 1) return nullptr;
  return std::make_unique<exec::ThreadPool>(threads);
}

// ---- Stage 1+2: wire encode / decode ----------------------------------

void BenchWire(const std::vector<unsigned>& lane_counts, int records,
               int reps, std::vector<StageResult>* out) {
  Rng rng(1234);
  const auto batch = MakeBatch(records, &rng);
  const wire::EncodedBatch reference =
      wire::EncodeBatch(batch, /*compress=*/true);
  ZB_CHECK(reference.logical_bytes > wire::kChunkBytes)
      << "batch too small to engage the chunked path";

  StageResult encode{"wire_encode", {}};
  StageResult decode{"wire_decode", {}};
  for (unsigned threads : lane_counts) {
    auto pool = MakePool(threads);

    const wire::EncodedBatch check =
        wire::EncodeBatch(batch, true, pool.get());
    ZB_CHECK(check.frame == reference.frame)
        << "encode not lane-count invariant at " << threads << " lanes";
    const double enc_s = TimeReps(reps, [&] {
      wire::EncodedBatch enc = wire::EncodeBatch(batch, true, pool.get());
      ZB_CHECK(enc.frame.size() == reference.frame.size());
    });
    encode.points.push_back(
        {threads, MbPerSec(reference.logical_bytes, reps, enc_s), 0});

    auto decoded = wire::DecodeBatch(reference.frame, pool.get());
    ZB_CHECK(decoded.ok() && decoded->size() == batch.size());
    const double dec_s = TimeReps(reps, [&] {
      auto got = wire::DecodeBatch(reference.frame, pool.get());
      ZB_CHECK(got.ok());
    });
    decode.points.push_back(
        {threads, MbPerSec(reference.logical_bytes, reps, dec_s), 0});
  }
  out->push_back(std::move(encode));
  out->push_back(std::move(decode));
}

// ---- Stage 3: two-phase batch apply -----------------------------------

void BenchApply(const std::vector<unsigned>& lane_counts, int runs_per_batch,
                int reps, std::vector<StageResult>* out) {
  const uint32_t run_blocks = 8;
  const uint64_t volume_blocks =
      static_cast<uint64_t>(runs_per_batch) * run_blocks + 64;
  Rng rng(777);
  std::vector<std::string> payloads;
  std::vector<block::BlockRun> runs;
  for (int i = 0; i < runs_per_batch; ++i) {
    std::string data(static_cast<size_t>(run_blocks) * kBlockSize, '\0');
    for (char& c : data) c = static_cast<char>(rng.Uniform(256));
    payloads.push_back(std::move(data));
  }
  for (int i = 0; i < runs_per_batch; ++i) {
    block::BlockRun run;
    run.lba = static_cast<uint64_t>(i) * run_blocks;  // Sorted, disjoint.
    run.count = run_blocks;
    run.data = payloads[i];
    runs.push_back(run);
  }
  const uint64_t batch_bytes =
      static_cast<uint64_t>(runs_per_batch) * run_blocks * kBlockSize;

  uint32_t reference_crc = 0;
  StageResult apply{"batch_apply", {}};
  for (unsigned threads : lane_counts) {
    auto pool = MakePool(threads);
    storage::Volume volume(1, "bench", volume_blocks, kBlockSize);
    const double s = TimeReps(reps, [&] {
      size_t admitted = 0;
      ZB_CHECK(volume.PrepareRun(runs.data(), runs.size(), &admitted).ok());
      ZB_CHECK(admitted == runs.size());
      if (pool != nullptr) {
        pool->ParallelFor(admitted, 4, [&](size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) volume.CommitRun(runs[i]);
        });
      } else {
        for (size_t i = 0; i < admitted; ++i) volume.CommitRun(runs[i]);
      }
    });
    uint32_t crc = 0;
    for (uint64_t lba = 0; lba < volume_blocks; ++lba) {
      const std::string_view b = volume.store().ReadBlockView(lba);
      crc = Crc32cExtend(crc, b.data(), b.size());
    }
    if (threads == lane_counts.front()) {
      reference_crc = crc;
    } else {
      ZB_CHECK(crc == reference_crc)
          << "apply not lane-count invariant at " << threads << " lanes";
    }
    apply.points.push_back({threads, MbPerSec(batch_bytes, reps, s), 0});
  }
  out->push_back(std::move(apply));
}

// ---- Stage 4: bulk-frame encode ---------------------------------------

// The engine's resync and giveback capture: wire::EncodeExtents reads the
// dirty extents straight into one frame body and seals it (compress, CRC,
// header) across the lanes.
void BenchBulkEncode(const std::vector<unsigned>& lane_counts, int extents,
                     int reps, std::vector<StageResult>* out) {
  const uint32_t extent_blocks = 16;
  const uint64_t volume_blocks =
      static_cast<uint64_t>(extents) * extent_blocks * 2;
  block::MemVolume volume(volume_blocks, kBlockSize);
  Rng rng(4242);
  std::string data(static_cast<size_t>(extent_blocks) * kBlockSize, '\0');
  std::vector<wire::Extent> dirty;
  for (int i = 0; i < extents; ++i) {
    // Every other extent-sized slot dirty: scattered like a real delta,
    // with the DB-like page mix of MakeBatch.
    const uint64_t lba = static_cast<uint64_t>(i) * extent_blocks * 2;
    for (size_t off = 0; off < data.size(); ++off) {
      data[off] = i % 3 == 0 ? static_cast<char>(rng.Uniform(256))
                             : static_cast<char>('a' + (off % 97) % 26);
    }
    ZB_CHECK(volume.Write(lba, extent_blocks, data).ok());
    dirty.push_back(wire::Extent{1, lba, extent_blocks, &volume});
  }
  const uint64_t capture_bytes =
      static_cast<uint64_t>(extents) * extent_blocks * kBlockSize;

  std::string reference_frame;
  StageResult bulk{"bulk_encode", {}};
  for (unsigned threads : lane_counts) {
    auto pool = MakePool(threads);
    wire::EncodedBatch enc;
    const double s = TimeReps(reps, [&] {
      enc = wire::EncodeExtents(dirty, /*compress=*/true, pool.get());
    });
    if (threads == lane_counts.front()) {
      reference_frame = enc.frame;
    } else {
      ZB_CHECK(enc.frame == reference_frame)
          << "bulk encode not lane-count invariant at " << threads
          << " lanes";
    }
    bulk.points.push_back({threads, MbPerSec(capture_bytes, reps, s), 0});
  }
  out->push_back(std::move(bulk));
}

// -----------------------------------------------------------------------

void FillSpeedups(std::vector<StageResult>* results) {
  for (StageResult& stage : *results) {
    if (stage.points.empty()) continue;
    const double base = stage.points.front().mb_per_s;
    for (StagePoint& p : stage.points) {
      p.speedup = base > 0 ? p.mb_per_s / base : 0;
    }
  }
}

void WriteJson(const std::string& path, bool quick,
               const std::vector<StageResult>& results) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  ZB_CHECK(f != nullptr) << "cannot write " << path;
  std::fprintf(f, "{\n  \"experiment\": \"E14\",\n");
  std::fprintf(f, "  \"quick\": %s,\n", quick ? "true" : "false");
  std::fprintf(f, "  \"hardware_lanes\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"stages\": {\n");
  for (size_t s = 0; s < results.size(); ++s) {
    std::fprintf(f, "    \"%s\": [\n", results[s].name.c_str());
    const auto& pts = results[s].points;
    for (size_t i = 0; i < pts.size(); ++i) {
      std::fprintf(f,
                   "      {\"threads\": %u, \"mb_per_s\": %.1f, "
                   "\"speedup\": %.2f}%s\n",
                   pts[i].threads, pts[i].mb_per_s, pts[i].speedup,
                   i + 1 < pts.size() ? "," : "");
    }
    std::fprintf(f, "    ]%s\n", s + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
}

int Run(bool quick, const std::string& out_path) {
  // On a wide host, sweep past 4 lanes; on a narrow one, still run the
  // sweep — the determinism cross-checks are host-independent even when
  // the timings only show oversubscription.
  const std::vector<unsigned> lane_counts = {1, 2, 4, 8};
  std::vector<StageResult> results;

  const int records = quick ? 96 : 768;          // 8 KiB payload each.
  const int wire_reps = quick ? 3 : 20;
  BenchWire(lane_counts, records, wire_reps, &results);

  const int runs = quick ? 128 : 1024;           // 32 KiB each.
  const int apply_reps = quick ? 3 : 20;
  BenchApply(lane_counts, runs, apply_reps, &results);

  const int extents = quick ? 64 : 512;          // 64 KiB each.
  const int bulk_reps = quick ? 3 : 20;
  BenchBulkEncode(lane_counts, extents, bulk_reps, &results);

  FillSpeedups(&results);

  for (const StageResult& stage : results) {
    std::printf("%-14s", stage.name.c_str());
    for (const StagePoint& p : stage.points) {
      std::printf("  %ut: %8.1f MB/s (%.2fx)", p.threads, p.mb_per_s,
                  p.speedup);
    }
    std::printf("\n");
  }

  // Acceptance: only meaningful with real hardware lanes to scale onto.
  if (std::thread::hardware_concurrency() >= 4 && !quick) {
    for (const StageResult& stage : results) {
      if (stage.name != "wire_encode") continue;
      for (const StagePoint& p : stage.points) {
        if (p.threads == 4) {
          ZB_CHECK(p.speedup >= 2.5)
              << "wire encode at 4 lanes only " << p.speedup
              << "x over single-lane (want >= 2.5x)";
        }
      }
    }
  }

  WriteJson(out_path, quick, results);
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

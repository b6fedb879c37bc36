// Microbenchmarks (google-benchmark) for the hot data-path primitives:
// journal append/peek/trim, CRC32C, the block codec, WAL record codec,
// MiniDb commit, event-queue churn, COW write path, and JSON
// (de)serialization. These are wall-clock benchmarks of the library code
// itself, complementing the simulated-time experiment benches E1-E7.
#include <benchmark/benchmark.h>

#include <malloc.h>

#include <climits>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "block/mem_volume.h"
#include "common/compress.h"
#include "common/crc32c.h"
#include "common/histogram.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/value.h"
#include "db/format.h"
#include "db/minidb.h"
#include "journal/journal.h"
#include "replication/wire.h"
#include "sim/environment.h"
#include "snapshot/snapshot.h"
#include "storage/array.h"
#include "workload/kv_workload.h"

namespace zerobak {
namespace {

void BM_Crc32c(benchmark::State& state) {
  const std::string data(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32c(data.data(), data.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(4096)->Arg(65536)->Arg(1 << 20);

// The individual kernels behind the dispatched Crc32c, so the recorded
// numbers show what the runtime dispatch actually buys on this host.
template <uint32_t (*Kernel)(uint32_t, const void*, size_t)>
void BM_Crc32cKernel(benchmark::State& state) {
  const std::string data(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Kernel(0, data.data(), data.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
void BM_Crc32cPortable(benchmark::State& state) {
  BM_Crc32cKernel<internal::Crc32cPortable>(state);
}
BENCHMARK(BM_Crc32cPortable)->Arg(4096)->Arg(65536);
void BM_Crc32cSlice8(benchmark::State& state) {
  BM_Crc32cKernel<internal::Crc32cSlice8>(state);
}
BENCHMARK(BM_Crc32cSlice8)->Arg(4096)->Arg(65536);
void BM_Crc32cHardware(benchmark::State& state) {
  if (!internal::Crc32cHardwareSupported()) {
    state.SkipWithError("no SSE4.2 CRC32 on this host");
    return;
  }
  BM_Crc32cKernel<internal::Crc32cHardware>(state);
}
BENCHMARK(BM_Crc32cHardware)->Arg(4096)->Arg(65536);
void BM_Crc32cClmul(benchmark::State& state) {
  if (!internal::Crc32cClmulSupported()) {
    state.SkipWithError("no VPCLMULQDQ/AVX-512F on this host");
    return;
  }
  BM_Crc32cKernel<internal::Crc32cClmul>(state);
}
BENCHMARK(BM_Crc32cClmul)->Arg(4096)->Arg(65536);

// The GF(2) fold that joins two CRCs: one matrix-vector product (~32
// xors) per join with an op built once per piece size. The 3-way CRC
// kernel uses it, baked into lookup tables for its lane width.
void BM_Crc32cCombineOp(benchmark::State& state) {
  const Crc32cCombineOp op(static_cast<size_t>(state.range(0)));
  uint32_t a = 0xdeadbeef, b = 0x12345678;
  for (auto _ : state) {
    benchmark::DoNotOptimize(a = op.Combine(a, b));
  }
}
BENCHMARK(BM_Crc32cCombineOp)->Arg(4096)->Arg(65536)->Arg(1 << 20);

// A transfer batch's worth of payload, as the wire compressor sees it.
enum PayloadShape : int64_t {
  // Structured order rows with shared field names (WAL-like, ~10:1).
  kJsonRows = 0,
  // 4 KiB blocks of 64-byte segments, each fresh random bytes or a copy of
  // an earlier segment of its block (~2:1, the end-to-end payload shape).
  kSegments = 1,
  // Random bytes: the stored-escape case.
  kRandom = 2,
  // The end-to-end benchmark's write stream: 4 KiB blocks drawn at random
  // from a pool of 64 segment-shaped blocks, each stamped in its first 16
  // bytes with a write id and address, so repeats cross block boundaries.
  kStampedPool = 3,
};

// 4 KiB of 64-byte segments, each fresh random bytes or, with probability
// 1/2, a copy of an earlier segment of the same block.
std::string SegmentBlock(Rng* rng) {
  std::string blk;
  blk.reserve(4096);
  while (blk.size() < 4096) {
    const size_t seg = blk.size() / 64;
    if (seg > 0 && rng->Bernoulli(0.5)) {
      blk.append(blk, rng->Uniform(seg) * 64, 64);
    } else {
      for (int i = 0; i < 64; ++i) {
        blk.push_back(static_cast<char>(rng->Uniform(256)));
      }
    }
  }
  return blk;
}

std::string MakeBatchPayload(size_t bytes, PayloadShape shape) {
  std::string out;
  out.reserve(bytes);
  Rng rng(42);
  switch (shape) {
    case kRandom:
      while (out.size() < bytes) {
        out.push_back(static_cast<char>(rng.Uniform(256)));
      }
      return out;
    case kSegments:
      while (out.size() < bytes) out += SegmentBlock(&rng);
      out.resize(bytes);
      return out;
    case kStampedPool: {
      std::vector<std::string> pool;
      for (int b = 0; b < 64; ++b) pool.push_back(SegmentBlock(&rng));
      for (uint64_t write_id = 1; out.size() < bytes; ++write_id) {
        std::string blk = pool[rng.Uniform(pool.size())];
        const uint64_t addr = rng.Uniform(1 << 20);
        std::memcpy(blk.data(), &write_id, 8);
        std::memcpy(blk.data() + 8, &addr, 8);
        out += blk;
      }
      out.resize(bytes);
      return out;
    }
    case kJsonRows:
      break;
  }
  uint64_t row = 0;
  while (out.size() < bytes) {
    out += "order-" + std::to_string(100000 + row % 4096) +
           "|item-" + std::to_string(row % 128) +
           "|{\"quantity\": 3, \"amountCents\": 12999, \"state\": "
           "\"committed\"}\n";
    ++row;
  }
  out.resize(bytes);
  return out;
}

// One transfer chunk's payload (the wire codec's unit), in the shape given
// by Arg: 0 = JSON rows, 1 = 64-byte-segment blocks, 2 = random bytes,
// 3 = stamped pool blocks.
constexpr size_t kCodecBytes = 64 << 10;

void SetCodecCounters(benchmark::State& state, size_t raw, size_t frame) {
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(raw));
  state.counters["ratio"] =
      static_cast<double>(raw) / static_cast<double>(frame);
  state.counters["hardware_lanes"] =
      static_cast<double>(std::thread::hardware_concurrency());
}

void BM_Compress(benchmark::State& state) {
  const std::string raw = MakeBatchPayload(
      kCodecBytes, static_cast<PayloadShape>(state.range(0)));
  std::string frame;
  for (auto _ : state) {
    frame.clear();
    Compress(raw, &frame);
    benchmark::DoNotOptimize(frame.data());
    benchmark::ClobberMemory();
  }
  SetCodecCounters(state, raw.size(), frame.size());
}
BENCHMARK(BM_Compress)
    ->Arg(kJsonRows)
    ->Arg(kSegments)
    ->Arg(kRandom)
    ->Arg(kStampedPool);

void BM_Decompress(benchmark::State& state) {
  const std::string raw = MakeBatchPayload(
      kCodecBytes, static_cast<PayloadShape>(state.range(0)));
  std::string frame;
  Compress(raw, &frame);
  std::string back;
  for (auto _ : state) {
    back.clear();
    benchmark::DoNotOptimize(Decompress(frame, &back));
    benchmark::DoNotOptimize(back.data());
    benchmark::ClobberMemory();
  }
  ZB_CHECK(back == raw);
  SetCodecCounters(state, raw.size(), frame.size());
}
BENCHMARK(BM_Decompress)->Arg(kJsonRows)->Arg(kSegments)->Arg(kRandom);

// Full wire round trip of one shipped batch: encode (headers + payload
// concat + optional compression + CRC) then verify + decode back into
// records. This is the per-pump-cycle CPU cost of the shipping path.
// Arg: 0 = compression off, 1 = on.
void BM_WireEncodeDecode(benchmark::State& state) {
  constexpr int kRecords = 16;
  constexpr size_t kBlock = 4096;
  const std::string rows = MakeBatchPayload(kRecords * kBlock, kJsonRows);
  std::vector<journal::JournalRecord> batch;
  for (int i = 0; i < kRecords; ++i) {
    journal::JournalRecord rec;
    rec.sequence = static_cast<journal::SequenceNumber>(100 + i);
    rec.volume_id = 7;
    rec.lba = static_cast<uint64_t>(i) * 13;
    rec.block_count = 1;
    rec.payload =
        journal::PayloadBuffer::Copy(rows.substr(i * kBlock, kBlock));
    rec.ack_time = Milliseconds(5) + i;
    rec.atomic_through = static_cast<journal::SequenceNumber>(99 + kRecords);
    batch.push_back(std::move(rec));
  }
  const bool compress = state.range(0) == 1;
  uint64_t logical = 0;
  uint64_t wire = 0;
  for (auto _ : state) {
    replication::wire::EncodedBatch enc =
        replication::wire::EncodeBatch(batch, compress);
    logical = enc.logical_bytes;
    wire = enc.frame.size();
    auto decoded = replication::wire::DecodeBatch(enc.frame);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(logical));
  state.counters["wire_bytes"] = static_cast<double>(wire);
  state.counters["logical_bytes"] = static_cast<double>(logical);
}
BENCHMARK(BM_WireEncodeDecode)->Arg(0)->Arg(1);

void BM_JournalAppendTrim(benchmark::State& state) {
  journal::JournalVolume jnl(1ull << 30);
  const size_t block = static_cast<size_t>(state.range(0));
  // The interceptor allocates the payload once per host write; the
  // journal append itself only shares the buffer. Measure the journal's
  // own cost by sharing one pre-allocated payload across appends.
  const journal::PayloadBuffer payload =
      journal::PayloadBuffer::Copy(std::string(block, 'd'));
  for (auto _ : state) {
    journal::JournalRecord rec;
    rec.volume_id = 1;
    rec.lba = 0;
    rec.block_count = 1;
    rec.payload = payload;
    auto seq = jnl.Append(std::move(rec));
    benchmark::DoNotOptimize(seq);
    if (jnl.record_count() > 1024) {
      (void)jnl.TrimThrough(jnl.written() - 512);
    }
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(block));
}
BENCHMARK(BM_JournalAppendTrim)->Arg(512)->Arg(4096);

void BM_JournalPeek(benchmark::State& state) {
  journal::JournalVolume jnl(1ull << 30);
  for (int i = 0; i < 4096; ++i) {
    journal::JournalRecord rec;
    rec.volume_id = 1;
    rec.lba = static_cast<uint64_t>(i);
    rec.block_count = 1;
    rec.payload = journal::PayloadBuffer::Copy(std::string(4096, 'd'));
    (void)jnl.Append(std::move(rec));
  }
  std::vector<const journal::JournalRecord*> batch;
  uint64_t bytes = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(jnl.PeekViews(0, 1 << 20, &batch));
    bytes += 1 << 20;
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes));
}
BENCHMARK(BM_JournalPeek);

// End-to-end journal pipeline: payload capture (the one allocation per
// write) -> primary append -> PeekViews batch -> shared-buffer ship ->
// secondary AppendWithSequence -> apply to a MemVolume -> trim both.
// This is the library-level shape of the ADC hot path. A standing
// backlog of shipped-but-unacked records stays resident, as in async
// steady state, so payload buffers churn through a live pool instead of
// ping-ponging between two allocator-hot chunks.
void BM_JournalShipApplyPipeline(benchmark::State& state) {
  const size_t block = static_cast<size_t>(state.range(0));
  constexpr int kBatch = 8;          // Records per pump cycle.
  constexpr uint64_t kRetain = 256;  // Shipped-but-unacked backlog.
  journal::JournalVolume pj(1ull << 30);
  journal::JournalVolume sj(1ull << 30);
  block::MemVolume svol(1 << 9, static_cast<uint32_t>(block));
  const std::string host(block, 'x');
  uint64_t lba = 0;
  auto intercept = [&] {
    journal::JournalRecord rec;
    rec.volume_id = 1;
    rec.lba = lba++ & 0x1ff;
    rec.block_count = 1;
    rec.payload = journal::PayloadBuffer::Copy(host);
    (void)pj.Append(std::move(rec));
  };
  for (uint64_t i = 0; i < kRetain; ++i) intercept();
  std::vector<const journal::JournalRecord*> batch;
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) intercept();
    pj.PeekViews(pj.shipped(),
                 kBatch * (journal::JournalRecord::kHeaderSize + block),
                 &batch);
    for (const journal::JournalRecord* rec : batch) {
      (void)sj.AppendWithSequence(*rec);  // Shares the payload buffer.
      (void)svol.Write(rec->lba, rec->block_count, rec->data());
    }
    const journal::SequenceNumber last = batch.back()->sequence;
    pj.MarkShipped(last);
    (void)sj.TrimThrough(last);
    (void)pj.TrimThrough(last > kRetain ? last - kRetain : 0);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kBatch *
                          static_cast<int64_t>(block));
}
BENCHMARK(BM_JournalShipApplyPipeline)->Arg(512)->Arg(4096);

void BM_MemVolumeSeqWrite(benchmark::State& state) {
  const size_t block = static_cast<size_t>(state.range(0));
  block::MemVolume vol(1 << 12, static_cast<uint32_t>(block));
  const std::string payload(block, 'x');
  uint64_t lba = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(vol.Write(lba, 1, payload));
    lba = (lba + 1) & 0xfff;
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(block));
}
BENCHMARK(BM_MemVolumeSeqWrite)->Arg(512)->Arg(4096);

void BM_MemVolumeRandWrite(benchmark::State& state) {
  const size_t block = static_cast<size_t>(state.range(0));
  block::MemVolume vol(1 << 12, static_cast<uint32_t>(block));
  const std::string payload(block, 'x');
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vol.Write(rng.Uniform(1 << 12), 1, payload));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(block));
}
BENCHMARK(BM_MemVolumeRandWrite)->Arg(512)->Arg(4096);

void BM_WalRecordCodec(benchmark::State& state) {
  db::WalRecord rec;
  rec.lsn = 42;
  rec.txn_id = 7;
  rec.generation = 1;
  for (int i = 0; i < state.range(0); ++i) {
    rec.ops.push_back(db::Op{db::OpType::kPut, "orders",
                             "order-" + std::to_string(i),
                             std::string(100, 'v')});
  }
  for (auto _ : state) {
    const std::string bytes = rec.Encode();
    std::string_view in(bytes);
    auto decoded = db::WalRecord::Decode(&in);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_WalRecordCodec)->Arg(1)->Arg(8)->Arg(64);

void BM_MiniDbCommit(benchmark::State& state) {
  block::MemVolume device(1 + 2 * 1024 + 8192);
  db::DbOptions opts;
  opts.checkpoint_blocks = 1024;
  opts.wal_blocks = 8192;
  (void)db::MiniDb::Format(&device, opts);
  auto db = std::move(db::MiniDb::Open(&device, opts)).value();
  uint64_t i = 0;
  for (auto _ : state) {
    db::Transaction txn = db->Begin();
    txn.Put("orders", "order-" + std::to_string(i % 4096),
            std::string(static_cast<size_t>(state.range(0)), 'v'));
    benchmark::DoNotOptimize(db->Commit(std::move(txn)));
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_MiniDbCommit)->Arg(64)->Arg(1024);

void BM_EventQueueChurn(benchmark::State& state) {
  sim::SimEnvironment env;
  Rng rng(1);
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      env.Schedule(static_cast<SimDuration>(rng.Uniform(1000) + 1), [] {});
    }
    env.RunUntilIdle();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_EventQueueChurn);

void BM_HostWritePath(benchmark::State& state) {
  sim::SimEnvironment env;
  storage::ArrayConfig cfg;
  cfg.media = block::DeviceLatencyModel{0, 0, 0, 0, 1};
  storage::StorageArray array(&env, cfg);
  auto v = array.CreateVolume("v", 1 << 16);
  const std::string payload(block::kDefaultBlockSize, 'x');
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        array.WriteSync(*v, rng.Uniform(1 << 16), payload));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          block::kDefaultBlockSize);
}
BENCHMARK(BM_HostWritePath);

void BM_CowWritePath(benchmark::State& state) {
  sim::SimEnvironment env;
  storage::ArrayConfig cfg;
  cfg.media = block::DeviceLatencyModel{0, 0, 0, 0, 1};
  storage::StorageArray array(&env, cfg);
  auto v = array.CreateVolume("v", 1 << 16);
  snapshot::SnapshotManager snapshots(&array);
  for (int64_t s = 0; s < state.range(0); ++s) {
    (void)snapshots.CreateSnapshot(*v, "s" + std::to_string(s));
  }
  const std::string payload(block::kDefaultBlockSize, 'x');
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        array.WriteSync(*v, rng.Uniform(1 << 16), payload));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          block::kDefaultBlockSize);
}
BENCHMARK(BM_CowWritePath)->Arg(0)->Arg(1)->Arg(4);

void BM_JsonRoundTrip(benchmark::State& state) {
  Value row = Value::MakeObject();
  row["item"] = "item-000042";
  row["quantity"] = 3;
  row["amountCents"] = 12999;
  row["tags"] = Value::Array{Value("a"), Value("b")};
  const std::string json = row.ToJson();
  for (auto _ : state) {
    auto parsed = Value::FromJson(json);
    benchmark::DoNotOptimize(parsed);
    benchmark::DoNotOptimize(parsed->ToJson());
  }
}
BENCHMARK(BM_JsonRoundTrip);

void BM_KvWorkloadMixed(benchmark::State& state) {
  block::MemVolume device(1 + 2 * 1024 + 8192);
  db::DbOptions opts;
  opts.checkpoint_blocks = 1024;
  opts.wal_blocks = 8192;
  (void)db::MiniDb::Format(&device, opts);
  auto db = std::move(db::MiniDb::Open(&device, opts)).value();
  workload::KvWorkloadConfig cfg;
  cfg.record_count = 1000;
  cfg.zipf_theta = state.range(0) == 0 ? 0.0 : 0.9;
  workload::KvWorkload kv(db.get(), cfg);
  (void)kv.Load();
  for (auto _ : state) {
    benchmark::DoNotOptimize(kv.Run(100));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 100);
}
BENCHMARK(BM_KvWorkloadMixed)->Arg(0)->Arg(1);

void BM_HistogramAdd(benchmark::State& state) {
  Histogram h;
  Rng rng(5);
  for (auto _ : state) {
    h.Add(rng.Uniform(1 << 30));
  }
  benchmark::DoNotOptimize(h.Percentile(99));
}
BENCHMARK(BM_HistogramAdd);

// The two benchmarks below run last: their mallopt holds for the rest of
// the process.
constexpr uint64_t kTouchSlabs = 128;

// First writes into fresh slabs: one 4 KiB write at the start of each of
// 128 slabs of a checksummed volume (as every array LDEV is). The heap
// keeps freed slabs (the same mallopt as e2ebench's zbbench), so after the
// first iteration every slab is recycled memory, as in a long-running
// array process; Reset between iterations, untimed, frees them.
void BM_MemVolumeFirstTouch(benchmark::State& state) {
  mallopt(M_MMAP_THRESHOLD, 1 << 30);
  mallopt(M_TRIM_THRESHOLD, INT_MAX);
  block::MemVolume vol(kTouchSlabs * block::MemVolume::kBlocksPerChunk);
  vol.EnableChecksums();
  const std::string payload(block::kDefaultBlockSize, 'x');
  for (auto _ : state) {
    state.PauseTiming();
    vol.Reset();
    state.ResumeTiming();
    for (uint64_t s = 0; s < kTouchSlabs; ++s) {
      benchmark::DoNotOptimize(
          vol.Write(s * block::MemVolume::kBlocksPerChunk, 1, payload));
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kTouchSlabs));
}
BENCHMARK(BM_MemVolumeFirstTouch);

// CloneFrom (the initial copy's frozen image) of a checksummed volume of
// 128 slabs with Arg(0) written blocks at the start of each slab: sparse
// slabs (1 block) against full ones (64).
void BM_MemVolumeClone(benchmark::State& state) {
  const uint64_t blocks = kTouchSlabs * block::MemVolume::kBlocksPerChunk;
  block::MemVolume src(blocks);
  block::MemVolume dst(blocks);
  src.EnableChecksums();
  dst.EnableChecksums();
  const auto per_slab = static_cast<uint32_t>(state.range(0));
  const std::string payload(per_slab * block::kDefaultBlockSize, 'x');
  for (uint64_t s = 0; s < kTouchSlabs; ++s) {
    ZB_CHECK(src.Write(s * block::MemVolume::kBlocksPerChunk, per_slab,
                       payload)
                 .ok());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(dst.CloneFrom(src));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kTouchSlabs));
}
BENCHMARK(BM_MemVolumeClone)->Arg(1)->Arg(64);

}  // namespace
}  // namespace zerobak

BENCHMARK_MAIN();

// Wire-format round-trip, integrity and zero-copy-decode tests for the
// shipped-batch and bulk-frame encoders in replication/wire.{h,cc}.
#include "replication/wire.h"

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "block/mem_volume.h"
#include "common/coding.h"
#include "common/crc32c.h"
#include "common/rng.h"
#include "exec/thread_pool.h"
#include "journal/journal.h"

namespace zerobak::replication::wire {
namespace {

using journal::JournalRecord;
using journal::PayloadBuffer;

// A payload as the host-write path builds it: the bytes, then the CRC of
// each 4 KiB block as a trailer.
PayloadBuffer WithCrcs(const std::string& data) {
  const uint32_t blocks =
      static_cast<uint32_t>(data.size() / block::kDefaultBlockSize);
  char* bytes = nullptr;
  PayloadBuffer buf = PayloadBuffer::Allocate(data.size(), blocks, &bytes);
  std::memcpy(bytes, data.data(), data.size());
  for (uint32_t b = 0; b < blocks; ++b) {
    EncodeFixed32(bytes + data.size() + 4 * b,
                  Crc32c(data.data() + b * block::kDefaultBlockSize,
                         block::kDefaultBlockSize));
  }
  return buf;
}

std::vector<JournalRecord> MakeBatch() {
  std::vector<JournalRecord> batch;
  const journal::SequenceNumber last = 103;
  for (int i = 0; i < 4; ++i) {
    JournalRecord rec;
    rec.sequence = 100 + i;
    rec.volume_id = 7 + (i % 2);
    rec.lba = 4096 + i * 8;
    rec.block_count = 1;
    rec.ack_time = 1000000 + i * 250;
    rec.atomic_through = last;
    rec.payload = WithCrcs(std::string(4096, 'a' + i));
    batch.push_back(std::move(rec));
  }
  // Record 101 folds: header-only tombstone, no payload.
  batch[1].folded = true;
  batch[1].payload = PayloadBuffer();
  return batch;
}

void ExpectBatchEquals(const std::vector<JournalRecord>& got,
                       const std::vector<JournalRecord>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].sequence, want[i].sequence) << i;
    EXPECT_EQ(got[i].volume_id, want[i].volume_id) << i;
    EXPECT_EQ(got[i].lba, want[i].lba) << i;
    EXPECT_EQ(got[i].block_count, want[i].block_count) << i;
    EXPECT_EQ(got[i].ack_time, want[i].ack_time) << i;
    EXPECT_EQ(got[i].atomic_through, want[i].atomic_through) << i;
    EXPECT_EQ(got[i].folded, want[i].folded) << i;
    EXPECT_EQ(got[i].payload.view(), want[i].payload.view()) << i;
    ASSERT_EQ(got[i].block_crcs() == nullptr, want[i].block_crcs() == nullptr)
        << i;
    if (want[i].block_crcs() != nullptr) {
      EXPECT_EQ(std::string_view(got[i].block_crcs(), 4 * got[i].block_count),
                std::string_view(want[i].block_crcs(), 4 * want[i].block_count))
          << i;
    }
  }
}

// The block CRCs taken at the host write travel in the frame, right after
// each payload, and come back as that record's trailer. They are not
// logical bytes; a tombstone carries none.
TEST(WireTest, BlockCrcsTravelWithTheirRecords) {
  const auto batch = MakeBatch();
  ASSERT_NE(batch[0].block_crcs(), nullptr);
  ASSERT_EQ(batch[1].block_crcs(), nullptr);
  std::vector<JournalRecord> bare = batch;
  for (JournalRecord& rec : bare) {
    rec.payload = PayloadBuffer::Copy(rec.payload.view());
  }
  const EncodedBatch with = EncodeBatch(batch, /*compress=*/false);
  const EncodedBatch without = EncodeBatch(bare, /*compress=*/false);
  EXPECT_EQ(with.logical_bytes, without.logical_bytes);
  EXPECT_EQ(with.frame.size(), without.frame.size() + 3 * 4);
  auto decoded = DecodeBatch(with.frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ExpectBatchEquals(*decoded, batch);
  EXPECT_EQ((*decoded)[1].block_crcs(), nullptr);
  auto plain = DecodeBatch(without.frame);
  ASSERT_TRUE(plain.ok()) << plain.status();
  ExpectBatchEquals(*plain, bare);
}

TEST(WireTest, RoundTripCompressed) {
  const auto batch = MakeBatch();
  EncodedBatch enc = EncodeBatch(batch, /*compress=*/true);
  // Three identical-byte 4 KiB payloads: compression must bite hard.
  EXPECT_TRUE(enc.compressed);
  EXPECT_LT(enc.frame.size(), enc.logical_bytes / 2);
  uint64_t logical = 0;
  for (const auto& rec : batch) logical += rec.EncodedSize();
  EXPECT_EQ(enc.logical_bytes, logical);

  auto decoded = DecodeBatch(enc.frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ExpectBatchEquals(*decoded, batch);
}

TEST(WireTest, RoundTripUncompressed) {
  const auto batch = MakeBatch();
  EncodedBatch enc = EncodeBatch(batch, /*compress=*/false);
  EXPECT_FALSE(enc.compressed);
  auto decoded = DecodeBatch(enc.frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ExpectBatchEquals(*decoded, batch);
}

TEST(WireTest, IncompressiblePayloadStillFramesCorrectly) {
  Rng rng(17);
  std::vector<JournalRecord> batch;
  JournalRecord rec;
  rec.sequence = 1;
  rec.volume_id = 1;
  rec.block_count = 2;
  rec.atomic_through = 1;
  std::string noise(8192, '\0');
  for (char& c : noise) c = static_cast<char>(rng.Uniform(256));
  rec.payload = PayloadBuffer::Copy(noise);
  batch.push_back(std::move(rec));

  EncodedBatch enc = EncodeBatch(batch, /*compress=*/true);
  // The compressor's stored escape fired; the frame is never much larger
  // than the logical bytes.
  EXPECT_FALSE(enc.compressed);
  EXPECT_LE(enc.frame.size(), enc.logical_bytes + 64);
  auto decoded = DecodeBatch(enc.frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ((*decoded)[0].payload.view(), noise);
}

TEST(WireTest, EmptyBatchRoundTrips) {
  EncodedBatch enc = EncodeBatch({}, /*compress=*/true);
  auto decoded = DecodeBatch(enc.frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(decoded->empty());
}

TEST(WireTest, DecodeAllocatesOnePayloadBufferPerBatch) {
  const auto batch = MakeBatch();
  EncodedBatch enc = EncodeBatch(batch, /*compress=*/true);
  const uint64_t before = PayloadBuffer::TotalAllocations();
  auto decoded = DecodeBatch(enc.frame);
  const uint64_t after = PayloadBuffer::TotalAllocations();
  ASSERT_TRUE(decoded.ok());
  // All record payloads are slices of the one buffer of the decoded body.
  EXPECT_EQ(after - before, 1u);
}

TEST(WireTest, EveryBitFlipIsRejected) {
  const auto batch = MakeBatch();
  for (bool compress : {true, false}) {
    EncodedBatch enc = EncodeBatch(batch, compress);
    // Flip one bit at a spread of positions covering the header, the
    // record table and the payload section.
    for (size_t pos = 0; pos < enc.frame.size();
         pos += 1 + enc.frame.size() / 97) {
      std::string corrupt = enc.frame;
      corrupt[pos] ^= 0x10;
      auto decoded = DecodeBatch(corrupt);
      EXPECT_FALSE(decoded.ok())
          << "bit flip at byte " << pos << " (compress=" << compress
          << ") was not caught";
    }
  }
}

TEST(WireTest, TruncatedFramesAreRejected) {
  const auto batch = MakeBatch();
  EncodedBatch enc = EncodeBatch(batch, /*compress=*/true);
  for (size_t len : {size_t{0}, size_t{3}, size_t{4}, size_t{12},
                     enc.frame.size() / 2, enc.frame.size() - 1}) {
    auto decoded = DecodeBatch(std::string_view(enc.frame).substr(0, len));
    EXPECT_FALSE(decoded.ok()) << "truncation to " << len << " accepted";
  }
}

// ----- Chunked frames (bodies > kChunkBytes) -----

// A batch whose plain body comfortably exceeds kChunkBytes, mixing
// compressible and incompressible payloads so some chunks shrink a lot
// and others hit the stored escape.
std::vector<JournalRecord> MakeLargeBatch(uint64_t seed = 99) {
  Rng rng(seed);
  std::vector<JournalRecord> batch;
  const journal::SequenceNumber last = 240;
  for (int i = 0; i < 40; ++i) {
    JournalRecord rec;
    rec.sequence = 200 + i;
    rec.volume_id = 1 + (i % 3);
    rec.lba = i * 16;
    rec.block_count = 2;
    rec.ack_time = 5000000 + i * 111;
    rec.atomic_through = last;
    std::string payload(8192, '\0');
    if (i % 2 == 0) {
      payload.assign(8192, static_cast<char>('a' + i % 26));
    } else {
      for (char& c : payload) c = static_cast<char>(rng.Uniform(256));
    }
    rec.payload = PayloadBuffer::Copy(payload);
    batch.push_back(std::move(rec));
  }
  return batch;
}

TEST(WireChunkedTest, LargeBodyRoundTrips) {
  const auto batch = MakeLargeBatch();
  EncodedBatch enc = EncodeBatch(batch, /*compress=*/true);
  EXPECT_TRUE(enc.compressed);
  EXPECT_GT(enc.logical_bytes, kChunkBytes);  // Chunked path engaged.
  auto decoded = DecodeBatch(enc.frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ExpectBatchEquals(*decoded, batch);
}

TEST(WireChunkedTest, DecodeAllocatesOnePayloadBufferPerBatch) {
  // The zero-copy property must survive chunking: every payload is still
  // a slice of a single decoded-body buffer.
  const auto batch = MakeLargeBatch();
  EncodedBatch enc = EncodeBatch(batch, /*compress=*/true);
  const uint64_t before = PayloadBuffer::TotalAllocations();
  auto decoded = DecodeBatch(enc.frame);
  const uint64_t after = PayloadBuffer::TotalAllocations();
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(after - before, 1u);
}

// A frame with a valid header and CRC around `body`, so the checks past
// the CRC gate see it.
std::string SealedFrame(uint8_t flags, const std::string& body) {
  std::string frame;
  PutFixed32(&frame, 0x3257425au);  // "ZBW2".
  frame.push_back(static_cast<char>(flags));
  PutFixed32(&frame, Crc32cMask(Crc32c(body.data(), body.size())));
  PutFixed32(&frame, static_cast<uint32_t>(body.size()));
  return frame + body;
}

// The plain body is sized from headers the CRC already vouched for, and
// every one of them is checked before the body's buffer is allocated.
TEST(WireTest, BadBodySizesAreRejectedBeforeAllocating) {
  std::string lz_claims_too_much;  // An LZ frame claiming 1 MiB from 3 bytes.
  lz_claims_too_much.push_back(1);
  PutVarint64(&lz_claims_too_much, 1 << 20);
  lz_claims_too_much.append("abc");
  std::string one_chunk;  // The chunked variant needs at least two.
  PutVarint64(&one_chunk, 1);
  PutVarint64(&one_chunk, 1);
  one_chunk.push_back(0);
  std::string short_first_chunk;  // Only the last chunk may be short.
  PutVarint64(&short_first_chunk, 2);
  for (int c = 0; c < 2; ++c) PutVarint64(&short_first_chunk, 3);
  for (int c = 0; c < 2; ++c) {
    short_first_chunk.push_back(0);  // Stored, 1 raw byte.
    PutVarint64(&short_first_chunk, 1);
    short_first_chunk.push_back('x');
  }
  const std::pair<uint8_t, std::string> cases[] = {
      {0x01, lz_claims_too_much},
      {0x02, one_chunk},
      {0x02, short_first_chunk},
  };
  for (const auto& [flags, body] : cases) {
    const uint64_t before = PayloadBuffer::TotalAllocations();
    auto decoded = DecodeBatch(SealedFrame(flags, body));
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
    EXPECT_EQ(PayloadBuffer::TotalAllocations(), before);
  }
  // The sealing itself is sound: a sealed plain empty batch decodes.
  std::string empty;
  PutVarint64(&empty, 0);
  EXPECT_TRUE(DecodeBatch(SealedFrame(0, empty)).ok());
}

TEST(WireChunkedTest, BitFlipsInChunkedFrameAreRejected) {
  const auto batch = MakeLargeBatch();
  EncodedBatch enc = EncodeBatch(batch, /*compress=*/true);
  // Sparser stride than the small-frame test (the frame is ~200 KiB), but
  // still covering header, chunk table and chunk data.
  for (size_t pos = 0; pos < enc.frame.size();
       pos += 1 + enc.frame.size() / 61) {
    std::string corrupt = enc.frame;
    corrupt[pos] ^= 0x10;
    EXPECT_FALSE(DecodeBatch(corrupt).ok()) << "accepted flip at " << pos;
  }
}

TEST(WireChunkedTest, TruncatedChunkedFramesAreRejected) {
  const auto batch = MakeLargeBatch();
  EncodedBatch enc = EncodeBatch(batch, /*compress=*/true);
  for (size_t len : {size_t{12}, size_t{13}, size_t{64},
                     enc.frame.size() / 2, enc.frame.size() - 1}) {
    auto decoded = DecodeBatch(std::string_view(enc.frame).substr(0, len));
    EXPECT_FALSE(decoded.ok()) << "truncation to " << len << " accepted";
  }
}

// A batch whose plain body spans exactly three kChunkBytes chunks: 4 KiB
// payloads cycling through 64-byte-segment blocks, noise and a one-byte
// run, plus a folded tombstone.
std::vector<JournalRecord> MakeThreeChunkBatch() {
  Rng rng(2024);
  std::vector<JournalRecord> batch;
  for (int i = 0; i < 36; ++i) {
    JournalRecord rec;
    rec.sequence = 500 + i;
    rec.volume_id = 1 + (i % 2);
    rec.lba = i * 8;
    rec.block_count = 1;
    rec.ack_time = 9000000 + i * 97;
    rec.atomic_through = 535;
    std::string payload(4096, '\0');
    if (i % 3 == 0) {
      for (size_t s = 0; s < payload.size(); s += 64) {
        if (s > 0 && rng.Bernoulli(0.5)) {
          payload.replace(s, 64, payload, rng.Uniform(s / 64) * 64, 64);
        } else {
          for (size_t k = s; k < s + 64; ++k) {
            payload[k] = static_cast<char>(rng.Uniform(256));
          }
        }
      }
    } else if (i % 3 == 1) {
      for (char& c : payload) c = static_cast<char>(rng.Uniform(256));
    } else {
      payload.assign(4096, static_cast<char>('k' + i % 7));
    }
    rec.payload = WithCrcs(payload);
    batch.push_back(std::move(rec));
  }
  batch[7].folded = true;
  batch[7].payload = PayloadBuffer();
  return batch;
}

// Pinned frame size and CRC32C of the chunked encoding. Frame bytes drive
// simulated link timing, so a codec change that moves them must fail here.
// Pinned for the ZBW2 format, whose records carry their block CRCs.
TEST(WireChunkedTest, GoldenFrameIsPinned) {
  const auto batch = MakeThreeChunkBatch();
  const EncodedBatch enc = EncodeBatch(batch, /*compress=*/true);
  EXPECT_GT(enc.logical_bytes, 2 * kChunkBytes);
  EXPECT_LE(enc.logical_bytes, 3 * kChunkBytes);
  EXPECT_EQ(enc.frame.size(), 73524u);
  EXPECT_EQ(Crc32c(enc.frame.data(), enc.frame.size()), 0x68472824u);
  auto decoded = DecodeBatch(enc.frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ExpectBatchEquals(*decoded, batch);
}

// ---- Bulk frames (resync and failback giveback) ----------------------

// A 2048-block volume whose written blocks cycle through 64-byte-segment
// blocks, random bytes and one-byte runs, with never-written (zero) blocks
// between them; with `only_noise`, every block is random bytes.
std::unique_ptr<block::MemVolume> MakeSourceVolume(uint64_t seed,
                                                   bool only_noise) {
  auto vol = std::make_unique<block::MemVolume>(2048);
  Rng rng(seed);
  for (uint64_t lba = 0; lba < vol->block_count();
       lba += only_noise ? 1 : 1 + lba % 3) {
    std::string block(block::kDefaultBlockSize, '\0');
    const uint64_t kind = only_noise ? 1 : lba % 3;
    if (kind == 0) {
      for (size_t s = 0; s < block.size(); s += 64) {
        const char c = static_cast<char>(rng.Uniform(4));
        block.replace(s, 64, 64, c);
      }
    } else if (kind == 1) {
      for (char& c : block) c = static_cast<char>(rng.Uniform(256));
    } else {
      block.assign(block.size(), static_cast<char>('a' + lba % 26));
    }
    EXPECT_TRUE(vol->Write(lba, 1, block).ok());
  }
  return vol;
}

// Runs of 1..24 blocks over both volumes, in volume then LBA order, as a
// two-pair capture walks its bitmaps; one run crosses the 1024-block slab
// boundary. The body spans several kChunkBytes chunks.
std::vector<Extent> MakeExtents(const block::MemVolume* a,
                                const block::MemVolume* b) {
  std::vector<Extent> extents;
  Rng rng(77);
  for (const auto& [volume_id, source] :
       {std::pair<uint64_t, const block::MemVolume*>{11, a}, {12, b}}) {
    uint64_t lba = rng.Uniform(8);
    while (lba < 1900) {
      const auto count = static_cast<uint32_t>(1 + rng.Uniform(24));
      extents.push_back(Extent{volume_id, lba, count, source});
      lba += count + 1 + rng.Uniform(40);
    }
    extents.push_back(Extent{volume_id, 1020, 9, source});
  }
  return extents;
}

void ExpectExtentsDecoded(const std::vector<JournalRecord>& got,
                          const std::vector<Extent>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].volume_id, want[i].volume_id) << i;
    EXPECT_EQ(got[i].lba, want[i].lba) << i;
    EXPECT_EQ(got[i].block_count, want[i].block_count) << i;
    EXPECT_FALSE(got[i].folded) << i;
    std::string blocks(
        static_cast<size_t>(want[i].block_count) * block::kDefaultBlockSize,
        '\0');
    want[i].source->ReadInto(want[i].lba, want[i].block_count, blocks.data());
    EXPECT_EQ(got[i].payload.view(), blocks) << i;
  }
}

// The engine builds a resync frame from P-VOLs and a giveback frame from
// S-VOLs through the same EncodeExtents call; both must come out byte
// for byte the same at 1 and 4 compute lanes, or link timing would depend
// on the host.
TEST(BulkFrameTest, ResyncAndGivebackFramesAreLaneCountInvariant) {
  const auto p0 = MakeSourceVolume(1, false), p1 = MakeSourceVolume(2, false);
  const auto s0 = MakeSourceVolume(3, false), s1 = MakeSourceVolume(4, false);
  exec::ThreadPool pool(4);
  for (const std::vector<Extent>& extents :
       {MakeExtents(p0.get(), p1.get()), MakeExtents(s0.get(), s1.get())}) {
    const EncodedBatch one = EncodeExtents(extents, /*compress=*/true);
    const EncodedBatch four = EncodeExtents(extents, /*compress=*/true, &pool);
    EXPECT_GT(one.logical_bytes, 3 * kChunkBytes);
    EXPECT_TRUE(one.compressed);
    EXPECT_LT(one.frame.size(), one.logical_bytes);
    // EXPECT_TRUE, not EXPECT_EQ: a failure would print megabytes.
    EXPECT_TRUE(one.frame == four.frame);
    EXPECT_EQ(one.logical_bytes, four.logical_bytes);
    auto decoded = DecodeBatch(four.frame);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    ExpectExtentsDecoded(*decoded, extents);
  }
}

// Random blocks do not shrink, so the kept-only-if-it-shrank rule ships
// the stored variant: the same frame as with compression off.
TEST(BulkFrameTest, IncompressibleExtentsShipStored) {
  const auto a = MakeSourceVolume(5, true), b = MakeSourceVolume(6, true);
  const std::vector<Extent> extents = MakeExtents(a.get(), b.get());
  exec::ThreadPool pool(4);
  const EncodedBatch packed = EncodeExtents(extents, /*compress=*/true, &pool);
  const EncodedBatch plain = EncodeExtents(extents, /*compress=*/false);
  EXPECT_FALSE(packed.compressed);
  EXPECT_EQ(packed.frame[4], 0) << "flags: stored variant";
  EXPECT_TRUE(packed.frame == plain.frame);
  auto decoded = DecodeBatch(packed.frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ExpectExtentsDecoded(*decoded, extents);
}

// A bulk frame is a journal-batch frame: the same extents written as
// journal records (sequence, ack time and atomic_through 0) encode to the
// identical bytes, so one decoder and one seal step serve both paths.
TEST(BulkFrameTest, ExtentFrameIsAJournalBatchFrame) {
  const auto a = MakeSourceVolume(7, false), b = MakeSourceVolume(8, false);
  const std::vector<Extent> extents = MakeExtents(a.get(), b.get());
  std::vector<JournalRecord> records;
  for (const Extent& ext : extents) {
    JournalRecord rec;
    rec.volume_id = ext.volume_id;
    rec.lba = ext.lba;
    rec.block_count = ext.block_count;
    std::string blocks(
        static_cast<size_t>(ext.block_count) * block::kDefaultBlockSize, '\0');
    ext.source->ReadInto(ext.lba, ext.block_count, blocks.data());
    rec.payload = PayloadBuffer::Copy(blocks);
    records.push_back(std::move(rec));
  }
  for (bool compress : {false, true}) {
    const EncodedBatch bulk = EncodeExtents(extents, compress);
    const EncodedBatch batch = EncodeBatch(records, compress);
    EXPECT_TRUE(bulk.frame == batch.frame) << "compress=" << compress;
    EXPECT_EQ(bulk.logical_bytes, batch.logical_bytes);
  }
  // An empty capture is still a valid frame: zero records.
  auto empty = DecodeBatch(EncodeExtents({}, /*compress=*/true).frame);
  ASSERT_TRUE(empty.ok()) << empty.status();
  EXPECT_TRUE(empty->empty());
}

// A bulk frame from a checksummed volume carries the source's sidecar
// with the blocks, so latent rot in a source block stays detectable where
// the frame lands instead of getting a fresh, valid CRC there.
TEST(BulkFrameTest, ExtentsCarryTheSourceSidecar) {
  block::MemVolume src(64), dst(64);
  src.EnableChecksums();
  dst.EnableChecksums();
  for (uint64_t lba = 0; lba < 12; ++lba) {
    ASSERT_TRUE(src.Write(lba, 1, std::string(4096, 'a' + lba)).ok());
  }
  ASSERT_TRUE(src.FlipBit(5, 77));
  const std::vector<Extent> extents = {{3, 2, 6, &src}, {3, 20, 2, &src}};
  for (bool compress : {false, true}) {
    auto decoded = DecodeBatch(EncodeExtents(extents, compress).frame);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    ExpectExtentsDecoded(*decoded, extents);
    for (size_t i = 0; i < extents.size(); ++i) {
      const JournalRecord& rec = (*decoded)[i];
      ASSERT_NE(rec.block_crcs(), nullptr);
      std::string want(4 * rec.block_count, '\0');
      src.ReadCrcs(rec.lba, rec.block_count, want.data());
      EXPECT_EQ(std::string_view(rec.block_crcs(), want.size()), want);
      const block::BlockRun run{rec.lba, rec.block_count, rec.data(),
                                rec.block_crcs()};
      ASSERT_TRUE(dst.WriteRun(&run, 1).ok());
    }
    std::string out;
    EXPECT_EQ(dst.Read(5, 1, &out).code(), StatusCode::kDataLoss);
    EXPECT_TRUE(dst.Read(2, 3, &out).ok());
    EXPECT_TRUE(dst.Read(6, 2, &out).ok());
    EXPECT_TRUE(dst.Read(20, 2, &out).ok());
  }
}

TEST(WireTest, GarbageNeverCrashes) {
  Rng rng(4242);
  for (int trial = 0; trial < 300; ++trial) {
    std::string garbage(rng.Uniform(256), '\0');
    for (char& c : garbage) c = static_cast<char>(rng.Uniform(256));
    auto decoded = DecodeBatch(garbage);
    // Random input virtually never carries a valid magic + CRC; the
    // contract under test is simply "no crash, no overrun".
    (void)decoded;
  }
}

}  // namespace
}  // namespace zerobak::replication::wire

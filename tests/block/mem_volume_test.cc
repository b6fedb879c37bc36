#include "block/mem_volume.h"

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/coding.h"
#include "common/crc32c.h"

namespace zerobak::block {
namespace {

std::string BlockOf(char c, uint32_t size = kDefaultBlockSize) {
  return std::string(size, c);
}

TEST(MemVolumeTest, Geometry) {
  MemVolume v(100, 512);
  EXPECT_EQ(v.block_size(), 512u);
  EXPECT_EQ(v.block_count(), 100u);
  EXPECT_EQ(v.size_bytes(), 51200u);
}

TEST(MemVolumeTest, UnwrittenBlocksReadAsZeros) {
  MemVolume v(10);
  std::string out;
  ASSERT_TRUE(v.Read(3, 2, &out).ok());
  EXPECT_EQ(out, std::string(2 * kDefaultBlockSize, '\0'));
  EXPECT_EQ(v.allocated_blocks(), 0u);
}

TEST(MemVolumeTest, WriteReadRoundTrip) {
  MemVolume v(10);
  ASSERT_TRUE(v.Write(2, 1, BlockOf('x')).ok());
  std::string out;
  ASSERT_TRUE(v.Read(2, 1, &out).ok());
  EXPECT_EQ(out, BlockOf('x'));
  EXPECT_EQ(v.allocated_blocks(), 1u);
}

TEST(MemVolumeTest, MultiBlockWrite) {
  MemVolume v(10);
  ASSERT_TRUE(v.Write(1, 3, BlockOf('a') + BlockOf('b') + BlockOf('c')).ok());
  std::string out;
  ASSERT_TRUE(v.Read(2, 1, &out).ok());
  EXPECT_EQ(out, BlockOf('b'));
  ASSERT_TRUE(v.Read(1, 3, &out).ok());
  EXPECT_EQ(out.size(), 3u * kDefaultBlockSize);
}

TEST(MemVolumeTest, RangeChecks) {
  MemVolume v(10);
  std::string out;
  EXPECT_EQ(v.Read(10, 1, &out).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(v.Read(9, 2, &out).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(v.Write(10, 1, BlockOf('x')).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(v.Read(0, 0, &out).code(), StatusCode::kInvalidArgument);
}

TEST(MemVolumeTest, PayloadSizeValidated) {
  MemVolume v(10);
  EXPECT_EQ(v.Write(0, 2, BlockOf('x')).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(v.Write(0, 1, "short").code(), StatusCode::kInvalidArgument);
}

TEST(MemVolumeTest, CloneFromCopiesContent) {
  MemVolume a(10), b(10);
  ASSERT_TRUE(a.Write(0, 1, BlockOf('p')).ok());
  ASSERT_TRUE(a.Write(7, 1, BlockOf('q')).ok());
  ASSERT_TRUE(b.CloneFrom(a).ok());
  EXPECT_TRUE(a.ContentEquals(b));
  // Clone is a snapshot: further writes to `a` do not affect `b`.
  ASSERT_TRUE(a.Write(0, 1, BlockOf('z')).ok());
  EXPECT_FALSE(a.ContentEquals(b));
}

TEST(MemVolumeTest, CloneGeometryMismatchRejected) {
  MemVolume a(10), b(20);
  EXPECT_EQ(b.CloneFrom(a).code(), StatusCode::kInvalidArgument);
}

TEST(MemVolumeTest, AdoptFromTakesOverContentAndEmptiesTheSource) {
  MemVolume a(3000), b(3000), expect(3000);
  ASSERT_TRUE(a.Write(0, 1, BlockOf('p')).ok());
  ASSERT_TRUE(a.Write(2500, 2, BlockOf('q') + BlockOf('r')).ok());
  ASSERT_TRUE(b.Write(1500, 1, BlockOf('o')).ok());  // Replaced, not merged.
  ASSERT_TRUE(expect.CloneFrom(a).ok());
  ASSERT_TRUE(b.AdoptFrom(std::move(a)).ok());
  EXPECT_TRUE(b.ContentEquals(expect));
  EXPECT_EQ(b.allocated_blocks(), 3u);
  EXPECT_FALSE(b.IsAllocated(1500));
  // The source is left an empty volume of the same geometry.
  EXPECT_EQ(a.allocated_blocks(), 0u);
  EXPECT_TRUE(a.ContentEquals(MemVolume(3000)));
  ASSERT_TRUE(a.Write(0, 1, BlockOf('z')).ok());
  EXPECT_EQ(b.ReadBlock(0), BlockOf('p'));
}

TEST(MemVolumeTest, AdoptGeometryMismatchRejected) {
  MemVolume a(10), b(20), c(10, 512);
  ASSERT_TRUE(a.Write(1, 1, BlockOf('p')).ok());
  EXPECT_EQ(b.AdoptFrom(std::move(a)).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(c.AdoptFrom(std::move(a)).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(a.ReadBlock(1), BlockOf('p'));  // A rejected adopt moves nothing.
}

TEST(MemVolumeTest, ContentEqualsTreatsZeroBlocksAsHoles) {
  MemVolume a(10), b(10);
  // a has an explicit zero block; b has a hole there.
  ASSERT_TRUE(a.Write(4, 1, std::string(kDefaultBlockSize, '\0')).ok());
  EXPECT_TRUE(a.ContentEquals(b));
  EXPECT_TRUE(b.ContentEquals(a));
}

TEST(MemVolumeTest, ResetDropsEverything) {
  MemVolume v(10);
  ASSERT_TRUE(v.Write(1, 1, BlockOf('x')).ok());
  v.Reset();
  EXPECT_EQ(v.allocated_blocks(), 0u);
  std::string out;
  ASSERT_TRUE(v.Read(1, 1, &out).ok());
  EXPECT_EQ(out, std::string(kDefaultBlockSize, '\0'));
}

TEST(MemVolumeTest, ReadBlockConvenience) {
  MemVolume v(10);
  EXPECT_EQ(v.ReadBlock(5), std::string(kDefaultBlockSize, '\0'));
  ASSERT_TRUE(v.Write(5, 1, BlockOf('k')).ok());
  EXPECT_EQ(v.ReadBlock(5), BlockOf('k'));
}

TEST(MemVolumeTest, ReadBlockViewTracksContent) {
  MemVolume v(10);
  EXPECT_EQ(v.ReadBlockView(3), std::string_view(BlockOf('\0')));
  ASSERT_TRUE(v.Write(3, 1, BlockOf('v')).ok());
  const std::string_view view = v.ReadBlockView(3);
  EXPECT_EQ(view.size(), static_cast<size_t>(kDefaultBlockSize));
  EXPECT_EQ(view, std::string_view(BlockOf('v')));
}

// Slab-specific behavior: writes far apart land in distinct chunks, and
// the sparse-footprint accounting stays per-block, not per-chunk.
TEST(MemVolumeSlabTest, SparseWritesAcrossChunks) {
  MemVolume v(MemVolume::kBlocksPerChunk * 4, 512);
  const Lba far = MemVolume::kBlocksPerChunk * 3 + 17;
  ASSERT_TRUE(v.Write(0, 1, BlockOf('a', 512)).ok());
  ASSERT_TRUE(v.Write(far, 1, BlockOf('b', 512)).ok());
  EXPECT_EQ(v.allocated_blocks(), 2u);
  EXPECT_TRUE(v.IsAllocated(0));
  EXPECT_TRUE(v.IsAllocated(far));
  EXPECT_FALSE(v.IsAllocated(1));
  EXPECT_FALSE(v.IsAllocated(far - 1));
  EXPECT_EQ(v.ReadBlock(far), BlockOf('b', 512));
  // A block in a touched chunk but never written still reads as zeros.
  EXPECT_EQ(v.ReadBlock(far - 1), BlockOf('\0', 512));
}

TEST(MemVolumeSlabTest, WriteSpanningChunkBoundary) {
  MemVolume v(MemVolume::kBlocksPerChunk * 2, 512);
  const Lba edge = MemVolume::kBlocksPerChunk - 1;
  ASSERT_TRUE(
      v.Write(edge, 2, BlockOf('x', 512) + BlockOf('y', 512)).ok());
  EXPECT_EQ(v.allocated_blocks(), 2u);
  std::string out;
  ASSERT_TRUE(v.Read(edge, 2, &out).ok());
  EXPECT_EQ(out, BlockOf('x', 512) + BlockOf('y', 512));
}

TEST(MemVolumeSlabTest, PartialTailChunk) {
  // Block count not a multiple of the chunk size: the tail chunk is short.
  MemVolume v(MemVolume::kBlocksPerChunk + 5, 512);
  const Lba last = v.block_count() - 1;
  ASSERT_TRUE(v.Write(last, 1, BlockOf('t', 512)).ok());
  EXPECT_EQ(v.ReadBlock(last), BlockOf('t', 512));
  std::string out;
  EXPECT_EQ(v.Read(last, 2, &out).code(), StatusCode::kOutOfRange);
}

TEST(MemVolumeSlabTest, OverwriteDoesNotDoubleCountAllocation) {
  MemVolume v(10);
  ASSERT_TRUE(v.Write(4, 1, BlockOf('a')).ok());
  ASSERT_TRUE(v.Write(4, 1, BlockOf('b')).ok());
  EXPECT_EQ(v.allocated_blocks(), 1u);
  EXPECT_EQ(v.ReadBlock(4), BlockOf('b'));
}

TEST(MemVolumeSlabTest, CloneFromReplacesExistingContent) {
  MemVolume a(10), b(10);
  ASSERT_TRUE(b.Write(9, 1, BlockOf('o')).ok());
  ASSERT_TRUE(a.Write(2, 1, BlockOf('n')).ok());
  ASSERT_TRUE(b.CloneFrom(a).ok());
  EXPECT_TRUE(a.ContentEquals(b));
  EXPECT_EQ(b.allocated_blocks(), 1u);
  EXPECT_EQ(b.ReadBlock(9), BlockOf('\0'));
}

TEST(MemVolumeIntegrityTest, ChecksumCatchesSilentFlip) {
  MemVolume v(10);
  v.EnableChecksums();
  ASSERT_TRUE(v.Write(3, 1, BlockOf('x')).ok());
  std::string out;
  ASSERT_TRUE(v.Read(3, 1, &out).ok());

  ASSERT_TRUE(v.FlipBit(3, 17));
  EXPECT_EQ(v.bit_flips(), 1u);
  Status s = v.Read(3, 1, &out);
  EXPECT_EQ(s.code(), StatusCode::kDataLoss) << s;
  EXPECT_GE(v.checksum_failures(), 1u);
  // Overwriting refreshes the sidecar: the block is trustworthy again.
  ASSERT_TRUE(v.Write(3, 1, BlockOf('y')).ok());
  ASSERT_TRUE(v.Read(3, 1, &out).ok());
  EXPECT_EQ(out, BlockOf('y'));
}

TEST(MemVolumeIntegrityTest, EnableChecksumsBackfillsExistingBlocks) {
  MemVolume v(10);
  ASSERT_TRUE(v.Write(2, 1, BlockOf('a')).ok());
  v.EnableChecksums();
  // Pre-existing content was fingerprinted at enable time.
  ASSERT_TRUE(v.FlipBit(2, 3));
  std::string out;
  EXPECT_EQ(v.Read(2, 1, &out).code(), StatusCode::kDataLoss);
}

TEST(MemVolumeIntegrityTest, FlipBitRefusesHoles) {
  MemVolume v(10);
  v.EnableChecksums();
  EXPECT_FALSE(v.FlipBit(5, 0)) << "a hole has no media to rot";
  EXPECT_EQ(v.bit_flips(), 0u);
}

TEST(MemVolumeIntegrityTest, VerifyExtentClassifiesHealth) {
  MemVolume v(64);
  v.EnableChecksums();
  ASSERT_TRUE(v.Write(10, 1, BlockOf('q')).ok());
  EXPECT_EQ(v.VerifyExtent(0, 64), MemVolume::ExtentHealth::kClean);
  EXPECT_GE(v.blocks_verified(), 64u);

  ASSERT_TRUE(v.FlipBit(10, 100));
  Lba bad = 0;
  EXPECT_EQ(v.VerifyExtent(0, 64, &bad),
            MemVolume::ExtentHealth::kChecksumMismatch);
  EXPECT_EQ(bad, 10u);

  // An armed media gate outranks the checksum scan.
  v.SetMediaError(1.0, 42);
  EXPECT_EQ(v.VerifyExtent(0, 64, &bad),
            MemVolume::ExtentHealth::kMediaError);
  v.SetMediaError(0.0, 0);
  EXPECT_EQ(v.VerifyExtent(0, 64, &bad),
            MemVolume::ExtentHealth::kChecksumMismatch);
}

TEST(MemVolumeIntegrityTest, MediaGateIsDeterministicPerSeed) {
  MemVolume a(256), b(256);
  a.SetMediaError(0.2, 99);
  b.SetMediaError(0.2, 99);
  std::string out;
  int failures = 0;
  for (Lba lba = 0; lba < 256; ++lba) {
    const bool a_bad = !a.Read(lba, 1, &out).ok();
    const bool b_bad = !b.Read(lba, 1, &out).ok();
    EXPECT_EQ(a_bad, b_bad) << "lba " << lba;
    failures += a_bad ? 1 : 0;
  }
  EXPECT_GT(failures, 0);
  EXPECT_LT(failures, 256);
  EXPECT_EQ(a.media_errors(), static_cast<uint64_t>(failures));
  // Writes hit the same per-LBA gate.
  Lba bad_lba = 0;
  for (Lba lba = 0; lba < 256; ++lba) {
    if (!a.Read(lba, 1, &out).ok()) {
      bad_lba = lba;
      break;
    }
  }
  EXPECT_EQ(b.Write(bad_lba, 1, BlockOf('w')).code(),
            StatusCode::kDataLoss);
  // Healing the gate restores full access.
  a.SetMediaError(0.0, 0);
  for (Lba lba = 0; lba < 256; ++lba) {
    EXPECT_TRUE(a.Read(lba, 1, &out).ok());
  }
}

TEST(MemVolumeIntegrityTest, ExtentFingerprintTracksContent) {
  MemVolume a(64), b(64);
  a.EnableChecksums();
  b.EnableChecksums();
  // Holes fingerprint equal (both all-zero), allocated-zero too.
  EXPECT_EQ(a.ExtentFingerprint(0, 64), b.ExtentFingerprint(0, 64));
  ASSERT_TRUE(a.Write(7, 1, BlockOf('\0')).ok());
  EXPECT_EQ(a.ExtentFingerprint(0, 64), b.ExtentFingerprint(0, 64));
  // Diverging content diverges the fingerprint; matching it re-converges.
  ASSERT_TRUE(a.Write(9, 1, BlockOf('f')).ok());
  EXPECT_NE(a.ExtentFingerprint(0, 64), b.ExtentFingerprint(0, 64));
  EXPECT_EQ(b.ExtentFingerprint(0, 64), b.ExtentFingerprint(0, 64));
  ASSERT_TRUE(b.Write(9, 1, BlockOf('f')).ok());
  EXPECT_EQ(a.ExtentFingerprint(0, 64), b.ExtentFingerprint(0, 64));
  // Position matters: the same block at a different LBA differs.
  MemVolume c(64);
  c.EnableChecksums();
  ASSERT_TRUE(c.Write(10, 1, BlockOf('f')).ok());
  EXPECT_NE(a.ExtentFingerprint(0, 64), c.ExtentFingerprint(0, 64));
}

TEST(MemVolumeIntegrityTest, CloneFromPreservesLatentRot) {
  MemVolume a(10), b(10);
  a.EnableChecksums();
  b.EnableChecksums();
  ASSERT_TRUE(a.Write(4, 1, BlockOf('r')).ok());
  ASSERT_TRUE(a.FlipBit(4, 9));
  ASSERT_TRUE(b.CloneFrom(a).ok());
  // The clone carries the stale sidecar, so the rot stays detectable
  // instead of being laundered by a recompute.
  std::string out;
  EXPECT_EQ(b.Read(4, 1, &out).code(), StatusCode::kDataLoss);
}

TEST(MemVolumeIntegrityTest, AdoptFromCarriesTheSidecar) {
  MemVolume a(10), b(10);
  a.EnableChecksums();
  b.EnableChecksums();
  ASSERT_TRUE(a.Write(4, 1, BlockOf('r')).ok());
  ASSERT_TRUE(a.Write(5, 1, BlockOf('s')).ok());
  ASSERT_TRUE(a.FlipBit(4, 9));
  ASSERT_TRUE(b.AdoptFrom(std::move(a)).ok());
  std::string out;
  EXPECT_EQ(b.Read(4, 1, &out).code(), StatusCode::kDataLoss);
  ASSERT_TRUE(b.Read(5, 1, &out).ok());
  EXPECT_EQ(out, BlockOf('s'));
  // Writes after the adopt keep the carried sidecar current.
  ASSERT_TRUE(b.Write(4, 1, BlockOf('t')).ok());
  EXPECT_EQ(b.VerifyExtent(0, 10), MemVolume::ExtentHealth::kClean);
}

TEST(MemVolumeIntegrityTest, AdoptFromComputesAMissingSidecar) {
  MemVolume a(10), b(10), plain(10);
  b.EnableChecksums();
  ASSERT_TRUE(a.Write(3, 1, BlockOf('x')).ok());
  ASSERT_TRUE(b.AdoptFrom(std::move(a)).ok());
  EXPECT_EQ(b.VerifyExtent(0, 10), MemVolume::ExtentHealth::kClean);
  ASSERT_TRUE(b.FlipBit(3, 1));
  std::string out;
  EXPECT_EQ(b.Read(3, 1, &out).code(), StatusCode::kDataLoss);
  // A volume without checksums adopts a checksummed image as plain data.
  ASSERT_TRUE(plain.AdoptFrom(std::move(b)).ok());
  EXPECT_TRUE(plain.Read(3, 1, &out).ok());
}

// CRCs as BlockRun::crcs carries them: little-endian words, one a block.
std::string CrcWords(const std::vector<std::string>& blocks) {
  std::string words(4 * blocks.size(), '\0');
  for (size_t i = 0; i < blocks.size(); ++i) {
    EncodeFixed32(words.data() + 4 * i,
                  Crc32c(blocks[i].data(), blocks[i].size()));
  }
  return words;
}

// A run's carried CRCs become the sidecar as they are: the bytes verify
// clean when the CRCs match them, and read back as kDataLoss when the
// bytes changed on the way after their CRCs were taken.
TEST(MemVolumeIntegrityTest, CarriedCrcsAreStoredAsGiven) {
  MemVolume vol(16);
  vol.EnableChecksums();
  const std::string data = BlockOf('a') + BlockOf('b');
  const std::string crcs = CrcWords({BlockOf('a'), BlockOf('b')});
  const BlockRun good{2, 2, data, crcs.data()};
  ASSERT_TRUE(vol.WriteRun(&good, 1).ok());
  std::string out;
  ASSERT_TRUE(vol.Read(2, 2, &out).ok());
  EXPECT_EQ(out, data);
  EXPECT_EQ(vol.VerifyExtent(0, 16), MemVolume::ExtentHealth::kClean);

  std::string rotted = data;
  rotted[4096 + 7] ^= 0x10;  // Block 1 of the run, after its CRC was taken.
  const BlockRun bad{8, 2, rotted, crcs.data()};
  ASSERT_TRUE(vol.WriteRun(&bad, 1).ok());
  ASSERT_TRUE(vol.Read(8, 1, &out).ok());
  EXPECT_EQ(vol.Read(9, 1, &out).code(), StatusCode::kDataLoss);
  Lba bad_lba = 0;
  EXPECT_EQ(vol.VerifyExtent(0, 16, &bad_lba),
            MemVolume::ExtentHealth::kChecksumMismatch);
  EXPECT_EQ(bad_lba, 9u);

  // Across a slab boundary each carried word stays with its block.
  MemVolume wide(2 * MemVolume::kBlocksPerChunk);
  wide.EnableChecksums();
  const Lba edge = MemVolume::kBlocksPerChunk - 1;
  std::string split = BlockOf('x') + BlockOf('y');
  const std::string split_crcs = CrcWords({BlockOf('x'), BlockOf('y')});
  split[4096] ^= 0x01;  // The block on the far side of the boundary.
  const BlockRun across{edge, 2, split, split_crcs.data()};
  ASSERT_TRUE(wide.WriteRun(&across, 1).ok());
  EXPECT_TRUE(wide.Read(edge, 1, &out).ok());
  EXPECT_EQ(wide.Read(edge + 1, 1, &out).code(), StatusCode::kDataLoss);
}

// ReadCrcs hands out the sidecar in the carried form, holes included, so
// a copy of the blocks keeps the CRCs they were written with.
TEST(MemVolumeIntegrityTest, ReadCrcsReturnsTheSidecar) {
  MemVolume src(2 * MemVolume::kBlocksPerChunk), dst(src.block_count());
  src.EnableChecksums();
  dst.EnableChecksums();
  ASSERT_TRUE(src.Write(1, 1, BlockOf('q')).ok());
  ASSERT_TRUE(src.Write(2, 1, BlockOf('r')).ok());
  ASSERT_TRUE(src.FlipBit(2, 5));
  const std::string zero = BlockOf('\0');
  std::string words(4 * 4, '\0');
  src.ReadCrcs(0, 4, words.data());
  EXPECT_EQ(words.substr(0, 8), CrcWords({zero, BlockOf('q')}));
  EXPECT_EQ(words.substr(12), CrcWords({zero}));
  // A hole in a chunk never allocated reads as the zero-block CRC.
  std::string hole(4, '\0');
  src.ReadCrcs(MemVolume::kBlocksPerChunk + 5, 1, hole.data());
  EXPECT_EQ(hole, CrcWords({zero}));

  // Copying bytes and CRCs keeps the rotted block detectable.
  std::string bytes(4 * kDefaultBlockSize, '\0');
  src.ReadInto(0, 4, bytes.data());
  const BlockRun copy{0, 4, bytes, words.data()};
  ASSERT_TRUE(dst.WriteRun(&copy, 1).ok());
  std::string out;
  EXPECT_TRUE(dst.Read(1, 1, &out).ok());
  EXPECT_EQ(dst.Read(2, 1, &out).code(), StatusCode::kDataLoss);
}

}  // namespace
}  // namespace zerobak::block

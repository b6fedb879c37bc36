// Model test for MemVolume: seeded random operation sequences run against
// a std::map<Lba, block> reference. Slabs are allocated uninitialized and
// the per-slab written mask alone says which bytes hold data, so every
// read path must give zeros (and the zero-block CRC) for an unwritten
// block inside an allocated slab. The heap is dirtied first so that new
// slabs start out non-zero, as recycled memory does in a long-running
// process; the sanitize preset's malloc fill makes every allocation
// non-zero as well.
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "block/mem_volume.h"
#include "common/coding.h"
#include "common/crc32c.h"
#include "common/rng.h"

namespace zerobak::block {
namespace {

constexpr uint64_t kSlab = MemVolume::kBlocksPerChunk;

// Leaves freed heap memory filled with a non-zero pattern, so that slabs
// malloc'd afterwards hold bytes nobody wrote.
void DirtyTheHeap(size_t bytes) {
  for (int round = 0; round < 2; ++round) {
    std::vector<char*> held;
    for (int i = 0; i < 16; ++i) {
      char* p = static_cast<char*>(std::malloc(bytes));
      ASSERT_NE(p, nullptr);
      std::memset(p, 0x5a, bytes);
      asm volatile("" : : "r"(p) : "memory");  // Keep the fill.
      held.push_back(p);
    }
    for (char* p : held) std::free(p);
  }
}

struct Geometry {
  uint32_t block_size;
  uint64_t block_count;  // Not a multiple of 64: the tail slab is short.
};

void PrintTo(const Geometry& g, std::ostream* os) {
  *os << g.block_count << " blocks of " << g.block_size << " B";
}

class Model {
 public:
  Model(Geometry g, uint64_t seed)
      : g_(g),
        rng_(seed),
        zero_(g.block_size, '\0'),
        vol_(std::make_unique<MemVolume>(g.block_count, g.block_size)) {}

  void Step() {
    switch (rng_.Uniform(16)) {
      case 0:
      case 1:
      case 2:
        Write();
        break;
      case 3:
      case 4:
        WriteRun();
        break;
      case 5:
        CheckRead();
        break;
      case 6:
        CheckReadInto();
        break;
      case 7:
        CheckReadBlockView();
        break;
      case 8:
        CheckViewRun();
        break;
      case 9:
        if (rng_.Uniform(4) == 0) Clone();
        break;
      case 10:
        if (rng_.Uniform(4) == 0) Adopt();
        break;
      case 11:
        if (rng_.Uniform(8) == 0) EnableChecksums();
        break;
      case 12:
        FlipBit();
        break;
      case 13:
        CheckVerifyExtent();
        break;
      case 14:
        CheckReadCrcs();
        break;
      case 15:
        if (rng_.Uniform(8) == 0) CheckWhole();
        break;
    }
  }

  // Every observable of the whole volume against the reference.
  void CheckWhole() {
    SCOPED_TRACE("CheckWhole");
    EXPECT_EQ(vol_->allocated_blocks(), ref_.size());
    EXPECT_EQ(vol_->slab_bytes(), ExpectedSlabBytes());
    EXPECT_EQ(vol_->checksums_enabled(), checksums_);
    std::string all(g_.block_count * g_.block_size, '\x77');
    vol_->ReadInto(0, static_cast<uint32_t>(g_.block_count), all.data());
    EXPECT_TRUE(all == Expected(0, g_.block_count));
    for (Lba lba = 0; lba < g_.block_count; ++lba) {
      ASSERT_EQ(vol_->IsAllocated(lba), ref_.count(lba) == 1) << lba;
    }
    // A clean copy built from the reference, with some holes written as
    // explicit zero blocks, holds the same content.
    MemVolume shadow(g_.block_count, g_.block_size);
    shadow.EnableChecksums();
    for (const auto& [lba, bytes] : ref_) {
      ASSERT_TRUE(shadow.Write(lba, 1, bytes).ok());
    }
    for (int i = 0; i < 4; ++i) {
      const Lba hole = RandomLba();
      if (ref_.count(hole) == 0) {
        ASSERT_TRUE(shadow.Write(hole, 1, zero_).ok());
      }
    }
    EXPECT_TRUE(vol_->ContentEquals(shadow));
    EXPECT_TRUE(shadow.ContentEquals(*vol_));
    if (checksums_) {
      for (int i = 0; i < 4; ++i) {
        const Lba lba = RandomLba();
        const uint32_t count = RandomCount(lba);
        EXPECT_EQ(vol_->ExtentFingerprint(lba, count) ==
                      shadow.ExtentFingerprint(lba, count),
                  FirstRotten(lba, count) == kNone)
            << "fingerprint of [" << lba << ", +" << count << ")";
      }
    }
    // One changed block breaks equality.
    const Lba lba = RandomLba();
    std::string changed = Block(lba);
    changed[rng_.Uniform(g_.block_size)] ^= 0x01;
    ASSERT_TRUE(shadow.Write(lba, 1, changed).ok());
    EXPECT_FALSE(vol_->ContentEquals(shadow));
    EXPECT_FALSE(shadow.ContentEquals(*vol_));
  }

 private:
  static constexpr Lba kNone = ~Lba{0};

  Lba RandomLba() { return rng_.Uniform(g_.block_count); }
  // Mostly inside one slab, sometimes across slab boundaries.
  uint32_t RandomCount(Lba lba) {
    const uint64_t max = rng_.Uniform(4) == 0 ? 3 * kSlab : kSlab / 2;
    return static_cast<uint32_t>(
        std::min<uint64_t>(g_.block_count - lba, 1 + rng_.Uniform(max)));
  }
  uint64_t ChunkBlocks(uint64_t ci) const {
    return std::min<uint64_t>(kSlab, g_.block_count - ci * kSlab);
  }

  std::string RandomBlock() {
    if (rng_.Uniform(16) == 0) return zero_;  // Written zeros are data too.
    std::string b(g_.block_size, '\0');
    for (size_t i = 0; i < b.size(); i += 8) {
      const uint64_t word = rng_.Next();
      std::memcpy(b.data() + i, &word, 8);
    }
    return b;
  }
  std::string Block(Lba lba) const {
    auto it = ref_.find(lba);
    return it == ref_.end() ? zero_ : it->second;
  }
  std::string Expected(Lba lba, uint64_t count) const {
    std::string out;
    for (uint64_t i = 0; i < count; ++i) out += Block(lba + i);
    return out;
  }
  uint64_t ExpectedSlabBytes() const {
    uint64_t bytes = 0;
    uint64_t last = kNone;
    for (const auto& [lba, b] : ref_) {
      if (lba / kSlab == last) continue;
      last = lba / kSlab;
      bytes += ChunkBlocks(last) * g_.block_size;
    }
    return bytes;
  }
  // The sidecar of a written block no longer matches its bytes.
  bool Rotten(Lba lba) const {
    auto it = ref_.find(lba);
    return checksums_ && it != ref_.end() &&
           crcs_.at(lba) != Crc32c(it->second.data(), it->second.size());
  }
  Lba FirstRotten(Lba lba, uint64_t count) const {
    for (uint64_t i = 0; i < count; ++i) {
      if (Rotten(lba + i)) return lba + i;
    }
    return kNone;
  }
  uint32_t SidecarOf(Lba lba) const {
    return ref_.count(lba) == 1 ? crcs_.at(lba) : Crc32c(zero_.data(),
                                                         zero_.size());
  }
  // The sidecar a checksummed volume computes over the reference.
  void RecomputeCrcs() {
    crcs_.clear();
    for (const auto& [lba, b] : ref_) crcs_[lba] = Crc32c(b.data(), b.size());
  }

  void Write() {
    const Lba lba = RandomLba();
    const uint32_t count = RandomCount(lba);
    std::string data;
    for (uint32_t i = 0; i < count; ++i) {
      const std::string b = RandomBlock();
      data += b;
      ref_[lba + i] = b;
      crcs_[lba + i] = Crc32c(b.data(), b.size());
    }
    ASSERT_TRUE(vol_->Write(lba, count, data).ok());
  }

  // Two or three runs in one call, with carried CRCs half the time; a
  // carried CRC is stored as given, so a wrong one reads as rot.
  void WriteRun() {
    const size_t n = 2 + rng_.Uniform(2);
    std::vector<std::string> data(n), crcs(n);
    std::vector<BlockRun> runs(n);
    for (size_t r = 0; r < n; ++r) {
      const Lba lba = RandomLba();
      const uint32_t count = RandomCount(lba);
      const bool carry = rng_.Uniform(2) == 0;
      crcs[r].resize(size_t{4} * count);
      for (uint32_t i = 0; i < count; ++i) {
        const std::string b = RandomBlock();
        data[r] += b;
        ref_[lba + i] = b;
        uint32_t crc = Crc32c(b.data(), b.size());
        if (carry && rng_.Uniform(32) == 0) crc ^= 0x40;
        EncodeFixed32(crcs[r].data() + size_t{4} * i, crc);
        // Without a sidecar the volume ignores carried CRCs; enabling
        // one later recomputes them all (RecomputeCrcs).
        crcs_[lba + i] = crc;
      }
      runs[r] = BlockRun{lba, count, data[r], carry ? crcs[r].data() : nullptr};
    }
    ASSERT_TRUE(vol_->WriteRun(runs.data(), n).ok());
  }

  void CheckRead() {
    const Lba lba = RandomLba();
    const uint32_t count = RandomCount(lba);
    std::string out;
    const Status s = vol_->Read(lba, count, &out);
    if (FirstRotten(lba, count) != kNone) {
      EXPECT_EQ(s.code(), StatusCode::kDataLoss);
      return;
    }
    ASSERT_TRUE(s.ok()) << s;
    EXPECT_TRUE(out == Expected(lba, count)) << "Read " << lba << "+" << count;
  }

  void CheckReadInto() {
    const Lba lba = RandomLba();
    const uint32_t count = RandomCount(lba);
    std::string out(size_t{count} * g_.block_size, '\x33');
    vol_->ReadInto(lba, count, out.data());
    EXPECT_TRUE(out == Expected(lba, count))
        << "ReadInto " << lba << "+" << count;
  }

  void CheckReadBlockView() {
    const Lba lba = RandomLba();
    EXPECT_TRUE(vol_->ReadBlockView(lba) == Block(lba))
        << "ReadBlockView " << lba;
  }

  void CheckViewRun() {
    const Lba lba = RandomLba();
    const uint32_t count = RandomCount(lba);
    // Only an all-written run inside one slab of a checksummed volume.
    bool viewable =
        checksums_ && lba % kSlab + count <= ChunkBlocks(lba / kSlab);
    for (uint32_t i = 0; viewable && i < count; ++i) {
      viewable = ref_.count(lba + i) == 1;
    }
    std::string_view data;
    const char* crcs = nullptr;
    ASSERT_EQ(vol_->ViewRun(lba, count, &data, &crcs), viewable)
        << "ViewRun " << lba << "+" << count;
    if (!viewable) return;
    EXPECT_TRUE(data == Expected(lba, count));
    for (uint32_t i = 0; i < count; ++i) {
      EXPECT_EQ(DecodeFixed32(crcs + size_t{4} * i), crcs_.at(lba + i));
    }
  }

  void CheckReadCrcs() {
    if (!checksums_) return;
    const Lba lba = RandomLba();
    const uint32_t count = RandomCount(lba);
    std::string out(size_t{4} * count, '\0');
    vol_->ReadCrcs(lba, count, out.data());
    for (uint32_t i = 0; i < count; ++i) {
      EXPECT_EQ(DecodeFixed32(out.data() + size_t{4} * i), SidecarOf(lba + i))
          << "ReadCrcs " << lba + i;
    }
  }

  void CheckVerifyExtent() {
    const Lba lba = RandomLba();
    const uint32_t count = RandomCount(lba);
    Lba bad = kNone;
    const auto health = vol_->VerifyExtent(lba, count, &bad);
    const Lba rotten = FirstRotten(lba, count);
    if (rotten == kNone) {
      EXPECT_EQ(health, MemVolume::ExtentHealth::kClean);
    } else {
      EXPECT_EQ(health, MemVolume::ExtentHealth::kChecksumMismatch);
      EXPECT_EQ(bad, rotten);
    }
  }

  void FlipBit() {
    const Lba lba = RandomLba();
    const uint32_t bit = static_cast<uint32_t>(rng_.Uniform(g_.block_size * 8));
    const bool written = ref_.count(lba) == 1;
    ASSERT_EQ(vol_->FlipBit(lba, bit), written) << "FlipBit " << lba;
    if (written) ref_[lba][bit / 8] ^= static_cast<char>(1u << (bit % 8));
  }

  void EnableChecksums() {
    vol_->EnableChecksums();
    if (!checksums_) RecomputeCrcs();
    checksums_ = true;
  }

  // A fresh volume, sometimes checksummed and sometimes holding old
  // content, clones this one; half the time the model carries on with it.
  void Clone() {
    auto copy = std::make_unique<MemVolume>(g_.block_count, g_.block_size);
    const bool copy_checksums = rng_.Uniform(2) == 0;
    if (copy_checksums) copy->EnableChecksums();
    if (rng_.Uniform(2) == 0) {
      ASSERT_TRUE(copy->Write(RandomLba(), 1, RandomBlock()).ok());
    }
    ASSERT_TRUE(copy->CloneFrom(*vol_).ok());
    const bool source_checksums = checksums_;
    std::unique_ptr<MemVolume> old = std::move(vol_);
    vol_ = std::move(copy);
    checksums_ = copy_checksums;
    if (copy_checksums && !source_checksums) RecomputeCrcs();
    CheckWhole();
    EXPECT_TRUE(old->ContentEquals(*vol_));
    if (rng_.Uniform(2) == 0) {
      vol_ = std::move(old);
      checksums_ = source_checksums;
    }
  }

  // A fresh volume takes over this one's slabs; the source is left empty.
  void Adopt() {
    auto next = std::make_unique<MemVolume>(g_.block_count, g_.block_size);
    const bool next_checksums = rng_.Uniform(2) == 0;
    if (next_checksums) next->EnableChecksums();
    if (rng_.Uniform(2) == 0) {
      ASSERT_TRUE(next->Write(RandomLba(), 1, RandomBlock()).ok());
    }
    ASSERT_TRUE(next->AdoptFrom(std::move(*vol_)).ok());
    EXPECT_EQ(vol_->allocated_blocks(), 0u);
    EXPECT_EQ(vol_->slab_bytes(), 0u);
    std::string out(g_.block_size, '\x11');
    vol_->ReadInto(RandomLba(), 1, out.data());
    EXPECT_TRUE(out == zero_);
    if (next_checksums && !checksums_) RecomputeCrcs();
    checksums_ = next_checksums;
    vol_ = std::move(next);
  }

  Geometry g_;
  Rng rng_;
  const std::string zero_;
  std::unique_ptr<MemVolume> vol_;
  bool checksums_ = false;
  std::map<Lba, std::string> ref_;
  // The sidecar word of every written block while checksums are on.
  std::map<Lba, uint32_t> crcs_;
};

class MemVolumeModelTest : public ::testing::TestWithParam<Geometry> {};

TEST_P(MemVolumeModelTest, RandomSequencesMatchTheReference) {
  const Geometry g = GetParam();
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    DirtyTheHeap(kSlab * g.block_size);
    Model model(g, seed);
    for (int step = 0; step < 600; ++step) {
      model.Step();
      if (::testing::Test::HasFatalFailure()) return;
    }
    model.CheckWhole();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, MemVolumeModelTest,
    ::testing::Values(Geometry{kDefaultBlockSize, 3 * kSlab + 17},
                      Geometry{512, 5 * kSlab + 9}),
    [](const ::testing::TestParamInfo<Geometry>& param) {
      return "Block" + std::to_string(param.param.block_size);
    });

}  // namespace
}  // namespace zerobak::block

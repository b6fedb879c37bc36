#include "block/mem_volume.h"

#include <bit>
#include <cstring>
#include <utility>

#include "common/coding.h"
#include "common/crc32c.h"
#include "common/logging.h"

namespace zerobak::block {

namespace {

// splitmix64 finalizer: the stateless hash behind the media-error gate.
// Full-avalanche, so adjacent LBAs land independently.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Bits [slot, slot + run) of a slab's written word; a run never leaves
// its slab.
inline uint64_t RunMask(uint64_t slot, uint64_t run) {
  return (run == 64 ? ~0ull : ((uint64_t{1} << run) - 1)) << slot;
}

// Length of the run of blocks from `slot` whose bit in `word` equals the
// bit at `slot`, capped at `limit`.
inline uint32_t SameBitRun(uint64_t word, uint64_t slot, uint64_t limit) {
  const uint64_t same = ((word >> slot) & 1) != 0 ? word : ~word;
  return static_cast<uint32_t>(
      std::min<uint64_t>(std::countr_one(same >> slot), limit));
}

}  // namespace

Status BlockDevice::WriteRun(const BlockRun* runs, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    ZB_RETURN_IF_ERROR(CheckRange(runs[i].lba, runs[i].count));
    if (runs[i].data.size() !=
        static_cast<size_t>(runs[i].count) * block_size()) {
      return InvalidArgumentError("WriteRun payload size mismatch");
    }
  }
  for (size_t i = 0; i < n; ++i) {
    ZB_RETURN_IF_ERROR(Write(runs[i].lba, runs[i].count, runs[i].data));
  }
  return OkStatus();
}

Status BlockDevice::CheckRange(Lba lba, uint32_t count) const {
  if (count == 0) return InvalidArgumentError("zero-length IO");
  if (lba + count > block_count() || lba + count < lba) {
    return OutOfRangeError("IO beyond device end: lba=" +
                           std::to_string(lba) +
                           " count=" + std::to_string(count) +
                           " device_blocks=" + std::to_string(block_count()));
  }
  return OkStatus();
}

MemVolume::MemVolume(uint64_t block_count, uint32_t block_size)
    : block_count_(block_count),
      block_size_(block_size),
      chunks_(ChunkCount()),
      zero_block_(block_size, '\0') {}

MemVolume::Chunk& MemVolume::EnsureChunk(Lba lba) {
  const size_t ci = static_cast<size_t>(lba / kBlocksPerChunk);
  Chunk& chunk = chunks_[ci];
  if (chunk.data == nullptr) {
    const uint64_t blocks = ChunkBlocks(ci);
    // Uninitialized: the written mask says which blocks hold data, and
    // every read path gives zeros for the rest, so a first write pays for
    // its own blocks and not for clearing the slab.
    chunk.data.reset(static_cast<char*>(std::malloc(blocks * block_size_)));
    ZB_CHECK(chunk.data != nullptr) << "MemVolume chunk allocation failed";
    slab_bytes_ += blocks * block_size_;
    if (checksums_enabled_) chunk.crcs.assign(blocks, zero_crc_);
  }
  return chunk;
}

bool MemVolume::IsAllocated(Lba lba) const {
  const size_t ci = static_cast<size_t>(lba / kBlocksPerChunk);
  if (ci >= chunks_.size()) return false;
  return (chunks_[ci].written >> (lba % kBlocksPerChunk)) & 1;
}

std::string_view MemVolume::ReadBlockView(Lba lba) const {
  if (!IsAllocated(lba)) return zero_block_;
  const uint64_t slot = lba % kBlocksPerChunk;
  return std::string_view(
      chunks_[static_cast<size_t>(lba / kBlocksPerChunk)].data.get() +
          slot * block_size_,
      block_size_);
}

template <typename Fn>
void MemVolume::ForEachPiece(Lba lba, uint32_t count, Fn&& fn) const {
  uint32_t i = 0;
  while (i < count) {
    const Lba cur = lba + i;
    const size_t ci = static_cast<size_t>(cur / kBlocksPerChunk);
    const uint64_t slot = cur % kBlocksPerChunk;
    const Chunk& chunk = chunks_[ci];
    const uint32_t run = SameBitRun(
        chunk.written, slot,
        std::min<uint64_t>(count - i, ChunkBlocks(ci) - slot));
    const bool written = ((chunk.written >> slot) & 1) != 0;
    if (!fn(cur, run,
            written ? chunk.data.get() + slot * block_size_ : nullptr,
            written && checksums_enabled_ ? chunk.crcs.data() + slot
                                          : nullptr)) {
      return;
    }
    i += run;
  }
}

bool MemVolume::ViewRun(Lba lba, uint32_t count, std::string_view* data,
                        const char** crcs) const {
  // The sidecar words are the CRCs' wire form only on a little-endian host.
  static_assert(std::endian::native == std::endian::little);
  const size_t ci = static_cast<size_t>(lba / kBlocksPerChunk);
  const uint64_t slot = lba % kBlocksPerChunk;
  if (!checksums_enabled_ || count == 0 || slot + count > ChunkBlocks(ci)) {
    return false;
  }
  const Chunk& chunk = chunks_[ci];
  // Only written blocks hold bytes; a run with an unwritten one is
  // refused rather than handing out bytes nobody wrote.
  const uint64_t mask = RunMask(slot, count);
  if ((chunk.written & mask) != mask) return false;
  *data = std::string_view(chunk.data.get() + slot * block_size_,
                           static_cast<size_t>(count) * block_size_);
  *crcs = reinterpret_cast<const char*>(chunk.crcs.data() + slot);
  return true;
}

Status MemVolume::Read(Lba lba, uint32_t count, std::string* out) {
  ZB_RETURN_IF_ERROR(CheckRange(lba, count));
  if (media_threshold_ != 0) {
    ZB_RETURN_IF_ERROR(MediaCheck(lba, count, "read"));
  }
  // reserve + append instead of resize + copy: resize would zero-fill the
  // buffer only for every byte to be overwritten right after, a second
  // pass over the data that dominates large extent reads.
  out->clear();
  out->reserve(static_cast<size_t>(count) * block_size_);
  Status status = OkStatus();
  ForEachPiece(lba, count,
               [&](Lba cur, uint32_t run, const char* bytes,
                   const uint32_t* crcs) {
                 const size_t n = static_cast<size_t>(run) * block_size_;
                 if (bytes == nullptr) {
                   out->append(n, '\0');
                   return true;
                 }
                 // Verify every written block before handing its bytes
                 // out.
                 for (uint32_t j = 0; crcs != nullptr && j < run; ++j) {
                   if (Crc32c(bytes + static_cast<size_t>(j) * block_size_,
                              block_size_) != crcs[j]) {
                     ++checksum_failures_;
                     status = DataLossError(
                         "block checksum mismatch at lba " +
                         std::to_string(cur + j));
                     return false;
                   }
                 }
                 out->append(bytes, n);
                 return true;
               });
  ZB_RETURN_IF_ERROR(status);
  ++reads_;
  return OkStatus();
}

Status MemVolume::Write(Lba lba, uint32_t count, std::string_view data) {
  ZB_RETURN_IF_ERROR(CheckRange(lba, count));
  if (data.size() != static_cast<size_t>(count) * block_size_) {
    return InvalidArgumentError(
        "write payload size mismatch: got " + std::to_string(data.size()) +
        " want " + std::to_string(static_cast<size_t>(count) * block_size_));
  }
  if (media_threshold_ != 0) {
    ZB_RETURN_IF_ERROR(MediaCheck(lba, count, "write"));
  }
  WriteUnchecked(BlockRun{lba, count, data});
  ++writes_;
  return OkStatus();
}

Status MemVolume::WriteRun(const BlockRun* runs, size_t n) {
  // Validate the whole run up front so a bad extent cannot leave a
  // half-applied run behind.
  for (size_t i = 0; i < n; ++i) {
    ZB_RETURN_IF_ERROR(CheckRange(runs[i].lba, runs[i].count));
    if (runs[i].data.size() !=
        static_cast<size_t>(runs[i].count) * block_size_) {
      return InvalidArgumentError("WriteRun payload size mismatch");
    }
    if (media_threshold_ != 0) {
      ZB_RETURN_IF_ERROR(MediaCheck(runs[i].lba, runs[i].count, "write"));
    }
  }
  for (size_t i = 0; i < n; ++i) WriteUnchecked(runs[i]);
  writes_ += n;
  return OkStatus();
}

void MemVolume::WriteUnchecked(const BlockRun& write) {
  const char* src = write.data.data();
  const char* crcs = write.crcs;
  uint32_t i = 0;
  while (i < write.count) {
    const Lba cur = write.lba + i;
    const size_t ci = static_cast<size_t>(cur / kBlocksPerChunk);
    const uint64_t slot = cur % kBlocksPerChunk;
    const uint32_t run = static_cast<uint32_t>(
        std::min<uint64_t>(write.count - i, ChunkBlocks(ci) - slot));
    Chunk& chunk = EnsureChunk(cur);
    std::memcpy(chunk.data.get() + slot * block_size_, src,
                static_cast<size_t>(run) * block_size_);
    if (checksums_enabled_) {
      // The carried CRCs (little-endian words) become the sidecar as
      // they are; without them each block's CRC is computed here.
      for (uint32_t j = 0; j < run; ++j) {
        chunk.crcs[slot + j] =
            crcs != nullptr
                ? DecodeFixed32(crcs + size_t{4} * j)
                : Crc32c(src + static_cast<size_t>(j) * block_size_,
                         block_size_);
      }
    }
    if (crcs != nullptr) crcs += size_t{4} * run;
    const uint64_t mask = RunMask(slot, run);
    allocated_blocks_ +=
        static_cast<uint64_t>(__builtin_popcountll(mask & ~chunk.written));
    chunk.written |= mask;
    src += static_cast<size_t>(run) * block_size_;
    i += run;
  }
}

void MemVolume::ReadInto(Lba lba, uint32_t count, char* dst) const {
  ForEachPiece(lba, count,
               [&](Lba, uint32_t run, const char* bytes, const uint32_t*) {
                 const size_t n = static_cast<size_t>(run) * block_size_;
                 if (bytes == nullptr) {
                   std::memset(dst, 0, n);
                 } else {
                   std::memcpy(dst, bytes, n);
                 }
                 dst += n;
                 return true;
               });
}

void MemVolume::ReadCrcs(Lba lba, uint32_t count, char* dst) const {
  ZB_CHECK(checksums_enabled_) << "ReadCrcs needs the sidecar";
  for (uint32_t i = 0; i < count; ++i) {
    const Lba cur = lba + i;
    const Chunk& chunk = chunks_[static_cast<size_t>(cur / kBlocksPerChunk)];
    EncodeFixed32(dst + size_t{4} * i,
                  chunk.data == nullptr ? zero_crc_
                                        : chunk.crcs[cur % kBlocksPerChunk]);
  }
}

Status MemVolume::CloneFrom(const MemVolume& src) {
  if (src.block_size_ != block_size_ || src.block_count_ != block_count_) {
    return InvalidArgumentError("clone geometry mismatch");
  }
  chunks_.clear();
  chunks_.resize(ChunkCount());
  for (size_t ci = 0; ci < chunks_.size(); ++ci) {
    const Chunk& from = src.chunks_[ci];
    if (from.written == 0) continue;
    Chunk& to = chunks_[ci];
    const uint64_t blocks = ChunkBlocks(ci);
    to.data.reset(static_cast<char*>(std::malloc(blocks * block_size_)));
    ZB_CHECK(to.data != nullptr) << "MemVolume clone alloc failed";
    to.written = from.written;
    // Only the written runs are copied: the rest of the slab is as
    // unwritten here as in the source.
    const Lba base = static_cast<Lba>(ci) * kBlocksPerChunk;
    src.ForEachPiece(base, static_cast<uint32_t>(blocks),
                     [&](Lba cur, uint32_t run, const char* bytes,
                         const uint32_t*) {
                       if (bytes != nullptr) {
                         std::memcpy(to.data.get() + (cur - base) * block_size_,
                                     bytes,
                                     static_cast<size_t>(run) * block_size_);
                       }
                       return true;
                     });
    if (checksums_enabled_) {
      if (src.checksums_enabled_) {
        // Copying the source sidecar (not recomputing) preserves any
        // latent mismatch in the source, so cloned rot stays detectable.
        to.crcs = from.crcs;
      } else {
        ComputeCrcs(to, blocks);
      }
    }
  }
  allocated_blocks_ = src.allocated_blocks_;
  slab_bytes_ = src.slab_bytes_;
  return OkStatus();
}

Status MemVolume::AdoptFrom(MemVolume&& src) {
  if (src.block_size_ != block_size_ || src.block_count_ != block_count_) {
    return InvalidArgumentError("adopt geometry mismatch");
  }
  if (checksums_enabled_) {
    src.EnableChecksums();  // No-op when the source carries its sidecar.
  }
  // A sidecar adopted by a volume without checksums is never read, and
  // EnableChecksums recomputes every slot.
  chunks_ = std::move(src.chunks_);
  allocated_blocks_ = src.allocated_blocks_;
  slab_bytes_ = src.slab_bytes_;
  src.Reset();
  return OkStatus();
}

void MemVolume::EnableChecksums() {
  if (checksums_enabled_) return;
  checksums_enabled_ = true;
  zero_crc_ = Crc32c(zero_block_.data(), zero_block_.size());
  for (size_t ci = 0; ci < chunks_.size(); ++ci) {
    if (chunks_[ci].written != 0) ComputeCrcs(chunks_[ci], ChunkBlocks(ci));
  }
}

void MemVolume::ComputeCrcs(Chunk& chunk, uint64_t blocks) const {
  chunk.crcs.assign(blocks, zero_crc_);
  for (uint64_t b = 0; b < blocks; ++b) {
    if (((chunk.written >> b) & 1) != 0) {
      chunk.crcs[b] = Crc32c(chunk.data.get() + b * block_size_, block_size_);
    }
  }
}

void MemVolume::SetMediaError(double probability, uint64_t seed) {
  if (probability <= 0.0) {
    media_threshold_ = 0;
    return;
  }
  media_seed_ = seed;
  media_threshold_ =
      probability >= 1.0
          ? ~0ull
          : static_cast<uint64_t>(probability * 18446744073709551616.0);
  if (media_threshold_ == 0) media_threshold_ = 1;
}

bool MemVolume::MediaBad(Lba lba) const {
  return Mix64(media_seed_ ^ (lba * 0x100000001b3ull)) < media_threshold_;
}

Status MemVolume::MediaCheck(Lba lba, uint32_t count, const char* op) {
  for (uint32_t i = 0; i < count; ++i) {
    if (MediaBad(lba + i)) {
      ++media_errors_;
      return DataLossError(std::string("media ") + op + " error at lba " +
                           std::to_string(lba + i));
    }
  }
  return OkStatus();
}

bool MemVolume::FlipBit(Lba lba, uint32_t bit) {
  if (lba >= block_count_) return false;
  const size_t ci = static_cast<size_t>(lba / kBlocksPerChunk);
  Chunk& chunk = chunks_[ci];
  const uint64_t slot = lba % kBlocksPerChunk;
  if (((chunk.written >> slot) & 1) == 0) return false;
  const uint32_t byte = (bit / 8) % block_size_;
  chunk.data.get()[slot * block_size_ + byte] ^=
      static_cast<char>(1u << (bit % 8));
  ++bit_flips_;
  return true;
}

MemVolume::ExtentHealth MemVolume::VerifyExtent(Lba lba, uint32_t count,
                                                Lba* bad_lba) {
  for (uint32_t i = 0; i < count; ++i) {
    const Lba cur = lba + i;
    if (cur >= block_count_) break;
    ++blocks_verified_;
    if (media_threshold_ != 0 && MediaBad(cur)) {
      ++media_errors_;
      if (bad_lba != nullptr) *bad_lba = cur;
      return ExtentHealth::kMediaError;
    }
    // An unwritten block has no bytes to verify.
    if (!checksums_enabled_ || !IsAllocated(cur)) continue;
    const Chunk& chunk = chunks_[static_cast<size_t>(cur / kBlocksPerChunk)];
    const uint64_t slot = cur % kBlocksPerChunk;
    if (Crc32c(chunk.data.get() + slot * block_size_, block_size_) !=
        chunk.crcs[slot]) {
      ++checksum_failures_;
      if (bad_lba != nullptr) *bad_lba = cur;
      return ExtentHealth::kChecksumMismatch;
    }
  }
  return ExtentHealth::kClean;
}

bool MemVolume::AnyAllocated(Lba lba, uint32_t count) const {
  uint32_t i = 0;
  while (i < count) {
    const Lba cur = lba + i;
    if (cur >= block_count_) return false;
    const size_t ci = static_cast<size_t>(cur / kBlocksPerChunk);
    const uint64_t slot = cur % kBlocksPerChunk;
    const uint32_t run = static_cast<uint32_t>(
        std::min<uint64_t>(count - i, ChunkBlocks(ci) - slot));
    if ((chunks_[ci].written & RunMask(slot, run)) != 0) return true;
    i += run;
  }
  return false;
}

uint64_t MemVolume::ExtentFingerprint(Lba lba, uint32_t count) const {
  ZB_CHECK(checksums_enabled_) << "ExtentFingerprint needs the sidecar";
  uint64_t fp = 0;
  for (uint32_t i = 0; i < count; ++i) {
    const Lba cur = lba + i;
    if (cur >= block_count_) break;
    const size_t ci = static_cast<size_t>(cur / kBlocksPerChunk);
    const Chunk& chunk = chunks_[ci];
    const uint32_t crc = chunk.data == nullptr
                             ? zero_crc_
                             : chunk.crcs[cur % kBlocksPerChunk];
    fp = Mix64(fp ^ crc);
  }
  return fp;
}

bool MemVolume::ContentEquals(const MemVolume& other) const {
  if (other.block_size_ != block_size_ ||
      other.block_count_ != block_count_) {
    return false;
  }
  auto all_zero = [this](const char* p, uint32_t run) {
    for (uint32_t b = 0; b < run; ++b) {
      if (std::memcmp(p + static_cast<size_t>(b) * block_size_,
                      zero_block_.data(), block_size_) != 0) {
        return false;
      }
    }
    return true;
  };
  for (size_t ci = 0; ci < chunks_.size(); ++ci) {
    const uint64_t wa = chunks_[ci].written;
    const uint64_t wb = other.chunks_[ci].written;
    if ((wa | wb) == 0) continue;
    const uint64_t blocks = ChunkBlocks(ci);
    // Walk runs where both sides keep their written state; an unwritten
    // block reads as zeros, so it equals an explicitly written zero block.
    for (uint64_t slot = 0; slot < blocks;) {
      const uint32_t run = std::min(SameBitRun(wa, slot, blocks - slot),
                                    SameBitRun(wb, slot, blocks - slot));
      const char* a = ((wa >> slot) & 1) != 0
                          ? chunks_[ci].data.get() + slot * block_size_
                          : nullptr;
      const char* b = ((wb >> slot) & 1) != 0
                          ? other.chunks_[ci].data.get() + slot * block_size_
                          : nullptr;
      if (a != nullptr && b != nullptr) {
        if (std::memcmp(a, b, static_cast<size_t>(run) * block_size_) != 0) {
          return false;
        }
      } else if (a != nullptr || b != nullptr) {
        if (!all_zero(a != nullptr ? a : b, run)) return false;
      }
      slot += run;
    }
  }
  return true;
}

}  // namespace zerobak::block

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
    // calloc zero-fills, so unwritten blocks inside an allocated chunk
    // still read back as zeros. Only pages fresh from the kernel come
    // zeroed for free; recycled heap memory is memset. Either way a first
    // write pays for its whole slab, which is why slabs are small.
    chunk.data.reset(static_cast<char*>(std::calloc(blocks, block_size_)));
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
  const size_t ci = static_cast<size_t>(lba / kBlocksPerChunk);
  if (ci >= chunks_.size() || chunks_[ci].data == nullptr) {
    return zero_block_;
  }
  const uint64_t slot = lba % kBlocksPerChunk;
  return std::string_view(chunks_[ci].data.get() + slot * block_size_,
                          block_size_);
}

bool MemVolume::ViewRun(Lba lba, uint32_t count, std::string_view* data,
                        const char** crcs) const {
  // The sidecar words are the CRCs' wire form only on a little-endian host.
  static_assert(std::endian::native == std::endian::little);
  const size_t ci = static_cast<size_t>(lba / kBlocksPerChunk);
  const uint64_t slot = lba % kBlocksPerChunk;
  if (!checksums_enabled_ || count == 0 || chunks_[ci].data == nullptr ||
      slot + count > ChunkBlocks(ci)) {
    return false;
  }
  const Chunk& chunk = chunks_[ci];
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
  uint32_t i = 0;
  while (i < count) {
    const Lba cur = lba + i;
    const size_t ci = static_cast<size_t>(cur / kBlocksPerChunk);
    const uint64_t slot = cur % kBlocksPerChunk;
    // Copy the longest run that stays inside this chunk.
    const uint32_t run = static_cast<uint32_t>(
        std::min<uint64_t>(count - i, ChunkBlocks(ci) - slot));
    if (chunks_[ci].data == nullptr) {
      out->append(static_cast<size_t>(run) * block_size_, '\0');
    } else {
      const char* base = chunks_[ci].data.get() + slot * block_size_;
      if (checksums_enabled_) {
        // Verify every resident block before handing its bytes out. An
        // unwritten block inside an allocated chunk holds zeros and a
        // zero-CRC sidecar slot, so the uniform compare stays correct.
        const Chunk& chunk = chunks_[ci];
        for (uint32_t j = 0; j < run; ++j) {
          if (Crc32c(base + static_cast<size_t>(j) * block_size_,
                     block_size_) != chunk.crcs[slot + j]) {
            ++checksum_failures_;
            return DataLossError("block checksum mismatch at lba " +
                                 std::to_string(cur + j));
          }
        }
      }
      out->append(base, static_cast<size_t>(run) * block_size_);
    }
    i += run;
  }
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
  uint32_t i = 0;
  while (i < count) {
    const Lba cur = lba + i;
    const size_t ci = static_cast<size_t>(cur / kBlocksPerChunk);
    const uint64_t slot = cur % kBlocksPerChunk;
    const uint32_t run = static_cast<uint32_t>(
        std::min<uint64_t>(count - i, ChunkBlocks(ci) - slot));
    const size_t bytes = static_cast<size_t>(run) * block_size_;
    if (chunks_[ci].data == nullptr) {
      std::memset(dst, 0, bytes);
    } else {
      std::memcpy(dst, chunks_[ci].data.get() + slot * block_size_, bytes);
    }
    dst += bytes;
    i += run;
  }
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
    if (src.chunks_[ci].data == nullptr) continue;
    const uint64_t blocks = ChunkBlocks(ci);
    // malloc, not calloc: the full chunk is overwritten by the copy.
    chunks_[ci].data.reset(
        static_cast<char*>(std::malloc(blocks * block_size_)));
    ZB_CHECK(chunks_[ci].data != nullptr) << "MemVolume clone alloc failed";
    std::memcpy(chunks_[ci].data.get(), src.chunks_[ci].data.get(),
                blocks * block_size_);
    chunks_[ci].written = src.chunks_[ci].written;
    if (checksums_enabled_) {
      if (src.checksums_enabled_) {
        // Copying the source sidecar (not recomputing) preserves any
        // latent mismatch in the source, so cloned rot stays detectable.
        chunks_[ci].crcs = src.chunks_[ci].crcs;
      } else {
        chunks_[ci].crcs.resize(blocks);
        for (uint64_t b = 0; b < blocks; ++b) {
          chunks_[ci].crcs[b] =
              Crc32c(chunks_[ci].data.get() + b * block_size_, block_size_);
        }
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
    Chunk& chunk = chunks_[ci];
    if (chunk.data == nullptr) continue;
    const uint64_t blocks = ChunkBlocks(ci);
    chunk.crcs.resize(blocks);
    for (uint64_t b = 0; b < blocks; ++b) {
      chunk.crcs[b] =
          Crc32c(chunk.data.get() + b * block_size_, block_size_);
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
    if (!checksums_enabled_) continue;
    const size_t ci = static_cast<size_t>(cur / kBlocksPerChunk);
    const Chunk& chunk = chunks_[ci];
    if (chunk.data == nullptr) continue;
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
  auto all_zero = [](const char* p, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      if (p[i] != '\0') return false;
    }
    return true;
  };
  for (size_t ci = 0; ci < chunks_.size(); ++ci) {
    const char* a = chunks_[ci].data.get();
    const char* b = other.chunks_[ci].data.get();
    const size_t bytes = ChunkBlocks(ci) * block_size_;
    if (a == nullptr && b == nullptr) continue;
    // A missing chunk reads as zeros, so compare against zeros (a block
    // explicitly written with zeros equals a hole).
    if (a == nullptr) {
      if (!all_zero(b, bytes)) return false;
    } else if (b == nullptr) {
      if (!all_zero(a, bytes)) return false;
    } else if (std::memcmp(a, b, bytes) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace zerobak::block

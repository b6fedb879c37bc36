#ifndef ZEROBAK_BLOCK_MEM_VOLUME_H_
#define ZEROBAK_BLOCK_MEM_VOLUME_H_

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "block/block_device.h"

namespace zerobak::block {

// In-memory, sparse block device. Blocks never written read back as
// zeros. This is the backing store for every simulated array volume
// (LDEV), journal region and snapshot pool.
//
// Storage layout: fixed-size slabs ("chunks") of kBlocksPerChunk blocks,
// allocated lazily as contiguous zero-filled arrays the first time any
// block inside them is written. Compared to a per-block hash map this
// gives O(1) indexed access with no hashing, one allocation per chunk
// (4 MiB at the default geometry) instead of one per 4 KiB block, and
// cache-friendly sequential scans for apply/resync/snapshot paths. An
// allocation bitmap per chunk tracks which blocks were ever written, so
// sparse-footprint accounting (thin provisioning) is preserved exactly.
class MemVolume : public BlockDevice {
 public:
  static constexpr uint64_t kBlocksPerChunk = 1024;

  MemVolume(uint64_t block_count, uint32_t block_size = kDefaultBlockSize);

  uint32_t block_size() const override { return block_size_; }
  uint64_t block_count() const override { return block_count_; }

  Status Read(Lba lba, uint32_t count, std::string* out) override;
  Status Write(Lba lba, uint32_t count, std::string_view data) override;
  // Validates every extent, then applies them in one pass (one virtual
  // call and one range-check sweep for a whole sorted apply batch). A
  // run's carried `crcs` become its blocks' sidecar as they are.
  Status WriteRun(const BlockRun* runs, size_t n) override;

  // Returns true if the block has been written at least once.
  bool IsAllocated(Lba lba) const;
  // Number of distinct blocks ever written (sparse footprint).
  uint64_t allocated_blocks() const { return allocated_blocks_; }

  // Reads one block without range checking overhead; returns a zero block
  // if never written.
  std::string ReadBlock(Lba lba) const {
    return std::string(ReadBlockView(lba));
  }

  // Zero-copy variant: a view of the block's current content, valid until
  // the next Write/CloneFrom/AdoptFrom/Reset of this volume. Never-written
  // blocks yield a view of a shared zero block.
  std::string_view ReadBlockView(Lba lba) const;

  // Copies [lba, lba+count) into `dst` (count * block_size() bytes,
  // holes as zeros) without touching the read counter. Const and free of
  // any shared-state mutation, so concurrent ReadInto calls are safe and
  // the parallel bulk-frame capture produces bytes identical to the serial
  // path at any lane count. The caller must have range-checked.
  void ReadInto(Lba lba, uint32_t count, char* dst) const;

  // Copies every allocated block of `src` into this volume (same
  // geometry required). Used by replication initial copy and tests.
  Status CloneFrom(const MemVolume& src);

  // The move counterpart of CloneFrom, for an image nobody reads again:
  // this volume takes over `src`'s chunk table (same geometry required),
  // so no byte is copied. The sidecar follows CloneFrom's rule: carried
  // when both sides keep checksums (latent rot stays detectable),
  // computed when only this one does. This volume's old chunks are freed
  // and `src` is left empty.
  Status AdoptFrom(MemVolume&& src);

  // Byte-level content equality with another volume (zero-filled holes
  // compare equal to explicit zero blocks).
  bool ContentEquals(const MemVolume& other) const;

  // Drops all data (simulates re-formatting).
  void Reset() {
    chunks_.clear();
    chunks_.resize(ChunkCount());
    allocated_blocks_ = 0;
  }

  uint64_t writes() const { return writes_; }
  uint64_t reads() const { return reads_; }

  // --- At-rest integrity ---------------------------------------------------

  // Enables the per-block CRC32C sidecar: every write updates the stored
  // block's checksum and every Read verifies what it copies out, so silent
  // corruption (FlipBit, a stray poke at the slab) surfaces as a typed
  // kDataLoss status instead of bad data. Off by default — journal staging
  // buffers and raw benches pay nothing — and enabled by storage::Volume
  // for every array LDEV. Zero-copy views (ReadBlockView) and
  // ReadInto stay unverified by design; the scrubber covers those paths.
  void EnableChecksums();
  bool checksums_enabled() const { return checksums_enabled_; }

  // Copies the sidecar CRCs of [lba, lba+count) into `dst` as `count`
  // little-endian 32-bit words (holes give the zero-block CRC): the form
  // BlockRun::crcs carries, so a copy of these blocks keeps the CRCs
  // they were written with. Requires checksums_enabled; the caller must
  // have range-checked.
  void ReadCrcs(Lba lba, uint32_t count, char* dst) const;

  // Arms deterministic media errors: each LBA is independently "bad" with
  // probability `probability`, decided by a stateless seeded hash, so one
  // (seed, probability) episode always hits the same sectors — the
  // in-memory model of a latent sector error burst. Reads and writes that
  // touch a bad LBA fail with kDataLoss. probability <= 0 heals the
  // media.
  void SetMediaError(double probability, uint64_t seed);
  bool media_error_armed() const { return media_threshold_ != 0; }

  // Flips one bit of a stored block in place *without* updating its
  // checksum sidecar — silent bit rot. Returns false when the block was
  // never written (a hole has no media to rot).
  bool FlipBit(Lba lba, uint32_t bit);

  // Scrub-side health check of [lba, lba+count): the media-error gate
  // first, then the checksum of every resident block. Does not touch the
  // read counter, but media errors / checksum mismatches it finds are
  // counted. `bad_lba` (optional) receives the first failing block.
  enum class ExtentHealth { kClean, kMediaError, kChecksumMismatch };
  ExtentHealth VerifyExtent(Lba lba, uint32_t count, Lba* bad_lba = nullptr);

  // True when any block of [lba, lba+count) has ever been written.
  bool AnyAllocated(Lba lba, uint32_t count) const;

  // Combined fingerprint of [lba, lba+count) built from the per-block
  // CRC sidecar (holes contribute the zero-block CRC). Two volumes whose
  // extents verify clean and fingerprint equal hold identical bytes
  // (modulo CRC32C collision). O(count) words of sidecar traffic instead
  // of O(count * block_size) data bytes — this is what lets the scrubber
  // compare sites without copying megabytes. Requires checksums_enabled.
  uint64_t ExtentFingerprint(Lba lba, uint32_t count) const;

  uint64_t media_errors() const { return media_errors_; }
  uint64_t checksum_failures() const { return checksum_failures_; }
  uint64_t bit_flips() const { return bit_flips_; }
  // Blocks examined by VerifyExtent over the volume's lifetime.
  uint64_t blocks_verified() const { return blocks_verified_; }

 private:
  struct FreeDeleter {
    void operator()(char* p) const { std::free(p); }
  };

  struct Chunk {
    // blocks * block_size bytes, zero on allocation. Allocated with
    // calloc so large chunks get lazily-zeroed pages from the kernel:
    // a sparse chunk only faults in the pages actually written, instead
    // of paying an eager memset of the whole slab.
    std::unique_ptr<char[], FreeDeleter> data;
    // One bit per block: set once the block has been written.
    std::vector<uint64_t> bitmap;
    // Per-block CRC32C sidecar; empty unless checksums are enabled.
    std::vector<uint32_t> crcs;
  };

  size_t ChunkCount() const {
    return static_cast<size_t>((block_count_ + kBlocksPerChunk - 1) /
                               kBlocksPerChunk);
  }
  // Number of blocks covered by chunk `ci` (the last chunk may be short).
  uint64_t ChunkBlocks(size_t ci) const {
    const uint64_t base = static_cast<uint64_t>(ci) * kBlocksPerChunk;
    return std::min<uint64_t>(kBlocksPerChunk, block_count_ - base);
  }
  // Returns the chunk holding `lba`, allocating it zero-filled on demand.
  Chunk& EnsureChunk(Lba lba);
  // The copy loop of Write and WriteRun, after range/size validation.
  void WriteUnchecked(const BlockRun& run);
  // Stateless per-LBA media gate (only meaningful while armed).
  bool MediaBad(Lba lba) const;
  // Scans [lba, lba+count) through the media gate; kDataLoss on the
  // first bad sector. `op` names the IO direction for the message.
  Status MediaCheck(Lba lba, uint32_t count, const char* op);

  uint64_t block_count_;
  uint32_t block_size_;
  std::vector<Chunk> chunks_;
  std::string zero_block_;
  uint64_t allocated_blocks_ = 0;
  uint64_t writes_ = 0;
  uint64_t reads_ = 0;

  bool checksums_enabled_ = false;
  uint32_t zero_crc_ = 0;
  // Media-error gate: 0 = healthy; otherwise the per-LBA hash threshold
  // (probability scaled to the full 64-bit range).
  uint64_t media_threshold_ = 0;
  uint64_t media_seed_ = 0;
  uint64_t media_errors_ = 0;
  uint64_t checksum_failures_ = 0;
  uint64_t bit_flips_ = 0;
  uint64_t blocks_verified_ = 0;
};

}  // namespace zerobak::block

#endif  // ZEROBAK_BLOCK_MEM_VOLUME_H_

#ifndef ZEROBAK_REPLICATION_BORROW_INDEX_H_
#define ZEROBAK_REPLICATION_BORROW_INDEX_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "block/mem_volume.h"
#include "journal/journal.h"

namespace zerobak::replication {

// Which unshipped primary-journal record borrows each block of one P-VOL:
// per block, the sequence of the record whose payload views that block's
// slab bytes (kNoSequence: none). A block has at most one borrower, since
// a write that overwrites it first makes the old borrower owned. Pages
// mirror the volume's 64-block slabs and are allocated the first time a
// record in that slab borrows, so a lookup is two indexings and a write
// allocates nothing once its slab has a page.
//
// An entry is only a hint: it goes stale when its record ships, is
// trimmed by a suspension, or the journal restarts after a failback. The
// owner confirms it against the journal record before acting on it.
class BorrowIndex {
 public:
  static constexpr uint64_t kPageBlocks = block::MemVolume::kBlocksPerChunk;

  // Sizes the index for `block_count` blocks, with no borrower.
  void Reset(uint64_t block_count) {
    pages_.clear();
    pages_.resize((block_count + kPageBlocks - 1) / kPageBlocks);
  }

  journal::SequenceNumber Get(uint64_t lba) const {
    const Page* page = pages_[lba / kPageBlocks].get();
    return page == nullptr ? journal::kNoSequence : (*page)[lba % kPageBlocks];
  }

  // Records `seq` as the borrower of [lba, lba + count), a run inside one
  // slab.
  void Set(uint64_t lba, uint32_t count, journal::SequenceNumber seq) {
    std::unique_ptr<Page>& page = pages_[lba / kPageBlocks];
    if (page == nullptr) page = std::make_unique<Page>();
    const uint64_t slot = lba % kPageBlocks;
    for (uint32_t i = 0; i < count; ++i) (*page)[slot + i] = seq;
  }

  // Clears the entries of [lba, lba + count), a run inside one slab, that
  // still name `seq`.
  void Clear(uint64_t lba, uint32_t count, journal::SequenceNumber seq) {
    Page* page = pages_[lba / kPageBlocks].get();
    if (page == nullptr) return;
    const uint64_t slot = lba % kPageBlocks;
    for (uint32_t i = 0; i < count; ++i) {
      if ((*page)[slot + i] == seq) (*page)[slot + i] = journal::kNoSequence;
    }
  }

  // Calls fn(lba) for every block that has an entry, in LBA order. `fn`
  // may clear entries.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t p = 0; p < pages_.size(); ++p) {
      if (pages_[p] == nullptr) continue;
      for (uint64_t slot = 0; slot < kPageBlocks; ++slot) {
        if ((*pages_[p])[slot] != journal::kNoSequence) {
          fn(p * kPageBlocks + slot);
        }
      }
    }
  }

 private:
  using Page = std::array<journal::SequenceNumber, kPageBlocks>;
  std::vector<std::unique_ptr<Page>> pages_;
};

}  // namespace zerobak::replication

#endif  // ZEROBAK_REPLICATION_BORROW_INDEX_H_

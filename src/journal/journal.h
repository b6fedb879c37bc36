#ifndef ZEROBAK_JOURNAL_JOURNAL_H_
#define ZEROBAK_JOURNAL_JOURNAL_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/time.h"
#include "obs/metrics.h"

namespace zerobak::journal {

// Sequence number of an update record within one journal. Sequences are
// dense (no gaps): seq n+1 is appended right after seq n. Sequence 0 means
// "nothing".
using SequenceNumber = uint64_t;

inline constexpr SequenceNumber kNoSequence = 0;

// An immutable payload view in one of two forms.
//
// Owned: a refcounted backing buffer with an offset/length view. Copying
// an owned PayloadBuffer bumps a refcount; it never copies payload bytes.
// The backing buffer is freed when the last view drops, so trimming the
// primary journal cannot invalidate a batch that is still on the wire.
//
// Borrowed: a non-owning view of bytes that live elsewhere — an ADC
// record's blocks and CRC sidecar words in the P-VOL slab the host write
// just filled (Borrow). It allocates nothing and pins nothing, so it is
// only valid while its owner keeps those bytes unchanged. A borrowed view
// never leaves the primary journal: the replication engine copies the
// record into an owned buffer (ToOwned) before anything overwrites the
// blocks, and rebinds it to the shipped batch's body once it ships, so
// no ship batch past encode, link closure, backup journal or SDC message
// ever holds one.
class PayloadBuffer {
 public:
  PayloadBuffer() = default;

  // Allocates a new backing buffer holding a copy of `data`.
  static PayloadBuffer Copy(std::string_view data);

  // Allocates a backing buffer for `size` payload bytes followed by a
  // trailer of `crc_count` per-block CRC32C words (little-endian), and
  // points `*bytes` at it; the caller fills all size + 4 * crc_count
  // bytes before it shares the buffer. The view covers the payload
  // bytes, so the CRCs ride along without changing size(). Buffer and
  // reference count are one heap block.
  static PayloadBuffer Allocate(size_t size, uint32_t crc_count,
                                char** bytes);

  // A borrowed view of `data` and of the `crc_count` little-endian CRC
  // words at `crcs` (nullptr when crc_count is 0). No allocation; the
  // caller guarantees both stay unchanged for as long as the view is used.
  static PayloadBuffer Borrow(std::string_view data, const char* crcs,
                              uint32_t crc_count) {
    PayloadBuffer buf;
    buf.data_ = data.data();
    buf.len_ = data.size();
    buf.crcs_ = crc_count == 0 ? nullptr : crcs;
    buf.crc_count_ = crc_count;
    return buf;
  }

  // An owned copy of this view and its CRCs, in one allocation
  // (Allocate). This is how a borrowed record is materialized.
  PayloadBuffer ToOwned() const;

  // A sub-view of the same bytes (no allocation; a slice of a borrowed
  // view is borrowed). `offset` and `length` must lie within this view.
  // With `crc_count`, the 4 * crc_count bytes at `crc_offset` of this view
  // (also within it) are the sub-view's CRCs.
  PayloadBuffer Slice(size_t offset, size_t length, size_t crc_offset = 0,
                      uint32_t crc_count = 0) const;

  std::string_view view() const { return std::string_view(data_, len_); }
  size_t size() const { return len_; }
  bool empty() const { return len_ == 0; }
  // True for a non-owning view (Borrow); false for an owned or empty one.
  bool borrowed() const { return data_ != nullptr && buf_ == nullptr; }

  // The CRCs that travel with the view: crc_count() little-endian 32-bit
  // words outside the view (no alignment), or nullptr when there are
  // none.
  const char* crcs() const { return crcs_; }
  uint32_t crc_count() const { return crc_count_; }

  // Number of owned PayloadBuffer views sharing the backing buffer (0 for
  // an empty or a borrowed buffer).
  long use_count() const { return buf_.use_count(); }

  // Process-wide count of backing-buffer allocations (Copy, Allocate and
  // ToOwned calls). Tests use deltas of this to assert the zero-copy
  // property of the replication data path.
  static uint64_t TotalAllocations();

 private:
  // The backing bytes' owner (null when borrowed or empty); the reference
  // count is the owner's.
  std::shared_ptr<const char> buf_;
  const char* data_ = nullptr;
  size_t len_ = 0;
  const char* crcs_ = nullptr;
  uint32_t crc_count_ = 0;
};

// One journaled volume update: "volume `volume_id` wrote `payload` at
// block `lba`". The order of records in a journal is exactly the order in
// which the array acknowledged the corresponding host writes — the
// property that consistency groups extend across multiple volumes
// (Section III-A-1). Records share their payload bytes through
// PayloadBuffer, so copying a record is O(1) and never touches the data.
//
// On the main site a record starts borrowed when its blocks lie in
// one P-VOL slab: its payload views the slab bytes and CRC sidecar words
// (PayloadBuffer::Borrow), so the host write allocates and copies nothing.
// The replication engine keeps that view valid: a write that would
// overwrite a borrowed block first makes the record owned (ToOwned), and
// a shipped record is rebound to its slice of the batch's encoded body.
// Records that arrive on the backup site, and every record of a write
// across slabs, are owned from the start.
struct JournalRecord {
  SequenceNumber sequence = kNoSequence;
  uint64_t volume_id = 0;
  uint64_t lba = 0;
  uint32_t block_count = 0;
  PayloadBuffer payload;
  // Array time at which the original host write was acknowledged; used to
  // compute replication lag and RPO.
  SimTime ack_time = 0;

  // --- Transfer-pipeline metadata (set on shipped copies) -------------------
  // When non-zero, this record belongs to an atomically-applied batch: the
  // apply side may only apply it together with every record up to
  // `atomic_through`, and a recovery point can only cut at a batch
  // boundary. Write-folding depends on this: a folded record's newest
  // cover lands in the same atomic batch, so no recovery point can observe
  // the fold.
  SequenceNumber atomic_through = kNoSequence;
  // True when write-folding dropped this record's payload because newer
  // records in the same batch overwrite every block it touches. The record
  // ships as a header-only tombstone (its sequence keeps the stream dense)
  // and the apply side skips its volume write.
  bool folded = false;

  std::string_view data() const { return payload.view(); }
  // The CRC32C of each block of data(), computed once at the host write
  // and carried to the S-VOL (see BlockRun::crcs), or nullptr when this
  // record carries none (a tombstone, or a payload built without them).
  const char* block_crcs() const {
    return payload.crc_count() == block_count ? payload.crcs() : nullptr;
  }

  // Bytes this record occupies in the journal / on the wire.
  uint64_t EncodedSize() const { return kHeaderSize + payload.size(); }

  static constexpr uint64_t kHeaderSize = 48;
};

// A journal volume: a bounded FIFO of update records with three
// watermarks, mirroring the paper's main/backup journal volumes (Fig. 1):
//
//   written  — highest sequence appended by the write path,
//   shipped  — highest sequence handed to the transfer engine (main site)
//              or received from it (backup site),
//   applied  — highest sequence applied to the target data volumes and
//              therefore safe to trim.
//
// Appending beyond `capacity_bytes` fails with RESOURCE_EXHAUSTED, which
// the replication layer turns into a pair suspension (journal overflow is
// the classic ADC failure mode under a slow or broken link).
class JournalVolume {
 public:
  // Forward scan cursor over live records, obtained from ScanFrom().
  // Iterates the deque-backed store directly, so a full apply pass is one
  // sweep instead of N find-by-sequence lookups. Invalidated by any
  // journal mutation (Append/TrimThrough/Reset).
  class Cursor {
   public:
    // Returns the next record, or nullptr when the scan ran past the
    // written watermark.
    const JournalRecord* Next() {
      if (records_ == nullptr || index_ >= records_->size()) return nullptr;
      return &(*records_)[index_++];
    }

   private:
    friend class JournalVolume;
    Cursor(const std::deque<JournalRecord>* records, size_t index)
        : records_(records), index_(index) {}
    const std::deque<JournalRecord>* records_;
    size_t index_;
  };

  explicit JournalVolume(uint64_t capacity_bytes);

  JournalVolume(const JournalVolume&) = delete;
  JournalVolume& operator=(const JournalVolume&) = delete;

  // Appends a record, assigning it the next sequence number. On success
  // returns the assigned sequence.
  StatusOr<SequenceNumber> Append(JournalRecord record);

  // Appends a record that already carries a sequence number (backup-site
  // journal receiving shipped records). Sequences must arrive densely.
  Status AppendWithSequence(JournalRecord record);

  // Collects views of up to `max_bytes` worth of records with sequence >
  // `from` into `out` (cleared first); always returns at least one record
  // when any is pending (progress guarantee). Returns the number of
  // records collected.
  //
  // Pointer lifetime: records are immutable and stable while they live in
  // the journal (the deque never reallocates existing elements on
  // Append), but TrimThrough and Reset invalidate views of the trimmed
  // records. Callers that hold a batch across a trim boundary — e.g. a
  // ship batch in flight on a simulated link — must copy the records,
  // which shares the payload buffers and is O(1) per record.
  size_t PeekViews(SequenceNumber from, uint64_t max_bytes,
                   std::vector<const JournalRecord*>* out) const;

  // Returns a cursor positioned at the record with sequence `seq`
  // (clamped into the live range).
  Cursor ScanFrom(SequenceNumber seq) const;

  // Returns a pointer to the record with the given sequence, or nullptr if
  // it has been trimmed or not yet written.
  const JournalRecord* Find(SequenceNumber seq) const;

  // Marks records through `seq` as shipped (transfer watermark).
  void MarkShipped(SequenceNumber seq);

  // Write-folding support: drops the payload of record `seq`, freeing its
  // bytes from the journal's capacity accounting and marking the record
  // folded. Called by the transfer engine after it ships a batch in which
  // a newer record overwrites every block of `seq` — the payload can never
  // be needed again (re-ship never goes below the shipped watermark, and a
  // suspension only needs the header to dirty-mark the blocks). Returns
  // the payload bytes freed (0 if the record is gone or already folded).
  uint64_t FoldPayload(SequenceNumber seq);

  // Replaces the payload of live record `seq` with `payload`, a view of
  // the same bytes and CRCs held elsewhere (an owned copy of a borrowed
  // record, or its slice of a shipped batch body). Sizes and capacity
  // accounting do not change. No-op when the record is gone.
  void ReplacePayload(SequenceNumber seq, PayloadBuffer payload);

  // Cumulative records folded / payload bytes freed by FoldPayload.
  uint64_t folded_records() const { return folded_records_; }
  uint64_t folded_bytes() const { return folded_bytes_; }

  // Marks records through `seq` as applied and trims them from memory.
  Status TrimThrough(SequenceNumber seq);

  SequenceNumber written() const { return written_; }
  SequenceNumber shipped() const { return shipped_; }
  SequenceNumber applied() const { return applied_; }
  // The acknowledged watermark. On a main-site journal this is the highest
  // sequence the backup site has confirmed applied (the primary trims on
  // apply-acks), which is the only watermark safe to recover from:
  // `shipped` only means "handed to the link" and a partition can drop
  // anything in (acked, shipped].
  SequenceNumber acked() const { return applied_; }

  // Ack-time of the oldest live (not yet trimmed) record, or -1 when the
  // journal holds none. On a main-site journal the primary trims exactly
  // on apply-acks, so the front record is the oldest *unacked* write —
  // its age is the group's RPO (see DESIGN.md §5).
  SimTime oldest_live_ack_time() const {
    return records_.empty() ? -1 : records_.front().ack_time;
  }

  uint64_t used_bytes() const { return used_bytes_; }
  uint64_t capacity_bytes() const { return capacity_bytes_; }
  double utilization() const {
    return capacity_bytes_ == 0
               ? 0.0
               : static_cast<double>(used_bytes_) /
                     static_cast<double>(capacity_bytes_);
  }
  size_t record_count() const { return records_.size(); }

  uint64_t appends() const { return appends_; }
  uint64_t overflows() const { return overflows_; }
  uint64_t peak_used_bytes() const { return peak_used_bytes_; }

  // Drops all records and resets watermarks (journal re-initialization
  // after a pair is deleted/recreated).
  void Reset();

  // Advances all watermarks to `seq` without storing records. Used on the
  // receive side after a bitmap resync, which transfers data out-of-band:
  // the next shipped record will carry sequence `seq` + 1. Only valid when
  // the journal holds no records and `seq` >= the current written mark.
  Status FastForward(SequenceNumber seq);

  // Fault injection: while set, Append fails with kDataLoss (a latent
  // sector error on the journal LDEV). The replication engine maps this
  // to SuspendReason::kMediaError, dirty-marks from the acked watermark
  // and retries resync until the media heals — the journal-volume leg of
  // the at-rest fault lane. Already-stored records stay readable.
  void SetMediaError(bool failed) { media_failed_ = failed; }
  bool media_error_active() const { return media_failed_; }
  uint64_t media_errors() const { return media_errors_; }

  // --- Observability ---------------------------------------------------------
  // Optional per-journal instruments, updated inline on the hot paths.
  // Null members are simply skipped; Attach with a default-constructed
  // struct to detach.
  struct Instruments {
    obs::Counter* appends = nullptr;
    obs::Counter* overflows = nullptr;
    obs::Counter* folded_records = nullptr;
    obs::Gauge* used_bytes = nullptr;
  };
  void AttachMetrics(const Instruments& instruments) {
    instruments_ = instruments;
    if (instruments_.used_bytes != nullptr) {
      instruments_.used_bytes->Set(static_cast<int64_t>(used_bytes_));
    }
  }

 private:
  uint64_t capacity_bytes_;
  std::deque<JournalRecord> records_;
  SequenceNumber written_ = kNoSequence;
  SequenceNumber shipped_ = kNoSequence;
  SequenceNumber applied_ = kNoSequence;
  // Sequence of records_.front(), when non-empty.
  SequenceNumber first_seq_ = kNoSequence;
  uint64_t used_bytes_ = 0;
  uint64_t appends_ = 0;
  uint64_t overflows_ = 0;
  uint64_t peak_used_bytes_ = 0;
  uint64_t folded_records_ = 0;
  uint64_t folded_bytes_ = 0;
  bool media_failed_ = false;
  uint64_t media_errors_ = 0;
  Instruments instruments_;
};

}  // namespace zerobak::journal

#endif  // ZEROBAK_JOURNAL_JOURNAL_H_

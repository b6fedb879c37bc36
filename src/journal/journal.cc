#include "journal/journal.h"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "common/logging.h"

namespace zerobak::journal {

namespace {
// Backing-buffer allocation counter; see PayloadBuffer::TotalAllocations.
std::atomic<uint64_t> g_payload_allocations{0};
}  // namespace

PayloadBuffer PayloadBuffer::Copy(std::string_view data) {
  char* bytes = nullptr;
  PayloadBuffer buf = Allocate(data.size(), 0, &bytes);
  if (!data.empty()) std::memcpy(bytes, data.data(), data.size());
  return buf;
}

PayloadBuffer PayloadBuffer::Allocate(size_t size, uint32_t crc_count,
                                      char** bytes) {
  g_payload_allocations.fetch_add(1, std::memory_order_relaxed);
  auto owner =
      std::make_shared_for_overwrite<char[]>(size + size_t{4} * crc_count);
  *bytes = owner.get();
  PayloadBuffer buf;
  buf.buf_ = std::shared_ptr<const char>(std::move(owner), *bytes);
  buf.data_ = *bytes;
  buf.len_ = size;
  buf.crcs_ = crc_count == 0 ? nullptr : *bytes + size;
  buf.crc_count_ = crc_count;
  return buf;
}

PayloadBuffer PayloadBuffer::ToOwned() const {
  char* bytes = nullptr;
  PayloadBuffer owned = Allocate(len_, crc_count_, &bytes);
  if (len_ > 0) std::memcpy(bytes, data_, len_);
  if (crc_count_ > 0) std::memcpy(bytes + len_, crcs_, size_t{4} * crc_count_);
  return owned;
}

PayloadBuffer PayloadBuffer::Slice(size_t offset, size_t length,
                                   size_t crc_offset,
                                   uint32_t crc_count) const {
  ZB_CHECK(offset + length <= len_ &&
           crc_offset + size_t{4} * crc_count <= len_)
      << "PayloadBuffer::Slice out of range";
  PayloadBuffer sub;
  sub.buf_ = buf_;
  sub.data_ = data_ + offset;
  sub.len_ = length;
  sub.crcs_ = crc_count == 0 ? nullptr : data_ + crc_offset;
  sub.crc_count_ = crc_count;
  return sub;
}

uint64_t PayloadBuffer::TotalAllocations() {
  return g_payload_allocations.load(std::memory_order_relaxed);
}

JournalVolume::JournalVolume(uint64_t capacity_bytes)
    : capacity_bytes_(capacity_bytes) {}

StatusOr<SequenceNumber> JournalVolume::Append(JournalRecord record) {
  if (media_failed_) {
    ++media_errors_;
    return DataLossError("journal media write error");
  }
  const uint64_t size = record.EncodedSize();
  if (used_bytes_ + size > capacity_bytes_) {
    ++overflows_;
    if (instruments_.overflows != nullptr) {
      instruments_.overflows->Increment();
    }
    return ResourceExhaustedError("journal overflow: used=" +
                                  std::to_string(used_bytes_) + " need=" +
                                  std::to_string(size) + " capacity=" +
                                  std::to_string(capacity_bytes_));
  }
  record.sequence = ++written_;
  if (records_.empty()) first_seq_ = record.sequence;
  used_bytes_ += size;
  peak_used_bytes_ = std::max(peak_used_bytes_, used_bytes_);
  ++appends_;
  if (instruments_.appends != nullptr) instruments_.appends->Increment();
  if (instruments_.used_bytes != nullptr) {
    instruments_.used_bytes->Set(static_cast<int64_t>(used_bytes_));
  }
  records_.push_back(std::move(record));
  return written_;
}

Status JournalVolume::AppendWithSequence(JournalRecord record) {
  if (record.sequence != written_ + 1) {
    return DataLossError("non-contiguous journal sequence: got " +
                         std::to_string(record.sequence) + " expected " +
                         std::to_string(written_ + 1));
  }
  const uint64_t size = record.EncodedSize();
  if (used_bytes_ + size > capacity_bytes_) {
    ++overflows_;
    if (instruments_.overflows != nullptr) {
      instruments_.overflows->Increment();
    }
    return ResourceExhaustedError("journal overflow (receive side)");
  }
  if (records_.empty()) first_seq_ = record.sequence;
  written_ = record.sequence;
  used_bytes_ += size;
  peak_used_bytes_ = std::max(peak_used_bytes_, used_bytes_);
  ++appends_;
  if (instruments_.appends != nullptr) instruments_.appends->Increment();
  if (instruments_.used_bytes != nullptr) {
    instruments_.used_bytes->Set(static_cast<int64_t>(used_bytes_));
  }
  records_.push_back(std::move(record));
  return OkStatus();
}

size_t JournalVolume::PeekViews(
    SequenceNumber from, uint64_t max_bytes,
    std::vector<const JournalRecord*>* out) const {
  out->clear();
  if (records_.empty() || from >= written_) return 0;
  // Records are dense, so the record with sequence s lives at index
  // s - first_seq_.
  SequenceNumber start = std::max(from + 1, first_seq_);
  uint64_t bytes = 0;
  for (size_t i = start - first_seq_; i < records_.size(); ++i) {
    const JournalRecord& rec = records_[i];
    const uint64_t size = rec.EncodedSize();
    if (!out->empty() && bytes + size > max_bytes) break;
    out->push_back(&rec);
    bytes += size;
  }
  return out->size();
}

JournalVolume::Cursor JournalVolume::ScanFrom(SequenceNumber seq) const {
  if (records_.empty() || seq > written_) {
    return Cursor(&records_, records_.size());
  }
  const SequenceNumber start = std::max(seq, first_seq_);
  return Cursor(&records_, start - first_seq_);
}

const JournalRecord* JournalVolume::Find(SequenceNumber seq) const {
  if (records_.empty() || seq < first_seq_ || seq > written_) return nullptr;
  return &records_[seq - first_seq_];
}

void JournalVolume::MarkShipped(SequenceNumber seq) {
  shipped_ = std::max(shipped_, std::min(seq, written_));
}

void JournalVolume::ReplacePayload(SequenceNumber seq, PayloadBuffer payload) {
  if (records_.empty() || seq < first_seq_ || seq > written_) return;
  JournalRecord& rec = records_[seq - first_seq_];
  ZB_CHECK(payload.size() == rec.payload.size() &&
           payload.crc_count() == rec.payload.crc_count())
      << "ReplacePayload must keep the record's bytes";
  rec.payload = std::move(payload);
}

uint64_t JournalVolume::FoldPayload(SequenceNumber seq) {
  if (records_.empty() || seq < first_seq_ || seq > written_) return 0;
  JournalRecord& rec = records_[seq - first_seq_];
  if (rec.folded || rec.payload.empty()) return 0;
  const uint64_t freed = rec.payload.size();
  rec.payload = PayloadBuffer();
  rec.folded = true;
  used_bytes_ -= freed;
  ++folded_records_;
  folded_bytes_ += freed;
  if (instruments_.folded_records != nullptr) {
    instruments_.folded_records->Increment();
  }
  if (instruments_.used_bytes != nullptr) {
    instruments_.used_bytes->Set(static_cast<int64_t>(used_bytes_));
  }
  return freed;
}

Status JournalVolume::TrimThrough(SequenceNumber seq) {
  if (seq > written_) {
    return InvalidArgumentError("trim beyond written watermark");
  }
  applied_ = std::max(applied_, seq);
  while (!records_.empty() && first_seq_ <= seq) {
    used_bytes_ -= records_.front().EncodedSize();
    records_.pop_front();
    ++first_seq_;
  }
  if (instruments_.used_bytes != nullptr) {
    instruments_.used_bytes->Set(static_cast<int64_t>(used_bytes_));
  }
  return OkStatus();
}

Status JournalVolume::FastForward(SequenceNumber seq) {
  if (!records_.empty()) {
    return FailedPreconditionError("FastForward on non-empty journal");
  }
  if (seq < written_) {
    return InvalidArgumentError("FastForward would move watermarks back");
  }
  written_ = shipped_ = applied_ = seq;
  return OkStatus();
}

void JournalVolume::Reset() {
  records_.clear();
  written_ = shipped_ = applied_ = kNoSequence;
  first_seq_ = kNoSequence;
  used_bytes_ = 0;
  if (instruments_.used_bytes != nullptr) instruments_.used_bytes->Set(0);
}

}  // namespace zerobak::journal

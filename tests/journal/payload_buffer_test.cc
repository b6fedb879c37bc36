// Tests for the zero-copy journal data path: PayloadBuffer sharing
// semantics, PeekViews pointer stability, and the ScanFrom cursor.
#include <cstring>

#include <gtest/gtest.h>

#include "journal/journal.h"

namespace zerobak::journal {
namespace {

JournalRecord Rec(uint64_t lba, PayloadBuffer payload) {
  JournalRecord r;
  r.volume_id = 1;
  r.lba = lba;
  r.block_count = 1;
  r.payload = std::move(payload);
  return r;
}

TEST(PayloadBufferTest, CopyAllocatesOnceAndViewsShare) {
  const uint64_t before = PayloadBuffer::TotalAllocations();
  PayloadBuffer buf = PayloadBuffer::Copy("hello world");
  EXPECT_EQ(PayloadBuffer::TotalAllocations(), before + 1);
  EXPECT_EQ(buf.view(), "hello world");
  EXPECT_EQ(buf.size(), 11u);
  EXPECT_EQ(buf.use_count(), 1);

  PayloadBuffer copy = buf;  // Refcount bump, no allocation.
  EXPECT_EQ(PayloadBuffer::TotalAllocations(), before + 1);
  EXPECT_EQ(buf.use_count(), 2);
  EXPECT_EQ(copy.view().data(), buf.view().data());  // Same backing bytes.
}

TEST(PayloadBufferTest, SliceSharesBacking) {
  const uint64_t before = PayloadBuffer::TotalAllocations();
  PayloadBuffer buf = PayloadBuffer::Copy("abcdefgh");
  PayloadBuffer mid = buf.Slice(2, 4);
  EXPECT_EQ(mid.view(), "cdef");
  EXPECT_EQ(buf.use_count(), 2);
  EXPECT_EQ(PayloadBuffer::TotalAllocations(), before + 1);
  // A slice of a slice still points into the original buffer.
  EXPECT_EQ(mid.Slice(1, 2).view(), "de");
}

// Block CRCs ride in the payload's one allocation, as a trailer the view
// and the journal's size accounting do not include.
TEST(PayloadBufferTest, CrcTrailerSharesTheOneAllocation) {
  const uint64_t before = PayloadBuffer::TotalAllocations();
  char* raw = nullptr;
  PayloadBuffer buf = PayloadBuffer::Allocate(8, 2, &raw);
  std::memcpy(raw, "ppppppppCRC1CRC2", 16);
  EXPECT_EQ(PayloadBuffer::TotalAllocations(), before + 1);
  EXPECT_EQ(buf.view(), std::string(8, 'p'));
  EXPECT_EQ(buf.view().data(), raw);
  EXPECT_EQ(buf.size(), 8u);
  EXPECT_EQ(buf.crc_count(), 2u);
  EXPECT_EQ(buf.crcs(), raw + 8);
  EXPECT_EQ(std::string_view(buf.crcs(), 8), "CRC1CRC2");
  EXPECT_EQ(buf.use_count(), 1);

  JournalRecord rec = Rec(5, buf);
  rec.block_count = 2;
  EXPECT_EQ(rec.block_crcs(), raw + 8);
  EXPECT_EQ(rec.EncodedSize(), JournalRecord::kHeaderSize + 8);
  // A count that does not match the record's blocks carries nothing.
  rec.block_count = 3;
  EXPECT_EQ(rec.block_crcs(), nullptr);
  EXPECT_EQ(Rec(5, PayloadBuffer::Copy("abcd")).block_crcs(), nullptr);
}

// A slice can name CRCs elsewhere in the parent view: the decoded-batch
// layout, where every record's CRCs sit after all the payloads.
TEST(PayloadBufferTest, SliceCarriesCrcsFromTheParent) {
  PayloadBuffer body = PayloadBuffer::Copy("hdr|aaaabbbbWXYZ");
  PayloadBuffer first = body.Slice(4, 4, 12, 1);
  EXPECT_EQ(first.view(), "aaaa");
  EXPECT_EQ(first.crc_count(), 1u);
  EXPECT_EQ(std::string_view(first.crcs(), 4), "WXYZ");
  PayloadBuffer second = body.Slice(8, 4);
  EXPECT_EQ(second.view(), "bbbb");
  EXPECT_EQ(second.crcs(), nullptr);
  // Slicing a slice keeps the offsets relative to the view sliced.
  PayloadBuffer inner = body.Slice(4, 12).Slice(4, 4, 8, 1);
  EXPECT_EQ(inner.view(), "bbbb");
  EXPECT_EQ(std::string_view(inner.crcs(), 4), "WXYZ");
}

TEST(PayloadBufferTest, EmptyBufferIsSafe) {
  PayloadBuffer buf;
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(buf.view(), std::string_view());
  EXPECT_EQ(buf.use_count(), 0);
}

// The core zero-copy lifetime rule: trimming the primary journal must not
// invalidate a shipped batch that shares the payload buffers.
TEST(PayloadBufferTest, JournalTrimDoesNotInvalidateInFlightBatch) {
  JournalVolume j(1 << 20);
  PayloadBuffer payload = PayloadBuffer::Copy(std::string(4096, 'p'));
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(j.Append(Rec(i, payload)).ok());
  }
  // Journal records + our local handle all share one backing buffer.
  EXPECT_EQ(payload.use_count(), 9);

  // "Ship" a batch: copy the records (headers), sharing the payloads.
  std::vector<const JournalRecord*> views;
  ASSERT_EQ(j.PeekViews(0, UINT64_MAX, &views), 8u);
  std::vector<JournalRecord> batch;
  for (const JournalRecord* rec : views) batch.push_back(*rec);
  EXPECT_EQ(payload.use_count(), 17);

  // Trim everything from the journal; the batch keeps the bytes alive.
  ASSERT_TRUE(j.TrimThrough(8).ok());
  EXPECT_EQ(j.record_count(), 0u);
  EXPECT_EQ(payload.use_count(), 9);
  for (const JournalRecord& rec : batch) {
    EXPECT_EQ(rec.data(), std::string_view(payload.view()));
  }
}

TEST(PayloadBufferTest, LastViewDropFreesBacking) {
  PayloadBuffer outer;
  {
    PayloadBuffer inner = PayloadBuffer::Copy("data");
    outer = inner.Slice(0, 4);
    EXPECT_EQ(outer.use_count(), 2);
  }
  EXPECT_EQ(outer.use_count(), 1);
  EXPECT_EQ(outer.view(), "data");
}

TEST(PeekViewsTest, PointersStayValidAcrossAppends) {
  JournalVolume j(1 << 20);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        j.Append(Rec(i, PayloadBuffer::Copy(std::string(128, 'a')))).ok());
  }
  std::vector<const JournalRecord*> early;
  ASSERT_EQ(j.PeekViews(0, UINT64_MAX, &early), 4u);

  // Deque-backed store: appending never reallocates existing records.
  for (int i = 4; i < 2048; ++i) {
    ASSERT_TRUE(
        j.Append(Rec(i, PayloadBuffer::Copy(std::string(128, 'b')))).ok());
  }
  for (size_t i = 0; i < early.size(); ++i) {
    EXPECT_EQ(early[i]->sequence, i + 1);
    EXPECT_EQ(early[i]->lba, i);
    EXPECT_EQ(early[i]->data(), std::string(128, 'a'));
  }
}

TEST(PeekViewsTest, TrimAndResetInvalidateOnlyTrimmedRange) {
  JournalVolume j(1 << 20);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(j.Append(Rec(i, PayloadBuffer::Copy("x"))).ok());
  }
  ASSERT_TRUE(j.TrimThrough(4).ok());
  // Views of the surviving range are re-obtainable and consistent.
  std::vector<const JournalRecord*> batch;
  ASSERT_EQ(j.PeekViews(4, UINT64_MAX, &batch), 6u);
  EXPECT_EQ(batch.front()->sequence, 5u);
  EXPECT_EQ(batch.front(), j.Find(5));
  // After Reset nothing is peekable.
  j.Reset();
  EXPECT_EQ(j.PeekViews(0, UINT64_MAX, &batch), 0u);
}

TEST(ScanFromTest, CursorSweepsLiveRecordsInOrder) {
  JournalVolume j(1 << 20);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(j.Append(Rec(100 + i, PayloadBuffer::Copy("d"))).ok());
  }
  ASSERT_TRUE(j.TrimThrough(2).ok());

  JournalVolume::Cursor cursor = j.ScanFrom(3);
  for (SequenceNumber seq = 3; seq <= 6; ++seq) {
    const JournalRecord* rec = cursor.Next();
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->sequence, seq);
    EXPECT_EQ(rec->lba, 100 + seq - 1);
  }
  EXPECT_EQ(cursor.Next(), nullptr);

  // A cursor past the end yields nothing.
  EXPECT_EQ(j.ScanFrom(7).Next(), nullptr);
  // A cursor before the live range clamps to the first live record.
  EXPECT_EQ(j.ScanFrom(1).Next()->sequence, 3u);
}

TEST(ScanFromTest, EmptyJournalYieldsNothing) {
  JournalVolume j(1 << 20);
  EXPECT_EQ(j.ScanFrom(1).Next(), nullptr);
}

}  // namespace
}  // namespace zerobak::journal

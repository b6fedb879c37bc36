#include "journal/journal.h"

#include <gtest/gtest.h>

namespace zerobak::journal {
namespace {

JournalRecord Rec(uint64_t volume, uint64_t lba, size_t data_bytes = 64) {
  JournalRecord r;
  r.volume_id = volume;
  r.lba = lba;
  r.block_count = 1;
  r.payload = PayloadBuffer::Copy(std::string(data_bytes, 'd'));
  return r;
}

TEST(JournalTest, AppendAssignsDenseSequences) {
  JournalVolume j(1 << 20);
  for (uint64_t i = 1; i <= 5; ++i) {
    auto seq = j.Append(Rec(1, i));
    ASSERT_TRUE(seq.ok());
    EXPECT_EQ(*seq, i);
  }
  EXPECT_EQ(j.written(), 5u);
  EXPECT_EQ(j.record_count(), 5u);
  EXPECT_EQ(j.appends(), 5u);
}

TEST(JournalTest, UsedBytesTracksRecordSizes) {
  JournalVolume j(1 << 20);
  ASSERT_TRUE(j.Append(Rec(1, 0, 100)).ok());
  EXPECT_EQ(j.used_bytes(), JournalRecord::kHeaderSize + 100);
  ASSERT_TRUE(j.Append(Rec(1, 1, 50)).ok());
  EXPECT_EQ(j.used_bytes(), 2 * JournalRecord::kHeaderSize + 150);
  EXPECT_GT(j.utilization(), 0.0);
}

TEST(JournalTest, OverflowRejectsAndCounts) {
  JournalVolume j(200);  // Tiny journal.
  ASSERT_TRUE(j.Append(Rec(1, 0, 64)).ok());  // 112 bytes.
  auto second = j.Append(Rec(1, 1, 64));      // Would exceed 200.
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(j.overflows(), 1u);
  EXPECT_EQ(j.written(), 1u);  // Sequence not consumed by the failure.
}

TEST(JournalTest, PeekViewsReturnsRecordsAfterWatermark) {
  JournalVolume j(1 << 20);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(j.Append(Rec(1, i)).ok());
  std::vector<const JournalRecord*> batch;
  EXPECT_EQ(j.PeekViews(0, UINT64_MAX, &batch), 10u);
  EXPECT_EQ(batch.front()->sequence, 1u);
  EXPECT_EQ(batch.back()->sequence, 10u);

  EXPECT_EQ(j.PeekViews(7, UINT64_MAX, &batch), 3u);
  EXPECT_EQ(batch.front()->sequence, 8u);

  EXPECT_EQ(j.PeekViews(10, UINT64_MAX, &batch), 0u);
}

TEST(JournalTest, PeekViewsRespectsByteBudgetButReturnsAtLeastOne) {
  JournalVolume j(1 << 20);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(j.Append(Rec(1, i, 100)).ok());
  std::vector<const JournalRecord*> batch;
  // Budget fits exactly two records.
  const uint64_t two = 2 * (JournalRecord::kHeaderSize + 100);
  EXPECT_EQ(j.PeekViews(0, two, &batch), 2u);
  // Budget smaller than one record still returns one (progress guarantee).
  EXPECT_EQ(j.PeekViews(0, 1, &batch), 1u);
}

TEST(JournalTest, TrimReleasesSpace) {
  JournalVolume j(1 << 20);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(j.Append(Rec(1, i)).ok());
  const uint64_t before = j.used_bytes();
  ASSERT_TRUE(j.TrimThrough(4).ok());
  EXPECT_EQ(j.applied(), 4u);
  EXPECT_EQ(j.record_count(), 6u);
  EXPECT_LT(j.used_bytes(), before);
  // Peek after trim starts at the right place.
  std::vector<const JournalRecord*> batch;
  EXPECT_EQ(j.PeekViews(4, UINT64_MAX, &batch), 6u);
  EXPECT_EQ(batch.front()->sequence, 5u);
}

TEST(JournalTest, TrimBeyondWrittenRejected) {
  JournalVolume j(1 << 20);
  ASSERT_TRUE(j.Append(Rec(1, 0)).ok());
  EXPECT_EQ(j.TrimThrough(5).code(), StatusCode::kInvalidArgument);
}

TEST(JournalTest, FindLocatesLiveRecords) {
  JournalVolume j(1 << 20);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(j.Append(Rec(1, 100 + i)).ok());
  ASSERT_TRUE(j.TrimThrough(2).ok());
  EXPECT_EQ(j.Find(2), nullptr);   // Trimmed.
  ASSERT_NE(j.Find(3), nullptr);
  EXPECT_EQ(j.Find(3)->lba, 102u);
  EXPECT_EQ(j.Find(6), nullptr);   // Not yet written.
}

TEST(JournalTest, MarkShippedIsMonotonicAndClamped) {
  JournalVolume j(1 << 20);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(j.Append(Rec(1, i)).ok());
  j.MarkShipped(2);
  EXPECT_EQ(j.shipped(), 2u);
  j.MarkShipped(1);  // Never moves backwards.
  EXPECT_EQ(j.shipped(), 2u);
  j.MarkShipped(100);  // Clamped to written.
  EXPECT_EQ(j.shipped(), 3u);
}

TEST(JournalTest, AppendWithSequenceEnforcesContiguity) {
  JournalVolume j(1 << 20);
  JournalRecord r = Rec(1, 0);
  r.sequence = 1;
  ASSERT_TRUE(j.AppendWithSequence(r).ok());
  r.sequence = 3;  // Gap.
  EXPECT_EQ(j.AppendWithSequence(r).code(), StatusCode::kDataLoss);
  r.sequence = 2;
  ASSERT_TRUE(j.AppendWithSequence(r).ok());
  EXPECT_EQ(j.written(), 2u);
}

TEST(JournalTest, FastForwardRequiresEmptyJournal) {
  JournalVolume j(1 << 20);
  ASSERT_TRUE(j.Append(Rec(1, 0)).ok());
  EXPECT_EQ(j.FastForward(10).code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(j.TrimThrough(1).ok());
  ASSERT_TRUE(j.FastForward(10).ok());
  EXPECT_EQ(j.written(), 10u);
  EXPECT_EQ(j.applied(), 10u);
  // Next receive must carry sequence 11.
  JournalRecord r = Rec(1, 5);
  r.sequence = 11;
  EXPECT_TRUE(j.AppendWithSequence(r).ok());
}

TEST(JournalTest, FastForwardBackwardsRejected) {
  JournalVolume j(1 << 20);
  ASSERT_TRUE(j.Append(Rec(1, 0)).ok());
  ASSERT_TRUE(j.TrimThrough(1).ok());
  EXPECT_EQ(j.FastForward(0).code(), StatusCode::kInvalidArgument);
}

TEST(JournalTest, ResetClearsEverything) {
  JournalVolume j(1 << 20);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(j.Append(Rec(1, i)).ok());
  j.Reset();
  EXPECT_EQ(j.written(), 0u);
  EXPECT_EQ(j.used_bytes(), 0u);
  EXPECT_EQ(j.record_count(), 0u);
  auto seq = j.Append(Rec(1, 9));
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(*seq, 1u);  // Sequences restart.
}

TEST(JournalTest, PeakUsageIsSticky) {
  JournalVolume j(1 << 20);
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(j.Append(Rec(1, i, 100)).ok());
  const uint64_t peak = j.peak_used_bytes();
  ASSERT_TRUE(j.TrimThrough(8).ok());
  EXPECT_EQ(j.used_bytes(), 0u);
  EXPECT_EQ(j.peak_used_bytes(), peak);
}

TEST(JournalTest, FoldPayloadFreesBytesAndMarksTombstone) {
  JournalVolume j(1 << 20);
  ASSERT_TRUE(j.Append(Rec(1, 0, 100)).ok());
  ASSERT_TRUE(j.Append(Rec(1, 0, 100)).ok());
  const uint64_t before = j.used_bytes();
  EXPECT_EQ(j.FoldPayload(1), 100u);
  EXPECT_EQ(j.used_bytes(), before - 100);
  const JournalRecord* rec = j.Find(1);
  ASSERT_NE(rec, nullptr);
  EXPECT_TRUE(rec->folded);
  EXPECT_TRUE(rec->payload.empty());
  EXPECT_EQ(rec->EncodedSize(), JournalRecord::kHeaderSize);
  // The sequence space stays dense: the tombstone still occupies seq 1.
  EXPECT_EQ(j.record_count(), 2u);
  EXPECT_EQ(j.folded_records(), 1u);
  EXPECT_EQ(j.folded_bytes(), 100u);
}

TEST(JournalTest, FoldPayloadIsIdempotentAndRangeChecked) {
  JournalVolume j(1 << 20);
  ASSERT_TRUE(j.Append(Rec(1, 0, 100)).ok());
  EXPECT_EQ(j.FoldPayload(1), 100u);
  EXPECT_EQ(j.FoldPayload(1), 0u);  // Already folded.
  EXPECT_EQ(j.FoldPayload(0), 0u);  // kNoSequence.
  EXPECT_EQ(j.FoldPayload(7), 0u);  // Never written.
  ASSERT_TRUE(j.TrimThrough(1).ok());
  EXPECT_EQ(j.FoldPayload(1), 0u);  // Trimmed away.
  EXPECT_EQ(j.folded_records(), 1u);
}

TEST(JournalTest, FoldedCapacityIsReusable) {
  // Two 1000-byte payloads fill the journal; folding one must make room
  // for the next append.
  JournalVolume j(2 * (JournalRecord::kHeaderSize + 1000));
  ASSERT_TRUE(j.Append(Rec(1, 0, 1000)).ok());
  ASSERT_TRUE(j.Append(Rec(1, 0, 1000)).ok());
  EXPECT_FALSE(j.Append(Rec(1, 0, 1000)).ok());
  EXPECT_EQ(j.FoldPayload(1), 1000u);
  // 1000 bytes freed: a header + 900-byte record now fits.
  EXPECT_TRUE(j.Append(Rec(1, 0, 900)).ok());
}

}  // namespace
}  // namespace zerobak::journal

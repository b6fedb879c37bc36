#ifndef ZEROBAK_REPLICATION_WIRE_H_
#define ZEROBAK_REPLICATION_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "block/mem_volume.h"
#include "common/status.h"
#include "journal/journal.h"

namespace zerobak::exec {
class ThreadPool;
}  // namespace zerobak::exec

namespace zerobak::replication::wire {

// Wire format for shipped journal batches and bulk transfers: the transfer
// engine serializes each batch (record headers, folded tombstones and
// payloads) into ONE framed, optionally compressed, CRC-protected buffer,
// and the secondary verifies the checksum before anything touches its
// journal. A mismatch is indistinguishable from a dropped message by
// design — the caller nacks and the existing backoff/resync machinery
// reships the data. Resyncs and failback givebacks ship the same frame
// (EncodeExtents): one record per dirty extent, read from the source
// volume at capture time.
//
// Frame layout (all multi-byte fields little-endian):
//
//   +----------+---------+---------------+-----------+------------------+
//   | magic u32| flags u8| masked CRC u32| body_len  | body (body_len)  |
//   | "ZBW2"   | bit0 =  | of the stored | u32       |                  |
//   |          | LZ body | body bytes    |           |                  |
//   |          | bit1 =  |               |           |                  |
//   |          | chunked |               |           |                  |
//   +----------+---------+---------------+-----------+------------------+
//
// The CRC covers the body exactly as stored on the wire (compressed when
// bit0 or bit1 is set), so a corrupt frame is rejected before
// decompression; the decompressor is separately hardened against garbage.
// The CRC is masked (LevelDB-style) because journal payloads may
// themselves contain CRCs.
//
// Body layout (plain, before compression):
//
//   varint record_count
//   record_count x header:
//     varint sequence-delta   (from the previous record; first is absolute)
//     varint volume_id
//     varint lba
//     varint block_count
//     varint flags            (bit0 = folded tombstone,
//                              bit1 = block CRCs follow the payload)
//     varint payload_len
//     varint ack_time-delta   (zigzag, from the previous record)
//     varint atomic_through-delta (zigzag, from this record's sequence)
//   concatenation of all payloads, in record order
//   concatenation of the block CRCs of every record with bit1 set, in
//   record order: block_count u32 CRC32C words each, the ones computed
//   when the blocks were written on the main site. They are not part of
//   payload_len or of the record's EncodedSize(), and they sit after all
//   the payloads so the compressor sees the payloads as one stream.
//
// The block CRCs travel end to end: the P-VOL write computes them, the
// journal record carries them, and the S-VOL stores them as they are
// (BlockRun::crcs), so corruption anywhere between the host write and
// the S-VOL reads back as kDataLoss. Tombstones carry none. The frame
// CRC still guards the decoder's input.
//
// Stored-body variants, selected by the frame flags:
//
//   flags=0 (stored):  the plain body verbatim.
//   bit0 (LZ):         one Compress() frame of the whole plain body; used
//                      when the plain body fits in a single chunk.
//   bit1 (chunked):    the plain body split at FIXED kChunkBytes
//                      boundaries, each chunk compressed independently:
//                        varint chunk_count (>= 2)
//                        chunk_count x varint encoded_len
//                        concatenation of the chunks' Compress() frames
//
// Chunk boundaries are a property of the FORMAT (fixed byte offsets into
// the plain body), never of the encoder's thread count: a bulk frame
// encoded with 1 lane and with N lanes is byte-identical, which is what
// lets EncodeExtents spread its extent reads and per-chunk compression
// over the compute pool inside one sim event without perturbing the
// deterministic simulation — wire byte counts drive link serialization
// timing. Which variant gets shipped depends only on sizes: the
// compressed body is kept only if it shrank.
//
// Bulk frames (EncodeExtents) use the same body. Each record is one extent:
// sequence, ack_time and atomic_through are 0, and the payload is the
// extent's blocks as they were when the frame was built. When the source
// keeps a checksum sidecar, flags are bit1 and the CRC section holds the
// sidecar's CRCs for those blocks.
//
// Both encoders only write the plain body (EncodeBatch into the
// PayloadBuffer it returns beside the frame, EncodeExtents into a buffer
// it never zero-fills) and share one seal step: compress (kept only if it shrank), checksum, fill in the
// header. EncodeExtents is the one call that takes a compute pool: a
// journal batch (tens of records, a few chunks) and every decode run
// inline, because fanning them out measured slower than one lane.
//
// Decoding sizes the plain body from the frame header (or the chunk
// headers), decodes it straight into one uninitialized PayloadBuffer and
// hands every record a Slice of it, preserving the journal pipeline's
// one-allocation-per-batch property on the receive side. Every check that
// needs no plain body (magic, flags, lengths, CRC, the chunk container,
// the raw sizes) runs before that one allocation.

// Fixed chunking granularity of the bit1 variant: a format constant that
// must not vary with lane count.
inline constexpr size_t kChunkBytes = 64 * 1024;

// A serialized batch ready for the link.
struct EncodedBatch {
  // The frame to put on the wire.
  std::string frame;
  // EncodeBatch only: the plain body the frame was sealed from, in one
  // owned buffer. RebindPayloads points the batch's records at their
  // slices of it, as DecodeBatch does on the backup site.
  journal::PayloadBuffer body;
  // Journal bytes the frame represents (sum of JournalRecord::
  // EncodedSize()); feeds logical-byte accounting.
  uint64_t logical_bytes = 0;
  // Whether the body was actually compressed (false when the compressor's
  // stored escape fired or compression was disabled).
  bool compressed = false;
};

// Serializes `records` into one frame. When `compress` is set the body is
// run through the block compressor (whole-body for small batches, chunked
// for bodies over kChunkBytes) and kept only if it shrank. The trailing
// parameter, here and on DecodeBatch, is where a compute pool used to go:
// it takes only nullptr, for the end-to-end benchmark, which still passes
// one.
EncodedBatch EncodeBatch(const std::vector<journal::JournalRecord>& records,
                         bool compress, std::nullptr_t = nullptr);

// Points every record of `records` that carries a payload at its slice
// of `body`, the EncodedBatch::body that EncodeBatch(*records) returned:
// the same bytes and CRCs, now owned by the body (no allocation). The
// primary journal rebinds shipped records this way, so none of them keeps
// a P-VOL block or a per-record buffer alive after the ship.
void RebindPayloads(const journal::PayloadBuffer& body,
                    std::vector<journal::JournalRecord>* records);

// One record of a bulk frame: `block_count` blocks from `lba` of
// `source`, read into the frame body while the frame is built (so the
// frame is a copy of the blocks at that instant). `volume_id` is what the
// decoded record carries; the engine names the pair's P-VOL, as journal
// records do.
struct Extent {
  uint64_t volume_id = 0;
  uint64_t lba = 0;
  uint32_t block_count = 0;
  const block::MemVolume* source = nullptr;
};

// Serializes `extents`, in order, into one frame: the record headers are
// written first, then every extent's blocks (and the source's sidecar
// CRCs for them) are read straight into their slot of the plain body,
// then the body is sealed as EncodeBatch seals it. `pool`, when non-null,
// fans out the extent reads (each slot is disjoint and the reads are
// const) and the per-chunk compression; the frame is byte-identical with
// or without it. The caller must have range-checked the extents.
EncodedBatch EncodeExtents(const std::vector<Extent>& extents, bool compress,
                           exec::ThreadPool* pool = nullptr);

// Verifies and deserializes one frame. Returns DataLoss on a bad magic,
// checksum mismatch, or any malformed/truncated content — never crashes,
// never applies a partial batch.
StatusOr<std::vector<journal::JournalRecord>> DecodeBatch(
    std::string_view frame, std::nullptr_t = nullptr);

}  // namespace zerobak::replication::wire

#endif  // ZEROBAK_REPLICATION_WIRE_H_

#include "replication/wire.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <utility>

#include "common/coding.h"
#include "common/compress.h"
#include "common/crc32c.h"
#include "exec/thread_pool.h"

namespace zerobak::replication::wire {
namespace {

constexpr uint32_t kMagic = 0x3257425au;  // "ZBW2", little-endian.
constexpr uint8_t kFlagCompressed = 0x01;
constexpr uint8_t kFlagChunked = 0x02;
constexpr uint8_t kKnownFlags = kFlagCompressed | kFlagChunked;
constexpr uint8_t kFlagFolded = 0x01;  // Per-record flags, bit0.
constexpr uint8_t kFlagCrcs = 0x02;    // Per-record flags, bit1.
// 5 fixed header bytes before the CRC, 8 after it.
constexpr size_t kFrameHeaderSize = 4 + 1 + 4 + 4;
// A frame claiming more records than could fit a real batch is corrupt;
// reject before reserving memory for it.
constexpr uint64_t kMaxRecords = 1u << 22;
// body_len is a u32, so a valid chunked body can never need more chunks
// than this; a count above it is corrupt.
constexpr uint64_t kMaxChunks = (uint64_t{1} << 32) / kChunkBytes + 1;

uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^
         static_cast<uint64_t>(v >> 63);
}

int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

// Whether `rec` ships its block CRCs: a tombstone ships none.
bool CarriesCrcs(const journal::JournalRecord& rec) {
  return !rec.folded && rec.block_crcs() != nullptr;
}

void PutRecordHeader(std::string* frame, uint64_t sequence_delta,
                     uint64_t volume_id, uint64_t lba, uint64_t block_count,
                     uint64_t flags, uint64_t payload_len, uint64_t ack_zz,
                     uint64_t atomic_zz) {
  PutVarint64(frame, sequence_delta);
  PutVarint64(frame, volume_id);
  PutVarint64(frame, lba);
  PutVarint64(frame, block_count);
  PutVarint64(frame, flags);
  PutVarint64(frame, payload_len);
  PutVarint64(frame, ack_zz);
  PutVarint64(frame, atomic_zz);
}

// A plain body compressed chunk by chunk, each chunk into its own slot of
// one scratch buffer that is never zero-filled. The single-chunk/chunked
// split depends only on the body size, never on how the chunks were
// scheduled, so the shipped frame is byte-identical at any lane count.
struct PackedChunks {
  explicit PackedChunks(std::string_view plain)
      : body(plain),
        count(std::max<size_t>(
            1, (plain.size() + kChunkBytes - 1) / kChunkBytes)),
        slot(CompressBound(std::min(kChunkBytes, plain.size()))),
        scratch(new char[count * slot]),
        sizes(count, 0) {}

  // Compresses chunks [begin, end); disjoint ranges may run concurrently.
  void Pack(size_t begin, size_t end) {
    for (size_t c = begin; c < end; ++c) {
      const size_t off = c * kChunkBytes;
      const size_t len = std::min(kChunkBytes, body.size() - off);
      sizes[c] = CompressTo(body.substr(off, len), scratch.get() + c * slot);
    }
  }

  std::string_view body;
  size_t count;
  size_t slot;
  std::unique_ptr<char[]> scratch;
  std::vector<size_t> sizes;
};

// The seal step shared by both encoders. `body` is the frame's plain
// body; `out->frame` holds kFrameHeaderSize bytes of header room, followed
// by `body` itself when the encoder wrote it there. `packed`, when the
// caller compressed the body, is kept only if it shrank; then the header
// is filled in.
void SealFrame(std::string_view body, const PackedChunks* packed,
               EncodedBatch* out) {
  std::string& frame = out->frame;
  uint8_t flags = 0;
  if (packed != nullptr) {
    // The kept slots are laid out behind their own header room.
    std::string kept(kFrameHeaderSize, '\0');
    if (packed->count > 1) {
      PutVarint64(&kept, packed->count);
      for (size_t size : packed->sizes) PutVarint64(&kept, size);
    }
    size_t kept_total = kept.size();
    for (size_t size : packed->sizes) kept_total += size;
    if (kept_total < kFrameHeaderSize + body.size()) {
      kept.reserve(kept_total);
      for (size_t c = 0; c < packed->count; ++c) {
        kept.append(packed->scratch.get() + c * packed->slot,
                    packed->sizes[c]);
      }
      frame = std::move(kept);
      flags = packed->count > 1 ? kFlagChunked : kFlagCompressed;
      out->compressed = true;
    }
  }
  if (!out->compressed && frame.size() == kFrameHeaderSize) {
    frame.append(body.data(), body.size());
  }

  const std::string_view stored =
      std::string_view(frame).substr(kFrameHeaderSize);
  char* header = frame.data();
  EncodeFixed32(header, kMagic);
  header[4] = static_cast<char>(flags);
  EncodeFixed32(header + 5, Crc32cMask(Crc32c(stored.data(), stored.size())));
  EncodeFixed32(header + 9, static_cast<uint32_t>(stored.size()));
}

}  // namespace

EncodedBatch EncodeBatch(const std::vector<journal::JournalRecord>& records,
                         bool compress, std::nullptr_t) {
  EncodedBatch out;
  std::string& frame = out.frame;
  frame.resize(kFrameHeaderSize);
  PutVarint64(&frame, records.size());
  // Bytes after the record headers: the payloads, then the CRCs.
  uint64_t tail_bytes = 0;
  journal::SequenceNumber prev_seq = 0;
  SimTime prev_ack = 0;
  for (const journal::JournalRecord& rec : records) {
    out.logical_bytes += rec.EncodedSize();
    tail_bytes += rec.payload.size();
    uint64_t flags = rec.folded ? kFlagFolded : 0;
    if (CarriesCrcs(rec)) {
      flags |= kFlagCrcs;
      tail_bytes += size_t{4} * rec.block_count;
    }
    PutRecordHeader(&frame, rec.sequence - prev_seq, rec.volume_id, rec.lba,
                    rec.block_count, flags, rec.payload.size(),
                    ZigZag(rec.ack_time - prev_ack),
                    ZigZag(static_cast<int64_t>(rec.atomic_through) -
                           static_cast<int64_t>(rec.sequence)));
    prev_seq = rec.sequence;
    prev_ack = rec.ack_time;
  }
  frame.reserve(frame.size() + tail_bytes);
  for (const journal::JournalRecord& rec : records) {
    const std::string_view payload = rec.payload.view();
    frame.append(payload.data(), payload.size());
  }
  for (const journal::JournalRecord& rec : records) {
    if (CarriesCrcs(rec)) {
      frame.append(rec.block_crcs(), size_t{4} * rec.block_count);
    }
  }
  const std::string_view body =
      std::string_view(frame).substr(kFrameHeaderSize);
  std::optional<PackedChunks> packed;
  if (compress) {
    packed.emplace(body);
    packed->Pack(0, packed->count);
  }
  SealFrame(body, packed ? &*packed : nullptr, &out);
  return out;
}

EncodedBatch EncodeExtents(const std::vector<Extent>& extents, bool compress,
                           exec::ThreadPool* pool) {
  EncodedBatch out;
  std::string headers;
  PutVarint64(&headers, extents.size());
  // Each extent's offsets from the start of the payload section and of
  // the CRC section.
  std::vector<size_t> offsets(extents.size(), 0);
  std::vector<size_t> crc_offsets(extents.size(), 0);
  size_t payload_total = 0;
  size_t crc_total = 0;
  for (size_t i = 0; i < extents.size(); ++i) {
    const Extent& ext = extents[i];
    const size_t len =
        static_cast<size_t>(ext.block_count) * ext.source->block_size();
    const bool crcs = ext.source->checksums_enabled();
    offsets[i] = payload_total;
    crc_offsets[i] = crc_total;
    payload_total += len;
    if (crcs) crc_total += size_t{4} * ext.block_count;
    out.logical_bytes += journal::JournalRecord::kHeaderSize + len;
    PutRecordHeader(&headers, 0, ext.volume_id, ext.lba, ext.block_count,
                    crcs ? kFlagCrcs : 0, len, 0, 0);
  }
  // The plain body is built once, in a buffer that is never zero-filled:
  // the headers, then every extent read straight into its slot, and its
  // sidecar CRCs into theirs. Its chunks are then compressed, and the seal
  // step keeps them, or copies the body into the frame when they do not
  // shrink. With a pool, the reads and the chunks fan out across it: the
  // one parallel section of the data path.
  const size_t body_size = headers.size() + payload_total + crc_total;
  std::unique_ptr<char[]> body(new char[body_size]);
  std::memcpy(body.get(), headers.data(), headers.size());
  char* payloads = body.get() + headers.size();
  char* crcs = payloads + payload_total;
  auto fill = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const Extent& ext = extents[i];
      ext.source->ReadInto(ext.lba, ext.block_count, payloads + offsets[i]);
      if (ext.source->checksums_enabled()) {
        ext.source->ReadCrcs(ext.lba, ext.block_count, crcs + crc_offsets[i]);
      }
    }
  };
  if (pool != nullptr) {
    const size_t grain =
        std::max<size_t>(1, extents.size() / (size_t{pool->lanes()} * 4));
    pool->ParallelFor(extents.size(), grain, fill);
  } else {
    fill(0, extents.size());
  }
  const std::string_view plain(body.get(), body_size);
  std::optional<PackedChunks> packed;
  if (compress) {
    packed.emplace(plain);
    if (pool != nullptr && packed->count > 1) {
      pool->ParallelFor(packed->count, 1, [&packed](size_t b, size_t e) {
        packed->Pack(b, e);
      });
    } else {
      packed->Pack(0, packed->count);
    }
  }
  out.frame.resize(kFrameHeaderSize);
  SealFrame(plain, packed ? &*packed : nullptr, &out);
  return out;
}

namespace {

// Parses and decompresses a chunked (bit1) stored body into the plain
// body. Every length is validated against the chunked container before a
// byte of it is trusted; the CRC gate already ran, so failures here mean
// a malformed-but-checksummed frame and return DataLoss like any other
// corruption.
Status DecodeChunkedBody(std::string_view in, std::string* out) {
  std::string_view cursor = in;
  uint64_t chunks = 0;
  if (!GetVarint64(&cursor, &chunks) || chunks < 2 || chunks > kMaxChunks ||
      chunks > cursor.size()) {
    return DataLossError("wire: bad chunk count");
  }
  std::vector<size_t> enc_len(chunks, 0);
  uint64_t enc_total = 0;
  for (uint64_t c = 0; c < chunks; ++c) {
    uint64_t len = 0;
    if (!GetVarint64(&cursor, &len) || len > cursor.size() ||
        enc_total + len > cursor.size()) {
      return DataLossError("wire: bad chunk length");
    }
    enc_len[c] = static_cast<size_t>(len);
    enc_total += len;
  }
  if (cursor.size() != enc_total) {
    return DataLossError("wire: chunk section length mismatch");
  }

  // Raw sizes come from each chunk's own frame header; the encoder fills
  // every chunk but the last to exactly kChunkBytes, which pins each
  // chunk's output offset without decompressing anything yet.
  std::vector<std::string_view> frames(chunks);
  uint64_t raw_total = 0;
  size_t off = 0;
  for (uint64_t c = 0; c < chunks; ++c) {
    frames[c] = cursor.substr(off, enc_len[c]);
    off += enc_len[c];
    StatusOr<size_t> raw = DecompressedSize(frames[c]);
    if (!raw.ok()) return raw.status();
    const bool last = (c == chunks - 1);
    if ((last && (*raw == 0 || *raw > kChunkBytes)) ||
        (!last && *raw != kChunkBytes)) {
      return DataLossError("wire: bad chunk raw size");
    }
    raw_total += *raw;
  }

  out->resize(raw_total);
  for (uint64_t c = 0; c < chunks; ++c) {
    const size_t raw_off = c * kChunkBytes;
    const size_t want = (c == chunks - 1) ? raw_total - raw_off : kChunkBytes;
    // Each chunk decodes straight into its [raw_off, raw_off + want) slot
    // of the body.
    if (!DecompressInto(frames[c], out->data() + raw_off, want).ok()) {
      return DataLossError("wire: chunk decompression failed");
    }
  }
  return OkStatus();
}

}  // namespace

StatusOr<std::vector<journal::JournalRecord>> DecodeBatch(
    std::string_view frame, std::nullptr_t) {
  std::string_view in = frame;
  uint32_t magic = 0, masked_crc = 0, body_len = 0;
  if (!GetFixed32(&in, &magic) || magic != kMagic) {
    return DataLossError("wire: bad magic");
  }
  if (in.empty()) return DataLossError("wire: truncated header");
  const uint8_t flags = static_cast<uint8_t>(in.front());
  in.remove_prefix(1);
  if ((flags & ~kKnownFlags) != 0 ||
      (flags & kKnownFlags) == kKnownFlags) {
    return DataLossError("wire: unknown flag bits");
  }
  if (!GetFixed32(&in, &masked_crc) || !GetFixed32(&in, &body_len)) {
    return DataLossError("wire: truncated header");
  }
  if (in.size() != body_len) {
    return DataLossError("wire: body length mismatch");
  }
  // Integrity gate: the CRC covers the stored body, so corruption is
  // caught here, before decompression or any journal mutation.
  if (Crc32cMask(Crc32c(in.data(), in.size())) != masked_crc) {
    return DataLossError("wire: checksum mismatch");
  }

  std::string body;
  if ((flags & kFlagChunked) != 0) {
    Status s = DecodeChunkedBody(in, &body);
    if (!s.ok()) return s;
  } else if ((flags & kFlagCompressed) != 0) {
    Status s = Decompress(in, &body);
    if (!s.ok()) return s;
  } else {
    body.assign(in.data(), in.size());
  }

  std::string_view cursor = body;
  uint64_t count = 0;
  // Each header is at least 8 varint bytes, so a count the remaining body
  // cannot possibly hold is corrupt — rejecting it here also bounds the
  // reserve below by the actual body size.
  if (!GetVarint64(&cursor, &count) || count > kMaxRecords ||
      count > cursor.size() / 8) {
    return DataLossError("wire: bad record count");
  }

  struct Header {
    journal::JournalRecord rec;
    uint64_t payload_len = 0;
    uint32_t crc_count = 0;
  };
  std::vector<Header> headers;
  headers.reserve(count);
  uint64_t payload_total = 0;
  uint64_t crc_total = 0;
  journal::SequenceNumber prev_seq = 0;
  SimTime prev_ack = 0;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t seq_delta, volume_id, lba, block_count, rec_flags, payload_len,
        ack_zz, atomic_zz;
    if (!GetVarint64(&cursor, &seq_delta) ||
        !GetVarint64(&cursor, &volume_id) || !GetVarint64(&cursor, &lba) ||
        !GetVarint64(&cursor, &block_count) ||
        !GetVarint64(&cursor, &rec_flags) ||
        !GetVarint64(&cursor, &payload_len) ||
        !GetVarint64(&cursor, &ack_zz) || !GetVarint64(&cursor, &atomic_zz)) {
      return DataLossError("wire: truncated record header");
    }
    if ((rec_flags & ~uint64_t{kFlagFolded | kFlagCrcs}) != 0) {
      return DataLossError("wire: unknown record flags");
    }
    // A record's CRCs are one word per block of its payload.
    uint64_t crc_bytes = 0;
    if ((rec_flags & kFlagCrcs) != 0) {
      if (payload_len == 0 || block_count == 0 ||
          block_count > body.size() / 4) {
        return DataLossError("wire: bad block checksums");
      }
      crc_bytes = 4 * block_count;
    }
    Header h;
    h.rec.sequence = prev_seq + seq_delta;
    h.rec.volume_id = volume_id;
    h.rec.lba = lba;
    h.rec.block_count = static_cast<uint32_t>(block_count);
    h.rec.folded = (rec_flags & kFlagFolded) != 0;
    h.rec.ack_time = prev_ack + UnZigZag(ack_zz);
    h.rec.atomic_through = static_cast<journal::SequenceNumber>(
        static_cast<int64_t>(h.rec.sequence) + UnZigZag(atomic_zz));
    h.payload_len = payload_len;
    h.crc_count = static_cast<uint32_t>(crc_bytes / 4);
    // Checked before the add so a huge length cannot wrap the totals.
    if (payload_len > body.size() ||
        payload_total + crc_total + payload_len + crc_bytes > body.size()) {
      return DataLossError("wire: payloads overrun body");
    }
    payload_total += payload_len;
    crc_total += crc_bytes;
    prev_seq = h.rec.sequence;
    prev_ack = h.rec.ack_time;
    headers.push_back(std::move(h));
  }
  if (cursor.size() != payload_total + crc_total) {
    return DataLossError("wire: payload section length mismatch");
  }

  // One backing allocation for the whole batch: wrap the decoded body and
  // slice each record's payload, and its CRCs, out of it.
  const size_t payload_base = body.size() - payload_total - crc_total;
  journal::PayloadBuffer backing =
      journal::PayloadBuffer::Wrap(std::move(body));
  std::vector<journal::JournalRecord> records;
  records.reserve(headers.size());
  size_t offset = payload_base;
  size_t crc_offset = payload_base + payload_total;
  for (Header& h : headers) {
    if (h.payload_len > 0) {
      h.rec.payload =
          backing.Slice(offset, h.payload_len, crc_offset, h.crc_count);
      offset += h.payload_len;
      crc_offset += size_t{4} * h.crc_count;
    }
    records.push_back(std::move(h.rec));
  }
  return records;
}

}  // namespace zerobak::replication::wire

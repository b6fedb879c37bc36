#include "common/compress.h"

#include <bit>
#include <cstdint>
#include <cstring>

#include "common/coding.h"

namespace zerobak {
namespace {

constexpr uint8_t kMethodStored = 0;
constexpr uint8_t kMethodLz = 1;

constexpr size_t kMinMatch = 4;
constexpr size_t kMaxOffset = 65535;
// Below this there is nothing worth matching; store verbatim.
constexpr size_t kMinLzInput = 16;
// Decoder refuses raw sizes beyond this, so corrupt headers cannot ask
// for arbitrarily large allocations. Far above any transfer batch.
constexpr size_t kMaxRawSize = size_t{1} << 30;
// No LZ body decodes to more than this many bytes per body byte: literals
// are 1:1, a token and its two offset bytes yield at most 19 match bytes,
// and each length-extension byte adds at most 255. The decoder rejects a
// header claiming more before it sizes the output.
constexpr size_t kMaxExpansion = 255;

constexpr int kHashBits = 13;
constexpr size_t kHashSize = size_t{1} << kHashBits;
// Skip acceleration: the parse's probe step grows by one byte after every
// 2^kSkipShift consecutive misses.
constexpr int kSkipShift = 3;

inline uint16_t Load16(const uint8_t* p) {
  uint16_t v;
  std::memcpy(&v, p, 2);
  return v;
}

inline uint32_t Load32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

inline uint64_t Load64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

inline uint32_t Hash(uint32_t v) {
  return (v * 2654435761u) >> (32 - kHashBits);
}

// Length of the common prefix of `a` and `b`, reading `b` no further than
// `b_end`. `a` must precede `b` in the same buffer, so it stays in bounds
// too. Compares a word at a time; the first differing byte is the lowest
// set byte of the XOR on little-endian hosts, the highest on big-endian.
inline size_t CommonPrefix(const uint8_t* a, const uint8_t* b,
                           const uint8_t* b_end) {
  const uint8_t* const b_start = b;
  while (b_end - b >= 8) {
    const uint64_t diff = Load64(a) ^ Load64(b);
    if (diff != 0) {
      const int bits = std::endian::native == std::endian::little
                           ? std::countr_zero(diff)
                           : std::countl_zero(diff);
      return static_cast<size_t>(b - b_start) + static_cast<size_t>(bits / 8);
    }
    a += 8;
    b += 8;
  }
  if (b_end - b >= 4 && Load32(a) == Load32(b)) {
    a += 4;
    b += 4;
  }
  if (b_end - b >= 2 && Load16(a) == Load16(b)) {
    a += 2;
    b += 2;
  }
  if (b < b_end && *a == *b) ++b;
  return static_cast<size_t>(b - b_start);
}

// Emits the extension of a length nibble as in LZ4: the nibble already
// holds min(len, 15); the remainder follows as 0xff bytes plus a final
// byte below 0xff.
inline uint8_t* PutLengthExtension(uint8_t* op, size_t len) {
  if (len < 15) return op;
  size_t rest = len - 15;
  if (rest >= 255) {  // Rare; spares the common case a memset call.
    std::memset(op, 0xff, rest / 255);
    op += rest / 255;
    rest %= 255;
  }
  *op++ = static_cast<uint8_t>(rest);
  return op;
}

// Reads the extension of a length nibble that was 15. Returns false on
// truncation or an implausibly long run of 0xff bytes.
inline bool GetLengthExtension(const uint8_t** ip, const uint8_t* iend,
                               size_t* len) {
  const uint8_t* p = *ip;
  while (true) {
    if (p == iend) return false;
    const uint8_t byte = *p++;
    *len += byte;
    if (*len > kMaxRawSize) return false;
    if (byte != 0xff) break;
  }
  *ip = p;
  return true;
}

// Emits one sequence at `op`; match_len == 0 marks the final literals-only
// one. A literal run of up to 16 bytes is copied as one 16-byte word when
// the input, which ends at `in_end`, has that many bytes left; what follows
// overwrites the excess. The output has room for the word too: where the
// run starts, at input offset a <= n - 16, at most a + a/255 + 2 bytes are
// written, so the word ends inside the n + n/255 + 16 bytes CompressLz may
// write.
inline uint8_t* EmitSequence(uint8_t* op, const uint8_t* lit, size_t lit_len,
                             size_t match_len, size_t offset,
                             const uint8_t* in_end) {
  const size_t lit_nibble = lit_len < 15 ? lit_len : 15;
  const size_t match_code = match_len == 0 ? 0 : match_len - kMinMatch;
  const size_t match_nibble = match_code < 15 ? match_code : 15;
  *op++ = static_cast<uint8_t>((lit_nibble << 4) | match_nibble);
  op = PutLengthExtension(op, lit_len);
  if (lit_len <= 16 && in_end - lit >= 16) {
    std::memcpy(op, lit, 16);
  } else {
    std::memcpy(op, lit, lit_len);
  }
  op += lit_len;
  if (match_len == 0) return op;  // Final literals-only sequence.
  *op++ = static_cast<uint8_t>(offset & 0xff);
  *op++ = static_cast<uint8_t>(offset >> 8);
  return PutLengthExtension(op, match_code);
}

// LZ pass over `n >= kMinLzInput` bytes with the LZ4 fast loop's parse.
// Writes sequences at `op`, which must have n + n/255 + 16 bytes of room,
// and returns the end.
//
//   - Forward hashing: the next probe position's bytes are loaded and
//     hashed before the candidate at the current one is compared, so that
//     work overlaps the compare.
//   - Skip acceleration: the probe advances by attempts >> kSkipShift
//     bytes, so every 2^kSkipShift misses in a row widen the step by one
//     byte. A match resets the step to 1. Incompressible input is thus
//     probed sparsely instead of at every byte.
//   - Backward catch-up: a found match is extended backwards over the
//     literal run while the bytes before both positions agree, recovering
//     the match start a wide step jumped over. It never crosses `anchor`
//     (the end of the previous match) nor the start of the input.
//   - End-of-match insert: the position two bytes before a match's end is
//     hashed, so a repeat starting inside the match can still be found.
//
// The output never exceeds n + n/255 + 16 bytes: a match sequence costs no
// more than the bytes it covers plus its literal run's extension bytes,
// one per 255 literals. Catch-up only moves bytes from the literal run
// into the match, which stays at least kMinMatch long, so a caught-up
// match still covers its own cost.
uint8_t* CompressLz(const uint8_t* base, size_t n, uint8_t* op) {
  // Slots start at position 0, not at an "empty" marker: an unwritten
  // slot is just a candidate whose bytes rarely match. A marker test would
  // branch on whether a slot was ever written, which the skipped probes
  // leave unpredictable.
  uint32_t table[kHashSize];
  std::memset(table, 0, sizeof(table));

  const uint8_t* const end = base + n;
  size_t anchor = 0;
  size_t i = 0;
  // Leave room so Load32 never reads past the end.
  const size_t limit = n - kMinMatch;
  while (i <= limit) {
    // Search for a match starting at or after i.
    uint32_t h = Hash(Load32(base + i));
    size_t attempts = size_t{1} << kSkipShift;
    size_t cand = 0;
    while (true) {
      cand = table[h];
      table[h] = static_cast<uint32_t>(i);
      const size_t next = i + (attempts++ >> kSkipShift);
      const bool more = next <= limit;
      const uint32_t next_h = more ? Hash(Load32(base + next)) : 0;
      // cand is a position at or before i, so both tests are safe to
      // evaluate unconditionally; the offset test also rejects cand == i,
      // which only the first probe at 0 can see.
      if ((i - cand - 1 < kMaxOffset) &
          (Load32(base + cand) == Load32(base + i))) {
        break;
      }
      if (!more) return EmitSequence(op, base + anchor, n - anchor, 0, 0, end);
      i = next;
      h = next_h;
    }
    const size_t offset = i - cand;
    // Catch up backwards, then extend forwards.
    size_t start = i;
    while (start > anchor && start > offset &&
           base[start - 1] == base[start - 1 - offset]) {
      --start;
    }
    i += kMinMatch +
         CommonPrefix(base + cand + kMinMatch, base + i + kMinMatch, end);
    op = EmitSequence(op, base + anchor, start - anchor, i - start, offset,
                      end);
    anchor = i;
    if (i - 2 <= limit) {
      table[Hash(Load32(base + i - 2))] = static_cast<uint32_t>(i - 2);
    }
  }
  if (anchor < n) op = EmitSequence(op, base + anchor, n - anchor, 0, 0, end);
  return op;
}

// Copies a `len`-byte match from `offset` bytes back. The source may
// overlap the destination. Writes may run up to 7 bytes past op + len
// when the output has room — the next sequence overwrites them — but
// never reach `oend`.
inline void CopyMatch(uint8_t* op, size_t offset, size_t len,
                      const uint8_t* oend) {
  const uint8_t* src = op - offset;
  uint8_t* const end = op + len;
  if (offset >= 8) {
    // Each word reads bytes at least 8 behind where it writes, so every
    // byte it reads is already final.
    if (oend - end >= 8) {
      do {
        std::memcpy(op, src, 8);
        op += 8;
        src += 8;
      } while (op < end);
      return;
    }
    for (; end - op >= 8; op += 8, src += 8) std::memcpy(op, src, 8);
    // Fewer than 8 bytes remain and offset >= 8: source and tail are
    // disjoint.
    std::memcpy(op, src, static_cast<size_t>(end - op));
    return;
  }
  // Short offset: the match repeats one `offset`-byte period. Expand the
  // period into an 8-byte pattern and lay it down in steps of whole
  // periods, so every store starts at pattern phase 0.
  uint8_t pattern[16];
  std::memcpy(pattern, src, offset);
  for (size_t have = offset; have < 8; have *= 2) {
    std::memcpy(pattern + have, pattern, have);
  }
  const size_t step = 8 - 8 % offset;
  for (; end - op >= 8; op += step) std::memcpy(op, pattern, 8);
  std::memcpy(op, pattern, static_cast<size_t>(end - op));
}

// Decodes an LZ body into exactly `raw_size` bytes at `out`, with the
// technique of the LZ4 block decoder; the block format is public at
//   https://github.com/lz4/lz4/blob/dev/doc/lz4_Block_format.md
// The output is sized once by the caller and written through a pointer,
// short literal runs are copied as one 16-byte word when both buffers
// have the slack, matches are copied a word at a time, and every length
// is checked against the remaining input and output first.
Status DecodeLz(std::string_view body, char* out, size_t raw_size) {
  const auto* ip = reinterpret_cast<const uint8_t*>(body.data());
  const uint8_t* const iend = ip + body.size();
  auto* const dst = reinterpret_cast<uint8_t*>(out);
  uint8_t* const oend = dst + raw_size;
  uint8_t* op = dst;
  while (ip < iend) {
    const unsigned token = *ip++;

    size_t lit_len = token >> 4;
    if (lit_len == 15 && !GetLengthExtension(&ip, iend, &lit_len)) {
      return DataLossError("compress: truncated literal length");
    }
    if (lit_len > static_cast<size_t>(iend - ip)) {
      return DataLossError("compress: literal run past end of frame");
    }
    if (lit_len > static_cast<size_t>(oend - op)) {
      return DataLossError("compress: output overruns raw size");
    }
    if (lit_len <= 16 && iend - ip >= 16 && oend - op >= 16) {
      std::memcpy(op, ip, 16);
    } else {
      std::memcpy(op, ip, lit_len);
    }
    op += lit_len;
    ip += lit_len;

    if (ip == iend) break;  // Final literals-only sequence.

    if (iend - ip < 2) {
      return DataLossError("compress: truncated match offset");
    }
    const size_t offset = ip[0] | (static_cast<size_t>(ip[1]) << 8);
    ip += 2;
    if (offset == 0 || offset > static_cast<size_t>(op - dst)) {
      return DataLossError("compress: match offset out of range");
    }

    size_t match_len = token & 0x0f;
    if (match_len == 15 && !GetLengthExtension(&ip, iend, &match_len)) {
      return DataLossError("compress: truncated match length");
    }
    match_len += kMinMatch;
    if (match_len > static_cast<size_t>(oend - op)) {
      return DataLossError("compress: match overruns raw size");
    }
    CopyMatch(op, offset, match_len, oend);
    op += match_len;
  }
  if (op != oend) {
    return DataLossError("compress: frame shorter than raw size");
  }
  return OkStatus();
}

// Parses a frame header, leaving `*input` at the body. Every check that
// needs no decoding happens here, so a bad header fails before any output
// is sized.
Status ParseHeader(std::string_view* input, uint8_t* method,
                   size_t* raw_size) {
  if (input->empty()) return DataLossError("compress: empty frame");
  *method = static_cast<uint8_t>(input->front());
  if (*method != kMethodStored && *method != kMethodLz) {
    return DataLossError("compress: unknown method byte");
  }
  input->remove_prefix(1);
  uint64_t raw = 0;
  if (!GetVarint64(input, &raw)) {
    return DataLossError("compress: truncated frame header");
  }
  if (raw > kMaxRawSize) {
    return DataLossError("compress: implausible raw size");
  }
  if (*method == kMethodStored && input->size() != raw) {
    return DataLossError("compress: stored frame length mismatch");
  }
  if (*method == kMethodLz && raw > kMaxExpansion * input->size()) {
    return DataLossError("compress: raw size exceeds what the body encodes");
  }
  *raw_size = static_cast<size_t>(raw);
  return OkStatus();
}

}  // namespace

size_t CompressTo(std::string_view input, char* dst) {
  const size_t n = input.size();
  dst[0] = static_cast<char>(kMethodLz);
  char* const body = EncodeVarint64(dst + 1, n);
  const size_t header = static_cast<size_t>(body - dst);
  if (n >= kMinLzInput) {
    auto* op = reinterpret_cast<uint8_t*>(body);
    const size_t body_len = static_cast<size_t>(
        CompressLz(reinterpret_cast<const uint8_t*>(input.data()), n, op) -
        op);
    if (body_len < n) return header + body_len;
  }
  // Incompressible (or too small): a stored frame. The header differs
  // from the LZ one only in the method byte.
  dst[0] = static_cast<char>(kMethodStored);
  std::memcpy(body, input.data(), n);
  return header + n;
}

void Compress(std::string_view input, std::string* out) {
  const size_t at = out->size();
  out->resize(at + CompressBound(input.size()));
  out->resize(at + CompressTo(input, out->data() + at));
}

Status Decompress(std::string_view input, std::string* out) {
  uint8_t method = 0;
  size_t raw_size = 0;
  Status s = ParseHeader(&input, &method, &raw_size);
  if (!s.ok()) return s;
  if (method == kMethodStored) {
    out->append(input.data(), raw_size);
    return OkStatus();
  }
  const size_t out_base = out->size();
  out->resize(out_base + raw_size);
  s = DecodeLz(input, out->data() + out_base, raw_size);
  if (!s.ok()) out->resize(out_base);
  return s;
}

Status DecompressInto(std::string_view input, char* dst, size_t dst_size) {
  uint8_t method = 0;
  size_t raw_size = 0;
  Status s = ParseHeader(&input, &method, &raw_size);
  if (!s.ok()) return s;
  if (raw_size != dst_size) {
    return DataLossError("compress: raw size does not match destination");
  }
  if (method == kMethodStored) {
    if (raw_size > 0) std::memcpy(dst, input.data(), raw_size);
    return OkStatus();
  }
  return DecodeLz(input, dst, raw_size);
}

StatusOr<size_t> DecompressedSize(std::string_view input) {
  uint8_t method = 0;
  size_t raw_size = 0;
  Status s = ParseHeader(&input, &method, &raw_size);
  if (!s.ok()) return s;
  return raw_size;
}

}  // namespace zerobak

#ifndef ZEROBAK_COMMON_COMPRESS_H_
#define ZEROBAK_COMMON_COMPRESS_H_

#include <cstddef>
#include <string>
#include <string_view>

#include "common/status.h"

namespace zerobak {

// Self-contained LZ-style block compressor used by the replication wire
// format, with no external dependencies. The block format is LZ4's token
// encoding; the parse is the LZ4 fast loop's: 4-byte matches from a
// 13-bit hash table, probed with forward hashing and a step that widens
// after runs of misses (skip acceleration), each found match extended
// backwards over the pending literals (catch-up) and forwards, and the
// position just before its end hashed for the next search. Every frame
// starts with a method byte and the varint raw size, so the decoder can
// validate lengths, and input the LZ pass cannot shrink falls back to a
// "stored" escape — compression therefore never expands a block by more
// than the small frame header. Frame bytes are part of the wire format
// (their sizes drive simulated link time), so
// tests/common/compress_golden_test.cc pins them.
//
// Frame layout:
//   [method u8]  0 = stored, 1 = LZ
//   [varint raw_size]
//   stored: raw_size bytes verbatim
//   LZ:     sequences of {token, literal-length ext*, literals,
//            offset u16le, match-length ext*}; the final sequence may be
//            literals-only. Token = (lit_len << 4) | (match_len - 4),
//            nibble value 15 extended with 0xff runs as in LZ4.

// Room Compress needs past the end of `*out` for `n` input bytes: the
// frame header (at most 11 bytes) plus the LZ pass's worst case,
// n + n/255 + 16. Every match, caught up or not, is at least 4 bytes and
// pays for its own token and offset, so only literal-length extensions
// add to n. Reserving this much before Compress means it never
// reallocates. The finished frame is never longer than n + 11 bytes,
// because input the LZ pass cannot shrink is stored.
inline size_t CompressBound(size_t n) { return n + n / 255 + 27; }

// Compresses `input` and appends the frame to `*out`. Never fails: when
// the LZ encoding would not shrink the block the frame stores the input
// verbatim.
void Compress(std::string_view input, std::string* out);

// Writes the frame Compress would append at `dst`, which must have room
// for CompressBound(input.size()) bytes, and returns its length. For
// callers that lay several frames out in one buffer they never zero-fill.
size_t CompressTo(std::string_view input, char* dst);

// Decompresses one frame produced by Compress, appending the raw bytes to
// `*out`. Returns DataLoss on any malformed input — truncated frames,
// out-of-range match offsets, length mismatches, a raw size the body could
// not encode — and never reads or writes out of bounds regardless of how
// corrupt the input is. On failure `*out` keeps its prior length.
Status Decompress(std::string_view input, std::string* out);

// Decompresses one frame into exactly `dst_size` bytes at `dst`, which
// must be the frame's raw size (DataLoss otherwise). Writes nothing
// outside [dst, dst + dst_size); on failure that range holds garbage.
Status DecompressInto(std::string_view input, char* dst, size_t dst_size);

// Returns the raw size recorded in a frame header without decompressing,
// or an error if the header is malformed.
StatusOr<size_t> DecompressedSize(std::string_view input);

}  // namespace zerobak

#endif  // ZEROBAK_COMMON_COMPRESS_H_

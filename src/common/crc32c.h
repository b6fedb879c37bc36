#ifndef ZEROBAK_COMMON_CRC32C_H_
#define ZEROBAK_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace zerobak {

// CRC-32C (Castagnoli polynomial), the checksum used by the WAL, journal
// records, page headers and the replication wire format to detect torn or
// corrupted writes.
//
// The implementation dispatches once, at first use, to the fastest kernel
// the host supports: a carry-less-multiply fold on 512-bit registers where
// the CPU has VPCLMULQDQ and AVX-512F, the 3-way interleaved SSE4.2 CRC32
// kernel on other x86-64 hosts, a slice-by-8 table kernel on little-endian
// hosts without it, and a byte-at-a-time table loop everywhere else. All
// kernels compute the identical function; tests/common/crc32c_test.cc
// holds them to the RFC 3720 vectors and to each other.

// Extends `crc` with `data[0, n)` and returns the new checksum. Start a
// fresh computation with crc == 0.
uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n);

// Convenience wrapper for a single buffer.
inline uint32_t Crc32c(const void* data, size_t n) {
  return Crc32cExtend(0, data, n);
}

// Combines the CRCs of two adjacent buffers: given crc1 = Crc32c(A) and
// crc2 = Crc32c(B), returns Crc32c(A || B) where len2 = |B|, without
// touching the data. O(log len2) via GF(2) matrix squaring (zlib's
// crc32_combine construction). This is what lets a checksum be computed
// from independently-checksummed pieces and merged in order —
// bit-identical to a single sequential pass.
uint32_t Crc32cCombine(uint32_t crc1, uint32_t crc2, size_t len2);

// The "append len2 bytes" combine, precompiled to a single 32x32 GF(2)
// matrix at construction. Combine() is then one matrix-vector product
// (~32 xors) instead of Crc32cCombine's O(log len2) matrix SQUARINGS
// (tens of microseconds — more than CRCing a 64 KiB chunk takes with the
// hardware kernel). Build one op per fixed piece size and reuse it for
// every join (the 3-way kernel's lane merge does); fall back to
// Crc32cCombine for one-off tail lengths.
//   Crc32cCombineOp op(kCrcLane);              // once
//   crc = op.Combine(crc, lane_crc);           // per join, O(1)
class Crc32cCombineOp {
 public:
  explicit Crc32cCombineOp(size_t len2);
  uint32_t Combine(uint32_t crc1, uint32_t crc2) const;
  size_t len2() const { return len2_; }

 private:
  uint32_t mat_[32];
  size_t len2_;
};

// Masked CRC as used by LevelDB/RocksDB log formats: storing the raw CRC of
// data that itself contains CRCs is error-prone, so a stored checksum is
// rotated and offset.
uint32_t Crc32cMask(uint32_t crc);
uint32_t Crc32cUnmask(uint32_t masked);

namespace internal {

// The individual kernels behind Crc32cExtend, exposed so the dispatch
// test can assert they agree bit-for-bit on identical input. Each has the
// full Crc32cExtend contract.
uint32_t Crc32cPortable(uint32_t crc, const void* data, size_t n);
uint32_t Crc32cSlice8(uint32_t crc, const void* data, size_t n);
// Only callable when Crc32cHardwareSupported() returns true.
uint32_t Crc32cHardware(uint32_t crc, const void* data, size_t n);
bool Crc32cHardwareSupported();
// Only callable when Crc32cClmulSupported() returns true. Inputs under
// 256 bytes and the tail after the last whole 256-byte step go to
// Crc32cHardware.
uint32_t Crc32cClmul(uint32_t crc, const void* data, size_t n);
bool Crc32cClmulSupported();

// Name of the kernel Crc32cExtend dispatches to on this host:
// "vpclmulqdq", "sse4.2", "slice8" or "portable".
const char* Crc32cImplementation();

// The Castagnoli polynomial in normal form (the x^32 term implied).
inline constexpr uint32_t kCastagnoli = 0x1edc6f41u;

// The carry-less-multiply fold multiplier for x^exponent: reflect32(
// x^exponent mod P) << 1, with P given in normal form. Crc32cClmul moves
// a 128-bit lane forward by D bits with exponents D + 32 (low half) and
// D - 32 (high half); with the gzip polynomial 0x04c11db7 and D = 512 the
// same formula yields the published 0x154442bd4 and 0x1c6e41596.
constexpr uint64_t Crc32FoldConstant(uint32_t poly, uint32_t exponent) {
  uint32_t rem = 1;  // x^0
  for (uint32_t i = 0; i < exponent; ++i) {
    const bool carry = (rem & 0x80000000u) != 0;
    rem <<= 1;
    if (carry) rem ^= poly;
  }
  uint32_t reflected = 0;
  for (int b = 0; b < 32; ++b) {
    if ((rem >> b) & 1u) reflected |= 1u << (31 - b);
  }
  return uint64_t{reflected} << 1;
}

}  // namespace internal

}  // namespace zerobak

#endif  // ZEROBAK_COMMON_CRC32C_H_

#include "common/crc32c.h"

#include <array>
#include <bit>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#define ZEROBAK_CRC32C_X86 1
#include <nmmintrin.h>
#endif
#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace zerobak {
namespace {

// Castagnoli polynomial, reflected form.
constexpr uint32_t kPoly = 0x82f63b78u;

// Slice-by-8 table set. Table 0 is the classic byte-at-a-time table;
// table k folds a byte that sits k positions deeper in the input word, so
// eight table lookups retire eight input bytes per iteration instead of
// one. 8 KiB total, built at compile time.
struct Crc32cTables {
  std::array<std::array<uint32_t, 256>, 8> t;

  constexpr Crc32cTables() : t() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int j = 0; j < 8; ++j) {
        crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
      }
      t[0][i] = crc;
    }
    for (int k = 1; k < 8; ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
      }
    }
  }
};

constexpr Crc32cTables kTables;

}  // namespace

namespace internal {

uint32_t Crc32cPortable(uint32_t crc, const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  crc = ~crc;
  for (size_t i = 0; i < n; ++i) {
    crc = kTables.t[0][(crc ^ p[i]) & 0xffu] ^ (crc >> 8);
  }
  return ~crc;
}

uint32_t Crc32cSlice8(uint32_t crc, const void* data, size_t n) {
  // The 8-lane update below folds the running CRC into the low word of a
  // little-endian 64-bit load; on a big-endian host fall back to the
  // byte loop rather than byte-swapping every word.
  if constexpr (std::endian::native != std::endian::little) {
    return Crc32cPortable(crc, data, n);
  }
  const auto* p = static_cast<const uint8_t*>(data);
  crc = ~crc;
  // Align to 8 so the main loop's loads never straddle a cache line
  // unaligned (memcpy below would still be correct either way).
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7u) != 0) {
    crc = kTables.t[0][(crc ^ *p++) & 0xffu] ^ (crc >> 8);
    --n;
  }
  while (n >= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    word ^= crc;
    const uint32_t lo = static_cast<uint32_t>(word);
    const uint32_t hi = static_cast<uint32_t>(word >> 32);
    crc = kTables.t[7][lo & 0xffu] ^ kTables.t[6][(lo >> 8) & 0xffu] ^
          kTables.t[5][(lo >> 16) & 0xffu] ^ kTables.t[4][lo >> 24] ^
          kTables.t[3][hi & 0xffu] ^ kTables.t[2][(hi >> 8) & 0xffu] ^
          kTables.t[1][(hi >> 16) & 0xffu] ^ kTables.t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    crc = kTables.t[0][(crc ^ *p++) & 0xffu] ^ (crc >> 8);
    --n;
  }
  return ~crc;
}

#if defined(ZEROBAK_CRC32C_X86)

bool Crc32cHardwareSupported() { return __builtin_cpu_supports("sse4.2"); }

#if defined(__x86_64__)
namespace {

// Lane width for the 3-way interleaved kernel below. 3 * 1360 = 4080
// covers a default 4 KiB block in one pass with a 16-byte serial tail.
constexpr size_t kCrcLane = 1360;

// The advance-past-kCrcLane-zero-bytes operator of Crc32cCombineOp, baked
// into four byte-indexed tables so each per-chunk combine is 4 lookups
// instead of a 32-step GF(2) matrix-vector walk. Built once on first use.
struct CrcLaneShift {
  uint32_t t[4][256];
  CrcLaneShift() {
    const Crc32cCombineOp op(kCrcLane);
    for (int b = 0; b < 4; ++b) {
      for (uint32_t v = 0; v < 256; ++v) {
        // Combine is linear in crc1 (mat * crc1 ^ crc2), so tabulating
        // Combine(byte << 8b, 0) decomposes the matrix product.
        t[b][v] = op.Combine(v << (8 * b), 0);
      }
    }
  }
  uint32_t Shift(uint32_t crc) const {
    return t[0][crc & 0xffu] ^ t[1][(crc >> 8) & 0xffu] ^
           t[2][(crc >> 16) & 0xffu] ^ t[3][crc >> 24];
  }
};

}  // namespace
#endif  // __x86_64__

// Compiled for SSE4.2 regardless of the global -m flags; only ever called
// after the runtime check above.
__attribute__((target("sse4.2"))) uint32_t Crc32cHardware(uint32_t crc,
                                                          const void* data,
                                                          size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
#if defined(__x86_64__)
  // _mm_crc32_u64 has ~3-cycle latency, so one chain retires ~2.7 B/cycle.
  // Large buffers are split into three independent lanes whose chains
  // interleave in the pipeline (~3x the throughput), then stitched with
  // the precomputed zero-advance operator:
  //   crc(X||A||B||C) = Shift(Shift(crc(X||A)) ^ crc(B)) ^ crc(C).
  if (n >= 3 * kCrcLane) {
    static const CrcLaneShift kShift;
    do {
      uint64_t s0 = crc ^ 0xffffffffu;
      uint64_t s1 = 0xffffffffu;
      uint64_t s2 = 0xffffffffu;
      const uint8_t* p1 = p + kCrcLane;
      const uint8_t* p2 = p + 2 * kCrcLane;
      for (size_t i = 0; i < kCrcLane; i += 8) {
        uint64_t w0, w1, w2;
        std::memcpy(&w0, p + i, 8);
        std::memcpy(&w1, p1 + i, 8);
        std::memcpy(&w2, p2 + i, 8);
        s0 = _mm_crc32_u64(s0, w0);
        s1 = _mm_crc32_u64(s1, w1);
        s2 = _mm_crc32_u64(s2, w2);
      }
      const uint32_t a = static_cast<uint32_t>(s0) ^ 0xffffffffu;
      const uint32_t b = static_cast<uint32_t>(s1) ^ 0xffffffffu;
      const uint32_t c = static_cast<uint32_t>(s2) ^ 0xffffffffu;
      crc = kShift.Shift(kShift.Shift(a) ^ b) ^ c;
      p += 3 * kCrcLane;
      n -= 3 * kCrcLane;
    } while (n >= 3 * kCrcLane);
  }
#endif
  crc = ~crc;
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7u) != 0) {
    crc = _mm_crc32_u8(crc, *p++);
    --n;
  }
#if defined(__x86_64__)
  uint64_t crc64 = crc;
  while (n >= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    crc64 = _mm_crc32_u64(crc64, word);
    p += 8;
    n -= 8;
  }
  crc = static_cast<uint32_t>(crc64);
#else
  while (n >= 4) {
    uint32_t word;
    std::memcpy(&word, p, 4);
    crc = _mm_crc32_u32(crc, word);
    p += 4;
    n -= 4;
  }
#endif
  while (n > 0) {
    crc = _mm_crc32_u8(crc, *p++);
    --n;
  }
  return ~crc;
}

#else  // !ZEROBAK_CRC32C_X86

bool Crc32cHardwareSupported() { return false; }

uint32_t Crc32cHardware(uint32_t crc, const void* data, size_t n) {
  return Crc32cSlice8(crc, data, n);
}

#endif  // ZEROBAK_CRC32C_X86

#if defined(__x86_64__)

bool Crc32cClmulSupported() {
  return Crc32cHardwareSupported() && __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("vpclmulqdq");
}

namespace {

// Fold multipliers for one 128-bit lane moved forward by `bits`: the low
// 64-bit half (the lane's older bits) by x^(bits+32), the high half by
// x^(bits-32), each mod P. Laid out as the lane's (low, high) qwords.
constexpr uint64_t kFold2048Lo = Crc32FoldConstant(kCastagnoli, 2048 + 32);
constexpr uint64_t kFold2048Hi = Crc32FoldConstant(kCastagnoli, 2048 - 32);
constexpr uint64_t kFold1024Lo = Crc32FoldConstant(kCastagnoli, 1024 + 32);
constexpr uint64_t kFold1024Hi = Crc32FoldConstant(kCastagnoli, 1024 - 32);
constexpr uint64_t kFold512Lo = Crc32FoldConstant(kCastagnoli, 512 + 32);
constexpr uint64_t kFold512Hi = Crc32FoldConstant(kCastagnoli, 512 - 32);
constexpr uint64_t kFold384Lo = Crc32FoldConstant(kCastagnoli, 384 + 32);
constexpr uint64_t kFold384Hi = Crc32FoldConstant(kCastagnoli, 384 - 32);
constexpr uint64_t kFold256Lo = Crc32FoldConstant(kCastagnoli, 256 + 32);
constexpr uint64_t kFold256Hi = Crc32FoldConstant(kCastagnoli, 256 - 32);
constexpr uint64_t kFold128Lo = Crc32FoldConstant(kCastagnoli, 128 + 32);
constexpr uint64_t kFold128Hi = Crc32FoldConstant(kCastagnoli, 128 - 32);

// Bytes one step of the main loop folds: four 512-bit accumulators.
constexpr size_t kClmulStep = 256;

#define ZEROBAK_CLMUL_TARGET \
  __attribute__((target("sse4.2,pclmul,avx512f,vpclmulqdq")))

// Each 128-bit lane of `acc`, moved `k`'s distance forward, xored into
// `next`: clmul(lo, k.lo) ^ clmul(hi, k.hi) ^ next.
ZEROBAK_CLMUL_TARGET inline __m512i Fold512(__m512i acc, __m512i k,
                                            __m512i next) {
  return _mm512_ternarylogic_epi64(_mm512_clmulepi64_epi128(acc, k, 0x00),
                                   _mm512_clmulepi64_epi128(acc, k, 0x11),
                                   next, 0x96);
}

// `k` for a fold of every lane by the same distance.
ZEROBAK_CLMUL_TARGET inline __m512i Broadcast(uint64_t lo, uint64_t hi) {
  return _mm512_set_epi64(static_cast<int64_t>(hi), static_cast<int64_t>(lo),
                          static_cast<int64_t>(hi), static_cast<int64_t>(lo),
                          static_cast<int64_t>(hi), static_cast<int64_t>(lo),
                          static_cast<int64_t>(hi), static_cast<int64_t>(lo));
}

}  // namespace

// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ", Intel 2009) on 512-bit registers.
// The running CRC is xored into the first four bytes; four accumulators
// then hold the next 256 bytes and fold forward 256 bytes per step, each
// lane landing on the lane 2048 bits later. The accumulators fold into
// one as a tree, its four lanes fold onto the last in one multiply, and
// the last 128 bits are fed to two crc32q from a zero state, which gives
// the CRC of the whole folded prefix. The tail goes to the 3-way kernel.
ZEROBAK_CLMUL_TARGET uint32_t Crc32cClmul(uint32_t crc, const void* data,
                                          size_t n) {
  if (n < kClmulStep) return Crc32cHardware(crc, data, n);
  const auto* p = static_cast<const uint8_t*>(data);
  __m512i a0 = _mm512_xor_si512(
      _mm512_loadu_si512(p),
      _mm512_zextsi128_si512(_mm_cvtsi32_si128(static_cast<int>(~crc))));
  __m512i a1 = _mm512_loadu_si512(p + 64);
  __m512i a2 = _mm512_loadu_si512(p + 128);
  __m512i a3 = _mm512_loadu_si512(p + 192);
  p += kClmulStep;
  n -= kClmulStep;
  const __m512i k2048 = Broadcast(kFold2048Lo, kFold2048Hi);
  while (n >= kClmulStep) {
    a0 = Fold512(a0, k2048, _mm512_loadu_si512(p));
    a1 = Fold512(a1, k2048, _mm512_loadu_si512(p + 64));
    a2 = Fold512(a2, k2048, _mm512_loadu_si512(p + 128));
    a3 = Fold512(a3, k2048, _mm512_loadu_si512(p + 192));
    p += kClmulStep;
    n -= kClmulStep;
  }
  // a0 and a1 move 1024 bits onto a2 and a3, then a2 512 bits onto a3.
  const __m512i k1024 = Broadcast(kFold1024Lo, kFold1024Hi);
  a2 = Fold512(a0, k1024, a2);
  a3 = Fold512(a1, k1024, a3);
  a3 = Fold512(a2, Broadcast(kFold512Lo, kFold512Hi), a3);
  // Lanes 0-2 move 384, 256 and 128 bits onto lane 3; lane 3's own
  // multipliers are zero, so the masked move keeps it as it is.
  const __m512i klanes = _mm512_set_epi64(
      0, 0, static_cast<int64_t>(kFold128Hi), static_cast<int64_t>(kFold128Lo),
      static_cast<int64_t>(kFold256Hi), static_cast<int64_t>(kFold256Lo),
      static_cast<int64_t>(kFold384Hi), static_cast<int64_t>(kFold384Lo));
  const __m512i lanes =
      Fold512(a3, klanes, _mm512_maskz_mov_epi64(0xc0, a3));
  // Xor the four lanes' low and high halves together.
  alignas(64) uint64_t q[8];
  _mm512_store_si512(q, lanes);
  uint64_t state = _mm_crc32_u64(0, q[0] ^ q[2] ^ q[4] ^ q[6]);
  state = _mm_crc32_u64(state, q[1] ^ q[3] ^ q[5] ^ q[7]);
  return Crc32cHardware(~static_cast<uint32_t>(state), p, n);
}

#undef ZEROBAK_CLMUL_TARGET

#else  // !__x86_64__

bool Crc32cClmulSupported() { return false; }

uint32_t Crc32cClmul(uint32_t crc, const void* data, size_t n) {
  return Crc32cHardware(crc, data, n);
}

#endif  // __x86_64__

const char* Crc32cImplementation() {
  if (Crc32cClmulSupported()) return "vpclmulqdq";
  if (Crc32cHardwareSupported()) return "sse4.2";
  return std::endian::native == std::endian::little ? "slice8" : "portable";
}

}  // namespace internal

namespace {

using Crc32cKernel = uint32_t (*)(uint32_t, const void*, size_t);

Crc32cKernel PickKernel() {
  if (internal::Crc32cClmulSupported()) return &internal::Crc32cClmul;
  if (internal::Crc32cHardwareSupported()) return &internal::Crc32cHardware;
  return &internal::Crc32cSlice8;  // Falls through to portable on BE hosts.
}

}  // namespace

uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n) {
  // Resolved exactly once, thread-safely, on first use.
  static const Crc32cKernel kernel = PickKernel();
  return kernel(crc, data, n);
}

namespace {

// GF(2) 32x32 matrix times vector: each set bit of `vec` selects a row.
uint32_t Gf2MatrixTimes(const uint32_t* mat, uint32_t vec) {
  uint32_t sum = 0;
  while (vec != 0) {
    if (vec & 1u) sum ^= *mat;
    vec >>= 1;
    ++mat;
  }
  return sum;
}

// square = mat * mat over GF(2).
void Gf2MatrixSquare(uint32_t* square, const uint32_t* mat) {
  for (int i = 0; i < 32; ++i) square[i] = Gf2MatrixTimes(mat, mat[i]);
}

}  // namespace

Crc32cCombineOp::Crc32cCombineOp(size_t len2) : len2_(len2) {
  for (int i = 0; i < 32; ++i) mat_[i] = 1u << i;  // Identity.
  if (len2 == 0) return;

  // zlib's crc32_combine, with the Castagnoli polynomial: advancing a CRC
  // past k zero bytes is a linear operator over GF(2), so build the
  // one-zero-bit matrix, square it up to per-bit-of-len2 operators, and
  // compose the ones selected by len2's bits into one matrix. Paying the
  // squarings once here makes every Combine() a single matrix-vector
  // product. The pre/post conditioning in Crc32cExtend cancels across the
  // xor, so finalized CRCs combine directly.
  uint32_t even[32];  // Operator for 2^(2k+1) zero bits.
  uint32_t odd[32];   // Operator for 2^(2k) zero bits.
  uint32_t tmp[32];
  auto compose = [&](const uint32_t* op) {
    for (int i = 0; i < 32; ++i) tmp[i] = Gf2MatrixTimes(op, mat_[i]);
    for (int i = 0; i < 32; ++i) mat_[i] = tmp[i];
  };

  odd[0] = kPoly;  // One shifted-in zero bit, reflected form.
  uint32_t row = 1;
  for (int i = 1; i < 32; ++i) {
    odd[i] = row;
    row <<= 1;
  }
  Gf2MatrixSquare(even, odd);  // Two zero bits.
  Gf2MatrixSquare(odd, even);  // Four zero bits == half a zero byte.

  // Walk len2's bits, squaring the operator each step; even/odd alternate
  // as source and destination.
  size_t len = len2;
  do {
    Gf2MatrixSquare(even, odd);
    if (len & 1u) compose(even);
    len >>= 1;
    if (len == 0) break;
    Gf2MatrixSquare(odd, even);
    if (len & 1u) compose(odd);
    len >>= 1;
  } while (len != 0);
}

uint32_t Crc32cCombineOp::Combine(uint32_t crc1, uint32_t crc2) const {
  if (len2_ == 0) return crc1;
  return Gf2MatrixTimes(mat_, crc1) ^ crc2;
}

uint32_t Crc32cMask(uint32_t crc) {
  constexpr uint32_t kMaskDelta = 0xa282ead8u;
  return ((crc >> 15) | (crc << 17)) + kMaskDelta;
}

uint32_t Crc32cUnmask(uint32_t masked) {
  constexpr uint32_t kMaskDelta = 0xa282ead8u;
  const uint32_t rot = masked - kMaskDelta;
  return (rot << 15) | (rot >> 17);
}

}  // namespace zerobak

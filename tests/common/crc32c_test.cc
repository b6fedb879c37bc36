#include "common/crc32c.h"

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "exec/thread_pool.h"

namespace zerobak {
namespace {

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 / standard CRC-32C test vectors.
  EXPECT_EQ(Crc32c("", 0), 0u);
  const std::string digits = "123456789";
  EXPECT_EQ(Crc32c(digits.data(), digits.size()), 0xe3069283u);

  std::string zeros(32, '\0');
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8a9136aau);

  std::string ffs(32, '\xff');
  EXPECT_EQ(Crc32c(ffs.data(), ffs.size()), 0x62a8ab43u);
}

TEST(Crc32cTest, ExtendMatchesOneShot) {
  const std::string data = "hello world, this is a journal record";
  const uint32_t whole = Crc32c(data.data(), data.size());
  uint32_t crc = 0;
  crc = Crc32cExtend(crc, data.data(), 10);
  crc = Crc32cExtend(crc, data.data() + 10, data.size() - 10);
  EXPECT_EQ(crc, whole);
}

TEST(Crc32cTest, DifferentInputsDiffer) {
  const std::string a = "payload-a";
  const std::string b = "payload-b";
  EXPECT_NE(Crc32c(a.data(), a.size()), Crc32c(b.data(), b.size()));
}

TEST(Crc32cTest, MaskRoundTrips) {
  for (uint32_t crc : {0u, 1u, 0xdeadbeefu, 0xffffffffu, 0xe3069283u}) {
    EXPECT_EQ(Crc32cUnmask(Crc32cMask(crc)), crc);
    EXPECT_NE(Crc32cMask(crc), crc);  // Masking must change the value.
  }
}

// The dispatched implementation and both software kernels must agree on
// the RFC 3720 vectors; the hardware kernel joins where the host has it.
TEST(Crc32cKernelTest, AllKernelsMatchKnownVectors) {
  struct Vector {
    std::string data;
    uint32_t crc;
  };
  const std::vector<Vector> vectors = {
      {"", 0u},
      {"123456789", 0xe3069283u},
      {std::string(32, '\0'), 0x8a9136aau},
      {std::string(32, '\xff'), 0x62a8ab43u},
  };
  for (const Vector& v : vectors) {
    EXPECT_EQ(Crc32c(v.data.data(), v.data.size()), v.crc);
    EXPECT_EQ(internal::Crc32cPortable(0, v.data.data(), v.data.size()),
              v.crc);
    EXPECT_EQ(internal::Crc32cSlice8(0, v.data.data(), v.data.size()), v.crc);
    if (internal::Crc32cHardwareSupported()) {
      EXPECT_EQ(internal::Crc32cHardware(0, v.data.data(), v.data.size()),
                v.crc);
    }
  }
}

// Awkward lengths hit every alignment prologue/epilogue combination of the
// 8-byte kernels: empty, sub-word, word-straddling, and page-ish ± 1.
TEST(Crc32cKernelTest, KernelsAgreeOnAwkwardLengthsAndOffsets) {
  Rng rng(0xc32c);
  std::string buf(1u << 20, '\0');
  for (char& c : buf) c = static_cast<char>(rng.Uniform(256));
  const size_t lengths[] = {0, 1, 7, 8, 9, 4095, 4097};
  for (size_t len : lengths) {
    // Offsets 0..8 cover every starting alignment of the data pointer.
    for (size_t off = 0; off <= 8; ++off) {
      const char* p = buf.data() + off;
      const uint32_t want = internal::Crc32cPortable(0, p, len);
      EXPECT_EQ(internal::Crc32cSlice8(0, p, len), want)
          << "slice8 len " << len << " off " << off;
      if (internal::Crc32cHardwareSupported()) {
        EXPECT_EQ(internal::Crc32cHardware(0, p, len), want)
            << "sse4.2 len " << len << " off " << off;
      }
      EXPECT_EQ(Crc32c(p, len), want) << "dispatch len " << len;
    }
  }
}

// Streaming (Extend) must agree across kernels at arbitrary split points,
// with a non-zero running crc feeding the prologue paths.
TEST(Crc32cKernelTest, KernelsAgreeWhenExtending) {
  Rng rng(0x5eed);
  std::string data(4097, '\0');
  for (char& c : data) c = static_cast<char>(rng.Uniform(256));
  const uint32_t whole = internal::Crc32cPortable(0, data.data(), data.size());
  for (size_t split : {size_t{1}, size_t{7}, size_t{9}, size_t{4095}}) {
    uint32_t sliced = internal::Crc32cSlice8(0, data.data(), split);
    sliced = internal::Crc32cSlice8(sliced, data.data() + split,
                                    data.size() - split);
    EXPECT_EQ(sliced, whole) << "slice8 split " << split;
    if (internal::Crc32cHardwareSupported()) {
      uint32_t hw = internal::Crc32cHardware(0, data.data(), split);
      hw = internal::Crc32cHardware(hw, data.data() + split,
                                    data.size() - split);
      EXPECT_EQ(hw, whole) << "sse4.2 split " << split;
    }
  }
}

// Lengths bracketing the 3-lane interleaved kernel's 3 * 1360 = 4080
// threshold and its chunk repeats, with running CRCs feeding in — the
// lane-combine stitching must be invisible at every boundary.
TEST(Crc32cKernelTest, KernelsAgreeAroundInterleaveBoundaries) {
  Rng rng(0x3a9e);
  std::string buf(3 * 4080 + 64, '\0');
  for (char& c : buf) c = static_cast<char>(rng.Uniform(256));
  for (size_t len : {size_t{4079}, size_t{4080}, size_t{4081}, size_t{8159},
                     size_t{8160}, size_t{8161}, size_t{12240}}) {
    for (uint32_t seed : {0u, 0xdeadbeefu}) {
      const uint32_t want = internal::Crc32cSlice8(seed, buf.data(), len);
      if (internal::Crc32cHardwareSupported()) {
        EXPECT_EQ(internal::Crc32cHardware(seed, buf.data(), len), want)
            << "sse4.2 len " << len << " seed " << seed;
        // Offset 1: the lanes start misaligned.
        EXPECT_EQ(internal::Crc32cHardware(seed, buf.data() + 1, len),
                  internal::Crc32cSlice8(seed, buf.data() + 1, len))
            << "sse4.2 unaligned len " << len;
      }
      EXPECT_EQ(Crc32cExtend(seed, buf.data(), len), want);
    }
  }
}

TEST(Crc32cKernelTest, ImplementationNameIsKnown) {
  const std::string name = internal::Crc32cImplementation();
  EXPECT_TRUE(name == "vpclmulqdq" || name == "sse4.2" || name == "slice8" ||
              name == "portable")
      << name;
  // The dispatch follows the probes: the fold kernel where the CPU has
  // VPCLMULQDQ, else the 3-way crc32q kernel where it has SSE4.2.
  if (internal::Crc32cClmulSupported()) {
    EXPECT_EQ(name, "vpclmulqdq");
  } else if (internal::Crc32cHardwareSupported()) {
    EXPECT_EQ(name, "sse4.2");
  }
}

// ---- The carry-less-multiply fold kernel ------------------------------

// The fold multipliers are derived from the polynomial, not pasted in.
// The gzip polynomial reproduces the published constants of the Intel
// paper (fold by 512 and by 128 bits), and the Castagnoli ones match
// those of Intel's ISA-L crc32_iscsi kernels.
TEST(Crc32cFoldConstantTest, DerivedConstantsArePinned) {
  constexpr uint32_t kGzip = 0x04c11db7u;
  static_assert(internal::Crc32FoldConstant(kGzip, 512 + 32) ==
                0x154442bd4ull);
  static_assert(internal::Crc32FoldConstant(kGzip, 512 - 32) ==
                0x1c6e41596ull);
  static_assert(internal::Crc32FoldConstant(kGzip, 128 + 32) ==
                0x1751997d0ull);
  static_assert(internal::Crc32FoldConstant(kGzip, 128 - 32) ==
                0x0ccaa009eull);
  constexpr uint32_t kC = internal::kCastagnoli;
  static_assert(internal::Crc32FoldConstant(kC, 2048 + 32) == 0xdcb17aa4ull);
  static_assert(internal::Crc32FoldConstant(kC, 2048 - 32) == 0xb9e02b86ull);
  static_assert(internal::Crc32FoldConstant(kC, 512 + 32) == 0x740eef02ull);
  static_assert(internal::Crc32FoldConstant(kC, 512 - 32) == 0x9e4addf8ull);
  static_assert(internal::Crc32FoldConstant(kC, 128 + 32) == 0xf20c0dfeull);
  static_assert(internal::Crc32FoldConstant(kC, 128 - 32) == 0x14cd00bd6ull);
  // x^0 mod P is 1, reflected to bit 31, shifted to bit 32.
  EXPECT_EQ(internal::Crc32FoldConstant(kC, 0), uint64_t{1} << 32);
}

class Crc32cClmulTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!internal::Crc32cClmulSupported()) {
      GTEST_SKIP() << "host CPU lacks VPCLMULQDQ/AVX-512F";
    }
  }

  static std::string RandomBytes(size_t n, uint64_t seed) {
    Rng rng(seed);
    std::string buf(n, '\0');
    for (char& c : buf) c = static_cast<char>(rng.Uniform(256));
    return buf;
  }
};

TEST_F(Crc32cClmulTest, MatchesKnownVectors) {
  const std::string digits = "123456789";
  EXPECT_EQ(internal::Crc32cClmul(0, digits.data(), digits.size()),
            0xe3069283u);
  const std::string zeros(32, '\0');
  EXPECT_EQ(internal::Crc32cClmul(0, zeros.data(), zeros.size()),
            0x8a9136aau);
  const std::string ffs(32, '\xff');
  EXPECT_EQ(internal::Crc32cClmul(0, ffs.data(), ffs.size()), 0x62a8ab43u);
  // The same vectors long enough to take the fold path: 256 zero bytes
  // are eight 32-zero runs, which the combine stitches back together.
  const std::string zeros256(256, '\0');
  const Crc32cCombineOp append32(32);
  uint32_t want = 0;
  for (int i = 0; i < 8; ++i) want = append32.Combine(want, 0x8a9136aau);
  EXPECT_EQ(internal::Crc32cClmul(0, zeros256.data(), zeros256.size()), want);
}

// Every length 0-1100 at every start offset 0-63 (each alignment of the
// 64-byte loads), from a zero and from a nonzero running CRC.
TEST_F(Crc32cClmulTest, AgreesAtEveryLengthAndOffset) {
  const std::string buf = RandomBytes(1100 + 64, 0xc1a1);
  for (size_t off = 0; off < 64; ++off) {
    for (size_t len = 0; len <= 1100; ++len) {
      const char* p = buf.data() + off;
      for (uint32_t seed : {0u, 0x9e3779b9u}) {
        const uint32_t want = internal::Crc32cSlice8(seed, p, len);
        ASSERT_EQ(internal::Crc32cClmul(seed, p, len), want)
            << "len " << len << " off " << off << " seed " << seed;
        ASSERT_EQ(internal::Crc32cHardware(seed, p, len), want)
            << "len " << len << " off " << off << " seed " << seed;
      }
    }
  }
}

TEST_F(Crc32cClmulTest, AgreesOnBlockAndFrameSizes) {
  const std::string buf = RandomBytes((1u << 20) + 1, 0xb10c);
  for (size_t len : {size_t{4096}, size_t{65536}, size_t{1} << 20}) {
    for (size_t off : {size_t{0}, size_t{1}}) {
      const char* p = buf.data() + off;
      const uint32_t want = internal::Crc32cHardware(0, p, len);
      EXPECT_EQ(internal::Crc32cClmul(0, p, len), want)
          << "len " << len << " off " << off;
      EXPECT_EQ(internal::Crc32cSlice8(0, p, len), want) << "len " << len;
    }
  }
}

// Extending a nonzero CRC: the running CRC is folded into the first four
// bytes, so every split point must land on the one-pass value.
TEST_F(Crc32cClmulTest, ExtendsANonzeroCrc) {
  const std::string data = RandomBytes(4096 + 300, 0xe7e7);
  const uint32_t whole = internal::Crc32cSlice8(0, data.data(), data.size());
  for (size_t split : {size_t{1}, size_t{4}, size_t{255}, size_t{256},
                       size_t{257}, size_t{1000}, size_t{4096}}) {
    uint32_t crc = internal::Crc32cClmul(0, data.data(), split);
    ASSERT_NE(crc, 0u);
    crc = internal::Crc32cClmul(crc, data.data() + split,
                                data.size() - split);
    EXPECT_EQ(crc, whole) << "split " << split;
  }
  for (uint32_t seed : {1u, 0xffffffffu, 0xdeadbeefu}) {
    EXPECT_EQ(internal::Crc32cClmul(seed, data.data(), data.size()),
              internal::Crc32cSlice8(seed, data.data(), data.size()))
        << "seed " << seed;
  }
}

// The fold path starts at one 256-byte step; lengths around each multiple
// cross between "tail only", "one step", and "steps plus a tail".
TEST_F(Crc32cClmulTest, AgreesAroundTheStepBoundary) {
  const std::string buf = RandomBytes(2048 + 8, 0x256);
  for (size_t steps = 1; steps <= 8; ++steps) {
    for (int delta = -3; delta <= 3; ++delta) {
      const size_t len = steps * 256 + static_cast<size_t>(delta);
      for (uint32_t seed : {0u, 0x12345678u}) {
        EXPECT_EQ(internal::Crc32cClmul(seed, buf.data(), len),
                  internal::Crc32cSlice8(seed, buf.data(), len))
            << "len " << len << " seed " << seed;
      }
    }
  }
}

// The dispatch is resolved at the first call. Several pool threads making
// that first call at once must all get the same kernel and value (TSan
// runs this too).
TEST(Crc32cKernelTest, ConcurrentFirstCallsAgree) {
  Rng rng(0xf1257);
  std::string data(4096, '\0');
  for (char& c : data) c = static_cast<char>(rng.Uniform(256));
  const uint32_t want = internal::Crc32cSlice8(0, data.data(), data.size());
  exec::ThreadPool pool(4);
  std::vector<uint32_t> got(64, 0);
  pool.ParallelFor(got.size(), 1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      got[i] = Crc32c(data.data(), data.size());
    }
  });
  for (size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], want) << i;
}

// Crc32cCombineOp folds two independently computed CRCs into the CRC of
// the concatenation — the primitive behind the 3-way kernel's lane merge.
TEST(Crc32cCombineTest, PinnedVectors) {
  // Split the RFC 3720 vector "123456789" and recombine: the result must
  // be the well-known whole-string CRC regardless of the split point.
  const std::string digits = "123456789";
  for (size_t split = 0; split <= digits.size(); ++split) {
    const uint32_t a = Crc32c(digits.data(), split);
    const uint32_t b = Crc32c(digits.data() + split, digits.size() - split);
    EXPECT_EQ(Crc32cCombineOp(digits.size() - split).Combine(a, b),
              0xe3069283u)
        << "split " << split;
  }
  // 64 zeros = two combined 32-zero halves, against the pinned 32-zero CRC.
  std::string zeros(64, '\0');
  EXPECT_EQ(Crc32cCombineOp(32).Combine(0x8a9136aau, 0x8a9136aau),
            Crc32c(zeros.data(), zeros.size()));
}

TEST(Crc32cCombineTest, ZeroLengthSecondPartIsIdentity) {
  const Crc32cCombineOp op(0);
  EXPECT_EQ(op.len2(), 0u);
  for (uint32_t crc : {0u, 1u, 0xdeadbeefu, 0xffffffffu}) {
    // Appending nothing changes nothing, whatever crc2 holds.
    EXPECT_EQ(op.Combine(crc, 0u), crc);
    EXPECT_EQ(op.Combine(crc, 0x12345678u), crc);
  }
}

TEST(Crc32cCombineTest, MatchesExtendAtRandomSplits) {
  Rng rng(0xc0813);
  auto check = [](const std::string& data, size_t split) {
    const size_t len2 = data.size() - split;
    const Crc32cCombineOp op(len2);
    EXPECT_EQ(op.len2(), len2);
    const uint32_t a = Crc32c(data.data(), split);
    const uint32_t b = Crc32c(data.data() + split, len2);
    EXPECT_EQ(op.Combine(a, b), Crc32c(data.data(), data.size()))
        << "len " << data.size() << " split " << split;
  };
  for (int trial = 0; trial < 50; ++trial) {
    const size_t len = 1 + rng.Uniform(100000);
    std::string data(len, '\0');
    for (char& c : data) c = static_cast<char>(rng.Uniform(256));
    check(data, rng.Uniform(static_cast<uint32_t>(len + 1)));
  }
  // Second parts at the edges of the squaring walk: one byte, odd and
  // power-of-two lengths, one past a power of two, and a long one.
  for (size_t len2 : {size_t{1}, size_t{9}, size_t{4096}, size_t{65536},
                      size_t{65537}, size_t{300000}}) {
    std::string data(1 + rng.Uniform(5000) + len2, '\0');
    for (char& c : data) c = static_cast<char>(rng.Uniform(256));
    check(data, data.size() - len2);
  }
}

TEST(Crc32cCombineTest, FoldsManyChunksLikeOnePass) {
  // Many small chunks of random sizes, CRC'd independently and left-folded
  // with one op per chunk size.
  Rng rng(0xfeed);
  std::string data(300000, '\0');
  for (char& c : data) c = static_cast<char>(rng.Uniform(256));
  std::map<size_t, Crc32cCombineOp> ops;
  uint32_t folded = 0;
  for (size_t off = 0; off < data.size();) {
    const size_t n = std::min<size_t>(1 + rng.Uniform(4096), data.size() - off);
    const uint32_t part = Crc32c(data.data() + off, n);
    auto it = ops.try_emplace(n, n).first;
    folded = off == 0 ? part : it->second.Combine(folded, part);
    off += n;
  }
  EXPECT_GT(ops.size(), 1u);
  EXPECT_EQ(folded, Crc32c(data.data(), data.size()));
}

TEST(Crc32cCombineTest, PrecompiledOpFoldsRealData) {
  // Fixed 64 KiB chunks folded with one reused op and a ragged tail with
  // its own, landing on the single-pass CRC.
  Rng rng(0x0b5e56);
  std::string data(5 * 65536 + 123, '\0');
  for (char& c : data) c = static_cast<char>(rng.Uniform(256));
  const Crc32cCombineOp op(65536);
  uint32_t folded = Crc32c(data.data(), 65536);
  size_t off = 65536;
  while (off < data.size()) {
    const size_t n = std::min<size_t>(65536, data.size() - off);
    const uint32_t part = Crc32c(data.data() + off, n);
    folded = n == 65536 ? op.Combine(folded, part)
                        : Crc32cCombineOp(n).Combine(folded, part);
    off += n;
  }
  EXPECT_EQ(folded, Crc32c(data.data(), data.size()));
}

TEST(Crc32cTest, SingleBitFlipDetected) {
  std::string data(128, 'x');
  const uint32_t base = Crc32c(data.data(), data.size());
  for (size_t i = 0; i < data.size(); i += 17) {
    std::string mutated = data;
    mutated[i] ^= 0x4;
    EXPECT_NE(Crc32c(mutated.data(), mutated.size()), base)
        << "flip at " << i << " undetected";
  }
}

}  // namespace
}  // namespace zerobak

#include "common/compress.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/coding.h"
#include "common/rng.h"

namespace zerobak {
namespace {

std::string RoundTrip(const std::string& input) {
  std::string frame;
  Compress(input, &frame);
  EXPECT_LE(frame.size(), CompressBound(input.size()));
  auto size = DecompressedSize(frame);
  EXPECT_TRUE(size.ok()) << size.status();
  if (size.ok()) {
    EXPECT_EQ(*size, input.size());
  }
  std::string out;
  Status s = Decompress(frame, &out);
  EXPECT_TRUE(s.ok()) << s;
  return out;
}

TEST(CompressTest, EmptyAndTinyInputs) {
  for (const std::string& input :
       {std::string(), std::string("a"), std::string("abcabc"),
        std::string(15, 'x')}) {
    EXPECT_EQ(RoundTrip(input), input);
  }
}

TEST(CompressTest, HighlyRedundantInputShrinks) {
  const std::string input(64 * 1024, 'z');
  std::string frame;
  Compress(input, &frame);
  EXPECT_LT(frame.size(), input.size() / 50);
  std::string out;
  ASSERT_TRUE(Decompress(frame, &out).ok());
  EXPECT_EQ(out, input);
}

// Structured payloads shaped like the actual replicated blocks: KV pages
// with repeated key prefixes and ecommerce-ish rows with shared field
// names. These must both round-trip and actually compress.
TEST(CompressTest, StructuredPayloadsRoundTripAndShrink) {
  Rng rng(7);
  std::string kv;
  for (int i = 0; i < 800; ++i) {
    kv += "user." + std::to_string(rng.Uniform(500)) +
          ".cart.items=" + std::to_string(rng.Uniform(100)) + ";";
  }
  std::string rows;
  for (int i = 0; i < 400; ++i) {
    rows += "{\"order_id\":" + std::to_string(100000 + i) +
            ",\"sku\":\"SKU-" + std::to_string(rng.Uniform(64)) +
            "\",\"qty\":" + std::to_string(1 + rng.Uniform(9)) +
            ",\"status\":\"confirmed\"}";
  }
  for (const std::string& input : {kv, rows}) {
    EXPECT_EQ(RoundTrip(input), input);
    std::string frame;
    Compress(input, &frame);
    EXPECT_LT(frame.size(), input.size() * 6 / 10)
        << "structured payload should compress below 0.6x";
  }
}

TEST(CompressTest, RandomBuffersRoundTrip) {
  Rng rng(99);
  for (size_t len : {size_t{1}, size_t{17}, size_t{4096}, size_t{70000}}) {
    // Mix of pure-random and random-with-repeats to exercise both the
    // stored escape and real match emission.
    std::string random(len, '\0');
    for (char& c : random) c = static_cast<char>(rng.Uniform(256));
    EXPECT_EQ(RoundTrip(random), random);

    std::string repeats;
    while (repeats.size() < len) {
      const size_t run = 1 + rng.Uniform(32);
      repeats.append(run, static_cast<char>('a' + rng.Uniform(4)));
    }
    EXPECT_EQ(RoundTrip(repeats), repeats);
  }
}

TEST(CompressTest, IncompressibleInputUsesStoredEscape) {
  Rng rng(3);
  std::string noise(8192, '\0');
  for (char& c : noise) c = static_cast<char>(rng.Uniform(256));
  std::string frame;
  Compress(noise, &frame);
  // Stored escape: method byte + varint size + verbatim bytes. Never more
  // than the documented bound, and round-trips exactly.
  EXPECT_LE(frame.size(), noise.size() + 16);
  EXPECT_GE(frame.size(), noise.size());
  std::string out;
  ASSERT_TRUE(Decompress(frame, &out).ok());
  EXPECT_EQ(out, noise);
}

TEST(CompressTest, DecompressAppendsToExistingOutput) {
  std::string frame;
  Compress("world", &frame);
  std::string out = "hello ";
  ASSERT_TRUE(Decompress(frame, &out).ok());
  EXPECT_EQ(out, "hello world");
}

TEST(CompressFuzzTest, TruncatedFramesReturnErrorNotCrash) {
  const std::string input =
      "the quick brown fox jumps over the lazy dog, the quick brown fox "
      "jumps over the lazy dog, the quick brown fox";
  std::string frame;
  Compress(input, &frame);
  for (size_t cut = 0; cut < frame.size(); ++cut) {
    std::string out;
    Status s = Decompress(std::string_view(frame).substr(0, cut), &out);
    EXPECT_FALSE(s.ok()) << "truncation at " << cut << " accepted";
  }
}

TEST(CompressFuzzTest, BitFlippedFramesNeverCrash) {
  Rng rng(1234);
  std::string input;
  for (int i = 0; i < 200; ++i) {
    input += "record-" + std::to_string(i % 17) + "-payload ";
  }
  std::string frame;
  Compress(input, &frame);
  // Every single-byte mutation must either decode to *something* or fail
  // cleanly; under ASan/UBSan this doubles as a memory-safety fuzz.
  for (size_t i = 0; i < frame.size(); ++i) {
    std::string mutated = frame;
    mutated[i] ^= static_cast<char>(1 + rng.Uniform(255));
    std::string out;
    Status s = Decompress(mutated, &out);
    (void)s;  // Either outcome is acceptable; crashing is not.
  }
}

TEST(CompressFuzzTest, RandomGarbageReturnsErrorNotCrash) {
  Rng rng(555);
  for (int trial = 0; trial < 200; ++trial) {
    std::string garbage(1 + rng.Uniform(512), '\0');
    for (char& c : garbage) c = static_cast<char>(rng.Uniform(256));
    std::string out;
    Status s = Decompress(garbage, &out);
    (void)s;  // Must simply not crash or overrun.
  }
}

TEST(CompressFuzzTest, ImplausibleRawSizeRejected) {
  // method=LZ, varint raw_size = 2^40 — must be rejected before any
  // allocation is attempted.
  std::string frame;
  frame.push_back(1);
  uint64_t huge = uint64_t{1} << 40;
  while (huge >= 0x80) {
    frame.push_back(static_cast<char>(huge | 0x80));
    huge >>= 7;
  }
  frame.push_back(static_cast<char>(huge));
  frame += "xxxx";
  std::string out;
  EXPECT_FALSE(Decompress(frame, &out).ok());
}

TEST(CompressFuzzTest, FailedDecompressLeavesOutputUnchanged) {
  std::string input;
  for (int i = 0; i < 64; ++i) {
    input += "row-" + std::to_string(i % 9) + "-xxxxxxxxxxxxxxxx ";
  }
  std::string frame;
  Compress(input, &frame);
  ASSERT_EQ(frame[0], 1) << "corpus must take the LZ path";
  size_t failures = 0;
  auto check = [&](std::string_view corrupt) {
    std::string out = "hello ";
    if (!Decompress(corrupt, &out).ok()) {
      ++failures;
      EXPECT_EQ(out, "hello ");
    }
  };
  // Truncations hit the truncated-length, truncated-offset and
  // short-frame errors; flips hit bad offsets and overruns.
  for (size_t cut = 0; cut < frame.size(); ++cut) {
    check(std::string_view(frame).substr(0, cut));
  }
  for (size_t i = 0; i < frame.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = frame;
      mutated[i] ^= static_cast<char>(1 << bit);
      check(mutated);
    }
  }
  EXPECT_GT(failures, frame.size());
}

TEST(CompressFuzzTest, RawSizeBeyondBodyCapacityRejectedBeforeSizing) {
  // method=LZ, raw_size = 1 GiB (within the absolute cap), 100-byte body:
  // no body that short can decode to that much, so the header is rejected
  // without growing the output.
  std::string frame(1, 1);
  PutVarint64(&frame, uint64_t{1} << 30);
  frame.append(100, '\x0f');
  EXPECT_FALSE(DecompressedSize(frame).ok());
  std::string out = "hello ";
  out.shrink_to_fit();
  const size_t capacity = out.capacity();
  EXPECT_FALSE(Decompress(frame, &out).ok());
  EXPECT_EQ(out, "hello ");
  EXPECT_EQ(out.capacity(), capacity);

  // The densest frame the encoder makes (one byte repeated) stays inside
  // the bound.
  const std::string run(1 << 20, 'q');
  std::string dense;
  Compress(run, &dense);
  std::string back;
  ASSERT_TRUE(Decompress(dense, &back).ok());
  EXPECT_EQ(back, run);
}

TEST(CompressTest, DecompressIntoWritesExactlyTheRawSize) {
  const std::string input(5000, 'r');
  std::string frame;
  Compress(input, &frame);
  std::string dst(input.size() + 2, '#');
  ASSERT_TRUE(DecompressInto(frame, dst.data() + 1, input.size()).ok());
  EXPECT_EQ(dst.front(), '#');
  EXPECT_EQ(dst.back(), '#');
  EXPECT_EQ(dst.substr(1, input.size()), input);
  EXPECT_FALSE(DecompressInto(frame, dst.data(), input.size() + 1).ok());
  EXPECT_FALSE(DecompressInto(frame, dst.data(), input.size() - 1).ok());
}

// ----- Decoder edge cases against a byte-at-a-time reference decoder -----

// The frame format decoded the simplest possible way: one byte per step,
// a push_back per output byte. Returns false wherever the real decoder
// must return DataLoss.
bool ReferenceDecode(std::string_view in, std::string* out) {
  if (in.empty()) return false;
  const uint8_t method = static_cast<uint8_t>(in.front());
  in.remove_prefix(1);
  uint64_t raw = 0;
  if (!GetVarint64(&in, &raw) || raw > (uint64_t{1} << 30)) return false;
  if (method == 0) {
    if (in.size() != raw) return false;
    out->assign(in.data(), in.size());
    return true;
  }
  if (method != 1) return false;
  auto take_length = [&](size_t nibble, size_t* len) {
    *len = nibble;
    if (nibble < 15) return true;
    while (true) {
      if (in.empty()) return false;
      const uint8_t b = static_cast<uint8_t>(in.front());
      in.remove_prefix(1);
      *len += b;
      if (b != 0xff) return true;
    }
  };
  std::string o;
  while (!in.empty()) {
    const uint8_t token = static_cast<uint8_t>(in.front());
    in.remove_prefix(1);
    size_t lit = 0;
    if (!take_length(token >> 4, &lit) || lit > in.size()) return false;
    for (size_t k = 0; k < lit; ++k) o.push_back(in[k]);
    in.remove_prefix(lit);
    if (o.size() > raw) return false;
    if (in.empty()) break;
    if (in.size() < 2) return false;
    const size_t offset = static_cast<uint8_t>(in[0]) |
                          (static_cast<size_t>(static_cast<uint8_t>(in[1]))
                           << 8);
    in.remove_prefix(2);
    if (offset == 0 || offset > o.size()) return false;
    size_t match = 0;
    if (!take_length(token & 0x0f, &match)) return false;
    match += 4;
    if (o.size() + match > raw) return false;
    for (size_t k = 0; k < match; ++k) o.push_back(o[o.size() - offset]);
  }
  if (o.size() != raw) return false;
  *out = std::move(o);
  return true;
}

// One LZ sequence; match_len == 0 marks the final literals-only one.
struct Seq {
  std::string literals;
  size_t offset = 0;
  size_t match_len = 0;
};

void PutNibbleExtension(std::string* out, size_t len) {
  if (len < 15) return;
  size_t rest = len - 15;
  for (; rest >= 255; rest -= 255) out->push_back(static_cast<char>(0xff));
  out->push_back(static_cast<char>(rest));
}

// Hand-assembles an LZ frame, so tests can place exact offsets, lengths
// and end positions that the greedy encoder would only hit by chance.
std::string BuildFrame(const std::vector<Seq>& seqs) {
  size_t raw = 0;
  for (const Seq& s : seqs) raw += s.literals.size() + s.match_len;
  std::string frame(1, 1);
  PutVarint64(&frame, raw);
  for (const Seq& s : seqs) {
    const size_t lit = s.literals.size();
    const size_t code = s.match_len == 0 ? 0 : s.match_len - 4;
    frame.push_back(static_cast<char>(((lit < 15 ? lit : 15) << 4) |
                                      (code < 15 ? code : 15)));
    PutNibbleExtension(&frame, lit);
    frame += s.literals;
    if (s.match_len == 0) continue;
    frame.push_back(static_cast<char>(s.offset & 0xff));
    frame.push_back(static_cast<char>(s.offset >> 8));
    PutNibbleExtension(&frame, code);
  }
  return frame;
}

std::string RandomBytes(Rng* rng, size_t n) {
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>(rng->Uniform(256));
  return out;
}

// Decodes `frame` with both decoders, onto a non-empty prefix, and checks
// they agree on success and on every output byte.
void ExpectMatchesReference(std::string_view frame) {
  std::string want;
  const bool want_ok = ReferenceDecode(frame, &want);
  std::string got = "prefix";
  const bool got_ok = Decompress(frame, &got).ok();
  ASSERT_EQ(got_ok, want_ok);
  EXPECT_EQ(got, want_ok ? "prefix" + want : "prefix");
}

// Frames exercising every short-offset pattern width, matches ending
// exactly at raw_size and 1-16 bytes before it, and length extensions at
// the 15 / 270 / 525 boundaries.
std::vector<std::string> EdgeFrames() {
  Rng rng(77);
  std::vector<std::string> frames;
  for (size_t offset = 1; offset <= 16; ++offset) {
    for (size_t match : {4, 5, 7, 8, 9, 15, 16, 17, 19, 33, 64, 274}) {
      for (size_t tail = 0; tail <= 16; ++tail) {
        std::vector<Seq> seqs;
        seqs.push_back({RandomBytes(&rng, offset), offset, match});
        if (tail > 0) seqs.push_back({RandomBytes(&rng, tail), 0, 0});
        frames.push_back(BuildFrame(seqs));
      }
    }
  }
  for (size_t len : {14, 15, 16, 269, 270, 271, 524, 525, 526}) {
    // Literal run with an extension, then as the final sequence.
    frames.push_back(BuildFrame({{RandomBytes(&rng, len), 0, 0}}));
    frames.push_back(BuildFrame(
        {{RandomBytes(&rng, len), 3, 4}, {RandomBytes(&rng, 5), 0, 0}}));
    // Match length code at the same boundaries.
    frames.push_back(BuildFrame({{RandomBytes(&rng, 9), 9, len + 4}}));
    frames.push_back(BuildFrame(
        {{RandomBytes(&rng, 20), 20, len + 4}, {RandomBytes(&rng, 1), 0, 0}}));
  }
  // Long literal runs ending exactly at raw_size and 1-16 bytes short,
  // after matches that leave no slack for a wild copy.
  for (size_t lit = 1; lit <= 48; ++lit) {
    for (size_t tail = 0; tail <= 16; tail += 4) {
      std::vector<Seq> seqs;
      seqs.push_back({RandomBytes(&rng, 8), 8, 12});
      seqs.push_back({RandomBytes(&rng, lit), 5, 4 + tail});
      frames.push_back(BuildFrame(seqs));
    }
  }
  return frames;
}

TEST(CompressEdgeTest, HandBuiltFramesMatchReferenceDecoder) {
  for (const std::string& frame : EdgeFrames()) {
    std::string want;
    ASSERT_TRUE(ReferenceDecode(frame, &want));
    ExpectMatchesReference(frame);
  }
}

TEST(CompressEdgeTest, SingleByteMutationsMatchReferenceDecoder) {
  Rng rng(88);
  const std::vector<std::string> frames = EdgeFrames();
  for (size_t f = 0; f < frames.size(); f += 7) {
    const std::string& frame = frames[f];
    for (size_t i = 0; i < frame.size(); ++i) {
      std::string mutated = frame;
      mutated[i] ^= static_cast<char>(1 + rng.Uniform(255));
      ExpectMatchesReference(mutated);
    }
  }
}

TEST(CompressEdgeTest, OverlappingMatchesRoundTrip) {
  Rng rng(99);
  for (size_t period = 1; period <= 16; ++period) {
    const std::string seed = RandomBytes(&rng, period);
    for (size_t len : {16, 17, 31, 64, 300, 4096}) {
      for (size_t tail = 0; tail <= 16; ++tail) {
        std::string input = RandomBytes(&rng, 5);
        while (input.size() < 5 + len) input += seed;
        input.resize(5 + len);
        input += RandomBytes(&rng, tail);
        std::string frame;
        Compress(input, &frame);
        std::string out;
        ASSERT_TRUE(Decompress(frame, &out).ok());
        ASSERT_EQ(out, input) << "period " << period << " len " << len;
        ExpectMatchesReference(frame);
      }
    }
  }
}

TEST(CompressEdgeTest, MatchesEndingAtOrNearInputEndRoundTrip) {
  // A block, then a copy of its prefix cut 0-16 bytes short of the full
  // block: the encoder's word-at-a-time extension must stop exactly at the
  // input end or at the first differing byte.
  Rng rng(111);
  const std::string block = RandomBytes(&rng, 64);
  for (size_t copy = 4; copy <= 64; ++copy) {
    for (size_t diff = 0; diff <= 1; ++diff) {
      std::string input = block + block.substr(0, copy);
      if (diff == 1) input.back() ^= 0x5a;
      std::string frame;
      Compress(input, &frame);
      std::string out;
      ASSERT_TRUE(Decompress(frame, &out).ok());
      ASSERT_EQ(out, input) << "copy " << copy << " diff " << diff;
      ExpectMatchesReference(frame);
    }
  }
}

// ----- The encoder's parse: skip steps, catch-up and the size bound -----

// Compresses `input` read from a heap buffer of exactly its size, so the
// sanitizers catch any read before its first or past its last byte, and
// checks the frame against the bound and both decoders. Compress sizes an
// empty frame string to CompressBound(n) before the LZ pass, so an LZ body
// that overran the bound would be caught by the sanitizers too.
void ExpectParseRoundTrip(const std::string& input) {
  const size_t n = input.size();
  auto exact = std::make_unique<char[]>(n == 0 ? 1 : n);
  if (n > 0) std::memcpy(exact.get(), input.data(), n);
  std::string frame;
  Compress(std::string_view(exact.get(), n), &frame);
  EXPECT_LE(frame.size(), CompressBound(n));
  std::string out;
  ASSERT_TRUE(Decompress(frame, &out).ok());
  ASSERT_EQ(out, input);
  ExpectMatchesReference(frame);
}

TEST(CompressParseTest, RepeatAfterLongNoiseEndsAtLimitOrEnd) {
  // A long noise run widens the probe step to dozens of bytes. A repeat of
  // earlier bytes follows and ends exactly at the last probe position
  // (n - 4), one byte either side of it, or at the input end.
  Rng rng(123);
  const std::string noise = RandomBytes(&rng, 8192);
  for (size_t repeat : {16, 64, 8192}) {
    for (size_t tail : {0, 3, 4, 5}) {
      const std::string input =
          noise + noise.substr(0, repeat) + RandomBytes(&rng, tail);
      ExpectParseRoundTrip(input);
      if (repeat == 8192) {
        // The probe lands inside the repeat; catch-up recovers its start.
        std::string frame;
        Compress(input, &frame);
        EXPECT_LT(frame.size(), noise.size() + 128 + tail) << "tail " << tail;
      }
    }
  }
}

TEST(CompressParseTest, CatchUpStopsAtInputStart) {
  // Repeats whose source starts at input offset 0-3: catch-up walks the
  // match back toward the source and must stop at the first input byte.
  Rng rng(124);
  for (size_t lead = 0; lead <= 3; ++lead) {
    for (size_t len : {4, 5, 8, 32, 100}) {
      const std::string head = RandomBytes(&rng, lead);
      const std::string body = RandomBytes(&rng, len);
      std::string input = head + body + body + body;
      if (input.size() < 16) input += RandomBytes(&rng, 16);
      ExpectParseRoundTrip(input);
      // Periodic input: the only match source is offset 0.
      ExpectParseRoundTrip(std::string(16 + len, static_cast<char>(lead)));
    }
  }
}

TEST(CompressParseTest, CatchUpStopsAtPreviousMatchEnd) {
  // P, Q, then a region that repeats P's head and Q's tail, where Q's
  // tail is preceded by bytes P shares: a match at Q's offset agrees
  // backwards past the end of the match at P's offset, and catch-up must
  // not reclaim bytes that match already covered.
  Rng rng(125);
  for (size_t split = 4; split <= 36; ++split) {
    const std::string p = RandomBytes(&rng, 40);
    std::string q = RandomBytes(&rng, 40);
    q.replace(0, split, p, 0, split);
    const std::string input = p + q + p.substr(0, split) + q.substr(split);
    ExpectParseRoundTrip(input);
  }
  // Random copy-and-mutate inputs: runs copied from random earlier
  // offsets, with single-byte edits that end one match mid-repeat and
  // start the next right after it.
  for (int trial = 0; trial < 200; ++trial) {
    std::string input = RandomBytes(&rng, 8 + rng.Uniform(64));
    const size_t target = 64 + rng.Uniform(4096);
    while (input.size() < target) {
      const size_t from = rng.Uniform(input.size());
      const size_t len =
          1 + rng.Uniform(std::min<size_t>(input.size() - from, 96));
      input += input.substr(from, len);
      if (rng.Bernoulli(0.5)) input.back() ^= 0x21;
    }
    ExpectParseRoundTrip(input);
  }
}

TEST(CompressParseTest, AdversarialInputsStayWithinBound) {
  // Literal runs at the nibble-extension widths, each followed by a bare
  // 4-byte repeat: every sequence costs about what it covers, so the LZ
  // body sits at the bound's edge.
  Rng rng(126);
  for (size_t lit : {1, 14, 15, 16, 254, 255, 269, 270, 271, 524, 525}) {
    std::string input = RandomBytes(&rng, 4);
    while (input.size() < 16384) {
      input += RandomBytes(&rng, lit);
      input += input.substr(rng.Uniform(input.size() - 3), 4);
    }
    ExpectParseRoundTrip(input);
  }
  // Noise with 4-byte repeats at random offsets; then repeats just past
  // the 64 KiB offset window, which must stay literals.
  std::string sparse = RandomBytes(&rng, 70000);
  for (size_t at = 5; at + 4 < sparse.size(); at += 5 + rng.Uniform(20)) {
    sparse.replace(at, 4, sparse, rng.Uniform(at - 4), 4);
  }
  ExpectParseRoundTrip(sparse);
  std::string far = RandomBytes(&rng, 65536);
  far += far.substr(0, 4096) + RandomBytes(&rng, 32) + far.substr(1, 4096);
  ExpectParseRoundTrip(far);
}

}  // namespace
}  // namespace zerobak

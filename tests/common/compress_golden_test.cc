// Golden frames for the block compressor: a fixed corpus is encoded and
// every frame's size and CRC32C is pinned. Frame bytes are a wire artifact
// — their sizes drive simulated link timing, hence RPO — so any change to
// the encoder's parse (hash, step, match choice, length coding) must show
// up here as a failure, and re-pinning is a deliberate act that moves the
// simulated results. A rewrite that keeps the parse must leave kGolden
// untouched.
//
// The decoder must keep reading frames from earlier parses too: a checked-
// in fixture holds frames of the step-1 greedy parse that preceded the
// current one, and must still decode to the corpus. kGreedySizes bounds
// what the current parse may give up in ratio.
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/compress.h"
#include "common/crc32c.h"
#include "common/rng.h"

namespace zerobak {
namespace {

// 4 KiB blocks built from 64-byte segments: each segment is fresh random
// bytes or, with probability 1/2, a copy of an earlier segment of the same
// block — the shape of the end-to-end benchmark's payload pool.
std::string SegmentBlocks(uint64_t seed, size_t blocks) {
  constexpr size_t kBlock = 4096;
  constexpr size_t kSeg = 64;
  Rng rng(seed);
  std::string out;
  for (size_t b = 0; b < blocks; ++b) {
    std::string blk(kBlock, '\0');
    for (size_t s = 0; s < kBlock / kSeg; ++s) {
      char* dst = blk.data() + s * kSeg;
      if (s > 0 && rng.Bernoulli(0.5)) {
        std::memcpy(dst, blk.data() + rng.Uniform(s) * kSeg, kSeg);
      } else {
        for (size_t i = 0; i < kSeg; i += 8) {
          const uint64_t r = rng.Next();
          std::memcpy(dst + i, &r, 8);
        }
      }
    }
    out += blk;
  }
  return out;
}

std::string JsonRows(uint64_t seed, size_t bytes) {
  Rng rng(seed);
  std::string out;
  for (int i = 0; out.size() < bytes; ++i) {
    out += "{\"order_id\":" + std::to_string(100000 + i) + ",\"sku\":\"SKU-" +
           std::to_string(rng.Uniform(64)) +
           "\",\"qty\":" + std::to_string(1 + rng.Uniform(9)) +
           ",\"status\":\"confirmed\"}\n";
  }
  out.resize(bytes);
  return out;
}

// Runs of one byte value with random lengths 1..600, so matches at offset
// 1 and every length-extension width show up.
std::string ByteRuns(uint64_t seed, size_t bytes) {
  Rng rng(seed);
  std::string out;
  while (out.size() < bytes) {
    out.append(1 + rng.Uniform(600), static_cast<char>(rng.Uniform(256)));
  }
  out.resize(bytes);
  return out;
}

std::string Noise(uint64_t seed, size_t bytes) {
  Rng rng(seed);
  std::string out(bytes, '\0');
  for (char& c : out) c = static_cast<char>(rng.Uniform(256));
  return out;
}

std::string AbPrefix(size_t bytes) {
  std::string out;
  for (size_t i = 0; i < bytes; ++i) out.push_back(i % 2 == 0 ? 'a' : 'b');
  return out;
}

struct Golden {
  const char* name;
  size_t frame_size;
  uint32_t frame_crc;
};

std::vector<std::pair<std::string, std::string>> Corpus() {
  std::vector<std::pair<std::string, std::string>> c;
  for (size_t n = 0; n <= 17; ++n) {
    c.emplace_back("ab_" + std::to_string(n), AbPrefix(n));
  }
  c.emplace_back("segments_4k_a", SegmentBlocks(11, 1));
  c.emplace_back("segments_4k_b", SegmentBlocks(12, 1));
  c.emplace_back("segments_64k", SegmentBlocks(13, 16));
  c.emplace_back("segments_65536", SegmentBlocks(14, 17).substr(0, 65536));
  c.emplace_back("segments_65537", SegmentBlocks(14, 17).substr(0, 65537));
  c.emplace_back("json_4k", JsonRows(21, 4096));
  c.emplace_back("json_65536", JsonRows(22, 65536));
  c.emplace_back("json_65537", JsonRows(22, 65537));
  c.emplace_back("runs_4k", ByteRuns(31, 4096));
  c.emplace_back("runs_64k", ByteRuns(32, 65536));
  c.emplace_back("single_byte_64k", std::string(65536, 'z'));
  c.emplace_back("noise_4k", Noise(41, 4096));
  c.emplace_back("noise_65537", Noise(42, 65537));
  return c;
}

// See the file comment before touching any of these.
constexpr Golden kGolden[] = {
    {"ab_0", 2, 0xf16177d2u},
    {"ab_1", 3, 0xe06b2b6cu},
    {"ab_2", 4, 0x14cb472eu},
    {"ab_3", 5, 0x90441336u},
    {"ab_4", 6, 0x6c2454cau},
    {"ab_5", 7, 0x86e30281u},
    {"ab_6", 8, 0x1a9e9ee5u},
    {"ab_7", 9, 0x5e371c8fu},
    {"ab_8", 10, 0x7128bc09u},
    {"ab_9", 11, 0x7245cbe5u},
    {"ab_10", 12, 0xb84d27bbu},
    {"ab_11", 13, 0xdb8503d5u},
    {"ab_12", 14, 0xa647694bu},
    {"ab_13", 15, 0x4d83e798u},
    {"ab_14", 16, 0x622f90f8u},
    {"ab_15", 17, 0x4a0956e4u},
    {"ab_16", 7, 0x5211efffu},
    {"ab_17", 7, 0x8530eb4au},
    {"segments_4k_a", 2494, 0x94ba83c9u},
    {"segments_4k_b", 2442, 0x069ee4c2u},
    {"segments_64k", 36670, 0x6cc952d5u},
    {"segments_65536", 35416, 0x533318bcu},
    {"segments_65537", 35417, 0x78cc66a3u},
    {"json_4k", 933, 0x65ef375fu},
    {"json_65536", 13457, 0xb8f044cbu},
    {"json_65537", 13456, 0xa59d16feu},
    {"runs_4k", 73, 0x180e0e13u},
    {"runs_64k", 1294, 0xb9bb2ffcu},
    {"single_byte_64k", 265, 0xf13e0d64u},
    {"noise_4k", 4099, 0x66ef1df8u},
    {"noise_65537", 65541, 0xb62cb218u},
};

// Frames of the step-1 greedy parse, in fixture order. The fixture file is
// their concatenation.
constexpr Golden kGreedyGolden[] = {
    {"ab_16", 7, 0x5211efffu},
    {"segments_4k_a", 2494, 0x84778bf9u},
    {"json_4k", 935, 0x38b76330u},
    {"runs_4k", 73, 0x180e0e13u},
    {"noise_4k", 4099, 0x66ef1df8u},
};

// Frame sizes of the step-1 greedy parse on the inputs where the current
// parse trades ratio for speed.
constexpr std::pair<const char*, size_t> kGreedySizes[] = {
    {"segments_4k_a", 2494},  {"segments_4k_b", 2443},
    {"segments_64k", 36340},  {"segments_65536", 35381},
    {"segments_65537", 35382}, {"json_4k", 935},
    {"json_65536", 13467},    {"json_65537", 13466},
};

std::string CorpusInput(std::string_view name) {
  for (auto& [n, input] : Corpus()) {
    if (n == name) return input;
  }
  ADD_FAILURE() << "no corpus entry " << name;
  return {};
}

TEST(CompressGoldenTest, FramesMatchPinnedSizesAndCrcs) {
  const auto corpus = Corpus();
  ASSERT_EQ(corpus.size(), std::size(kGolden));
  for (size_t i = 0; i < corpus.size(); ++i) {
    const auto& [name, input] = corpus[i];
    std::string frame;
    Compress(input, &frame);
    const uint32_t crc = Crc32c(frame.data(), frame.size());
    EXPECT_EQ(name, kGolden[i].name);
    EXPECT_EQ(frame.size(), kGolden[i].frame_size) << name;
    EXPECT_EQ(crc, kGolden[i].frame_crc) << name;
    std::string back;
    ASSERT_TRUE(Decompress(frame, &back).ok()) << name;
    EXPECT_EQ(back, input) << name;
  }
}

TEST(CompressGoldenTest, GreedyParseFramesStillDecode) {
  std::ifstream file(ZB_TESTDATA_DIR "/compress_greedy_frames.bin",
                     std::ios::binary);
  ASSERT_TRUE(file) << "missing fixture compress_greedy_frames.bin";
  std::stringstream buf;
  buf << file.rdbuf();
  const std::string fixture = buf.str();
  size_t total = 0;
  for (const Golden& g : kGreedyGolden) total += g.frame_size;
  ASSERT_EQ(fixture.size(), total);

  size_t at = 0;
  for (const Golden& g : kGreedyGolden) {
    const std::string_view frame(fixture.data() + at, g.frame_size);
    at += g.frame_size;
    // The CRC proves these are the greedy parse's bytes, not re-encoded.
    EXPECT_EQ(Crc32c(frame.data(), frame.size()), g.frame_crc) << g.name;
    const std::string input = CorpusInput(g.name);
    std::string back;
    ASSERT_TRUE(Decompress(frame, &back).ok()) << g.name;
    EXPECT_EQ(back, input) << g.name;
    std::string into(input.size(), '\0');
    ASSERT_TRUE(DecompressInto(frame, into.data(), into.size()).ok())
        << g.name;
    EXPECT_EQ(into, input) << g.name;
  }
}

// The current parse skips ahead on misses, trading ratio for speed. This
// caps the trade: on the segment and JSON inputs its frames are at most 2%
// larger than the greedy parse's.
TEST(CompressGoldenTest, RatioWithinTwoPercentOfGreedyParse) {
  for (const auto& [name, greedy_size] : kGreedySizes) {
    std::string frame;
    Compress(CorpusInput(name), &frame);
    EXPECT_LE(frame.size() * 100, greedy_size * 102) << name;
  }
}

}  // namespace
}  // namespace zerobak

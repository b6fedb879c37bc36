// ThreadPool correctness: full index coverage, determinism of results
// across lane counts, inline fallbacks, nested sections, concurrent
// callers, and the join barrier's memory visibility. These tests are the
// primary TSan target for the compute layer (see the tsan preset in
// CMakePresets.json).
#include "exec/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace zerobak::exec {
namespace {

// Fills out[i] = f(i) through the pool and returns the vector; the
// caller compares against a serial reference to prove both coverage
// (every index written) and result determinism (values independent of
// which lane ran which block).
std::vector<uint64_t> FillThroughPool(ThreadPool* pool, size_t n,
                                      size_t grain) {
  std::vector<uint64_t> out(n, ~0ull);
  auto body = [&out](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      out[i] = i * 2654435761u + 12345;
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(n, grain, body);
  } else {
    body(0, n);
  }
  return out;
}

TEST(ThreadPoolTest, LaneCountsNormalize) {
  ThreadPool zero(0);
  EXPECT_EQ(zero.lanes(), 1u);  // 0 means "inline", i.e. one lane.
  ThreadPool four(4);
  EXPECT_EQ(four.lanes(), 4u);
  EXPECT_GE(ThreadPool::HardwareLanes(), 1u);
}

TEST(ThreadPoolTest, SingleLaneRunsInline) {
  ThreadPool pool(1);
  const auto got = FillThroughPool(&pool, 1000, 64);
  EXPECT_EQ(got, FillThroughPool(nullptr, 1000, 64));
  const ThreadPool::Stats s = pool.stats();
  EXPECT_EQ(s.sections, 0u);         // Never dispatched to workers.
  EXPECT_EQ(s.inline_sections, 1u);  // No workers exist to offload to.
}

TEST(ThreadPoolTest, ResultsIdenticalAcrossLaneCounts) {
  const auto want = FillThroughPool(nullptr, 100000, 1);
  for (unsigned lanes : {2u, 3u, 4u, 8u}) {
    ThreadPool pool(lanes);
    for (size_t grain : {size_t{1}, size_t{7}, size_t{1024}}) {
      EXPECT_EQ(FillThroughPool(&pool, 100000, grain), want)
          << "lanes=" << lanes << " grain=" << grain;
    }
  }
}

TEST(ThreadPoolTest, EveryIndexRunsExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 50000;
  std::vector<std::atomic<uint32_t>> hits(kN);
  pool.ParallelFor(kN, 13, [&hits](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(std::memory_order_relaxed), 1u) << "index " << i;
  }
}

TEST(ThreadPoolTest, EdgeCases) {
  ThreadPool pool(4);
  // n == 0: no body invocation at all.
  pool.ParallelFor(0, 16, [](size_t, size_t) { FAIL() << "body ran"; });
  // n == 1 and n <= grain: a single block runs inline on the caller.
  EXPECT_EQ(FillThroughPool(&pool, 1, 16), FillThroughPool(nullptr, 1, 16));
  EXPECT_EQ(FillThroughPool(&pool, 10, 16),
            FillThroughPool(nullptr, 10, 16));
  // grain == 0 is treated as 1.
  EXPECT_EQ(FillThroughPool(&pool, 100, 0), FillThroughPool(nullptr, 100, 0));
}

TEST(ThreadPoolTest, JoinBarrierPublishesWorkerWrites) {
  // After ParallelFor returns, plain (non-atomic) reads of everything the
  // workers wrote must be safe — the engine depends on this to consume
  // per-chunk results on the sim thread. Run many small sections so TSan
  // gets repeated acquire/release pairs to check.
  ThreadPool pool(4);
  std::vector<uint64_t> buf(4096);
  uint64_t expect = 0;
  for (int round = 0; round < 200; ++round) {
    pool.ParallelFor(buf.size(), 64, [&buf, round](size_t b, size_t e) {
      for (size_t i = b; i < e; ++i) buf[i] = i + round;
    });
    const uint64_t sum = std::accumulate(buf.begin(), buf.end(), 0ull);
    expect = buf.size() * (buf.size() - 1) / 2 +
             static_cast<uint64_t>(round) * buf.size();
    ASSERT_EQ(sum, expect) << "round " << round;
  }
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  ThreadPool pool(4);
  std::vector<uint64_t> out(64 * 64, 0);
  pool.ParallelFor(64, 1, [&](size_t begin, size_t end) {
    for (size_t row = begin; row < end; ++row) {
      // A nested section from a worker (or the caller mid-section) must
      // degrade to an inline loop instead of deadlocking on the queues.
      pool.ParallelFor(64, 8, [&out, row](size_t b, size_t e) {
        for (size_t col = b; col < e; ++col) {
          out[row * 64 + col] = row * 1000 + col;
        }
      });
    }
  });
  for (size_t row = 0; row < 64; ++row) {
    for (size_t col = 0; col < 64; ++col) {
      ASSERT_EQ(out[row * 64 + col], row * 1000 + col);
    }
  }
}

TEST(ThreadPoolTest, StatsAccumulate) {
  ThreadPool pool(2);
  const ThreadPool::Stats before = pool.stats();
  for (int i = 0; i < 10; ++i) {
    pool.ParallelFor(1000, 10, [](size_t, size_t) {});
  }
  const ThreadPool::Stats after = pool.stats();
  EXPECT_EQ(after.sections - before.sections, 10u);
  // 1000 indices at grain 10 = 100 blocks per section.
  EXPECT_EQ(after.tasks - before.tasks, 1000u);
}

TEST(ThreadPoolTest, ManySectionsStress) {
  // Rapid-fire tiny sections interleaved with large ones: exercises the
  // wake/sleep path and the shared cursor under contention (TSan coverage).
  ThreadPool pool(4);
  std::atomic<uint64_t> total{0};
  for (int round = 0; round < 300; ++round) {
    const size_t n = (round % 7 == 0) ? 10000 : 17;
    pool.ParallelFor(n, 3, [&total](size_t b, size_t e) {
      total.fetch_add(e - b, std::memory_order_relaxed);
    });
  }
  uint64_t want = 0;
  for (int round = 0; round < 300; ++round) {
    want += (round % 7 == 0) ? 10000 : 17;
  }
  EXPECT_EQ(total.load(), want);
}

TEST(ThreadPoolTest, ConcurrentCallersEachJoinTheirOwnSection) {
  // Callers on different threads take turns on one pool. Each section
  // must run every index of its own buffer exactly once, and its caller
  // must see all of its writes when ParallelFor returns (plain reads).
  ThreadPool pool(4);
  constexpr int kCallers = 4;
  constexpr int kRounds = 100;
  constexpr size_t kN = 2000;
  std::vector<std::vector<uint32_t>> bufs(kCallers,
                                          std::vector<uint32_t>(kN));
  std::vector<int> bad_rounds(kCallers, 0);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &bufs, &bad_rounds, c] {
      std::vector<uint32_t>& buf = bufs[c];
      for (int round = 0; round < kRounds; ++round) {
        std::fill(buf.begin(), buf.end(), 0);
        pool.ParallelFor(kN, 7 + c, [&buf, round](size_t b, size_t e) {
          for (size_t i = b; i < e; ++i) buf[i] += round + 1;
        });
        for (size_t i = 0; i < kN; ++i) {
          if (buf[i] != static_cast<uint32_t>(round + 1)) {
            ++bad_rounds[c];
            break;
          }
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) {
    EXPECT_EQ(bad_rounds[c], 0) << "caller " << c;
  }
  EXPECT_EQ(pool.stats().sections, uint64_t{kCallers} * kRounds);
}

}  // namespace
}  // namespace zerobak::exec

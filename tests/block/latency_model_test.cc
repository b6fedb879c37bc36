#include "block/latency_model.h"

#include <gtest/gtest.h>

namespace zerobak::block {
namespace {

TEST(DeviceLatencyModelTest, DefaultWriteCostsTwoHundredMicros) {
  DeviceLatencyModel m;
  m.per_block = 0;
  m.jitter = 0;
  EXPECT_EQ(m.Cost(IoType::kWrite, 1, nullptr), Microseconds(200));
  EXPECT_EQ(m.Cost(IoType::kRead, 1, nullptr), Microseconds(150));
}

TEST(DeviceLatencyModelTest, PerBlockCostScalesWithSize) {
  DeviceLatencyModel m;
  m.read_latency = 0;
  m.write_latency = Microseconds(100);
  m.per_block = Microseconds(10);
  m.jitter = 0;
  EXPECT_EQ(m.Cost(IoType::kWrite, 1, nullptr), Microseconds(110));
  EXPECT_EQ(m.Cost(IoType::kWrite, 8, nullptr), Microseconds(180));
}

TEST(DeviceLatencyModelTest, JitterWithinBounds) {
  DeviceLatencyModel m;
  m.read_latency = Microseconds(100);
  m.per_block = 0;
  m.jitter = Microseconds(50);
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const SimDuration c = m.Cost(IoType::kRead, 1, &rng);
    EXPECT_GE(c, Microseconds(100));
    EXPECT_LT(c, Microseconds(150));
  }
}

}  // namespace
}  // namespace zerobak::block

#include "storage/array.h"

#include <gtest/gtest.h>

#include "storage/array_device.h"
#include "storage/volume.h"

namespace zerobak::storage {
namespace {

ArrayConfig ZeroLatency(const std::string& serial = "G370-T") {
  ArrayConfig cfg;
  cfg.serial = serial;
  cfg.media = block::DeviceLatencyModel{0, 0, 0, 0, 1};
  return cfg;
}

std::string BlockOf(char c) {
  return std::string(block::kDefaultBlockSize, c);
}

class ArrayTest : public ::testing::Test {
 protected:
  sim::SimEnvironment env_;
  StorageArray array_{&env_, ZeroLatency()};
};

TEST_F(ArrayTest, CreateAndLookupVolumes) {
  auto id = array_.CreateVolume("sales", 100);
  ASSERT_TRUE(id.ok());
  EXPECT_NE(array_.GetVolume(*id), nullptr);
  EXPECT_EQ(array_.GetVolume(*id)->name(), "sales");
  EXPECT_EQ(array_.FindVolumeByName("sales")->id(), *id);
  EXPECT_EQ(array_.FindVolumeByName("nope"), nullptr);
  EXPECT_EQ(array_.volume_count(), 1u);
}

TEST_F(ArrayTest, DuplicateNameRejected) {
  ASSERT_TRUE(array_.CreateVolume("v", 10).ok());
  EXPECT_EQ(array_.CreateVolume("v", 10).status().code(),
            StatusCode::kAlreadyExists);
}

TEST_F(ArrayTest, ZeroSizedVolumeRejected) {
  EXPECT_EQ(array_.CreateVolume("v", 0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ArrayTest, DeleteVolume) {
  auto id = array_.CreateVolume("v", 10);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(array_.DeleteVolume(*id).ok());
  EXPECT_EQ(array_.GetVolume(*id), nullptr);
  EXPECT_EQ(array_.DeleteVolume(*id).code(), StatusCode::kNotFound);
}

// The footprint gauges follow every volume's slabs and written blocks:
// volumes created before and after the attach, writes, an adopted image
// and a delete.
TEST_F(ArrayTest, FootprintGaugesTrackSlabsAndWrittenBlocks) {
  const int64_t slab = block::MemVolume::kBlocksPerChunk *
                       block::kDefaultBlockSize;
  auto early = array_.CreateVolume("early", 5120);
  ASSERT_TRUE(early.ok());
  ASSERT_TRUE(array_.WriteSync(*early, 10, BlockOf('e')).ok());
  obs::MetricRegistry registry;
  array_.AttachObservability(&registry, "storage.t");
  obs::Gauge* slab_bytes = registry.GetGauge("storage.t.slab_bytes");
  obs::Gauge* written = registry.GetGauge("storage.t.written_blocks");
  EXPECT_EQ(slab_bytes->value(), slab);
  EXPECT_EQ(written->value(), 1);

  auto late = array_.CreateVolume("late", 5120);
  ASSERT_TRUE(late.ok());
  ASSERT_TRUE(array_.WriteSync(*late, 0, BlockOf('l')).ok());
  ASSERT_TRUE(array_.WriteSync(*late, 4000, BlockOf('l')).ok());
  ASSERT_TRUE(array_.WriteSync(*late, 4000, BlockOf('m')).ok());
  EXPECT_EQ(slab_bytes->value(), 3 * slab);
  EXPECT_EQ(written->value(), 3);

  block::MemVolume image(5120);
  ASSERT_TRUE(image.Write(64, 2, BlockOf('i') + BlockOf('j')).ok());
  ASSERT_TRUE(array_.GetVolume(*early)->AdoptImage(std::move(image)).ok());
  EXPECT_EQ(slab_bytes->value(), 3 * slab);
  EXPECT_EQ(written->value(), 4);

  ASSERT_TRUE(array_.DeleteVolume(*late).ok());
  EXPECT_EQ(slab_bytes->value(), slab);
  EXPECT_EQ(written->value(), 2);
}

TEST_F(ArrayTest, VolumeHandleRoundTrip) {
  auto id = array_.CreateVolume("v", 10);
  ASSERT_TRUE(id.ok());
  const std::string handle = array_.VolumeHandle(*id);
  EXPECT_EQ(handle, "G370-T:" + std::to_string(*id));
  auto parsed = StorageArray::ParseVolumeHandle(handle);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->first, "G370-T");
  EXPECT_EQ(parsed->second, *id);
}

TEST_F(ArrayTest, MalformedHandlesRejected) {
  for (const char* bad : {"", "nocolon", ":5", "serial:", "serial:12x"}) {
    EXPECT_FALSE(StorageArray::ParseVolumeHandle(bad).ok()) << bad;
  }
}

TEST_F(ArrayTest, SyncWriteReadRoundTrip) {
  auto id = array_.CreateVolume("v", 10);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(array_.WriteSync(*id, 3, BlockOf('z')).ok());
  std::string out;
  ASSERT_TRUE(array_.ReadSync(*id, 3, 1, &out).ok());
  EXPECT_EQ(out, BlockOf('z'));
  EXPECT_EQ(array_.host_writes(), 1u);
  EXPECT_EQ(array_.host_reads(), 1u);
}

TEST_F(ArrayTest, UnalignedSyncWriteRejected) {
  auto id = array_.CreateVolume("v", 10);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(array_.WriteSync(*id, 0, "small").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(array_.WriteSync(*id, 0, "").code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ArrayTest, FailedArrayRejectsEverything) {
  auto id = array_.CreateVolume("v", 10);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(array_.WriteSync(*id, 1, BlockOf('a')).ok());
  obs::MetricRegistry registry;
  array_.AttachObservability(&registry, "storage.t");
  const obs::Gauge* slab_bytes = registry.GetGauge("storage.t.slab_bytes");
  const obs::Gauge* written = registry.GetGauge("storage.t.written_blocks");
  const int64_t slab_before = slab_bytes->value();
  const int64_t written_before = written->value();
  Volume* vol = array_.GetVolume(*id);
  array_.SetFailed(true);

  // The storage rule: no write path into a failed array's volumes, the
  // replication landings (WriteRun, AdoptImage) included, changes a thing.
  const std::string two = BlockOf('y') + BlockOf('z');
  const block::BlockRun run{2, 2, two, nullptr};
  block::MemVolume image(10);
  ASSERT_TRUE(image.Write(5, 1, BlockOf('i')).ok());
  EXPECT_EQ(vol->Write(1, 1, BlockOf('w')).code(), StatusCode::kUnavailable);
  EXPECT_EQ(vol->WriteRun(&run, 1).code(), StatusCode::kUnavailable);
  EXPECT_EQ(vol->AdoptImage(std::move(image)).code(),
            StatusCode::kUnavailable);
  EXPECT_TRUE(vol->store().ReadBlock(1) == BlockOf('a'));
  for (block::Lba lba : {0, 2, 3, 5}) {
    EXPECT_FALSE(vol->store().IsAllocated(lba)) << lba;
  }
  EXPECT_EQ(slab_bytes->value(), slab_before);
  EXPECT_EQ(written->value(), written_before);

  EXPECT_EQ(array_.WriteSync(*id, 0, BlockOf('x')).code(),
            StatusCode::kUnavailable);
  std::string out;
  EXPECT_EQ(array_.ReadSync(*id, 0, 1, &out).code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(array_.CreateVolume("w", 5).status().code(),
            StatusCode::kUnavailable);
  Status async_status = OkStatus();
  array_.SubmitHostWrite(*id, 0, BlockOf('x'), [&](block::IoResult r) {
    async_status = r.status;
  });
  env_.RunUntilIdle();
  EXPECT_EQ(async_status.code(), StatusCode::kUnavailable);

  array_.SetFailed(false);
  EXPECT_TRUE(array_.WriteSync(*id, 0, BlockOf('x')).ok());
  EXPECT_TRUE(vol->Write(1, 1, BlockOf('w')).ok());
  EXPECT_TRUE(vol->WriteRun(&run, 1).ok());
  block::MemVolume healed(10);
  ASSERT_TRUE(healed.Write(5, 1, BlockOf('i')).ok());
  EXPECT_TRUE(vol->AdoptImage(std::move(healed)).ok());
  EXPECT_TRUE(vol->store().ReadBlock(5) == BlockOf('i'));
  EXPECT_EQ(written->value(), 1);
}

TEST_F(ArrayTest, JournalLifecycle) {
  auto j = array_.CreateJournal(1 << 20);
  ASSERT_TRUE(j.ok());
  EXPECT_NE(array_.GetJournal(*j), nullptr);
  EXPECT_EQ(array_.ListJournals().size(), 1u);
  ASSERT_TRUE(array_.DeleteJournal(*j).ok());
  EXPECT_EQ(array_.GetJournal(*j), nullptr);
  EXPECT_EQ(array_.CreateJournal(0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ArrayLatencyTest, HostWriteLatencyFollowsMediaModel) {
  sim::SimEnvironment env;
  ArrayConfig cfg;
  cfg.media = block::DeviceLatencyModel{Microseconds(100),
                                        Microseconds(200), 0, 0, 1};
  StorageArray array(&env, cfg);
  auto id = array.CreateVolume("v", 10);
  ASSERT_TRUE(id.ok());
  SimTime done = -1;
  array.SubmitHostWrite(*id, 0, BlockOf('x'), [&](block::IoResult r) {
    ASSERT_TRUE(r.status.ok());
    done = env.now();
  });
  env.RunUntilIdle();
  EXPECT_EQ(done, Microseconds(200));
  EXPECT_EQ(array.host_write_latency().count(), 1u);
  EXPECT_EQ(array.host_write_latency().max(),
            static_cast<uint64_t>(Microseconds(200)));
}

// A write interceptor that delays every ack by a fixed amount.
class DelayingInterceptor : public WriteInterceptor {
 public:
  DelayingInterceptor(sim::SimEnvironment* env, SimDuration delay)
      : env_(env), delay_(delay) {}
  void OnHostWrite(Volume*, block::Lba, uint32_t, std::string_view,
                   AckFn ack) override {
    ++calls_;
    env_->Schedule(delay_, [ack] { ack(OkStatus()); });
  }
  int calls_ = 0;

 private:
  sim::SimEnvironment* env_;
  SimDuration delay_;
};

TEST(ArrayInterceptorTest, InterceptorControlsAckTiming) {
  sim::SimEnvironment env;
  StorageArray array(&env, ZeroLatency());
  auto id = array.CreateVolume("v", 10);
  ASSERT_TRUE(id.ok());
  DelayingInterceptor ic(&env, Milliseconds(7));
  ASSERT_TRUE(array.RegisterInterceptor(*id, &ic).ok());
  EXPECT_TRUE(array.HasInterceptor(*id));

  SimTime done = -1;
  array.SubmitHostWrite(*id, 0, BlockOf('x'), [&](block::IoResult r) {
    ASSERT_TRUE(r.status.ok());
    done = env.now();
  });
  env.RunUntilIdle();
  EXPECT_EQ(done, Milliseconds(7));
  EXPECT_EQ(ic.calls_, 1);

  // Interceptors fire once per host write, not for reads.
  std::string out;
  ASSERT_TRUE(array.ReadSync(*id, 0, 1, &out).ok());
  EXPECT_EQ(ic.calls_, 1);
}

TEST(ArrayInterceptorTest, DoubleRegistrationRejected) {
  sim::SimEnvironment env;
  StorageArray array(&env, ZeroLatency());
  auto id = array.CreateVolume("v", 10);
  ASSERT_TRUE(id.ok());
  DelayingInterceptor a(&env, 1), b(&env, 1);
  ASSERT_TRUE(array.RegisterInterceptor(*id, &a).ok());
  EXPECT_EQ(array.RegisterInterceptor(*id, &b).code(),
            StatusCode::kAlreadyExists);
  array.UnregisterInterceptor(*id);
  EXPECT_TRUE(array.RegisterInterceptor(*id, &b).ok());
}

TEST(ArrayInterceptorTest, ReplicatedVolumeCannotBeDeleted) {
  sim::SimEnvironment env;
  StorageArray array(&env, ZeroLatency());
  auto id = array.CreateVolume("v", 10);
  ASSERT_TRUE(id.ok());
  DelayingInterceptor ic(&env, 1);
  ASSERT_TRUE(array.RegisterInterceptor(*id, &ic).ok());
  EXPECT_EQ(array.DeleteVolume(*id).code(),
            StatusCode::kFailedPrecondition);
}

// PreCheck rejection must prevent the write from reaching the volume.
class RejectingInterceptor : public WriteInterceptor {
 public:
  Status PreCheck(Volume*, block::Lba, uint32_t) override {
    return FailedPreconditionError("write-protected");
  }
  void OnHostWrite(Volume*, block::Lba, uint32_t, std::string_view,
                   AckFn ack) override {
    ack(InternalError("should not be reached"));
  }
};

TEST(ArrayInterceptorTest, PreCheckBlocksWriteBeforeItApplies) {
  sim::SimEnvironment env;
  StorageArray array(&env, ZeroLatency());
  auto id = array.CreateVolume("v", 10);
  ASSERT_TRUE(id.ok());
  RejectingInterceptor guard;
  ASSERT_TRUE(array.RegisterInterceptor(*id, &guard).ok());

  EXPECT_EQ(array.WriteSync(*id, 0, BlockOf('x')).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(array.GetVolume(*id)->store().allocated_blocks(), 0u);

  Status async_status = OkStatus();
  array.SubmitHostWrite(*id, 0, BlockOf('x'), [&](block::IoResult r) {
    async_status = r.status;
  });
  env.RunUntilIdle();
  EXPECT_EQ(async_status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(array.GetVolume(*id)->store().allocated_blocks(), 0u);
}

TEST(VolumeHookTest, PreOverwriteHookSeesOldContent) {
  Volume v(1, "v", 10);
  std::vector<std::pair<block::Lba, char>> observed;
  const uint64_t token = v.AddPreOverwriteHook(
      [&](block::Lba lba, std::string_view old_block) {
        observed.emplace_back(lba, old_block[0]);
      });
  ASSERT_TRUE(v.Write(2, 1, BlockOf('a')).ok());  // Old content: zeros.
  ASSERT_TRUE(v.Write(2, 1, BlockOf('b')).ok());  // Old content: 'a'.
  ASSERT_EQ(observed.size(), 2u);
  EXPECT_EQ(observed[0], std::make_pair(block::Lba{2}, '\0'));
  EXPECT_EQ(observed[1], std::make_pair(block::Lba{2}, 'a'));

  v.RemovePreOverwriteHook(token);
  ASSERT_TRUE(v.Write(2, 1, BlockOf('c')).ok());
  EXPECT_EQ(observed.size(), 2u);  // Hook removed.
}

TEST(ArrayDeviceTest, AdapterRoutesThroughArray) {
  sim::SimEnvironment env;
  StorageArray array(&env, ZeroLatency());
  auto id = array.CreateVolume("db", 64);
  ASSERT_TRUE(id.ok());
  ArrayVolumeDevice dev(&array, *id);
  EXPECT_EQ(dev.block_count(), 64u);
  EXPECT_EQ(dev.block_size(), block::kDefaultBlockSize);
  ASSERT_TRUE(dev.Write(5, 1, BlockOf('q')).ok());
  std::string out;
  ASSERT_TRUE(dev.Read(5, 1, &out).ok());
  EXPECT_EQ(out, BlockOf('q'));
  EXPECT_EQ(array.host_writes(), 1u);
}

}  // namespace
}  // namespace zerobak::storage

#include "core/inspect.h"

#include <gtest/gtest.h>

#include "bench/bench_util.h"
#include "core/console.h"
#include "replication/replication.h"
#include "storage/array.h"

namespace zerobak::core {
namespace {

TEST(InspectTest, DescribesFullyConfiguredSystem) {
  sim::SimEnvironment env;
  DemoSystemConfig config = bench::FunctionalConfig();
  config.link.base_latency = Milliseconds(2);
  DemoSystem system(&env, config);
  bench::BusinessProcess bp =
      bench::DeployBusinessProcess(&system, "shop");
  ASSERT_TRUE(system.TagNamespaceForBackup("shop").ok());
  ASSERT_TRUE(system.WaitForBackupConfigured("shop").ok());
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(bp.app->PlaceOrder().ok());
  env.RunFor(Milliseconds(50));
  ASSERT_TRUE(system.CreateSnapshotGroupCr("shop", "g").ok());
  ASSERT_TRUE(system.WaitForSnapshotGroup("shop", "g").ok());

  const std::string report = DescribeSystem(&system);
  // Sites, arrays and volumes appear.
  EXPECT_NE(report.find("site main"), std::string::npos);
  EXPECT_NE(report.find("site backup"), std::string::npos);
  EXPECT_NE(report.find("pvc-shop-sales-db"), std::string::npos);
  EXPECT_NE(report.find("[replicated]"), std::string::npos);
  // Replication health.
  EXPECT_NE(report.find("replication: 1 groups, 2 pairs"),
            std::string::npos);
  EXPECT_NE(report.find("[PAIR]"), std::string::npos);
  // Snapshots and links.
  EXPECT_NE(report.find("snapshots: 2 in 1 groups"), std::string::npos);
  EXPECT_NE(report.find("links: main->backup up"), std::string::npos);
  // Cluster object counts.
  EXPECT_NE(report.find("VolumeReplicationGroup"), std::string::npos);
}

// Each array reports its volumes' in-memory footprint, and the
// storage.<site> gauges hold the same sums.
TEST(InspectTest, ShowsVolumeFootprint) {
  sim::SimEnvironment env;
  DemoSystem system(&env, bench::FunctionalConfig());
  bench::BusinessProcess bp =
      bench::DeployBusinessProcess(&system, "shop");
  ASSERT_TRUE(system.TagNamespaceForBackup("shop").ok());
  ASSERT_TRUE(system.WaitForBackupConfigured("shop").ok());
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(bp.app->PlaceOrder().ok());
  env.RunFor(Milliseconds(50));

  const std::string report = DescribeSystem(&system);
  for (Site* site : {system.main_site(), system.backup_site()}) {
    SCOPED_TRACE(site->name());
    uint64_t slab_bytes = 0;
    uint64_t written_blocks = 0;
    for (storage::VolumeId id : site->array()->ListVolumes()) {
      const block::MemVolume& store = site->array()->GetVolume(id)->store();
      slab_bytes += store.slab_bytes();
      written_blocks += store.allocated_blocks();
    }
    EXPECT_GT(slab_bytes, 0u);
    EXPECT_LT(slab_bytes, 8u << 20);  // The shop's PVCs are mostly holes.
    const std::string prefix = "storage." + site->name();
    EXPECT_EQ(system.metrics()->GetGauge(prefix + ".slab_bytes")->value(),
              static_cast<int64_t>(slab_bytes));
    EXPECT_EQ(
        system.metrics()->GetGauge(prefix + ".written_blocks")->value(),
        static_cast<int64_t>(written_blocks));
    char line[96];
    std::snprintf(line, sizeof(line),
                  "volume slabs %.2f MiB / written %.2f MiB",
                  static_cast<double>(slab_bytes) / (1 << 20),
                  static_cast<double>(written_blocks *
                                      block::kDefaultBlockSize) /
                      (1 << 20));
    EXPECT_NE(report.find(line), std::string::npos) << line;
  }
}

TEST(InspectTest, ShowsFailureStates) {
  sim::SimEnvironment env;
  DemoSystemConfig config = bench::FunctionalConfig();
  DemoSystem system(&env, config);
  bench::BusinessProcess bp =
      bench::DeployBusinessProcess(&system, "shop");
  ASSERT_TRUE(system.TagNamespaceForBackup("shop").ok());
  ASSERT_TRUE(system.WaitForBackupConfigured("shop").ok());
  system.FailMainSite();
  ASSERT_TRUE(system.Failover("shop").ok());

  const std::string report = DescribeSystem(&system);
  EXPECT_NE(report.find("[FAILED]"), std::string::npos);
  EXPECT_NE(report.find("DOWN"), std::string::npos);
  EXPECT_NE(report.find("[SSWS]"), std::string::npos);
}

TEST(InspectTest, ConsoleInspectCommand) {
  sim::SimEnvironment env;
  DemoSystem system(&env, bench::FunctionalConfig());
  std::ostringstream out;
  Console console(&system, &out);
  ASSERT_TRUE(console.Execute("inspect").ok());
  EXPECT_NE(out.str().find("demo system"), std::string::npos);
}

// A one-pair consistency group over 5 ms links, for walking a group
// through each recovery wait.
class RecoveryRig {
 public:
  RecoveryRig()
      : main_(&env_, Array("MAIN")),
        backup_(&env_, Array("BKUP")),
        fwd_(&env_, Link(), "fwd"),
        rev_(&env_, Link(), "rev"),
        engine_(&env_, &main_, &backup_, &fwd_, &rev_) {
    pvol_ = *main_.CreateVolume("v", 16);
    svol_ = *backup_.CreateVolume("r-v", 16);
    replication::ConsistencyGroupConfig cfg;
    cfg.name = "cg";
    cfg.ack_timeout = Milliseconds(20);
    cfg.resync_backoff_initial = Milliseconds(5);
    cfg.resync_backoff_max = Milliseconds(50);
    group_ = *engine_.CreateConsistencyGroup(cfg);
    replication::PairConfig pc;
    pc.name = "pair";
    pc.primary = pvol_;
    pc.secondary = svol_;
    pc.group = group_;
    EXPECT_TRUE(engine_.CreatePair(pc).ok());
    env_.RunFor(Milliseconds(4));
  }

  void Write(storage::StorageArray* array, storage::VolumeId vol, char c) {
    ASSERT_TRUE(
        array->WriteSync(vol, 1, std::string(block::kDefaultBlockSize, c))
            .ok());
  }
  void SetLinks(bool up) {
    fwd_.SetConnected(up);
    rev_.SetConnected(up);
  }
  std::string Report() { return DescribeReplication(&engine_); }

  static storage::ArrayConfig Array(const std::string& serial) {
    storage::ArrayConfig cfg;
    cfg.serial = serial;
    cfg.media = block::DeviceLatencyModel{0, 0, 0, 0, 1};
    return cfg;
  }
  static sim::NetworkLinkConfig Link() {
    sim::NetworkLinkConfig cfg;
    cfg.base_latency = Milliseconds(5);
    cfg.bandwidth_bytes_per_sec = 0;
    return cfg;
  }

  sim::SimEnvironment env_;
  storage::StorageArray main_;
  storage::StorageArray backup_;
  sim::NetworkLink fwd_;
  sim::NetworkLink rev_;
  replication::ReplicationEngine engine_;
  storage::VolumeId pvol_ = 0;
  storage::VolumeId svol_ = 0;
  replication::GroupId group_ = 0;
};

TEST(InspectTest, ShowsEachRecoveryWait) {
  RecoveryRig rig;
  EXPECT_EQ(rig.Report().find("recovery:"), std::string::npos);

  // A batch lost to a partition: the group waits for the link, and the
  // wait's age keeps growing.
  rig.Write(&rig.main_, rig.pvol_, 'a');
  rig.env_.RunFor(Milliseconds(3));
  rig.SetLinks(false);
  rig.env_.RunFor(Milliseconds(40));
  EXPECT_NE(rig.Report().find("recovery: waiting for link for 16.00ms"),
            std::string::npos)
      << rig.Report();
  rig.env_.RunFor(Milliseconds(10));
  EXPECT_NE(rig.Report().find("recovery: waiting for link for 26.00ms"),
            std::string::npos);

  // The heal starts the resync: its age and loss deadline (5 ms trip +
  // 20 ms ack grace) show until it lands.
  rig.SetLinks(true);
  rig.env_.RunFor(Milliseconds(1));
  EXPECT_NE(rig.Report().find(
                "recovery: resync in flight for 1.00ms, deadline in 24.00ms"),
            std::string::npos)
      << rig.Report();
  rig.env_.RunFor(Milliseconds(10));
  EXPECT_EQ(rig.Report().find("recovery:"), std::string::npos);

  // A journal media error with the link up backs off.
  rig.engine_.primary_journal(rig.group_)->SetMediaError(true);
  rig.Write(&rig.main_, rig.pvol_, 'b');
  rig.env_.RunFor(Milliseconds(2));
  EXPECT_NE(rig.Report().find("recovery: backoff fires in 3.00ms"),
            std::string::npos)
      << rig.Report();
  rig.engine_.primary_journal(rig.group_)->SetMediaError(false);
  rig.env_.RunFor(Milliseconds(20));
  EXPECT_EQ(rig.Report().find("recovery:"), std::string::npos);
}

TEST(InspectTest, ShowsGivebackInFlight) {
  RecoveryRig rig;
  rig.SetLinks(false);
  ASSERT_TRUE(rig.engine_.FailoverGroup(rig.group_).ok());
  rig.Write(&rig.backup_, rig.svol_, 'g');
  rig.SetLinks(true);
  rig.env_.RunFor(0);
  ASSERT_TRUE(rig.engine_.FailbackGroup(rig.group_).ok());
  rig.env_.RunFor(Milliseconds(1));
  rig.rev_.SetConnected(false);  // The giveback dies on the wire.
  rig.env_.RunFor(Milliseconds(30));
  EXPECT_NE(rig.Report().find("giveback in flight for 31.00ms"),
            std::string::npos)
      << rig.Report();
  rig.rev_.SetConnected(true);
  rig.env_.RunFor(Milliseconds(10));
  EXPECT_EQ(rig.Report().find("giveback"), std::string::npos);
}

TEST(InspectTest, ConsoleStatusShowsRecoveryWait) {
  sim::SimEnvironment env;
  DemoSystem system(&env, bench::FunctionalConfig());
  std::ostringstream out;
  Console console(&system, &out);
  ASSERT_TRUE(console.Execute("deploy shop").ok());
  ASSERT_TRUE(console.Execute("tag shop").ok());
  ASSERT_TRUE(console.Execute("order shop 5").ok());
  system.link_to_backup()->SetConnected(false);
  system.link_to_main()->SetConnected(false);
  ASSERT_TRUE(console.Execute("order shop 5").ok());
  ASSERT_TRUE(console.Execute("run 200").ok());
  out.str("");
  ASSERT_TRUE(console.Execute("status shop").ok());
  EXPECT_NE(out.str().find("[recovery: waiting for link for "),
            std::string::npos)
      << out.str();
}

}  // namespace
}  // namespace zerobak::core

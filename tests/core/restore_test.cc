// Point-in-time restore: the ransomware scenario. Logical damage on the
// main site replicates faithfully to the backup, so the last good
// scheduled snapshot — not the live replica — is what saves the business.
#include "core/restore.h"

#include <gtest/gtest.h>

#include "bench/bench_util.h"
#include "core/verify.h"
#include "workload/ecommerce.h"

namespace zerobak::core {
namespace {

class RestoreTest : public ::testing::Test {
 protected:
  RestoreTest() {
    DemoSystemConfig config = bench::FunctionalConfig();
    config.link.base_latency = Milliseconds(2);
    system_ = std::make_unique<DemoSystem>(&env_, config);
    bp_ = bench::DeployBusinessProcess(system_.get(), "shop");
    EXPECT_TRUE(system_->TagNamespaceForBackup("shop").ok());
    EXPECT_TRUE(system_->WaitForBackupConfigured("shop").ok());
  }

  void PlaceOrders(int n) {
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(bp_.app->PlaceOrder().ok());
      env_.RunFor(Microseconds(100));
    }
    env_.RunFor(Milliseconds(50));
  }

  // Ransomware: scribbles over the main sales volume, including the
  // superblock — and the damage replicates to the backup.
  void Ransomware() {
    auto vol = system_->ResolveMainVolume("shop", "sales-db");
    ASSERT_TRUE(vol.ok());
    const std::string garbage(block::kDefaultBlockSize, '!');
    for (block::Lba lba = 0; lba < 8; ++lba) {
      ASSERT_TRUE(system_->main_site()
                      ->array()
                      ->WriteSync(*vol, lba, garbage)
                      .ok());
    }
    env_.RunFor(Milliseconds(50));  // The damage replicates too.
  }

  sim::SimEnvironment env_;
  std::unique_ptr<DemoSystem> system_;
  bench::BusinessProcess bp_;
};

TEST_F(RestoreTest, RequiresFailoverFirst) {
  PlaceOrders(10);
  ASSERT_TRUE(system_->CreateSnapshotGroupCr("shop", "good").ok());
  ASSERT_TRUE(system_->WaitForSnapshotGroup("shop", "good").ok());
  auto report = RestoreNamespaceFromGroup(system_.get(), "shop", "good");
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(RestoreTest, RansomwareRecoveryViaSnapshotRewind) {
  PlaceOrders(30);
  // The last good backup.
  ASSERT_TRUE(system_->CreateSnapshotGroupCr("shop", "good").ok());
  ASSERT_TRUE(system_->WaitForSnapshotGroup("shop", "good").ok());

  PlaceOrders(10);  // A few more legitimate orders...
  Ransomware();     // ...then the attack, which replicates.

  system_->FailMainSite();
  ASSERT_TRUE(system_->Failover("shop").ok());

  // The live replica is damaged: the database cannot open.
  bench::RecoveryOutcome broken =
      bench::RecoverOnBackup(system_.get(), "shop");
  EXPECT_FALSE(broken.recovered);

  // Rewind to the last good snapshot group.
  auto report = RestoreNamespaceFromGroup(system_.get(), "shop", "good");
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->volumes_restored, 2u);
  EXPECT_GT(report->blocks_rewritten, 0u);

  // The business state at snapshot time is back.
  bench::RecoveryOutcome outcome =
      bench::RecoverOnBackup(system_.get(), "shop");
  ASSERT_TRUE(outcome.recovered);
  EXPECT_EQ(outcome.orders, 30u);
  EXPECT_FALSE(outcome.report.collapsed()) << outcome.report.ToString();

  // The rewind wrote the promoted S-VOLs, so failback gives it back: the
  // main site returns with the restored image, not the attacker's blocks.
  system_->RepairMainSite();
  auto failback = system_->Failback("shop");
  ASSERT_TRUE(failback.ok()) << failback.status();
  EXPECT_GT(failback->blocks_shipped, 0u);
  env_.RunFor(Milliseconds(100));
  for (const char* pvc : {"sales-db", "stock-db"}) {
    auto main_vol = system_->ResolveMainVolume("shop", pvc);
    auto backup_vol = system_->ResolveBackupVolume("shop", pvc);
    ASSERT_TRUE(main_vol.ok() && backup_vol.ok()) << pvc;
    EXPECT_TRUE(
        system_->main_site()->array()->GetVolume(*main_vol)->ContentEquals(
            *system_->backup_site()->array()->GetVolume(*backup_vol)))
        << pvc << " differs between the sites after failback";
  }
  auto sales_vol = system_->ResolveMainVolume("shop", "sales-db");
  auto stock_vol = system_->ResolveMainVolume("shop", "stock-db");
  ASSERT_TRUE(sales_vol.ok() && stock_vol.ok());
  storage::ArrayVolumeDevice sales_dev(system_->main_site()->array(),
                                       *sales_vol);
  storage::ArrayVolumeDevice stock_dev(system_->main_site()->array(),
                                       *stock_vol);
  db::DbOptions ro = bench::BenchDbOptions();
  ro.read_only = true;
  auto sales = db::MiniDb::Open(&sales_dev, ro);
  auto stock = db::MiniDb::Open(&stock_dev, ro);
  ASSERT_TRUE(sales.ok()) << sales.status();
  ASSERT_TRUE(stock.ok()) << stock.status();
  EXPECT_EQ((*sales)->RowCount(workload::kOrderTable), 30u);
  EXPECT_FALSE(workload::CheckConsistency(sales->get(), stock->get())
                   .collapsed());
}

TEST_F(RestoreTest, MissingGroupIsNotFound) {
  PlaceOrders(5);
  system_->FailMainSite();
  ASSERT_TRUE(system_->Failover("shop").ok());
  auto report = RestoreNamespaceFromGroup(system_.get(), "shop", "ghost");
  EXPECT_EQ(report.status().code(), StatusCode::kNotFound);
}

TEST_F(RestoreTest, RestoreIsIdempotent) {
  PlaceOrders(10);
  ASSERT_TRUE(system_->CreateSnapshotGroupCr("shop", "good").ok());
  ASSERT_TRUE(system_->WaitForSnapshotGroup("shop", "good").ok());
  PlaceOrders(10);
  system_->FailMainSite();
  ASSERT_TRUE(system_->Failover("shop").ok());

  auto first = RestoreNamespaceFromGroup(system_.get(), "shop", "good");
  ASSERT_TRUE(first.ok());
  EXPECT_GT(first->blocks_rewritten, 0u);
  auto second = RestoreNamespaceFromGroup(system_.get(), "shop", "good");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->blocks_rewritten, 0u);  // Already at the image.
  bench::RecoveryOutcome outcome =
      bench::RecoverOnBackup(system_.get(), "shop");
  ASSERT_TRUE(outcome.recovered);
  EXPECT_EQ(outcome.orders, 10u);
}

}  // namespace
}  // namespace zerobak::core

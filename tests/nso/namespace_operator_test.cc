#include "nso/namespace_operator.h"

#include <set>

#include <gtest/gtest.h>

#include "container/cluster.h"

namespace zerobak::nso {
namespace {

using container::kKindNamespace;
using container::kKindPersistentVolume;
using container::kKindPersistentVolumeClaim;
using container::kKindVolumeReplicationGroup;
using container::Resource;

class NamespaceOperatorTest : public ::testing::Test {
 protected:
  NamespaceOperatorTest() : cluster_(&env_, "main") {
    cluster_.controllers()->Register(std::make_unique<NamespaceOperator>());
  }

  void MakeNamespace(const std::string& name) {
    Resource ns;
    ns.kind = kKindNamespace;
    ns.name = name;
    ASSERT_TRUE(cluster_.api()->Create(std::move(ns)).ok());
  }

  // A bound PVC backed by a PV with a volume handle, as the provisioner
  // would have left it.
  void MakeBoundPvc(const std::string& ns, const std::string& name,
                    const std::string& handle) {
    Resource pv;
    pv.kind = kKindPersistentVolume;
    pv.name = "pv-" + ns + "-" + name;
    pv.spec["volumeHandle"] = handle;
    pv.spec["capacityBytes"] = 1 << 20;
    ASSERT_TRUE(cluster_.api()->Create(std::move(pv)).ok());
    Resource pvc;
    pvc.kind = kKindPersistentVolumeClaim;
    pvc.ns = ns;
    pvc.name = name;
    pvc.spec["volumeName"] = "pv-" + ns + "-" + name;
    pvc.status["phase"] = "Bound";
    ASSERT_TRUE(cluster_.api()->Create(std::move(pvc)).ok());
  }

  void Tag(const std::string& ns) {
    ASSERT_TRUE(cluster_.api()
                    ->Mutate(kKindNamespace, "", ns,
                             [](Resource* r) {
                               r->annotations[kPolicyAnnotation] =
                                   kConsistentCopyToCloud;
                             })
                    .ok());
  }

  sim::SimEnvironment env_;
  container::Cluster cluster_;
};

TEST_F(NamespaceOperatorTest, TaggingCreatesVrgCoveringAllVolumes) {
  MakeNamespace("shop");
  MakeBoundPvc("shop", "sales-db", "ARR:1");
  MakeBoundPvc("shop", "stock-db", "ARR:2");
  env_.RunUntilIdle();
  EXPECT_FALSE(cluster_.api()->Exists(kKindVolumeReplicationGroup, "shop",
                                      "vrg-shop"));

  Tag("shop");
  env_.RunUntilIdle();

  auto vrg = cluster_.api()->Get(kKindVolumeReplicationGroup, "shop",
                                 "vrg-shop");
  ASSERT_TRUE(vrg.ok());
  EXPECT_EQ(vrg->spec.GetString("sourceNamespace"), "shop");
  EXPECT_FALSE(vrg->spec.GetBool("perVolume"));
  const Value* volumes = vrg->spec.Find("volumes");
  ASSERT_NE(volumes, nullptr);
  ASSERT_EQ(volumes->AsArray().size(), 2u);
  // The single user action (tagging) captured both volumes with their
  // PVC names — the automation claim of Section III-B-1.
  std::set<std::string> handles, pvcs;
  for (const Value& v : volumes->AsArray()) {
    handles.insert(v.GetString("handle"));
    pvcs.insert(v.GetString("pvcName"));
  }
  EXPECT_TRUE(handles.contains("ARR:1"));
  EXPECT_TRUE(handles.contains("ARR:2"));
  EXPECT_TRUE(pvcs.contains("sales-db"));
  EXPECT_TRUE(pvcs.contains("stock-db"));
}

TEST_F(NamespaceOperatorTest, WrongTagValueIgnored) {
  MakeNamespace("shop");
  MakeBoundPvc("shop", "db", "ARR:1");
  ASSERT_TRUE(cluster_.api()
                  ->Mutate(kKindNamespace, "", "shop",
                           [](Resource* r) {
                             r->annotations[kPolicyAnnotation] =
                                 "SomethingElse";
                           })
                  .ok());
  env_.RunUntilIdle();
  EXPECT_FALSE(cluster_.api()->Exists(kKindVolumeReplicationGroup, "shop",
                                      "vrg-shop"));
}

TEST_F(NamespaceOperatorTest, UnboundPvcsAreSkipped) {
  MakeNamespace("shop");
  Resource pvc;
  pvc.kind = kKindPersistentVolumeClaim;
  pvc.ns = "shop";
  pvc.name = "pending";
  ASSERT_TRUE(cluster_.api()->Create(std::move(pvc)).ok());
  Tag("shop");
  env_.RunUntilIdle();
  // Nothing bound -> nothing to protect -> no VRG yet.
  EXPECT_FALSE(cluster_.api()->Exists(kKindVolumeReplicationGroup, "shop",
                                      "vrg-shop"));
}

TEST_F(NamespaceOperatorTest, NewPvcJoinsExistingVrg) {
  MakeNamespace("shop");
  MakeBoundPvc("shop", "sales-db", "ARR:1");
  Tag("shop");
  env_.RunUntilIdle();

  MakeBoundPvc("shop", "stock-db", "ARR:2");
  env_.RunUntilIdle();
  auto vrg = cluster_.api()->Get(kKindVolumeReplicationGroup, "shop",
                                 "vrg-shop");
  ASSERT_TRUE(vrg.ok());
  EXPECT_EQ(vrg->spec.Find("volumes")->AsArray().size(), 2u);
}

// The controllers' periodic resync replays every object; an operator
// whose VRG already lists the namespace's volumes must not rewrite it
// (each write used to bump its version and wake the VRG controller).
TEST_F(NamespaceOperatorTest, ResyncLeavesAnUnchangedVrgAlone) {
  MakeNamespace("shop");
  MakeBoundPvc("shop", "sales-db", "ARR:1");
  MakeBoundPvc("shop", "stock-db", "ARR:2");
  Tag("shop");
  env_.RunUntilIdle();
  auto configured = cluster_.api()->Get(kKindVolumeReplicationGroup, "shop",
                                        "vrg-shop");
  ASSERT_TRUE(configured.ok());
  const uint64_t writes = cluster_.api()->writes();

  cluster_.controllers()->EnableResync(Milliseconds(10));
  env_.RunFor(Milliseconds(100));  // Ten resync periods.
  auto after = cluster_.api()->Get(kKindVolumeReplicationGroup, "shop",
                                   "vrg-shop");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->resource_version, configured->resource_version);
  EXPECT_EQ(cluster_.api()->writes(), writes);
}

TEST_F(NamespaceOperatorTest, UntaggingRemovesVrg) {
  MakeNamespace("shop");
  MakeBoundPvc("shop", "db", "ARR:1");
  Tag("shop");
  env_.RunUntilIdle();
  ASSERT_TRUE(cluster_.api()->Exists(kKindVolumeReplicationGroup, "shop",
                                     "vrg-shop"));
  ASSERT_TRUE(cluster_.api()
                  ->Mutate(kKindNamespace, "", "shop",
                           [](Resource* r) {
                             r->annotations.erase(kPolicyAnnotation);
                           })
                  .ok());
  env_.RunUntilIdle();
  EXPECT_FALSE(cluster_.api()->Exists(kKindVolumeReplicationGroup, "shop",
                                      "vrg-shop"));
}

TEST_F(NamespaceOperatorTest, OtherNamespacesUnaffected) {
  MakeNamespace("shop");
  MakeNamespace("bystander");
  MakeBoundPvc("shop", "db", "ARR:1");
  MakeBoundPvc("bystander", "db", "ARR:2");
  Tag("shop");
  env_.RunUntilIdle();
  EXPECT_TRUE(cluster_.api()->Exists(kKindVolumeReplicationGroup, "shop",
                                     "vrg-shop"));
  EXPECT_FALSE(cluster_.api()->Exists(kKindVolumeReplicationGroup,
                                      "bystander", "vrg-bystander"));
}

TEST_F(NamespaceOperatorTest, PerVolumeConfigPropagates) {
  sim::SimEnvironment env;
  container::Cluster cluster(&env, "ablate");
  NamespaceOperatorConfig cfg;
  cfg.per_volume = true;
  cfg.journal_capacity_bytes = 12345678;
  cluster.controllers()->Register(
      std::make_unique<NamespaceOperator>(cfg));

  Resource ns;
  ns.kind = kKindNamespace;
  ns.name = "shop";
  ns.annotations[kPolicyAnnotation] = kConsistentCopyToCloud;
  ASSERT_TRUE(cluster.api()->Create(std::move(ns)).ok());
  Resource pv;
  pv.kind = kKindPersistentVolume;
  pv.name = "pv-a";
  pv.spec["volumeHandle"] = "ARR:9";
  pv.spec["capacityBytes"] = 4096;
  ASSERT_TRUE(cluster.api()->Create(std::move(pv)).ok());
  Resource pvc;
  pvc.kind = kKindPersistentVolumeClaim;
  pvc.ns = "shop";
  pvc.name = "a";
  pvc.spec["volumeName"] = "pv-a";
  ASSERT_TRUE(cluster.api()->Create(std::move(pvc)).ok());
  env.RunUntilIdle();

  auto vrg = cluster.api()->Get(kKindVolumeReplicationGroup, "shop",
                                "vrg-shop");
  ASSERT_TRUE(vrg.ok());
  EXPECT_TRUE(vrg->spec.GetBool("perVolume"));
  EXPECT_EQ(vrg->spec.GetInt("journalCapacityBytes"), 12345678);
}

}  // namespace
}  // namespace zerobak::nso

#include "container/api_server.h"

#include <gtest/gtest.h>

#include "container/resource.h"

namespace zerobak::container {
namespace {

Resource MakePvc(const std::string& ns, const std::string& name) {
  Resource r;
  r.kind = kKindPersistentVolumeClaim;
  r.ns = ns;
  r.name = name;
  r.spec["capacityBytes"] = 1024;
  return r;
}

class ApiServerTest : public ::testing::Test {
 protected:
  sim::SimEnvironment env_;
  ApiServer api_{&env_, "test-cluster"};
};

TEST_F(ApiServerTest, CreateGetRoundTrip) {
  auto created = api_.Create(MakePvc("shop", "sales"));
  ASSERT_TRUE(created.ok());
  EXPECT_GT(created->resource_version, 0u);
  EXPECT_EQ(created->generation, 1u);

  auto got = api_.Get(kKindPersistentVolumeClaim, "shop", "sales");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->spec.GetInt("capacityBytes"), 1024);
  EXPECT_TRUE(api_.Exists(kKindPersistentVolumeClaim, "shop", "sales"));
}

TEST_F(ApiServerTest, DuplicateCreateRejected) {
  ASSERT_TRUE(api_.Create(MakePvc("shop", "sales")).ok());
  EXPECT_EQ(api_.Create(MakePvc("shop", "sales")).status().code(),
            StatusCode::kAlreadyExists);
}

TEST_F(ApiServerTest, MissingKindOrNameRejected) {
  Resource r;
  r.kind = "Pod";
  EXPECT_EQ(api_.Create(r).status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ApiServerTest, GetMissingReturnsNotFound) {
  EXPECT_EQ(api_.Get("Pod", "ns", "nope").status().code(),
            StatusCode::kNotFound);
}

TEST_F(ApiServerTest, UpdateRequiresCurrentVersion) {
  auto created = api_.Create(MakePvc("shop", "sales"));
  ASSERT_TRUE(created.ok());
  Resource stale = *created;
  Resource fresh = *created;

  fresh.spec["capacityBytes"] = 2048;
  auto updated = api_.Update(fresh);
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ(updated->generation, 2u);  // Spec changed.

  stale.spec["capacityBytes"] = 4096;
  EXPECT_EQ(api_.Update(stale).status().code(), StatusCode::kAborted);
}

TEST_F(ApiServerTest, StatusUpdateKeepsSpecAndGeneration) {
  auto created = api_.Create(MakePvc("shop", "sales"));
  ASSERT_TRUE(created.ok());
  Resource r = *created;
  r.spec["capacityBytes"] = 9999;  // Must be ignored by UpdateStatus.
  r.status["phase"] = "Bound";
  auto updated = api_.UpdateStatus(r);
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ(updated->spec.GetInt("capacityBytes"), 1024);
  EXPECT_EQ(updated->status.GetString("phase"), "Bound");
  EXPECT_EQ(updated->generation, 1u);  // Status-only: no generation bump.
}

TEST_F(ApiServerTest, NoOpUpdatesAreFree) {
  auto created = api_.Create(MakePvc("shop", "sales"));
  ASSERT_TRUE(created.ok());
  int events = 0;
  api_.Watch(kKindPersistentVolumeClaim, [&](const WatchEvent& e) {
    if (e.type == WatchEventType::kModified) ++events;
  });
  const uint64_t writes = api_.writes();

  auto same = api_.Update(*created);
  ASSERT_TRUE(same.ok());
  EXPECT_EQ(same->resource_version, created->resource_version);
  EXPECT_EQ(same->generation, created->generation);
  auto same_status = api_.UpdateStatus(*created);
  ASSERT_TRUE(same_status.ok());
  EXPECT_EQ(same_status->resource_version, created->resource_version);
  // The concurrency rule still holds for a no-op.
  Resource stale = *created;
  stale.resource_version = 0;
  EXPECT_EQ(api_.Update(stale).status().code(), StatusCode::kAborted);
  env_.RunUntilIdle();
  EXPECT_EQ(api_.writes(), writes);
  EXPECT_EQ(events, 0);

  // Any change to labels, annotations or status is a real write.
  Resource labeled = *created;
  labeled.labels["tier"] = "gold";
  auto l = api_.Update(labeled);
  ASSERT_TRUE(l.ok());
  EXPECT_GT(l->resource_version, created->resource_version);
  EXPECT_EQ(l->generation, created->generation);
  Resource annotated = *l;
  annotated.annotations["a"] = "b";
  auto a = api_.Update(annotated);
  ASSERT_TRUE(a.ok());
  Resource bound = *a;
  bound.status["phase"] = "Bound";
  auto b = api_.UpdateStatus(bound);
  ASSERT_TRUE(b.ok());
  EXPECT_GT(b->resource_version, a->resource_version);
  env_.RunUntilIdle();
  EXPECT_EQ(api_.writes(), writes + 3);
  EXPECT_EQ(events, 3);
}

TEST_F(ApiServerTest, ListFiltersByKindAndNamespace) {
  ASSERT_TRUE(api_.Create(MakePvc("shop", "a")).ok());
  ASSERT_TRUE(api_.Create(MakePvc("shop", "b")).ok());
  ASSERT_TRUE(api_.Create(MakePvc("other", "c")).ok());
  Resource pod;
  pod.kind = kKindPod;
  pod.ns = "shop";
  pod.name = "p";
  ASSERT_TRUE(api_.Create(pod).ok());

  EXPECT_EQ(api_.List(kKindPersistentVolumeClaim).size(), 3u);
  EXPECT_EQ(api_.List(kKindPersistentVolumeClaim, "shop").size(), 2u);
  EXPECT_EQ(api_.List(kKindPod).size(), 1u);
  EXPECT_EQ(api_.List("StorageClass").size(), 0u);
}

TEST_F(ApiServerTest, ListWithLabel) {
  Resource a = MakePvc("shop", "a");
  a.labels["tier"] = "gold";
  Resource b = MakePvc("shop", "b");
  b.labels["tier"] = "bronze";
  ASSERT_TRUE(api_.Create(a).ok());
  ASSERT_TRUE(api_.Create(b).ok());
  auto gold = api_.ListWithLabel(kKindPersistentVolumeClaim, "tier", "gold");
  ASSERT_EQ(gold.size(), 1u);
  EXPECT_EQ(gold[0].name, "a");
}

TEST_F(ApiServerTest, DeleteRemoves) {
  ASSERT_TRUE(api_.Create(MakePvc("shop", "a")).ok());
  ASSERT_TRUE(api_.Delete(kKindPersistentVolumeClaim, "shop", "a").ok());
  EXPECT_FALSE(api_.Exists(kKindPersistentVolumeClaim, "shop", "a"));
  EXPECT_EQ(api_.Delete(kKindPersistentVolumeClaim, "shop", "a").code(),
            StatusCode::kNotFound);
}

TEST_F(ApiServerTest, WatchDeliversLifecycleEvents) {
  std::vector<std::pair<WatchEventType, std::string>> events;
  api_.Watch(kKindPersistentVolumeClaim, [&](const WatchEvent& e) {
    events.emplace_back(e.type, e.resource.name);
  });
  ASSERT_TRUE(api_.Create(MakePvc("shop", "a")).ok());
  auto got = api_.Get(kKindPersistentVolumeClaim, "shop", "a");
  Resource r = *got;
  r.spec["capacityBytes"] = 2;
  ASSERT_TRUE(api_.Update(r).ok());
  ASSERT_TRUE(api_.Delete(kKindPersistentVolumeClaim, "shop", "a").ok());

  EXPECT_TRUE(events.empty());  // Asynchronous delivery.
  env_.RunUntilIdle();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0], std::make_pair(WatchEventType::kAdded,
                                      std::string("a")));
  EXPECT_EQ(events[1], std::make_pair(WatchEventType::kModified,
                                      std::string("a")));
  EXPECT_EQ(events[2], std::make_pair(WatchEventType::kDeleted,
                                      std::string("a")));
}

TEST_F(ApiServerTest, WatchReplaysExistingObjectsOnRegistration) {
  ASSERT_TRUE(api_.Create(MakePvc("shop", "pre1")).ok());
  ASSERT_TRUE(api_.Create(MakePvc("shop", "pre2")).ok());
  env_.RunUntilIdle();
  int added = 0;
  api_.Watch(kKindPersistentVolumeClaim, [&](const WatchEvent& e) {
    if (e.type == WatchEventType::kAdded) ++added;
  });
  env_.RunUntilIdle();
  EXPECT_EQ(added, 2);  // Informer-style initial list.
}

TEST_F(ApiServerTest, StoppedWatchReceivesNothing) {
  int events = 0;
  const uint64_t id = api_.Watch(
      kKindPersistentVolumeClaim,
      [&](const WatchEvent&) { ++events; });
  api_.StopWatch(id);
  ASSERT_TRUE(api_.Create(MakePvc("shop", "a")).ok());
  env_.RunUntilIdle();
  EXPECT_EQ(events, 0);
}

TEST_F(ApiServerTest, WatchOnlySeesItsKind) {
  int events = 0;
  api_.Watch(kKindPod, [&](const WatchEvent&) { ++events; });
  ASSERT_TRUE(api_.Create(MakePvc("shop", "a")).ok());
  env_.RunUntilIdle();
  EXPECT_EQ(events, 0);
}

TEST_F(ApiServerTest, MutateRetriesAndApplies) {
  ASSERT_TRUE(api_.Create(MakePvc("shop", "a")).ok());
  ASSERT_TRUE(api_.Mutate(kKindPersistentVolumeClaim, "shop", "a",
                          [](Resource* r) {
                            r->annotations["touched"] = "yes";
                          })
                  .ok());
  auto got = api_.Get(kKindPersistentVolumeClaim, "shop", "a");
  EXPECT_EQ(got->GetAnnotation("touched"), "yes");
  EXPECT_EQ(api_.Mutate(kKindPersistentVolumeClaim, "shop", "missing",
                        [](Resource*) {})
                .code(),
            StatusCode::kNotFound);
}

TEST_F(ApiServerTest, ResourceKeyHelpers) {
  Resource r = MakePvc("ns", "n");
  EXPECT_EQ(r.Key(), "PersistentVolumeClaim/ns/n");
  r.annotations["k"] = "v";
  EXPECT_EQ(r.GetAnnotation("k"), "v");
  EXPECT_EQ(r.GetAnnotation("missing", "d"), "d");
  r.labels["l"] = "w";
  EXPECT_EQ(r.GetLabel("l"), "w");
  r.status["phase"] = "Bound";
  EXPECT_EQ(r.StatusPhase(), "Bound");
}

}  // namespace
}  // namespace zerobak::container

#ifndef ZEROBAK_CONTAINER_API_SERVER_H_
#define ZEROBAK_CONTAINER_API_SERVER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/time.h"
#include "container/resource.h"
#include "sim/environment.h"

namespace zerobak::container {

enum class WatchEventType { kAdded, kModified, kDeleted };

const char* WatchEventTypeName(WatchEventType type);

struct WatchEvent {
  WatchEventType type = WatchEventType::kAdded;
  Resource resource;
};

using WatchHandler = std::function<void(const WatchEvent&)>;

// The container platform's API server: a versioned object store with
// watch streams, standing in for the OpenShift/Kubernetes control plane.
// Watch events are delivered asynchronously through the simulation
// environment (with a small propagation delay), so controllers observe
// the same eventually-consistent behaviour as real operators do.
class ApiServer {
 public:
  ApiServer(sim::SimEnvironment* env, std::string cluster_name,
            SimDuration watch_latency = Microseconds(500));

  ApiServer(const ApiServer&) = delete;
  ApiServer& operator=(const ApiServer&) = delete;

  const std::string& cluster_name() const { return cluster_name_; }
  sim::SimEnvironment* env() { return env_; }

  // --- CRUD ----------------------------------------------------------------
  // Creates the object; fails with ALREADY_EXISTS on a key collision.
  StatusOr<Resource> Create(Resource resource);

  // Full update with optimistic concurrency: `resource.resource_version`
  // must match the stored version, otherwise ABORTED (conflict). Bumps the
  // generation when the spec changed. An update that changes none of
  // spec, status, labels and annotations returns the stored object as is:
  // no version bump, no write counted and no watch event (a controller's
  // periodic resync rewrites unchanged objects).
  StatusOr<Resource> Update(Resource resource);

  // Status-only update (spec/labels/annotations of the stored object are
  // kept); same concurrency rule, and an unchanged status is a no-op.
  StatusOr<Resource> UpdateStatus(Resource resource);

  StatusOr<Resource> Get(const std::string& kind, const std::string& ns,
                         const std::string& name) const;
  bool Exists(const std::string& kind, const std::string& ns,
              const std::string& name) const;

  // Lists objects of a kind; `ns` empty lists across all namespaces.
  std::vector<Resource> List(const std::string& kind,
                             const std::string& ns = "") const;
  std::vector<Resource> ListWithLabel(const std::string& kind,
                                      const std::string& key,
                                      const std::string& value) const;

  Status Delete(const std::string& kind, const std::string& ns,
                const std::string& name);

  // --- Watches ---------------------------------------------------------------
  // Registers a handler for all events on `kind`. Returns a watch id.
  // On registration, synthetic kAdded events for existing objects are
  // delivered (informer-style initial list).
  uint64_t Watch(const std::string& kind, WatchHandler handler);
  void StopWatch(uint64_t watch_id);

  // --- Convenience ----------------------------------------------------------
  // Read-modify-write helper that retries on conflict (up to 5 times).
  Status Mutate(const std::string& kind, const std::string& ns,
                const std::string& name,
                const std::function<void(Resource*)>& mutator);

  uint64_t writes() const { return writes_; }
  uint64_t events_delivered() const { return events_delivered_; }

 private:
  void Publish(WatchEventType type, const Resource& resource);

  sim::SimEnvironment* env_;
  std::string cluster_name_;
  SimDuration watch_latency_;

  std::map<std::string, Resource> objects_;  // by Key().
  uint64_t next_version_ = 1;

  struct WatchRegistration {
    std::string kind;
    WatchHandler handler;
    bool active = true;
  };
  std::map<uint64_t, WatchRegistration> watches_;
  uint64_t next_watch_id_ = 1;

  uint64_t writes_ = 0;
  uint64_t events_delivered_ = 0;
};

}  // namespace zerobak::container

#endif  // ZEROBAK_CONTAINER_API_SERVER_H_

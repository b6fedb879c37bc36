#include "container/api_server.h"

#include <utility>

#include "common/logging.h"

namespace zerobak::container {

const char* WatchEventTypeName(WatchEventType type) {
  switch (type) {
    case WatchEventType::kAdded:
      return "ADDED";
    case WatchEventType::kModified:
      return "MODIFIED";
    case WatchEventType::kDeleted:
      return "DELETED";
  }
  return "?";
}

ApiServer::ApiServer(sim::SimEnvironment* env, std::string cluster_name,
                     SimDuration watch_latency)
    : env_(env),
      cluster_name_(std::move(cluster_name)),
      watch_latency_(watch_latency) {}

StatusOr<Resource> ApiServer::Create(Resource resource) {
  if (resource.kind.empty() || resource.name.empty()) {
    return InvalidArgumentError("resource needs kind and name");
  }
  const std::string key = resource.Key();
  if (objects_.contains(key)) {
    return AlreadyExistsError(key + " already exists in cluster " +
                              cluster_name_);
  }
  resource.resource_version = next_version_++;
  resource.generation = 1;
  objects_.emplace(key, resource);
  ++writes_;
  Publish(WatchEventType::kAdded, resource);
  return resource;
}

StatusOr<Resource> ApiServer::Update(Resource resource) {
  const std::string key = resource.Key();
  auto it = objects_.find(key);
  if (it == objects_.end()) return NotFoundError(key);
  if (resource.resource_version != it->second.resource_version) {
    return AbortedError("conflict on " + key + ": stale resource version " +
                        std::to_string(resource.resource_version));
  }
  const Resource& stored = it->second;
  if (resource.spec == stored.spec && resource.status == stored.status &&
      resource.labels == stored.labels &&
      resource.annotations == stored.annotations) {
    return stored;  // No-op write: no version bump, no watch event.
  }
  resource.generation = stored.generation;
  if (!(resource.spec == stored.spec)) ++resource.generation;
  resource.resource_version = next_version_++;
  it->second = resource;
  ++writes_;
  Publish(WatchEventType::kModified, resource);
  return resource;
}

StatusOr<Resource> ApiServer::UpdateStatus(Resource resource) {
  const std::string key = resource.Key();
  auto it = objects_.find(key);
  if (it == objects_.end()) return NotFoundError(key);
  if (resource.resource_version != it->second.resource_version) {
    return AbortedError("conflict on " + key + " (status): stale version");
  }
  if (resource.status == it->second.status) return it->second;  // No-op.
  Resource updated = it->second;  // Keep spec/labels/annotations.
  updated.status = resource.status;
  updated.resource_version = next_version_++;
  it->second = updated;
  ++writes_;
  Publish(WatchEventType::kModified, updated);
  return updated;
}

StatusOr<Resource> ApiServer::Get(const std::string& kind,
                                  const std::string& ns,
                                  const std::string& name) const {
  auto it = objects_.find(Resource::MakeKey(kind, ns, name));
  if (it == objects_.end()) {
    return NotFoundError(Resource::MakeKey(kind, ns, name) +
                         " not found in cluster " + cluster_name_);
  }
  return it->second;
}

bool ApiServer::Exists(const std::string& kind, const std::string& ns,
                       const std::string& name) const {
  return objects_.contains(Resource::MakeKey(kind, ns, name));
}

std::vector<Resource> ApiServer::List(const std::string& kind,
                                      const std::string& ns) const {
  std::vector<Resource> out;
  // Keys are "kind/ns/name", so a prefix scan over the ordered map finds
  // all objects of a kind.
  const std::string prefix = kind + "/";
  for (auto it = objects_.lower_bound(prefix);
       it != objects_.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    if (!ns.empty() && it->second.ns != ns) continue;
    out.push_back(it->second);
  }
  return out;
}

std::vector<Resource> ApiServer::ListWithLabel(const std::string& kind,
                                               const std::string& key,
                                               const std::string& value) const {
  std::vector<Resource> out;
  for (const Resource& r : List(kind)) {
    auto it = r.labels.find(key);
    if (it != r.labels.end() && it->second == value) out.push_back(r);
  }
  return out;
}

Status ApiServer::Delete(const std::string& kind, const std::string& ns,
                         const std::string& name) {
  auto it = objects_.find(Resource::MakeKey(kind, ns, name));
  if (it == objects_.end()) {
    return NotFoundError(Resource::MakeKey(kind, ns, name));
  }
  Resource removed = it->second;
  objects_.erase(it);
  ++writes_;
  Publish(WatchEventType::kDeleted, removed);
  return OkStatus();
}

uint64_t ApiServer::Watch(const std::string& kind, WatchHandler handler) {
  const uint64_t id = next_watch_id_++;
  watches_.emplace(id, WatchRegistration{kind, std::move(handler), true});
  // Informer semantics: replay existing objects as ADDED events.
  for (const Resource& r : List(kind)) {
    env_->Schedule(watch_latency_, [this, id, r] {
      auto it = watches_.find(id);
      if (it == watches_.end() || !it->second.active) return;
      ++events_delivered_;
      it->second.handler(WatchEvent{WatchEventType::kAdded, r});
    });
  }
  return id;
}

void ApiServer::StopWatch(uint64_t watch_id) {
  auto it = watches_.find(watch_id);
  if (it != watches_.end()) it->second.active = false;
}

Status ApiServer::Mutate(const std::string& kind, const std::string& ns,
                         const std::string& name,
                         const std::function<void(Resource*)>& mutator) {
  for (int attempt = 0; attempt < 5; ++attempt) {
    auto current = Get(kind, ns, name);
    if (!current.ok()) return current.status();
    Resource r = std::move(current).value();
    mutator(&r);
    auto updated = Update(std::move(r));
    if (updated.ok()) return OkStatus();
    if (updated.status().code() != StatusCode::kAborted) {
      return updated.status();
    }
  }
  return AbortedError("Mutate: persistent conflict on " +
                      Resource::MakeKey(kind, ns, name));
}

void ApiServer::Publish(WatchEventType type, const Resource& resource) {
  for (auto& [id, reg] : watches_) {
    if (!reg.active || reg.kind != resource.kind) continue;
    const uint64_t watch_id = id;
    env_->Schedule(watch_latency_, [this, watch_id, type, resource] {
      auto it = watches_.find(watch_id);
      if (it == watches_.end() || !it->second.active) return;
      ++events_delivered_;
      it->second.handler(WatchEvent{type, resource});
    });
  }
}

}  // namespace zerobak::container

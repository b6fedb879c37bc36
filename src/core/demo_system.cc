#include "core/demo_system.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace zerobak::core {

using container::Resource;

DemoSystem::DemoSystem(sim::SimEnvironment* env, DemoSystemConfig config)
    : env_(env), config_(std::move(config)) {
  main_site_ = std::make_unique<Site>(env_, "main", config_.main_array);
  backup_site_ =
      std::make_unique<Site>(env_, "backup", config_.backup_array);

  sim::NetworkLinkConfig forward = config_.link;
  sim::NetworkLinkConfig reverse = config_.link;
  reverse.seed = config_.link.seed + 1;
  to_backup_ = std::make_unique<sim::NetworkLink>(env_, forward,
                                                  "main->backup");
  to_main_ = std::make_unique<sim::NetworkLink>(env_, reverse,
                                                "backup->main");

  engine_ = std::make_unique<replication::ReplicationEngine>(
      env_, main_site_->array(), backup_site_->array(), to_backup_.get(),
      to_main_.get(), config_.engine);

  // Observability bundle: one registry + trace ring for the whole system,
  // fed by the engine, every group's journals, both arrays' volume
  // footprints and both links, plus the continuous RPO/RTO sampler.
  metrics_ = std::make_unique<obs::MetricRegistry>();
  trace_ = std::make_unique<obs::TraceRing>();
  engine_->AttachObservability(metrics_.get(), trace_.get());
  main_site_->array()->AttachObservability(metrics_.get(), "storage.main");
  backup_site_->array()->AttachObservability(metrics_.get(),
                                             "storage.backup");
  if (config_.enable_scrub) {
    ZB_CHECK(engine_->EnableScrubbing(config_.scrub).ok());
  }
  auto wire_link = [this](sim::NetworkLink* link, const std::string& prefix,
                          uint64_t trace_id) {
    sim::NetworkLink::Instruments ins;
    ins.messages = metrics_->GetCounter(prefix + ".messages");
    ins.wire_bytes = metrics_->GetCounter(prefix + ".wire_bytes");
    ins.dropped = metrics_->GetCounter(prefix + ".dropped");
    ins.send_failures = metrics_->GetCounter(prefix + ".send_failures");
    link->AttachObservability(ins, trace_.get(), trace_id);
  };
  wire_link(to_backup_.get(), "link.to_backup", kTraceIdLinkToBackup);
  wire_link(to_main_.get(), "link.to_main", kTraceIdLinkToMain);
  rpo_tracker_ = std::make_unique<obs::RpoTracker>(
      env_,
      [this] {
        std::vector<obs::RpoTracker::GroupSample> samples;
        for (replication::GroupId id : engine_->ListGroups()) {
          auto rpo = engine_->GroupRpo(id);
          if (rpo.ok()) samples.push_back({id, *rpo});
        }
        return samples;
      },
      config_.rpo_sample_interval > 0 ? config_.rpo_sample_interval
                                      : Milliseconds(10));
  if (config_.rpo_sample_interval > 0) rpo_tracker_->Start();

  // Storage classes on both clusters.
  for (Site* site : {main_site_.get(), backup_site_.get()}) {
    Resource sc;
    sc.kind = container::kKindStorageClass;
    sc.name = config_.storage_class;
    sc.spec["provisioner"] = csi::kProvisionerName;
    sc.spec["arraySerial"] = site->array()->serial();
    ZB_CHECK(site->api()->Create(std::move(sc)).ok());
  }

  // Main-site controllers: CSI provisioner, the namespace operator, and
  // the replication plugin.
  auto* main_mgr = main_site_->cluster()->controllers();
  main_mgr->Register(
      std::make_unique<csi::Provisioner>(main_site_->array()));
  auto nso = std::make_unique<nso::NamespaceOperator>(config_.nso);
  nso_ = nso.get();
  main_mgr->Register(std::move(nso));
  main_mgr->Register(std::make_unique<csi::ReplicationGroupController>(
      engine_.get(), main_site_->array(), backup_site_->array(),
      backup_site_->api()));
  main_mgr->EnableResync(config_.resync_interval);

  // Backup-site controllers: provisioner (for analytics claims) and the
  // snapshot-group plugin.
  auto* backup_mgr = backup_site_->cluster()->controllers();
  backup_mgr->Register(
      std::make_unique<csi::Provisioner>(backup_site_->array()));
  backup_mgr->Register(std::make_unique<csi::SnapshotGroupController>(
      backup_site_->snapshots(), backup_site_->array()));
  backup_mgr->Register(
      std::make_unique<csi::SnapshotScheduleController>(env_));
  backup_mgr->EnableResync(config_.resync_interval);
}

Status DemoSystem::CreateBusinessNamespace(const std::string& ns) {
  Resource r;
  r.kind = container::kKindNamespace;
  r.name = ns;
  auto created = main_site_->api()->Create(std::move(r));
  return created.ok() ? OkStatus() : created.status();
}

Status DemoSystem::CreatePvc(const std::string& ns,
                             const std::string& pvc_name,
                             uint64_t capacity_bytes) {
  Resource pvc;
  pvc.kind = container::kKindPersistentVolumeClaim;
  pvc.ns = ns;
  pvc.name = pvc_name;
  pvc.spec["storageClassName"] = config_.storage_class;
  pvc.spec["capacityBytes"] = static_cast<int64_t>(capacity_bytes);
  pvc.status["phase"] = "Pending";
  auto created = main_site_->api()->Create(std::move(pvc));
  return created.ok() ? OkStatus() : created.status();
}

Status DemoSystem::TagNamespaceForBackup(const std::string& ns) {
  return main_site_->api()->Mutate(
      container::kKindNamespace, "", ns, [this](Resource* r) {
        r->annotations[config_.nso.policy_annotation] =
            config_.nso.trigger_value;
      });
}

Status DemoSystem::UntagNamespace(const std::string& ns) {
  return main_site_->api()->Mutate(
      container::kKindNamespace, "", ns, [this](Resource* r) {
        r->annotations.erase(config_.nso.policy_annotation);
      });
}

bool DemoSystem::BackupConfigured(const std::string& ns) {
  auto vrg = main_site_->api()->Get(container::kKindVolumeReplicationGroup,
                                    ns, nso::NamespaceOperator::VrgName(ns));
  if (!vrg.ok() || vrg->StatusPhase() != "Replicating") return false;
  const Value* pairs = vrg->status.Find("pairs");
  if (pairs == nullptr || !pairs->is_object()) return false;

  // Every bound PVC of the namespace must be covered by a pair.
  size_t bound_pvcs = 0;
  for (const Resource& pvc : main_site_->api()->List(
           container::kKindPersistentVolumeClaim, ns)) {
    if (pvc.spec.GetString("volumeName").empty()) continue;
    ++bound_pvcs;
  }
  if (bound_pvcs == 0 || pairs->AsObject().size() < bound_pvcs) {
    return false;
  }

  // And all initial copies must have completed.
  for (const auto& [handle, rec] : pairs->AsObject()) {
    const auto pair_id =
        static_cast<replication::PairId>(rec.GetInt("pairId"));
    const replication::Pair* pair = engine_->GetPair(pair_id);
    if (pair == nullptr ||
        pair->state() != replication::PairState::kPaired) {
      return false;
    }
  }
  return true;
}

Status DemoSystem::WaitForBackupConfigured(const std::string& ns,
                                           SimDuration timeout) {
  const SimTime deadline = env_->now() + timeout;
  while (env_->now() < deadline) {
    if (BackupConfigured(ns)) return OkStatus();
    env_->RunFor(Milliseconds(5));
  }
  return BackupConfigured(ns)
             ? OkStatus()
             : UnavailableError("backup configuration did not converge for "
                                "namespace " + ns);
}

StatusOr<std::vector<replication::GroupId>> DemoSystem::ReplicationGroupsOf(
    const std::string& ns) {
  ZB_ASSIGN_OR_RETURN(
      Resource vrg,
      main_site_->api()->Get(container::kKindVolumeReplicationGroup, ns,
                             nso::NamespaceOperator::VrgName(ns)));
  const Value* groups = vrg.status.Find("groups");
  if (groups == nullptr || !groups->is_array() ||
      groups->AsArray().empty()) {
    return NotFoundError("namespace " + ns + " has no consistency group");
  }
  std::vector<replication::GroupId> out;
  for (const Value& g : groups->AsArray()) {
    out.push_back(static_cast<replication::GroupId>(g.AsInt()));
  }
  return out;
}

StatusOr<replication::GroupId> DemoSystem::ReplicationGroupOf(
    const std::string& ns) {
  ZB_ASSIGN_OR_RETURN(auto groups, ReplicationGroupsOf(ns));
  return groups.front();
}

Status DemoSystem::CreateSnapshotGroupCr(const std::string& ns,
                                         const std::string& group_name) {
  Resource vsg;
  vsg.kind = container::kKindVolumeSnapshotGroup;
  vsg.ns = ns;
  vsg.name = group_name;
  vsg.spec["pvcNamespace"] = ns;
  auto created = backup_site_->api()->Create(std::move(vsg));
  return created.ok() ? OkStatus() : created.status();
}

Status DemoSystem::CreateSnapshotSchedule(const std::string& ns,
                                          const std::string& schedule_name,
                                          SimDuration interval,
                                          int64_t retain) {
  Resource schedule;
  schedule.kind = container::kKindSnapshotSchedule;
  schedule.ns = ns;
  schedule.name = schedule_name;
  schedule.spec["pvcNamespace"] = ns;
  schedule.spec["intervalMs"] = interval / kMillisecond;
  schedule.spec["retain"] = retain;
  auto created = backup_site_->api()->Create(std::move(schedule));
  return created.ok() ? OkStatus() : created.status();
}

bool DemoSystem::SnapshotGroupReady(const std::string& ns,
                                    const std::string& group_name) {
  auto vsg = backup_site_->api()->Get(container::kKindVolumeSnapshotGroup,
                                      ns, group_name);
  return vsg.ok() && vsg->StatusPhase() == "Ready";
}

Status DemoSystem::WaitForSnapshotGroup(const std::string& ns,
                                        const std::string& group_name,
                                        SimDuration timeout) {
  const SimTime deadline = env_->now() + timeout;
  while (env_->now() < deadline) {
    if (SnapshotGroupReady(ns, group_name)) return OkStatus();
    env_->RunFor(Milliseconds(5));
  }
  return SnapshotGroupReady(ns, group_name)
             ? OkStatus()
             : UnavailableError("snapshot group " + group_name +
                                " did not become ready");
}

StatusOr<storage::VolumeId> DemoSystem::ResolveMainVolume(
    const std::string& ns, const std::string& pvc_name) {
  ZB_ASSIGN_OR_RETURN(
      Resource pvc,
      main_site_->api()->Get(container::kKindPersistentVolumeClaim, ns,
                             pvc_name));
  const std::string pv_name = pvc.spec.GetString("volumeName");
  if (pv_name.empty()) {
    return FailedPreconditionError("PVC " + pvc_name + " is unbound");
  }
  ZB_ASSIGN_OR_RETURN(Resource pv,
                      main_site_->api()->Get(
                          container::kKindPersistentVolume, "", pv_name));
  ZB_ASSIGN_OR_RETURN(auto parsed,
                      storage::StorageArray::ParseVolumeHandle(
                          pv.spec.GetString("volumeHandle")));
  return parsed.second;
}

StatusOr<storage::VolumeId> DemoSystem::ResolveBackupVolume(
    const std::string& ns, const std::string& pvc_name) {
  ZB_ASSIGN_OR_RETURN(
      Resource pvc,
      backup_site_->api()->Get(container::kKindPersistentVolumeClaim, ns,
                               pvc_name));
  const std::string pv_name = pvc.spec.GetString("volumeName");
  if (pv_name.empty()) {
    return FailedPreconditionError("backup PVC " + pvc_name + " is unbound");
  }
  ZB_ASSIGN_OR_RETURN(Resource pv,
                      backup_site_->api()->Get(
                          container::kKindPersistentVolume, "", pv_name));
  ZB_ASSIGN_OR_RETURN(auto parsed,
                      storage::StorageArray::ParseVolumeHandle(
                          pv.spec.GetString("volumeHandle")));
  return parsed.second;
}

StatusOr<snapshot::CowSnapshot*> DemoSystem::ResolveSnapshot(
    const std::string& ns, const std::string& group_name,
    const std::string& pvc_name) {
  ZB_ASSIGN_OR_RETURN(storage::VolumeId backup_volume,
                      ResolveBackupVolume(ns, pvc_name));
  const std::string source_handle =
      backup_site_->array()->VolumeHandle(backup_volume);
  for (const Resource& vs : backup_site_->api()->List(
           container::kKindVolumeSnapshot, ns)) {
    if (vs.spec.GetString("groupName") != group_name) continue;
    if (vs.spec.GetString("sourceHandle") != source_handle) continue;
    ZB_ASSIGN_OR_RETURN(
        snapshot::SnapshotId sid,
        csi::SnapshotGroupController::ParseSnapshotHandle(
            backup_site_->array()->serial(),
            vs.status.GetString("snapshotHandle")));
    snapshot::CowSnapshot* snap =
        backup_site_->snapshots()->GetSnapshot(sid);
    if (snap == nullptr) {
      return NotFoundError("snapshot object vanished");
    }
    return snap;
  }
  return NotFoundError("no snapshot of " + pvc_name + " in group " +
                       group_name);
}

void DemoSystem::RepairMainSite() {
  main_site_->array()->SetFailed(false);
  to_backup_->SetConnected(true);
  to_main_->SetConnected(true);
}

StatusOr<replication::FailbackReport> DemoSystem::Failback(
    const std::string& ns, bool force) {
  ZB_ASSIGN_OR_RETURN(auto groups, ReplicationGroupsOf(ns));
  replication::FailbackReport merged;
  for (replication::GroupId group : groups) {
    ZB_ASSIGN_OR_RETURN(replication::FailbackReport report,
                        engine_->FailbackGroup(group, force));
    merged.blocks_shipped += report.blocks_shipped;
    merged.conflicts_overwritten += report.conflicts_overwritten;
  }
  return merged;
}

void DemoSystem::FailMainSite() {
  main_site_->array()->SetFailed(true);
  to_backup_->SetConnected(false);
  to_main_->SetConnected(false);
  // RTO clock: the disaster starts every group's outage; a later Failover
  // marks the service restored on the backup site.
  for (replication::GroupId id : engine_->ListGroups()) {
    rpo_tracker_->BeginOutage(id);
  }
}

StatusOr<replication::FailoverReport> DemoSystem::Failover(
    const std::string& ns) {
  ZB_ASSIGN_OR_RETURN(auto groups, ReplicationGroupsOf(ns));
  replication::FailoverReport merged;
  bool first = true;
  for (replication::GroupId group : groups) {
    ZB_ASSIGN_OR_RETURN(replication::FailoverReport report,
                        engine_->FailoverGroup(group));
    rpo_tracker_->CompleteRecovery(group);
    if (first) {
      merged = report;
      first = false;
    } else {
      merged.lost_records += report.lost_records;
      merged.recovery_point_time =
          std::min(merged.recovery_point_time, report.recovery_point_time);
      merged.recovery_point = 0;  // Meaningless across journals.
    }
  }
  return merged;
}

}  // namespace zerobak::core

#ifndef ZEROBAK_CORE_DEMO_SYSTEM_H_
#define ZEROBAK_CORE_DEMO_SYSTEM_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/site.h"
#include "csi/provisioner.h"
#include "csi/replication_controller.h"
#include "csi/schedule_controller.h"
#include "csi/snapshot_controller.h"
#include "nso/namespace_operator.h"
#include "obs/metrics.h"
#include "obs/rpo.h"
#include "obs/trace.h"
#include "replication/replication.h"
#include "replication/scrubber.h"
#include "sim/network.h"

namespace zerobak::core {

struct DemoSystemConfig {
  storage::ArrayConfig main_array{.serial = "G370-MAIN", .media = {}};
  storage::ArrayConfig backup_array{.serial = "G370-BKUP", .media = {}};
  sim::NetworkLinkConfig link;
  nso::NamespaceOperatorConfig nso;
  // Controller resync interval (the level-triggered safety net).
  SimDuration resync_interval = Milliseconds(50);
  std::string storage_class = "zerobak-fast";
  // Continuous RPO sampling cadence; 0 leaves the tracker stopped (the
  // instruments stay attached either way).
  SimDuration rpo_sample_interval = Milliseconds(10);
  // Passed through to the replication engine (compute lane count).
  replication::EngineOptions engine;
  // Background at-rest integrity scrubbing (DESIGN.md §4c). Off by
  // default: scrub is a robustness feature the demos opt into, and
  // leaving it off keeps scenarios that predate it bit-identical.
  bool enable_scrub = false;
  replication::ScrubConfig scrub;
};

// The complete demonstration system of Section IV: a main site and a
// backup site (container platform + storage array each), the inter-array
// replication links, the namespace operator and the storage plugins —
// wired exactly like Fig. 1. The public methods correspond to the actions
// a user performs on the web consoles.
class DemoSystem {
 public:
  DemoSystem(sim::SimEnvironment* env, DemoSystemConfig config = {});

  DemoSystem(const DemoSystem&) = delete;
  DemoSystem& operator=(const DemoSystem&) = delete;

  sim::SimEnvironment* env() { return env_; }
  Site* main_site() { return main_site_.get(); }
  Site* backup_site() { return backup_site_.get(); }
  replication::ReplicationEngine* replication() { return engine_.get(); }
  sim::NetworkLink* link_to_backup() { return to_backup_.get(); }
  sim::NetworkLink* link_to_main() { return to_main_.get(); }
  nso::NamespaceOperator* namespace_operator() { return nso_; }

  // --- Observability ---------------------------------------------------------
  // The system-wide metric registry, trace ring and RPO/RTO tracker; the
  // engine, both journals of every group and both links feed them.
  obs::MetricRegistry* metrics() { return metrics_.get(); }
  obs::TraceRing* trace() { return trace_.get(); }
  obs::RpoTracker* rpo_tracker() { return rpo_tracker_.get(); }
  // Trace subject ids of the inter-site links (kLinkUp/kLinkDown events).
  static constexpr uint64_t kTraceIdLinkToBackup = 1;
  static constexpr uint64_t kTraceIdLinkToMain = 2;

  // --- Deploying the business process (Section II) --------------------------
  Status CreateBusinessNamespace(const std::string& ns);
  // Creates a PVC in the namespace; the provisioner binds it.
  Status CreatePvc(const std::string& ns, const std::string& pvc_name,
                   uint64_t capacity_bytes);

  // --- Demo step 1: backup configuration (Figs. 3-4) -------------------------
  // The single user action: tag the namespace. The namespace operator
  // does everything else.
  Status TagNamespaceForBackup(const std::string& ns);
  Status UntagNamespace(const std::string& ns);

  // True once the VRG reports Replicating, every PVC of the namespace has
  // a pair, and all initial copies finished.
  bool BackupConfigured(const std::string& ns);
  // Pumps the simulation until BackupConfigured or the timeout elapses.
  Status WaitForBackupConfigured(const std::string& ns,
                                 SimDuration timeout = Seconds(30));
  // The consistency group protecting the namespace (the first one, in the
  // paper's configuration the only one).
  StatusOr<replication::GroupId> ReplicationGroupOf(const std::string& ns);
  // All groups protecting the namespace (one per volume in the perVolume
  // ablation).
  StatusOr<std::vector<replication::GroupId>> ReplicationGroupsOf(
      const std::string& ns);

  // --- Demo step 2: snapshot development (Fig. 5) ---------------------------
  // Creates a VolumeSnapshotGroup CR on the backup cluster covering every
  // replicated PVC of the namespace.
  Status CreateSnapshotGroupCr(const std::string& ns,
                               const std::string& group_name);
  // Declares a recurring snapshot policy on the backup cluster: every
  // `interval`, a snapshot group of the namespace's PVCs is taken and at
  // most `retain` generations are kept.
  Status CreateSnapshotSchedule(const std::string& ns,
                                const std::string& schedule_name,
                                SimDuration interval, int64_t retain);
  bool SnapshotGroupReady(const std::string& ns,
                          const std::string& group_name);
  Status WaitForSnapshotGroup(const std::string& ns,
                              const std::string& group_name,
                              SimDuration timeout = Seconds(30));

  // --- Volume resolution (for opening databases) -----------------------------
  StatusOr<storage::VolumeId> ResolveMainVolume(const std::string& ns,
                                                const std::string& pvc_name);
  StatusOr<storage::VolumeId> ResolveBackupVolume(
      const std::string& ns, const std::string& pvc_name);
  // The snapshot of a PVC's backup volume within a snapshot group.
  StatusOr<snapshot::CowSnapshot*> ResolveSnapshot(
      const std::string& ns, const std::string& group_name,
      const std::string& pvc_name);

  // --- Disaster recovery -----------------------------------------------------
  // Main site disaster: the array fails and the inter-site links drop.
  void FailMainSite();
  // Takes over the namespace's replication group(s) on the backup site.
  // With multiple groups (perVolume ablation) the report aggregates:
  // lost_records are summed and recovery_point_time is the oldest group's.
  StatusOr<replication::FailoverReport> Failover(const std::string& ns);

  // Repairs the main site (clears the array failure, reconnects links).
  void RepairMainSite();

  // Gives the namespace back to the repaired main site: ships the
  // backup-side delta, re-protects the backup volumes, resumes forward
  // replication. See ReplicationEngine::FailbackGroup for semantics.
  StatusOr<replication::FailbackReport> Failback(const std::string& ns,
                                                 bool force = false);

 private:
  sim::SimEnvironment* env_;
  DemoSystemConfig config_;
  std::unique_ptr<Site> main_site_;
  std::unique_ptr<Site> backup_site_;
  std::unique_ptr<sim::NetworkLink> to_backup_;
  std::unique_ptr<sim::NetworkLink> to_main_;
  std::unique_ptr<replication::ReplicationEngine> engine_;
  std::unique_ptr<obs::MetricRegistry> metrics_;
  std::unique_ptr<obs::TraceRing> trace_;
  std::unique_ptr<obs::RpoTracker> rpo_tracker_;
  nso::NamespaceOperator* nso_ = nullptr;  // Owned by the cluster manager.
};

}  // namespace zerobak::core

#endif  // ZEROBAK_CORE_DEMO_SYSTEM_H_

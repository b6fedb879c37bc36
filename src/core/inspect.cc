#include "core/inspect.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <sstream>

namespace zerobak::core {

namespace {

void AppendLine(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out->append(buf);
  out->push_back('\n');
}

}  // namespace

std::string DescribeSite(Site* site) {
  std::string out;
  AppendLine(&out, "site %s", site->name().c_str());

  // Cluster: object counts per kind.
  AppendLine(&out, "  cluster objects:");
  static const char* kKinds[] = {
      container::kKindNamespace,
      container::kKindPersistentVolumeClaim,
      container::kKindPersistentVolume,
      container::kKindStorageClass,
      container::kKindVolumeReplicationGroup,
      container::kKindVolumeSnapshotGroup,
      container::kKindVolumeSnapshot,
      container::kKindSnapshotSchedule,
  };
  for (const char* kind : kKinds) {
    const size_t n = site->api()->List(kind).size();
    if (n > 0) AppendLine(&out, "    %-26s %zu", kind, n);
  }

  // Array: volumes + journals + host IO.
  storage::StorageArray* array = site->array();
  AppendLine(&out, "  array %s%s: %zu volumes, %zu journals",
             array->serial().c_str(), array->failed() ? " [FAILED]" : "",
             array->volume_count(), array->ListJournals().size());
  uint64_t slab_bytes = 0;
  uint64_t written_bytes = 0;
  for (storage::VolumeId id : array->ListVolumes()) {
    const storage::Volume* vol = array->GetVolume(id);
    slab_bytes += vol->store().slab_bytes();
    written_bytes += vol->store().allocated_blocks() * vol->block_size();
    AppendLine(&out, "    vol %-3" PRIu64 " %-24s %8" PRIu64
                     " blocks (%" PRIu64 " allocated)%s",
               id, vol->name().c_str(), vol->block_count(),
               vol->store().allocated_blocks(),
               array->HasInterceptor(id) ? " [replicated]" : "");
    const block::MemVolume& store = vol->store();
    if (store.blocks_verified() > 0 || store.media_errors() > 0 ||
        store.checksum_failures() > 0 || store.bit_flips() > 0) {
      AppendLine(&out,
                 "        integrity: scrubbed=%" PRIu64 " media_err=%" PRIu64
                 " crc_fail=%" PRIu64 " bit_flips=%" PRIu64,
                 store.blocks_verified(), store.media_errors(),
                 store.checksum_failures(), store.bit_flips());
    }
  }
  // The in-memory footprint: written blocks and the slabs that hold them.
  AppendLine(&out, "    volume slabs %.2f MiB / written %.2f MiB",
             static_cast<double>(slab_bytes) / (1 << 20),
             static_cast<double>(written_bytes) / (1 << 20));
  for (storage::PoolId pid : array->ListPools()) {
    const storage::StoragePool* pool = array->GetPool(pid);
    AppendLine(&out,
               "    pool %-3" PRIu64 " %-20s used=%" PRIu64 "/%" PRIu64
               " blocks%s",
               pid, pool->name().c_str(), pool->used_blocks(),
               pool->capacity_blocks(),
               pool->allocation_failures() > 0 ? " [EXHAUSTED]" : "");
  }
  for (storage::JournalId jid : array->ListJournals()) {
    const journal::JournalVolume* jnl =
        const_cast<storage::StorageArray*>(array)->GetJournal(jid);
    AppendLine(&out,
               "    jnl %-3" PRIu64 " used=%" PRIu64 "B/%" PRIu64
               "B written=%" PRIu64 " applied=%" PRIu64 "%s",
               jid, jnl->used_bytes(), jnl->capacity_bytes(),
               jnl->written(), jnl->applied(),
               jnl->overflows() > 0 ? " [OVERFLOWED]" : "");
  }
  AppendLine(&out,
             "    host IO: %" PRIu64 " writes (%s), %" PRIu64 " reads",
             array->host_writes(),
             array->host_write_latency().ToString().c_str(),
             array->host_reads());

  // Snapshots.
  const size_t snaps = site->snapshots()->snapshot_count();
  if (snaps > 0) {
    AppendLine(&out, "  snapshots: %zu in %zu groups", snaps,
               site->snapshots()->ListGroups().size());
  }
  return out;
}

std::string DescribeRecovery(const replication::GroupStats& stats) {
  std::string out;
  switch (stats.recovery_wait) {
    case replication::RecoveryWait::kNone:
      break;
    case replication::RecoveryWait::kLink:
      out = "recovery: waiting for link for " +
            FormatDuration(stats.recovery_age);
      break;
    case replication::RecoveryWait::kBackoff:
      out = "recovery: backoff fires in " +
            FormatDuration(stats.recovery_due_in);
      break;
    case replication::RecoveryWait::kResyncInFlight:
      out = "recovery: resync in flight for " +
            FormatDuration(stats.recovery_age) +
            (stats.recovery_due_in >= 0
                 ? ", deadline in " + FormatDuration(stats.recovery_due_in)
                 : std::string(", no deadline"));
      break;
  }
  if (stats.giveback_in_flight) {
    if (!out.empty()) out += "; ";
    out += "giveback in flight for " + FormatDuration(stats.giveback_age);
  }
  return out;
}

std::string DescribeReplication(replication::ReplicationEngine* engine) {
  std::string out;
  AppendLine(&out, "replication: %zu groups, %zu pairs",
             engine->ListGroups().size(), engine->ListPairs().size());
  const auto& sched = engine->scheduler_stats();
  AppendLine(&out,
             "  scheduler: %" PRIu64 "/%" PRIu64 " armed, arms=%" PRIu64
             " dispatches=%" PRIu64 " heartbeat_rescues=%" PRIu64
             " starved_turns=%" PRIu64,
             sched.armed_groups, sched.registered_groups, sched.arms,
             sched.dispatches, sched.heartbeat_rescues, sched.starved_turns);
  for (replication::GroupId gid : engine->ListGroups()) {
    auto stats = engine->GetGroupStats(gid);
    auto name = engine->GetGroupName(gid);
    if (!stats.ok()) continue;
    // A synchronous group's host writes still waiting for their apply
    // ack: a count and an age that keeps growing while they are stuck.
    const std::string sync_acks =
        stats->pending_sync_acks == 0
            ? std::string()
            : " sync_acks=" + std::to_string(stats->pending_sync_acks) +
                  " (oldest " + FormatDuration(stats->oldest_sync_ack_age) +
                  ")";
    AppendLine(&out,
               "  group %-3" PRIu64 " %-24s written=%" PRIu64
               " shipped=%" PRIu64 " applied=%" PRIu64
               " rpo=%s ratio=%.2f (window %.2f)%s",
               gid, name.ok() ? name->c_str() : "?", stats->written,
               stats->shipped, stats->applied,
               FormatDuration(stats->apply_lag).c_str(),
               stats->compression_ratio, stats->compression_ratio_window,
               sync_acks.c_str());
    const std::string recovery = DescribeRecovery(*stats);
    if (!recovery.empty()) AppendLine(&out, "    %s", recovery.c_str());
    if (stats->captures_borrowed > 0) {
      // The share of zero-copy captures that still paid the copy because
      // their blocks were overwritten before they shipped.
      AppendLine(&out,
                 "    capture: borrowed=%" PRIu64 " materialized=%" PRIu64
                 " (%.1f%%)",
                 stats->captures_borrowed, stats->captures_materialized,
                 100.0 * static_cast<double>(stats->captures_materialized) /
                     static_cast<double>(stats->captures_borrowed));
    }
    for (replication::PairId pid : engine->ListGroupPairs(gid)) {
      const replication::Pair* pair = engine->GetPair(pid);
      if (pair == nullptr) continue;
      AppendLine(&out, "    pair %-3" PRIu64 " %-20s [%s] dirty=%zu", pid,
                 pair->config().name.c_str(), PairStateName(pair->state()),
                 pair->dirty_blocks());
    }
  }
  return out;
}

std::string DescribeObservability(DemoSystem* system, size_t trace_tail) {
  std::string out;
  AppendLine(&out, "=== observability @ t=%s ===",
             FormatDuration(system->env()->now()).c_str());
  out += system->metrics()->ToTable();
  out += system->rpo_tracker()->ToString();
  const replication::Scrubber* scrub = system->replication()->scrubber();
  if (scrub != nullptr) {
    const replication::ScrubStats& st = scrub->stats();
    AppendLine(&out,
               "scrub: cycles=%" PRIu64 " extents=%" PRIu64
               " blocks=%" PRIu64 " crc_fail=%" PRIu64 " media_err=%" PRIu64
               " divergent=%" PRIu64 " repairs=%" PRIu64
               " restores=%" PRIu64 " deferred=%" PRIu64
               " unrecoverable=%" PRIu64,
               st.cycles_completed, st.extents_scanned, st.blocks_scanned,
               st.checksum_mismatches, st.media_errors,
               st.divergent_extents, st.repairs_scheduled,
               st.primary_restores, st.deferred_repairs,
               st.unrecoverable_extents);
  }
  obs::TraceRing* trace = system->trace();
  if (trace->size() > 0) {
    AppendLine(&out, "trace (%zu of %" PRIu64 " events%s):", trace->size(),
               trace->total_recorded(),
               trace->dropped() > 0 ? ", older dropped" : "");
    out += trace->ToString(trace_tail);
  }
  return out;
}

std::string ObservabilityJson(DemoSystem* system) {
  std::string out = "{";
  char buf[256];
  std::snprintf(buf, sizeof(buf), "\"time\": %" PRId64 ", ",
                system->env()->now());
  out += buf;
  out += "\"metrics\": ";
  out += system->metrics()->ToJson();
  out += ", \"rpo\": {";
  obs::RpoTracker* tracker = system->rpo_tracker();
  bool first_group = true;
  for (uint64_t gid : tracker->Groups()) {
    const obs::GroupRpoSeries* s = tracker->series(gid);
    if (s == nullptr) continue;
    if (!first_group) out += ", ";
    first_group = false;
    std::snprintf(buf, sizeof(buf),
                  "\"g%" PRIu64 "\": {\"samples\": %" PRIu64
                  ", \"zero_samples\": %" PRIu64 ", \"mean\": %.1f"
                  ", \"p99\": %.1f, \"max\": %" PRId64 ", \"rtos\": [",
                  gid, s->samples, s->zero_samples, s->histogram.Mean(),
                  s->histogram.Percentile(99),
                  static_cast<int64_t>(s->max_rpo));
    out += buf;
    const std::vector<SimDuration>& rtos = tracker->rtos(gid);
    for (size_t i = 0; i < rtos.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s%" PRId64, i == 0 ? "" : ", ",
                    rtos[i]);
      out += buf;
    }
    out += "]}";
  }
  out += "}";
  const replication::Scrubber* scrub = system->replication()->scrubber();
  if (scrub != nullptr) {
    const replication::ScrubStats& st = scrub->stats();
    std::snprintf(buf, sizeof(buf),
                  ", \"scrub\": {\"cycles\": %" PRIu64
                  ", \"extents\": %" PRIu64 ", \"blocks\": %" PRIu64
                  ", \"checksum_mismatches\": %" PRIu64
                  ", \"media_errors\": %" PRIu64 ", \"divergent\": %" PRIu64
                  ", \"repairs\": %" PRIu64 ", \"restores\": %" PRIu64
                  ", \"deferred\": %" PRIu64 ", \"unrecoverable\": %" PRIu64
                  "}",
                  st.cycles_completed, st.extents_scanned,
                  st.blocks_scanned, st.checksum_mismatches,
                  st.media_errors, st.divergent_extents,
                  st.repairs_scheduled, st.primary_restores,
                  st.deferred_repairs, st.unrecoverable_extents);
    out += buf;
  }
  out += "}";
  return out;
}

std::string DescribeSystem(DemoSystem* system) {
  std::string out;
  AppendLine(&out, "=== demo system @ t=%s ===",
             FormatDuration(system->env()->now()).c_str());
  out += DescribeSite(system->main_site());
  out += DescribeSite(system->backup_site());
  out += DescribeReplication(system->replication());
  AppendLine(&out,
             "links: main->backup %s (%" PRIu64 " msgs, %" PRIu64
             "B), backup->main %s",
             system->link_to_backup()->connected() ? "up" : "DOWN",
             system->link_to_backup()->messages_sent(),
             system->link_to_backup()->bytes_sent(),
             system->link_to_main()->connected() ? "up" : "DOWN");
  return out;
}

}  // namespace zerobak::core

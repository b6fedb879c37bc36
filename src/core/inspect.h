#ifndef ZEROBAK_CORE_INSPECT_H_
#define ZEROBAK_CORE_INSPECT_H_

#include <string>

#include "core/demo_system.h"

namespace zerobak::core {

// Human-readable state dump of the whole demonstration system: clusters
// (object counts per kind), arrays (volumes, journals, host IO stats),
// replication groups and pairs, snapshots. What an operator would check
// first — the `inspect` console command and the examples use it.
std::string DescribeSystem(DemoSystem* system);

// One-site variants.
std::string DescribeSite(Site* site);
std::string DescribeReplication(replication::ReplicationEngine* engine);

// A group's pending recovery work, or "" when there is none: what a
// suspended group waits for (the link and for how long, the backoff timer
// and when it fires, or a resync batch in flight with its age and loss
// deadline) and a failback giveback that has not landed, with its age.
// Stuck work shows as an age that keeps growing.
std::string DescribeRecovery(const replication::GroupStats& stats);

// Observability: the metric registry as an aligned table, the RPO/RTO
// tracker summary and the tail of the trace ring — the `metrics` and
// `trace` console commands.
std::string DescribeObservability(DemoSystem* system, size_t trace_tail = 20);

// The same data as one JSON object ({"time":..., "metrics":{...},
// "rpo":{...}}) for scripts/ to parse.
std::string ObservabilityJson(DemoSystem* system);

}  // namespace zerobak::core

#endif  // ZEROBAK_CORE_INSPECT_H_

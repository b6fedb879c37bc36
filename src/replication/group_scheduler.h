#ifndef ZEROBAK_REPLICATION_GROUP_SCHEDULER_H_
#define ZEROBAK_REPLICATION_GROUP_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>

#include "common/time.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/environment.h"
#include "sim/network.h"

namespace zerobak::replication {

using GroupSchedulerId = uint64_t;

// What one demand-driven pump of a consistency group did, reported by the
// engine back to the scheduler so it can decide whether — and when — the
// group runs again.
struct PumpOutcome {
  // A batch was handed to the link.
  bool sent = false;
  // Wire size of that batch (deficit-round-robin accounting).
  uint64_t wire_bytes = 0;
  // Unshipped records remain in the primary journal after the pump.
  bool backlog = false;
  // Re-arm at the group's next interval tick even without backlog: the
  // adaptive batch controller needs its tick cadence while shipped data
  // is still unacknowledged (that is when link backlog is measurable).
  bool keep_alive = false;
  // The group's current batch size; becomes the group's DRR quantum.
  uint64_t quantum = 0;
};

// Counters of the event-driven transfer scheduler; all cumulative except
// armed_groups/registered_groups, which are instantaneous.
struct SchedulerStats {
  uint64_t arms = 0;           // Idle -> armed transitions.
  uint64_t wakeups = 0;        // Dispatch events fired.
  uint64_t dispatches = 0;     // Pump callbacks invoked.
  uint64_t heartbeats = 0;     // Slow housekeeping ticks.
  uint64_t heartbeat_rescues = 0;  // Groups the heartbeat re-armed.
  uint64_t starved_turns = 0;  // DRR turns deferred on exhausted deficit.
  uint64_t armed_groups = 0;
  uint64_t registered_groups = 0;
};

// Demand-driven transfer scheduler for every consistency group.
//
// Every consistency group registers once; *edges* — a journal append, an
// apply-ack, a link reconnect, a resync completion — arm it, and a single
// dispatch loop pumps the armed set. An idle group costs zero simulation
// events: nothing fires until an edge arms it again.
//
// Arming keeps a periodic batching window: a group armed at time t is
// due at the next multiple of its transfer_interval (counted from
// registration), so same-window writes coalesce and fold into one
// batch. A pumped group with remaining backlog is rescheduled at
// min(next tick, wire drain): on an idle wire it drains the journal
// immediately instead of waiting out the interval, while a saturated wire
// falls back to tick cadence — which is what keeps the adaptive batch
// controller's backlog signal intact.
//
// Fairness across groups sharing the link is deficit round-robin: each
// due group's turn adds its quantum (its current batch size) to a byte
// deficit, the pump is capped by that deficit, and a group whose last
// batch overshot (PeekViews guarantees one record of progress even past
// the cap) skips turns until its deficit recovers.
//
// A single slow heartbeat — one event per engine, not per group — is the
// safety net: it re-arms any group that has unshipped backlog but lost
// its edge (e.g. the arming append happened while the primary array was
// failed). Determinism: dispatch order is the arm order, all times are
// pure functions of simulation state, and the event queue breaks
// same-instant ties FIFO.
class GroupScheduler {
 public:
  // Pumps one batch for the group, shipping at most `max_bytes`.
  using PumpFn = std::function<PumpOutcome(GroupSchedulerId, uint64_t)>;
  // Housekeeping scan: re-arm stragglers; returns how many were rescued.
  using HeartbeatFn = std::function<uint64_t()>;

  GroupScheduler(sim::SimEnvironment* env, sim::NetworkLink* link,
                 SimDuration heartbeat_interval, PumpFn pump,
                 HeartbeatFn heartbeat);
  ~GroupScheduler();

  GroupScheduler(const GroupScheduler&) = delete;
  GroupScheduler& operator=(const GroupScheduler&) = delete;

  // Adds a group to the schedulable set (initially idle). `interval` is
  // its batching window; `quantum` its starting DRR quantum.
  void Register(GroupSchedulerId id, SimDuration interval, uint64_t quantum);
  void Unregister(GroupSchedulerId id);

  // Demand edge: the group has (or may have) work. Due at its next
  // interval tick; a no-op if already armed.
  void Arm(GroupSchedulerId id);
  // Removes the group from the armed set (suspension, failover).
  void Disarm(GroupSchedulerId id);
  bool armed(GroupSchedulerId id) const;

  const SchedulerStats& stats() const { return stats_; }

  // --- Observability --------------------------------------------------------
  struct Instruments {
    obs::Counter* arms = nullptr;
    obs::Counter* wakeups = nullptr;
    obs::Counter* dispatches = nullptr;
    obs::Counter* heartbeats = nullptr;
    obs::Counter* starved_turns = nullptr;
    obs::Gauge* armed_groups = nullptr;
  };
  void AttachObservability(const Instruments& instruments,
                           obs::TraceRing* trace) {
    instruments_ = instruments;
    trace_ = trace;
    if (instruments_.armed_groups != nullptr) {
      instruments_.armed_groups->Set(
          static_cast<int64_t>(stats_.armed_groups));
    }
  }

 private:
  struct GroupState {
    SimDuration interval = 0;
    SimTime origin = 0;  // Tick phase anchor (registration instant).
    bool armed = false;
    bool in_queue = false;
    SimTime due = 0;
    int64_t deficit = 0;
    uint64_t quantum = 0;
  };

  // First interval tick strictly after `now`.
  static SimTime NextTick(const GroupState& g, SimTime now) {
    return g.origin + ((now - g.origin) / g.interval + 1) * g.interval;
  }

  void ScheduleDispatchAt(SimTime t);
  void RunRound();
  void SetArmedCount(uint64_t count);

  sim::SimEnvironment* env_;
  sim::NetworkLink* link_;
  PumpFn pump_;
  HeartbeatFn heartbeat_;
  std::unique_ptr<sim::PeriodicTask> heartbeat_task_;

  std::map<GroupSchedulerId, GroupState> groups_;
  // Armed groups in arm order; disarmed entries are dropped lazily.
  std::deque<GroupSchedulerId> run_queue_;

  bool dispatch_pending_ = false;
  SimTime dispatch_at_ = 0;
  sim::EventId dispatch_event_{};

  SchedulerStats stats_;
  Instruments instruments_;
  obs::TraceRing* trace_ = nullptr;
};

}  // namespace zerobak::replication

#endif  // ZEROBAK_REPLICATION_GROUP_SCHEDULER_H_

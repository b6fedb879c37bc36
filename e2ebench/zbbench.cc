// End-to-end benchmark for zerobak: drives the deployed core::DemoSystem
// through the namespace operator (tag a namespace, let NSO build its
// consistency group) and measures what a user of the backup system sees.
//
//   zbbench --workload <oltp_shop|hot_overwrite|outage_recovery>
//           --seed <n> --seconds <s> --trace <0|1> [--quick]
//
// A run is a series of repetitions ("reps"). Each rep builds a fresh system,
// sets it up (timed as setup_s), runs a fixed open-loop schedule in
// simulated time derived only from the seed (the measured window), drains
// and checks the result. Simulated results are identical across the reps
// of one run (checked). Reps continue until the measured windows add up to
// --seconds; host time per write and foreground latency are pooled over
// all of them, setup_s is their median.
//
// --trace 1 alternates two untraced and two traced reps: in a traced rep,
// foreground calls and every background simulation event are recorded as
// spans (name, start, end, parent, the foreground operation in progress or
// last issued) and turned into per-layer metrics. The traced run also runs
// the determinism self-check: the simulated results must match between
// repeats, between traced and untraced reps and between the chosen lane
// count and another, and must differ for another seed.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/compress.h"
#include "common/crc32c.h"
#include "common/logging.h"
#include "common/rng.h"
#include "core/demo_system.h"
#include "core/verify.h"
#include "db/minidb.h"
#include "obs/metrics.h"
#include "replication/wire.h"
#include "storage/array_device.h"
#include "workload/ecommerce.h"

namespace zb = zerobak;
using zb::SimDuration;
using zb::SimTime;
using zb::replication::GroupId;
using zb::replication::PairId;

namespace {

// Compute lanes for the engine's parallel sections, fixed so results do not
// change meaning from host to host (0 would mean "one per hardware
// thread"). On a 4-lane host 2 and 4 lanes were no faster than 1 for this
// traffic (see e2ebench/README.md), and 1 lane adds no worker threads.
constexpr unsigned kComputeThreads = 1;

constexpr uint32_t kBlock = 4096;

int64_t HostNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Host speed on a shared VM drifts by up to ~30% for minutes at a time, and
// every host time moves with it. Each rep therefore also times this fixed
// reference kernel (bench-owned: its timed loop calls nothing of the system
// under test) through its window, and host-time metrics are scaled by
// kReferenceKernelNs / the rep's median kernel time: they read as host time
// on a machine where the kernel takes kReferenceKernelNs, about its time on
// the 4-lane development VM. The kernel mixes the workload's kinds of work:
// greedy hash-match scanning over a 64 KiB buffer, 4 KiB block copies
// through a 1 MiB ring and hash-map updates.
constexpr double kReferenceKernelNs = 3.0e6;

double ReferenceNs() {
  static const std::vector<uint8_t> data = [] {
    std::vector<uint8_t> d(64 << 10);
    zb::Rng r(1);
    for (size_t i = 0; i < d.size(); i += 64) {
      if (i > 0 && r.Bernoulli(0.5)) {
        std::memcpy(&d[i], &d[r.Uniform(i / 64) * 64], 64);
      } else {
        for (size_t j = 0; j < 64; ++j) d[i + j] = uint8_t(r.Next());
      }
    }
    return d;
  }();
  // Allocated once, so the kernel never page-faults.
  static std::vector<uint32_t> table(1 << 12);
  static std::vector<char> ring(1 << 20);
  static std::unordered_map<uint64_t, uint64_t> map;
  map.clear();
  const int64_t t0 = HostNs();
  uint64_t acc = 0;
  for (int pass = 0; pass < 20; ++pass) {
    std::fill(table.begin(), table.end(), 0);
    for (size_t i = 0; i + 8 < data.size();) {
      uint32_t v;
      std::memcpy(&v, &data[i], 4);
      const uint32_t h = (v * 2654435761u) >> 20;
      const uint32_t cand = table[h];
      table[h] = uint32_t(i);
      if (cand < i && std::memcmp(&data[cand], &data[i], 4) == 0) {
        size_t len = 4;
        while (i + len < data.size() && data[cand + len] == data[i + len]) {
          ++len;
        }
        acc += len;
        i += len;
      } else {
        acc += data[i++];
      }
    }
    for (size_t off = 0; off < ring.size(); off += 4096) {
      std::memcpy(&ring[off], &data[(off + pass * 4096) % (data.size() - 4096)],
                  4096);
    }
    for (uint64_t k = 0; k < 512; ++k) map[(k * 7919 + pass) % 1021] += k;
    acc += map.size() + uint8_t(ring[pass * 97]);
  }
  volatile uint64_t keep = acc;
  (void)keep;
  return double(HostNs() - t0);
}

double PeakRssMib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

// Exact percentile (linear interpolation between closest ranks).
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

uint64_t MixDouble(uint64_t h, double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return Mix(h, bits);
}

// ---- Spans ------------------------------------------------------------------

enum SpanName : uint8_t {
  kSpPlaceOrder,     // EcommerceApp::PlaceOrder (foreground op).
  kSpStorageWrite,   // StorageArray::WriteSync (direct or via the DB device).
  kSpFailbackCall,   // DemoSystem::Failback (captures the giveback).
  kSpVerify,         // core::VerifyLatestScheduled.
  kSpEvShip,         // Event that shipped journal batches.
  kSpEvApply,        // Event that applied records on the backup.
  kSpEvAck,          // Event that processed apply acks.
  kSpEvResync,       // Resync capture or resync delivery.
  kSpEvFailback,     // Unclassified event while a giveback is in flight.
  kSpEvScrub,        // Scrubber step.
  kSpEvIdleDispatch, // Scheduler dispatch that shipped nothing.
  kSpEvOther,        // Controllers, RPO sampling, timers, link edges.
  kSpEncode,         // Codec replay of shipped batches (bench-side work).
  kSpDecode,
  kSpCompress,
  kSpDecompress,
  kSpCrc,
  kSpCount
};

const char* SpanNameStr(SpanName n) {
  static const char* kNames[] = {
      "ecommerce.place_order", "storage.write",    "core.failback",
      "core.verify_latest",    "ev.ship",          "ev.apply",
      "ev.ack",                "ev.resync",        "ev.failback",
      "ev.scrub",              "ev.idle_dispatch", "ev.other",
      "wire.encode",           "wire.decode",      "codec.compress",
      "codec.decompress",      "crc.crc32c"};
  return kNames[n];
}

constexpr uint32_t kNoParent = UINT32_MAX;

struct Span {
  int64_t start = 0;
  int64_t end = 0;
  uint64_t op = 0;  // Foreground op in progress or last issued.
  uint32_t parent = kNoParent;
  SpanName name = kSpEvOther;
};

// In-memory span recorder; written out once the run ends.
class Tracer {
 public:
  bool on() const { return on_; }
  void Enable() { on_ = true; }
  void Disable() { on_ = false; }
  void set_op(uint64_t op) { op_ = op; }

  uint32_t Begin(SpanName name) {
    Span s;
    s.name = name;
    s.op = op_;
    s.parent = stack_.empty() ? kNoParent : stack_.back();
    s.start = HostNs();
    spans_.push_back(s);
    const uint32_t idx = static_cast<uint32_t>(spans_.size() - 1);
    stack_.push_back(idx);
    return idx;
  }
  void End(uint32_t idx) {
    spans_[idx].end = HostNs();
    stack_.pop_back();
  }
  void Add(SpanName name, int64_t start, int64_t end) {
    spans_.push_back(Span{start, end, op_, kNoParent, name});
  }
  void DropLast() { spans_.pop_back(); }
  std::vector<Span>& spans() { return spans_; }

  // Per-name totals of self time (duration minus direct children).
  struct Agg {
    uint64_t count = 0;
    double total_ns = 0;
    double self_ns = 0;
    std::vector<double> durations;
  };
  std::vector<Agg> Aggregate() const {
    std::vector<double> child(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent != kNoParent) child[s.parent] += double(s.end - s.start);
    }
    std::vector<Agg> agg(kSpCount);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      Agg& a = agg[s.name];
      const double d = double(s.end - s.start);
      ++a.count;
      a.total_ns += d;
      a.self_ns += d - child[i];
      a.durations.push_back(d);
    }
    return agg;
  }

  bool WriteTsv(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "id\tname\tstart_ns\tend_ns\tparent\top\n");
    const int64_t base = spans_.empty() ? 0 : spans_.front().start;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu\t%s\t%" PRId64 "\t%" PRId64 "\t%" PRId64
                      "\t%" PRIu64 "\n",
                   i, SpanNameStr(s.name), s.start - base, s.end - base,
                   s.parent == kNoParent ? int64_t{-1} : int64_t(s.parent),
                   s.op);
    }
    return std::fclose(f) == 0;
  }

 private:
  bool on_ = false;
  uint64_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<uint32_t> stack_;
};

// RAII span that is a no-op when tracing is off.
class Scoped {
 public:
  Scoped(Tracer* t, SpanName n) : t_(t->on() ? t : nullptr) {
    if (t_ != nullptr) idx_ = t_->Begin(n);
  }
  ~Scoped() {
    if (t_ != nullptr) t_->End(idx_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer* t_;
  uint32_t idx_ = 0;
};

// ---- Seeded payloads --------------------------------------------------------

// A pool of 4 KiB blocks that the LZ codec compresses about 2:1: each
// 64-byte segment is either fresh random bytes or a copy of an earlier
// segment of the same block. Every write copies one pool block and stamps
// its first 16 bytes with (write id, block address), so each write is
// distinguishable and a backup image can be checked against the write log.
class PayloadPool {
 public:
  explicit PayloadPool(uint64_t seed, size_t blocks = 64) {
    zb::Rng rng(seed ^ 0x9a71c0deULL);
    constexpr size_t kSeg = 64;
    for (size_t b = 0; b < blocks; ++b) {
      std::string blk(kBlock, '\0');
      for (size_t s = 0; s < kBlock / kSeg; ++s) {
        char* dst = blk.data() + s * kSeg;
        if (s > 0 && rng.Bernoulli(0.5)) {
          const size_t from = rng.Uniform(s);
          std::memcpy(dst, blk.data() + from * kSeg, kSeg);
        } else {
          for (size_t i = 0; i < kSeg; i += 8) {
            const uint64_t r = rng.Next();
            std::memcpy(dst + i, &r, 8);
          }
        }
      }
      pool_.push_back(std::move(blk));
    }
  }

  // Pool block `pick`, stamped.
  const std::string& Make(uint64_t pick, uint64_t write_id, uint64_t addr) {
    scratch_ = pool_[pick % pool_.size()];
    std::memcpy(scratch_.data(), &write_id, 8);
    std::memcpy(scratch_.data() + 8, &addr, 8);
    return scratch_;
  }

  // Logical / compressed bytes of the pool under the block codec.
  double CompressRatio() const {
    std::string all;
    for (const auto& b : pool_) all += b;
    std::string out;
    zb::Compress(all, &out);
    return Ratio(double(all.size()), double(out.size()));
  }

 private:
  std::vector<std::string> pool_;
  std::string scratch_;
};

uint64_t StampOf(const char* block) {
  uint64_t id = 0;
  std::memcpy(&id, block, 8);
  return id;
}

// ---- Options ----------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool quick = false;
};

// ---- Per-rep results --------------------------------------------------------

struct RepResult {
  // Host-side costs.
  double setup_s = 0;
  double window_s = 0;       // Measured window, checks and replay excluded.
  double ref_ns = 0;
  std::vector<double> fg_ns;  // One per foreground business op.
  double initial_copy_s = 0;
  // Simulated results (identical across reps of one seed).
  std::vector<double> rpo_ms;
  std::vector<double> catchup_ms;
  double wan_ratio = 0;
  uint64_t business_writes = 0;
  uint64_t business_bytes = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> counts;  // Deterministic layer counts.
  std::map<std::string, double> timed;   // Traced rep only.
  uint64_t fingerprint = 0;
};

// ---- The rig: one deployed system plus the stepping/tracing machinery -------

class Rig {
 public:
  explicit Rig(const zb::core::DemoSystemConfig& config)
      : sys(std::make_unique<zb::core::DemoSystem>(&env, config)),
        bandwidth_(config.link.bandwidth_bytes_per_sec) {
    zb::obs::MetricRegistry* m = sys->metrics();
    c_shipped_ = m->GetCounter("replication.batches_shipped");
    c_wire_ = m->GetCounter("replication.wire_bytes_shipped");
    c_applied_ = m->GetCounter("replication.records_applied");
    c_acked_ = m->GetCounter("replication.batches_acked");
    c_resyncs_ = m->GetCounter("replication.resyncs");
    c_wakeups_ = m->GetCounter("sched.wakeups");
    c_scrub_ = m->GetCounter("scrub.blocks_scanned");
  }

  zb::sim::SimEnvironment env;
  std::unique_ptr<zb::core::DemoSystem> sys;
  Tracer tracer;
  zb::replication::ReplicationEngine* engine() { return sys->replication(); }

  // ---- Failed-operation accounting ----
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    if (++failed <= 5) std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }

  // ---- Groups and pairs, known once NSO configured them ----
  std::vector<GroupId> groups;
  std::vector<PairId> pairs;
  void AddNamespace(const std::string& ns) {
    auto gs = sys->ReplicationGroupsOf(ns);
    ZB_CHECK(gs.ok()) << gs.status();
    for (GroupId g : *gs) {
      groups.push_back(g);
      last_shipped_.push_back(0);
      for (PairId p : engine()->ListGroupPairs(g)) pairs.push_back(p);
    }
  }

  // ---- Business writes (the base of host_ns_per_write) ----
  bool counting = false;
  uint64_t business_writes = 0;
  uint64_t business_bytes = 0;
  void NoteBusinessWrite(uint64_t blocks, uint64_t bytes) {
    if (!counting) return;
    business_writes += blocks;
    business_bytes += bytes;
  }

  // Host time spent on checks and codec replay inside the window; it is
  // subtracted from the window's host time.
  int64_t excluded_ns = 0;
  class Excluded {
   public:
    explicit Excluded(Rig* rig) : rig_(rig), t0_(HostNs()) {}
    ~Excluded() { rig_->excluded_ns += HostNs() - t0_; }
    Excluded(const Excluded&) = delete;
    Excluded& operator=(const Excluded&) = delete;

   private:
    Rig* rig_;
    int64_t t0_;
  };

  // Times the reference kernel (excluded from the window), every
  // kReferenceEveryNs of host time through the window, so a rep's median
  // follows the host's speed during that rep.
  std::vector<double> reference_ns;
  void SampleReference() {
    Excluded ex(this);
    reference_ns.push_back(ReferenceNs());
  }
  static constexpr int64_t kReferenceEveryNs = 100'000'000;

  // ---- Stepping ----
  // Advances simulated time to `t` one event at a time, up to a no-op
  // sentinel event placed at `t`. Traced and untraced reps step the same
  // way, so they execute the identical event sequence.
  void AdvanceTo(SimTime t) {
    if (counting && HostNs() >= next_reference_) {
      SampleReference();
      next_reference_ = HostNs() + kReferenceEveryNs;
    }
    bool fired = false;
    env.ScheduleAt(t, [&fired] { fired = true; });
    ++sentinels;
    while (!fired) {
      if (tracer.on()) {
        StepTraced();
        if (fired) tracer.DropLast();
      } else {
        env.RunOne();
      }
      if (catchup_.active || suspend_watch_) Watch();
    }
  }
  void AdvanceBy(SimDuration d) { AdvanceTo(env.now() + d); }
  uint64_t sentinels = 0;

  // ---- Catch-up: from a disruption's end until the backup holds every
  // write made before it: each group healthy with acked >= the journal head
  // at the start, each pair paired with no dirty blocks, plus `extra`. ----
  std::vector<double> catchup_ms;
  bool catchup_pending() const { return catchup_.active; }
  void BeginCatchup(bool record, std::function<bool()> extra = nullptr) {
    HarvestRpo();
    catchup_.active = true;
    catchup_.record = record;
    catchup_.start = env.now();
    catchup_.extra = std::move(extra);
    catchup_.written.clear();
    for (GroupId g : groups) {
      auto st = engine()->GetGroupStats(g);
      catchup_.written.push_back(st.ok() ? st->written : 0);
    }
  }
  // Steps until the pending catch-up completes or `limit` passes.
  bool WaitCaughtUp(SimDuration limit) {
    const SimTime deadline = env.now() + limit;
    while (catchup_.active && env.now() < deadline) {
      AdvanceBy(zb::Microseconds(500));
    }
    return !catchup_.active;
  }
  void CancelCatchup() { catchup_.active = false; }
  bool in_failback = false;

  // Calls `fn` once, after the first event that leaves any group suspended.
  void WatchSuspend(std::function<void()> fn) {
    suspend_watch_ = std::move(fn);
  }

  // ---- Simulated-result snapshots ----
  std::map<std::string, double> Registry() const {
    std::map<std::string, double> out;
    for (const auto& s : sys->metrics()->Snapshot()) out[s.name] = s.value;
    return out;
  }
  struct GroupSums {
    double folded = 0, ack_timeouts = 0, checksum_rejects = 0;
    double resync_blocks = 0, resync_extents = 0, auto_resync = 0;
    double written = 0;
  };
  GroupSums SumGroups() {
    GroupSums s;
    for (GroupId g : groups) {
      auto st = engine()->GetGroupStats(g);
      if (!st.ok()) continue;
      s.folded += double(st->records_folded);
      s.ack_timeouts += double(st->ack_timeouts);
      s.checksum_rejects += double(st->checksum_rejects);
      s.resync_blocks += double(st->resync_blocks);
      s.resync_extents += double(st->resync_extents);
      s.auto_resync += double(st->auto_resync_attempts);
    }
    return s;
  }

  // Collects the RPO samples (ms) the system's RpoTracker takes from now
  // on into `out`; harvested at every catch-up start and at the end, well
  // before the tracker's bounded point buffer wraps.
  void StartRpo(std::vector<double>* out) {
    rpo_out_ = out;
    rpo_harvested_ = env.now();
  }
  void HarvestRpo() {
    if (rpo_out_ == nullptr) return;
    std::vector<double>* out = rpo_out_;
    const SimTime since = rpo_harvested_;
    for (uint64_t g : sys->rpo_tracker()->Groups()) {
      const auto* series = sys->rpo_tracker()->series(g);
      if (series == nullptr) continue;
      for (const auto& p : series->points) {
        if (p.time > since && p.time <= env.now()) {
          out->push_back(zb::ToMilliseconds(p.rpo));
        }
      }
    }
    rpo_harvested_ = env.now();
  }

  double bandwidth() const { return bandwidth_; }

  // ---- Codec replay results (traced rep) ----
  double replay_logical = 0, replay_wire = 0, replay_body = 0;
  // Replayed batches whose re-encoded frame differs from what was shipped.
  uint64_t replay_mismatches = 0;

  // Starts codec replay from the journals' current ship points.
  void SyncShipped() {
    for (size_t i = 0; i < groups.size(); ++i) {
      auto* jnl = engine()->primary_journal(groups[i]);
      last_shipped_[i] = jnl == nullptr ? 0 : jnl->shipped();
    }
  }
  bool track_dirty = false;

 private:
  struct Catchup {
    bool active = false;
    bool record = true;
    SimTime start = 0;
    std::vector<uint64_t> written;
    std::function<bool()> extra;
  };

  bool CaughtUp() {
    for (size_t i = 0; i < groups.size(); ++i) {
      auto st = engine()->GetGroupStats(groups[i]);
      if (!st.ok() || st->suspended || st->acked < catchup_.written[i]) {
        return false;
      }
    }
    for (PairId p : pairs) {
      const auto* pair = engine()->GetPair(p);
      if (pair == nullptr ||
          pair->state() != zb::replication::PairState::kPaired ||
          pair->dirty_blocks() != 0 || pair->reverse_dirty_blocks() != 0) {
        return false;
      }
    }
    return !catchup_.extra || catchup_.extra();
  }

  void Watch() {
    if (catchup_.active && CaughtUp()) {
      catchup_.active = false;
      in_failback = false;
      if (catchup_.record) {
        catchup_ms.push_back(zb::ToMilliseconds(env.now() - catchup_.start));
      }
    }
    if (suspend_watch_) {
      for (GroupId g : groups) {
        auto st = engine()->GetGroupStats(g);
        if (st.ok() && st->suspended) {
          auto fn = std::move(suspend_watch_);
          suspend_watch_ = nullptr;
          fn();
          break;
        }
      }
    }
  }

  uint64_t DirtySum() {
    uint64_t n = 0;
    for (PairId p : pairs) {
      const auto* pair = engine()->GetPair(p);
      if (pair != nullptr) n += pair->dirty_blocks();
    }
    return n;
  }

  // Runs one event and records it as a span classed by which public
  // counters it moved.
  void StepTraced() {
    const uint64_t shipped0 = c_shipped_->value();
    const uint64_t wire0 = c_wire_->value();
    const uint64_t applied0 = c_applied_->value();
    const uint64_t acked0 = c_acked_->value();
    const uint64_t resyncs0 = c_resyncs_->value();
    const uint64_t wakeups0 = c_wakeups_->value();
    const uint64_t scrub0 = c_scrub_->value();
    const uint64_t dirty0 = track_dirty ? DirtySum() : 0;
    const int64_t t0 = HostNs();
    env.RunOne();
    const int64_t t1 = HostNs();
    SpanName cls = kSpEvOther;
    if (c_shipped_->value() != shipped0) {
      cls = kSpEvShip;
    } else if (c_applied_->value() != applied0) {
      cls = kSpEvApply;
    } else if (c_acked_->value() != acked0) {
      cls = kSpEvAck;
    } else if (c_resyncs_->value() != resyncs0 ||
               (track_dirty && DirtySum() < dirty0)) {
      cls = kSpEvResync;
    } else if (c_scrub_->value() != scrub0) {
      cls = kSpEvScrub;
    } else if (in_failback) {
      cls = kSpEvFailback;
    } else if (c_wakeups_->value() != wakeups0) {
      cls = kSpEvIdleDispatch;
    }
    tracer.Add(cls, t0, t1);
    if (cls == kSpEvShip) {
      Excluded ex(this);
      ReplayShipped(c_wire_->value() - wire0);
    }
  }

  // Re-runs the batches the event just shipped through the codec entry
  // points, read back from the primary journals with PeekViews. Every
  // kReplayEvery-th ship event is replayed in full; its re-encoded frames
  // must have exactly the size the engine put on the wire.
  static constexpr uint64_t kReplayEvery = 4;
  void ReplayShipped(uint64_t wire_delta) {
    const bool sample = (++ship_events_ % kReplayEvery) == 0;
    uint64_t frames = 0;
    for (size_t i = 0; i < groups.size(); ++i) {
      auto* jnl = engine()->primary_journal(groups[i]);
      if (jnl == nullptr) continue;
      const uint64_t s1 = jnl->shipped();
      uint64_t s0 = last_shipped_[i];
      if (s1 < s0) s0 = 0;  // Journals restart after a failback.
      last_shipped_[i] = s1;
      if (!sample || s1 == s0) continue;
      std::vector<const zb::journal::JournalRecord*> views;
      jnl->PeekViews(s0, UINT64_MAX, &views);
      std::vector<zb::journal::JournalRecord> batch;
      std::string body;
      for (const auto* v : views) {
        if (v->sequence > s1) break;
        batch.push_back(*v);
        batch.back().atomic_through = s1;
        body.append(v->data());
      }
      int64_t t = HostNs();
      auto lap = [&](SpanName n) {
        const int64_t now = HostNs();
        tracer.Add(n, t, now);
        t = now;
      };
      auto enc = zb::replication::wire::EncodeBatch(batch, true, nullptr);
      lap(kSpEncode);
      auto dec = zb::replication::wire::DecodeBatch(enc.frame, nullptr);
      lap(kSpDecode);
      replay_mismatches += !(dec.ok() && dec->size() == batch.size());
      std::string packed, unpacked;
      for (size_t off = 0; off < body.size(); off += 64 * 1024) {
        packed.clear();
        zb::Compress(std::string_view(body).substr(off, 64 * 1024), &packed);
        lap(kSpCompress);
        unpacked.clear();
        replay_mismatches += !zb::Decompress(packed, &unpacked).ok();
        lap(kSpDecompress);
      }
      volatile uint32_t crc = zb::Crc32c(body.data(), body.size());
      (void)crc;
      lap(kSpCrc);
      frames += enc.frame.size();
      replay_logical += double(enc.logical_bytes);
      replay_wire += double(enc.frame.size());
      replay_body += double(body.size());
    }
    if (sample) replay_mismatches += frames != wire_delta;
  }

  double bandwidth_;
  zb::obs::Counter* c_shipped_;
  zb::obs::Counter* c_wire_;
  zb::obs::Counter* c_applied_;
  zb::obs::Counter* c_acked_;
  zb::obs::Counter* c_resyncs_;
  zb::obs::Counter* c_wakeups_;
  zb::obs::Counter* c_scrub_;
  Catchup catchup_;
  std::function<void()> suspend_watch_;
  std::vector<uint64_t> last_shipped_;
  uint64_t ship_events_ = 0;
  int64_t next_reference_ = 0;
  SimTime rpo_harvested_ = 0;
  std::vector<double>* rpo_out_ = nullptr;
};

// Database device: forwards to the array volume and records each write as
// a storage.write span, the child span that db.commit_self_ns subtracts.
class BenchDevice : public zb::block::BlockDevice {
 public:
  BenchDevice(zb::storage::StorageArray* array, zb::storage::VolumeId volume,
              Rig* rig)
      : inner_(array, volume), rig_(rig) {}
  uint32_t block_size() const override { return inner_.block_size(); }
  uint64_t block_count() const override { return inner_.block_count(); }
  zb::Status Read(zb::block::Lba lba, uint32_t count,
                  std::string* out) override {
    return inner_.Read(lba, count, out);
  }
  zb::Status Write(zb::block::Lba lba, uint32_t count,
                   std::string_view data) override {
    Scoped span(&rig_->tracer, kSpStorageWrite);
    rig_->NoteBusinessWrite(count, data.size());
    return inner_.Write(lba, count, data);
  }

 private:
  zb::storage::ArrayVolumeDevice inner_;
  Rig* rig_;
};

// Stamps of every block of `volumes` (concatenated in order).
std::vector<uint64_t> ReadStamps(
    const std::vector<const zb::storage::Volume*>& volumes) {
  std::vector<uint64_t> stamps;
  for (const auto* v : volumes) {
    for (uint64_t b = 0; b < v->block_count(); ++b) {
      stamps.push_back(StampOf(v->store().ReadBlockView(b).data()));
    }
  }
  return stamps;
}

// True when `stamps` is exactly the image after the first K writes of
// `log` (log[i] is the block written by write id i + 1; stamp 0 = the
// pre-fill), where K is the newest write id present. With `require_all`,
// K must also be the whole log.
bool IsWritePrefix(const std::vector<uint64_t>& stamps,
                   const std::vector<uint32_t>& log, bool require_all) {
  uint64_t k = 0;
  for (uint64_t s : stamps) k = std::max(k, s);
  if (k > log.size() || (require_all && k != log.size())) return false;
  std::vector<uint64_t> expect(stamps.size(), 0);
  for (uint64_t id = 1; id <= k; ++id) expect[log[id - 1]] = id;
  return expect == stamps;
}

// ---- Workloads --------------------------------------------------------------

struct Ctx {
  const Options& opt;
  uint64_t seed;
  Rig& rig;
  RepResult& out;
  zb::Rng rng;
  PayloadPool pool;
  uint64_t op_id = 0;

  // Times one foreground business op.
  template <typename Fn>
  void Op(Fn&& fn) {
    rig.tracer.set_op(++op_id);
    const int64_t t0 = HostNs();
    fn();
    out.fg_ns.push_back(double(HostNs() - t0));
  }

  // Open-loop arrivals: Poisson at `rate_per_s`, fixed by the seed.
  SimTime NextArrival(SimTime t, double rate_per_s) {
    const double gap_ns = rng.Exponential(1e9 / rate_per_s);
    return t + std::max<SimTime>(1, static_cast<SimTime>(gap_ns));
  }
};

zb::core::DemoSystemConfig BaseConfig(unsigned lanes, double bandwidth) {
  zb::core::DemoSystemConfig c;
  c.main_array.media = zb::block::DeviceLatencyModel{0, 0, 0, 0, 1};
  c.backup_array.media = zb::block::DeviceLatencyModel{0, 0, 0, 0, 2};
  c.link.base_latency = zb::Milliseconds(5);
  c.link.bandwidth_bytes_per_sec = bandwidth;
  c.engine.compute_threads = lanes;
  return c;
}

// Tags the namespaces and waits for NSO to finish the backup
// configuration, including every initial copy.
void Configure(Ctx& c, const std::vector<std::string>& namespaces) {
  auto* link = c.rig.sys->link_to_backup();
  const uint64_t logical0 = link->logical_bytes_sent();
  const SimTime sim0 = c.rig.env.now();
  const int64_t host0 = HostNs();
  for (const auto& ns : namespaces) {
    ZB_CHECK(c.rig.sys->TagNamespaceForBackup(ns).ok());
  }
  for (const auto& ns : namespaces) {
    auto st = c.rig.sys->WaitForBackupConfigured(ns, zb::Seconds(120));
    ZB_CHECK(st.ok()) << st;
    c.rig.AddNamespace(ns);
  }
  c.out.initial_copy_s = double(HostNs() - host0) / 1e9;
  c.out.counts["setup.configure_sim_ms"] =
      zb::ToMilliseconds(c.rig.env.now() - sim0);
  c.out.counts["setup.initial_copy_blocks"] =
      double(link->logical_bytes_sent() - logical0) / kBlock;
}

std::vector<zb::storage::VolumeId> MakeVolumes(
    Ctx& c, const std::string& ns, const std::vector<std::string>& pvcs,
    uint64_t bytes) {
  auto* sys = c.rig.sys.get();
  ZB_CHECK(sys->CreateBusinessNamespace(ns).ok());
  for (const auto& p : pvcs) ZB_CHECK(sys->CreatePvc(ns, p, bytes).ok());
  c.rig.env.RunFor(zb::Milliseconds(10));
  std::vector<zb::storage::VolumeId> ids;
  for (const auto& p : pvcs) {
    auto v = sys->ResolveMainVolume(ns, p);
    ZB_CHECK(v.ok()) << v.status();
    ids.push_back(*v);
  }
  return ids;
}

// After the final drain: every backup volume must equal its primary.
void CheckReplicasEqual(Rig& rig) {
  Rig::Excluded ex(&rig);
  for (PairId p : rig.pairs) {
    const auto* pair = rig.engine()->GetPair(p);
    const auto* pv =
        rig.sys->main_site()->array()->GetVolume(pair->config().primary);
    const auto* sv =
        rig.sys->backup_site()->array()->GetVolume(pair->config().secondary);
    rig.Check(pv != nullptr && sv != nullptr && pv->ContentEquals(*sv),
              "backup volume differs from primary: " + pair->config().name);
  }
}

// Fingerprint of the backup volumes' content.
uint64_t BackupContentHash(Rig& rig) {
  uint64_t h = 0;
  std::string buf;
  for (PairId p : rig.pairs) {
    const auto* pair = rig.engine()->GetPair(p);
    const auto* sv =
        rig.sys->backup_site()->array()->GetVolume(pair->config().secondary);
    if (sv == nullptr) continue;
    const uint64_t n = sv->block_count();
    buf.resize(n * kBlock);
    sv->store().ReadInto(0, static_cast<uint32_t>(n), buf.data());
    h = Mix(h, zb::Crc32c(buf.data(), buf.size()));
  }
  return h;
}

// oltp_shop: the paper's demo. Four shop namespaces each run the order flow
// on sales and stock MiniDb PVCs; NSO gives each its own consistency group;
// 100 Mbit/s, 5 ms WAN; a snapshot-group schedule on the backup cluster and
// background scrub. Orders arrive in bursts; each quiet gap measures the
// drain (catch-up) and verifies one shop's newest scheduled snapshot group.
class OltpShop {
 public:
  static constexpr int kShops = 4;
  static constexpr double kOrdersPerSec = 6000;
  static constexpr SimDuration kBurst = zb::Milliseconds(1500);
  static constexpr SimDuration kGap = zb::Milliseconds(150);
  static constexpr SimDuration kSnapshotEvery = zb::Milliseconds(1000);

  explicit OltpShop(Ctx& c) : c_(c) {}
  int bursts() const { return c_.opt.quick ? 2 : 12; }

  static zb::core::DemoSystemConfig Config(unsigned lanes) {
    auto cfg = BaseConfig(lanes, 1.25e7);  // 100 Mbit/s.
    cfg.enable_scrub = true;
    return cfg;
  }

  // Sized so the order tables of a full rep fit the checkpoint region (the
  // smaller layout of the experiment benches runs out after ~21.6k orders)
  // and the WAL never fills between two scheduled checkpoints; a
  // RESOURCE_EXHAUSTED order still counts as a failed op.
  static zb::db::DbOptions DbOpts() {
    zb::db::DbOptions o;
    o.checkpoint_blocks = 2048;
    o.wal_blocks = 1024;
    return o;
  }

  void Setup() {
    auto* sys = c_.rig.sys.get();
    const zb::db::DbOptions o = DbOpts();
    const uint64_t pvc_bytes =
        (1 + 2 * o.checkpoint_blocks + o.wal_blocks) * uint64_t{kBlock};
    std::vector<std::string> names;
    for (int i = 0; i < kShops; ++i) {
      const std::string ns = "shop-" + std::to_string(i);
      names.push_back(ns);
      auto vols = MakeVolumes(c_, ns, {"sales-db", "stock-db"}, pvc_bytes);
      Shop shop;
      auto* array = sys->main_site()->array();
      shop.sales_dev = std::make_unique<BenchDevice>(array, vols[0], &c_.rig);
      shop.stock_dev = std::make_unique<BenchDevice>(array, vols[1], &c_.rig);
      ZB_CHECK(zb::db::MiniDb::Format(shop.sales_dev.get(), o).ok());
      ZB_CHECK(zb::db::MiniDb::Format(shop.stock_dev.get(), o).ok());
      shop.sales =
          std::move(zb::db::MiniDb::Open(shop.sales_dev.get(), o)).value();
      shop.stock =
          std::move(zb::db::MiniDb::Open(shop.stock_dev.get(), o)).value();
      zb::workload::EcommerceConfig ec;
      ec.seed = c_.seed * 1000003 + uint64_t(i);
      ec.zipf_theta = 0.8;
      shop.app = std::make_unique<zb::workload::EcommerceApp>(
          shop.sales.get(), shop.stock.get(), ec);
      ZB_CHECK(shop.app->InitializeCatalog().ok());
      shops_.push_back(std::move(shop));
    }
    Configure(c_, names);
    for (const auto& ns : names) {
      ZB_CHECK(
          sys->CreateSnapshotSchedule(ns, "sched", kSnapshotEvery, 3).ok());
    }
    names_ = names;
    Orders(zb::Milliseconds(300));  // Warm-up.
    c_.rig.BeginCatchup(false);
    c_.rig.Check(c_.rig.WaitCaughtUp(zb::Seconds(10)), "warm-up drain");
  }

  void Window() {
    for (int b = 0; b < bursts(); ++b) {
      // Time-based checkpoints, one shop per burst: checkpoint pages cross
      // the codec and the WAN at a fixed point of the schedule. The WAL is
      // sized so that it never fills in between.
      Shop& shop = shops_[size_t(b) % shops_.size()];
      c_.rig.Check(
          shop.sales->Checkpoint().ok() && shop.stock->Checkpoint().ok(),
          "checkpoint");
      Orders(kBurst);
      const SimTime gap_end = c_.rig.env.now() + kGap;
      c_.rig.BeginCatchup(true);
      c_.rig.AdvanceTo(gap_end);
      c_.rig.Check(c_.rig.WaitCaughtUp(zb::Seconds(10)), "drain after burst");
      Verify(names_[size_t(b) % names_.size()]);
    }
  }

  void Finish() {
    double commits = 0, checkpoints = 0;
    for (const auto& s : shops_) {
      commits += double(s.sales->committed_txns() + s.stock->committed_txns());
      checkpoints += double(s.sales->generation() + s.stock->generation());
    }
    c_.out.counts["db.commits"] = commits - commits0_;
    c_.out.counts["db.checkpoints"] = checkpoints - checkpoints0_;
    double preserved = 0;
    auto* snaps = c_.rig.sys->backup_site()->snapshots();
    for (auto id : snaps->ListSnapshots()) {
      const auto* s = snaps->GetSnapshot(id);
      if (s != nullptr) preserved += double(s->preserved_blocks());
    }
    c_.out.counts["snapshot.preserved_blocks"] = preserved;
  }

  void BeginWindow() {
    for (const auto& s : shops_) {
      commits0_ +=
          double(s.sales->committed_txns() + s.stock->committed_txns());
      checkpoints0_ += double(s.sales->generation() + s.stock->generation());
    }
  }

 private:
  struct Shop {
    std::unique_ptr<BenchDevice> sales_dev, stock_dev;
    std::unique_ptr<zb::db::MiniDb> sales, stock;
    std::unique_ptr<zb::workload::EcommerceApp> app;
  };

  void Orders(SimDuration span) {
    const SimTime end = c_.rig.env.now() + span;
    SimTime t = c_.rig.env.now();
    while (true) {
      t = c_.NextArrival(t, kOrdersPerSec);
      if (t >= end) break;
      c_.rig.AdvanceTo(t);
      Shop& shop = shops_[c_.rng.Uniform(kShops)];
      bool ok = false;
      std::string why;
      c_.Op([&] {
        Scoped order_span(&c_.rig.tracer, kSpPlaceOrder);
        auto r = shop.app->PlaceOrder();
        ok = r.ok();
        if (!ok) why = r.status().ToString();
      });
      c_.rig.Check(ok, "PlaceOrder: " + why);
    }
    c_.rig.AdvanceTo(end);
  }

  void Verify(const std::string& ns) {
    Rig::Excluded ex(&c_.rig);
    Scoped span(&c_.rig.tracer, kSpVerify);
    auto report =
        zb::core::VerifyLatestScheduled(c_.rig.sys.get(), ns, "sched");
    c_.rig.Check(report.ok() && report->passed(),
                 "VerifyLatestScheduled " + ns + ": " +
                     (report.ok() ? report->ToString()
                                  : report.status().ToString()));
  }

  Ctx& c_;
  std::vector<Shop> shops_;
  std::vector<std::string> names_;
  double commits0_ = 0, checkpoints0_ = 0;
};

// Raw 4 KiB block writes (StorageArray::WriteSync) into volumes of one
// namespace (one consistency group), with stamped seeded payloads.
class BlockWriter {
 public:
  BlockWriter(Ctx& c, uint64_t blocks_per_volume)
      : c_(c), blocks_(blocks_per_volume) {}

  void SetVolumes(zb::storage::StorageArray* array,
                  std::vector<zb::storage::VolumeId> ids) {
    array_ = array;
    ids_ = std::move(ids);
  }
  std::vector<uint32_t>& log() { return log_; }

  // One business write; `block` indexes the volumes' concatenated blocks.
  void Write(uint64_t block) {
    const uint64_t id = log_.size() + 1;
    const auto& data = c_.pool.Make(c_.rng.Next(), id, block);
    log_.push_back(static_cast<uint32_t>(block));
    zb::Status st;
    c_.Op([&] {
      Scoped span(&c_.rig.tracer, kSpStorageWrite);
      st = array_->WriteSync(ids_[block / blocks_], block % blocks_, data);
    });
    c_.rig.NoteBusinessWrite(1, data.size());
    c_.rig.Check(st.ok(), "WriteSync: " + st.ToString());
  }

  // Writes arriving at `rate` until `span` has passed; `pick` chooses the
  // block of each write.
  void Run(SimDuration span, double rate,
           const std::function<uint64_t()>& pick) {
    const SimTime end = c_.rig.env.now() + span;
    SimTime t = c_.rig.env.now();
    while (true) {
      t = c_.NextArrival(t, rate);
      if (t >= end) break;
      c_.rig.AdvanceTo(t);
      Write(pick());
    }
    c_.rig.AdvanceTo(end);
  }

 private:
  Ctx& c_;
  uint64_t blocks_;
  zb::storage::StorageArray* array_ = nullptr;
  std::vector<zb::storage::VolumeId> ids_;
  std::vector<uint32_t> log_;
};

std::vector<std::string> PvcNames(int n) {
  std::vector<std::string> v;
  for (int i = 0; i < n; ++i) v.push_back("vol-" + std::to_string(i));
  return v;
}

// hot_overwrite: 4 KiB writes at a high rate into four volumes of one
// consistency group over 1 Gbit/s; 80% of writes go to a 128-block hot set,
// so a share of writes overwrite blocks still unshipped in the journal
// (the fold path). No database layer.
class HotOverwrite {
 public:
  static constexpr int kVolumes = 4;
  static constexpr uint64_t kBlocks = 4096;  // 16 MiB per volume.
  static constexpr uint64_t kHotPerVolume = 32;
  static constexpr double kHotShare = 0.8;
  static constexpr double kWritesPerSec = 20000;
  static constexpr SimDuration kBurst = zb::Milliseconds(250);
  static constexpr SimDuration kGap = zb::Milliseconds(40);

  explicit HotOverwrite(Ctx& c) : c_(c), w_(c, kBlocks) {}
  int bursts() const { return c_.opt.quick ? 4 : 36; }

  static zb::core::DemoSystemConfig Config(unsigned lanes) {
    return BaseConfig(lanes, 1.25e8);  // 1 Gbit/s.
  }

  void Setup() {
    auto ids = MakeVolumes(c_, "hot", PvcNames(kVolumes), kBlocks * kBlock);
    w_.SetVolumes(c_.rig.sys->main_site()->array(), ids);
    Configure(c_, {"hot"});
    w_.Run(zb::Milliseconds(50), kWritesPerSec, [this] { return Pick(); });
    c_.rig.BeginCatchup(false);
    c_.rig.Check(c_.rig.WaitCaughtUp(zb::Seconds(10)), "warm-up drain");
  }

  void Window() {
    for (int b = 0; b < bursts(); ++b) {
      w_.Run(kBurst, kWritesPerSec, [this] { return Pick(); });
      const SimTime gap_end = c_.rig.env.now() + kGap;
      c_.rig.BeginCatchup(true);
      c_.rig.AdvanceTo(gap_end);
      c_.rig.Check(c_.rig.WaitCaughtUp(zb::Seconds(10)), "drain after burst");
    }
  }
  void BeginWindow() {}
  void Finish() {}

 private:
  uint64_t Pick() {
    const uint64_t vol = c_.rng.Uniform(kVolumes);
    const uint64_t lba = c_.rng.Bernoulli(kHotShare)
                             ? c_.rng.Uniform(kHotPerVolume)
                             : c_.rng.Uniform(kBlocks);
    return vol * kBlocks + lba;
  }

  Ctx& c_;
  BlockWriter w_;
};

// outage_recovery: pre-filled volumes (the initial copy is real set-up
// work), then moderate writes through repeated cycles of a link partition
// long enough to suspend the group (writes keep dirtying extents), heal,
// auto-resync and convergence; every third cycle a planned Failover,
// writes on the backup site, then Failback. The bulk-transfer paths do the
// work: dirty bitmap, extent capture, resync apply, failback giveback and
// initial copy.
class OutageRecovery {
 public:
  static constexpr int kVolumes = 4;
  static constexpr uint64_t kBlocks = 4096;  // 16 MiB per volume.
  static constexpr double kWritesPerSec = 4000;
  static constexpr SimDuration kSteady = zb::Milliseconds(300);
  static constexpr SimDuration kPartition = zb::Milliseconds(300);
  static constexpr SimDuration kAfterHeal = zb::Milliseconds(400);
  static constexpr SimDuration kFailedOver = zb::Milliseconds(150);

  explicit OutageRecovery(Ctx& c)
      : c_(c), main_(c, kBlocks), backup_(c, kBlocks) {}
  int cycles() const { return c_.opt.quick ? 3 : 54; }

  static zb::core::DemoSystemConfig Config(unsigned lanes) {
    return BaseConfig(lanes, 1.25e8);  // 1 Gbit/s.
  }

  void Setup() {
    auto* sys = c_.rig.sys.get();
    auto ids = MakeVolumes(c_, "dr", PvcNames(kVolumes), kBlocks * kBlock);
    auto* array = sys->main_site()->array();
    for (size_t v = 0; v < ids.size(); ++v) {
      for (uint64_t b = 0; b < kBlocks; ++b) {
        const auto& data = c_.pool.Make(c_.rng.Next(), 0, v * kBlocks + b);
        ZB_CHECK(array->WriteSync(ids[v], b, data).ok());
      }
    }
    main_.SetVolumes(array, ids);
    Configure(c_, {"dr"});
    std::vector<zb::storage::VolumeId> backup_ids;
    for (const auto& p : PvcNames(kVolumes)) {
      auto v = sys->ResolveBackupVolume("dr", p);
      ZB_CHECK(v.ok()) << v.status();
      backup_ids.push_back(*v);
    }
    backup_.SetVolumes(sys->backup_site()->array(), backup_ids);
    for (auto id : ids) main_vols_.push_back(array->GetVolume(id));
    for (auto id : backup_ids) {
      backup_vols_.push_back(sys->backup_site()->array()->GetVolume(id));
    }
    c_.rig.track_dirty = true;
  }

  void Window() {
    auto* sys = c_.rig.sys.get();
    auto pick = [this] { return c_.rng.Uniform(kVolumes * kBlocks); };
    for (int cycle = 0; cycle < cycles(); ++cycle) {
      main_.Run(kSteady, kWritesPerSec, pick);

      // Partition: the group must suspend, and at that moment the backup
      // holds a write-order prefix (the image a failover would recover).
      c_.rig.Check(!c_.rig.catchup_pending(),
                   "catch-up unfinished at the next partition");
      c_.rig.CancelCatchup();
      sys->link_to_backup()->SetConnected(false);
      sys->link_to_main()->SetConnected(false);
      bool suspended = false;
      c_.rig.WatchSuspend([&] {
        suspended = true;
        PrefixCheck(false, "backup image at suspension");
      });
      main_.Run(kPartition, kWritesPerSec, pick);
      c_.rig.WatchSuspend(nullptr);
      c_.rig.Check(suspended, "partition did not suspend the group");

      // Heal: auto-resync must converge while writes continue.
      sys->link_to_backup()->SetConnected(true);
      sys->link_to_main()->SetConnected(true);
      c_.rig.BeginCatchup(true);
      main_.Run(kAfterHeal, kWritesPerSec, pick);
      c_.rig.Check(c_.rig.WaitCaughtUp(zb::Seconds(5)),
                   "no convergence after heal");
      c_.rig.CancelCatchup();

      if (cycle % 3 == 2) FailoverDrill(pick);
    }
  }

  void BeginWindow() {}

  void Finish() {
    // The main volumes must hold exactly the whole write log.
    Rig::Excluded ex(&c_.rig);
    c_.rig.Check(IsWritePrefix(ReadStamps(main_vols_), main_.log(), true),
                 "main volumes lost writes");
    c_.out.counts["replication.failback_blocks"] = double(failback_blocks_);
  }

 private:
  void PrefixCheck(bool require_all, const std::string& what) {
    Rig::Excluded ex(&c_.rig);
    c_.rig.Check(IsWritePrefix(ReadStamps(backup_vols_), main_.log(),
                               require_all),
                 what + " is not a write-order prefix");
  }

  void FailoverDrill(const std::function<uint64_t()>& pick) {
    auto* sys = c_.rig.sys.get();
    // Quiesce and drain, then take over on the backup site.
    c_.rig.BeginCatchup(false);
    c_.rig.Check(c_.rig.WaitCaughtUp(zb::Seconds(5)), "drain before failover");
    c_.rig.CancelCatchup();
    auto fo = sys->Failover("dr");
    c_.rig.Check(fo.ok() && fo->lost_records == 0, "failover");
    PrefixCheck(true, "failover recovery point");

    // The business runs on the backup site; its writes join the log.
    std::swap(backup_.log(), main_.log());
    backup_.Run(kFailedOver, kWritesPerSec, pick);
    std::swap(backup_.log(), main_.log());
    const uint64_t last_block = main_.log().back();
    const uint64_t last_id = main_.log().size();

    // Give back; catch-up ends once the giveback landed on the main site.
    zerobak::StatusOr<zb::replication::FailbackReport> fb =
        zb::UnavailableError("not run");
    {
      Scoped span(&c_.rig.tracer, kSpFailbackCall);
      fb = sys->Failback("dr");
    }
    c_.rig.Check(fb.ok(), "failback");
    if (fb.ok()) failback_blocks_ += fb->blocks_shipped;
    c_.rig.in_failback = true;
    c_.rig.BeginCatchup(true, [this, last_block, last_id] {
      const auto view = main_vols_[last_block / kBlocks]->store().ReadBlockView(
          last_block % kBlocks);
      return StampOf(view.data()) >= last_id;
    });
  }

  Ctx& c_;
  BlockWriter main_;
  BlockWriter backup_;
  std::vector<const zb::storage::Volume*> main_vols_;
  std::vector<const zb::storage::Volume*> backup_vols_;
  uint64_t failback_blocks_ = 0;
};

// ---- One repetition ---------------------------------------------------------

double Get(const std::map<std::string, double>& m, const std::string& k) {
  auto it = m.find(k);
  return it == m.end() ? 0 : it->second;
}

// Sum of the registry entries "journal.g<id>.main.<field>".
double JournalSum(const std::map<std::string, double>& m,
                  const std::string& field) {
  double sum = 0;
  const std::string suffix = ".main." + field;
  for (const auto& [name, v] : m) {
    if (name.rfind("journal.g", 0) == 0 && name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      sum += v;
    }
  }
  return sum;
}

template <typename W>
RepResult RunRepWith(const Options& opt, uint64_t seed, unsigned lanes,
                     bool traced, const std::string& spans_path) {
  const int64_t rep_start = HostNs();
  RepResult out;
  Rig rig(W::Config(lanes));
  Ctx c{opt, seed, rig, out, zb::Rng(seed), PayloadPool(seed)};
  W w(c);
  w.Setup();

  // ---- Measured window ----
  const auto reg0 = rig.Registry();
  const auto g0 = rig.SumGroups();
  const uint64_t events0 = rig.env.executed_events();
  const uint64_t sentinels0 = rig.sentinels;
  const SimTime sim0 = rig.env.now();
  w.BeginWindow();
  out.fg_ns.clear();
  rig.catchup_ms.clear();
  rig.StartRpo(&out.rpo_ms);
  rig.SyncShipped();
  rig.excluded_ns = 0;
  for (int i = 0; i < 5; ++i) rig.SampleReference();
  const int64_t reference_time = rig.excluded_ns;
  rig.excluded_ns = 0;
  rig.counting = true;
  if (traced) rig.tracer.Enable();
  const int64_t host0 = HostNs();
  out.setup_s = double(host0 - rep_start - reference_time) / 1e9;

  w.Window();
  // A catch-up still in flight (a giveback) finishes first; then the final
  // drain makes every business write durable on the backup.
  rig.Check(rig.WaitCaughtUp(zb::Seconds(10)), "last catch-up");
  rig.BeginCatchup(false);
  rig.Check(rig.WaitCaughtUp(zb::Seconds(10)), "final drain");

  const int64_t host1 = HostNs();
  out.window_s = double(host1 - host0 - rig.excluded_ns) / 1e9;
  rig.tracer.Disable();
  rig.counting = false;
  for (int i = 0; i < 5; ++i) rig.SampleReference();
  out.ref_ns = Median(rig.reference_ns);
  rig.HarvestRpo();
  const SimTime sim1 = rig.env.now();

  w.Finish();
  CheckReplicasEqual(rig);

  // ---- Simulated results ----
  const auto reg1 = rig.Registry();
  const auto g1 = rig.SumGroups();
  auto d = [&](const std::string& k) { return Get(reg1, k) - Get(reg0, k); };
  out.business_writes = rig.business_writes;
  out.business_bytes = rig.business_bytes;
  out.catchup_ms = rig.catchup_ms;
  const double wan =
      d("link.to_backup.wire_bytes") + d("link.to_main.wire_bytes");
  out.wan_ratio = Ratio(wan, double(out.business_bytes));
  const double events = double(rig.env.executed_events() - events0) -
                        double(rig.sentinels - sentinels0);

  auto& k = out.counts;
  const double shipped = d("replication.batches_shipped");
  const double appends =
      JournalSum(reg1, "appends") - JournalSum(reg0, "appends");
  double peak = 0;
  for (GroupId g : rig.groups) {
    auto* j = rig.engine()->primary_journal(g);
    if (j != nullptr) peak = std::max(peak, double(j->peak_used_bytes()));
  }
  k["db.bytes_written_per_txn"] =
      Ratio(double(out.business_bytes), Get(k, "db.commits"));
  k["journal.appends"] = appends;
  k["journal.peak_used_bytes"] = peak;
  k["journal.overflows"] =
      JournalSum(reg1, "overflows") - JournalSum(reg0, "overflows");
  k["journal.fold_share"] = Ratio(g1.folded - g0.folded, appends);
  k["replication.batches_shipped"] = shipped;
  k["replication.records_per_batch"] =
      Ratio(d("replication.records_shipped"), shipped);
  k["replication.bytes_per_batch"] =
      Ratio(d("replication.wire_bytes_shipped"), shipped);
  k["replication.ack_timeouts"] = g1.ack_timeouts - g0.ack_timeouts;
  k["replication.suspends"] = d("replication.suspends");
  k["replication.checksum_rejects"] = g1.checksum_rejects - g0.checksum_rejects;
  const double resync_blocks = g1.resync_blocks - g0.resync_blocks;
  k["replication.resync_blocks"] = resync_blocks;
  k["replication.blocks_per_extent"] =
      Ratio(resync_blocks, g1.resync_extents - g0.resync_extents);
  k["replication.resync_wire_bytes_per_block"] =
      Ratio(d("link.to_backup.wire_bytes") -
                d("replication.wire_bytes_shipped"),
            resync_blocks);
  k["replication.auto_resync_attempts"] = g1.auto_resync - g0.auto_resync;
  for (const char* s :
       {"dispatches", "wakeups", "heartbeats", "starved_turns"}) {
    k[std::string("sched.") + s] = d(std::string("sched.") + s);
  }
  k["scrub.blocks_scanned"] = d("scrub.blocks_scanned");
  k["wire.compress_ratio"] = Ratio(d("replication.logical_bytes_shipped"),
                                   d("replication.wire_bytes_shipped"));
  k["sim.events_per_write"] = Ratio(events, double(out.business_writes));
  k["link.fwd_busy_share"] =
      Ratio(d("link.to_backup.wire_bytes") / rig.bandwidth(),
            zb::ToSeconds(sim1 - sim0));
  k["link.messages"] =
      d("link.to_backup.messages") + d("link.to_main.messages");
  k["link.dropped"] = d("link.to_backup.dropped") + d("link.to_main.dropped");
  for (const char* s : {"sections", "inline_sections", "tasks", "steals"}) {
    k[std::string("exec.") + s] = d(std::string("exec.") + s);
  }

  uint64_t h = Mix(0, out.business_writes);
  h = Mix(h, out.business_bytes);
  h = MixDouble(h, wan);
  h = MixDouble(h, events);
  for (double v : out.rpo_ms) h = MixDouble(h, v);
  for (double v : out.catchup_ms) h = MixDouble(h, v);
  for (const auto& [name, v] : k) {
    if (name.rfind("exec.", 0) != 0) h = MixDouble(h, v);
  }
  out.fingerprint = Mix(h, BackupContentHash(rig));

  // ---- Host costs per layer (traced rep) ----
  if (traced) {
    const auto agg = rig.tracer.Aggregate();
    auto& t = out.timed;
    const auto& writes = agg[kSpStorageWrite].durations;
    t["storage.write_ns_p50"] = Percentile(writes, 50);
    t["db.commit_self_ns"] =
        Ratio(agg[kSpPlaceOrder].self_ns, Get(k, "db.commits"));
    t["replication.ship_ns_per_batch"] =
        Ratio(agg[kSpEvShip].total_ns, shipped);
    t["replication.apply_ns_per_record"] =
        Ratio(agg[kSpEvApply].total_ns, d("replication.records_applied"));
    t["replication.ack_ns_per_batch"] =
        Ratio(agg[kSpEvAck].total_ns, d("replication.batches_acked"));
    t["replication.resync_ns_per_block"] =
        Ratio(agg[kSpEvResync].total_ns, resync_blocks);
    t["replication.failback_ns_per_block"] =
        Ratio(agg[kSpFailbackCall].total_ns + agg[kSpEvFailback].total_ns,
              Get(k, "replication.failback_blocks"));
    t["sched.idle_dispatch_ns"] =
        Ratio(agg[kSpEvIdleDispatch].total_ns,
              double(agg[kSpEvIdleDispatch].count));
    t["scrub.ns_per_block"] =
        Ratio(agg[kSpEvScrub].total_ns, Get(k, "scrub.blocks_scanned"));
    const double kib = rig.replay_logical / 1024;
    const double body_kib = rig.replay_body / 1024;
    t["wire.encode_ns_per_kib"] = Ratio(agg[kSpEncode].total_ns, kib);
    t["wire.decode_ns_per_kib"] = Ratio(agg[kSpDecode].total_ns, kib);
    t["codec.compress_ns_per_kib"] = Ratio(agg[kSpCompress].total_ns, body_kib);
    t["codec.decompress_ns_per_kib"] =
        Ratio(agg[kSpDecompress].total_ns, body_kib);
    t["crc.ns_per_kib"] = Ratio(agg[kSpCrc].total_ns, body_kib);
    t["sim.other_event_ns"] =
        Ratio(agg[kSpEvOther].total_ns, double(agg[kSpEvOther].count));
    t["snapshot.verify_ms"] =
        Ratio(agg[kSpVerify].total_ns / 1e6, double(agg[kSpVerify].count));
    t["trace.replay_mismatches"] = double(rig.replay_mismatches);
    t["trace.spans"] = double(rig.tracer.spans().size());
    if (!spans_path.empty() && !rig.tracer.WriteTsv(spans_path)) {
      std::fprintf(stderr, "could not write %s\n", spans_path.c_str());
    }
  }
  out.attempted = rig.attempted;
  out.failed = rig.failed;
  return out;
}

RepResult RunRep(const Options& opt, uint64_t seed, unsigned lanes,
                 bool traced, const std::string& spans_path = "") {
  if (opt.workload == "oltp_shop") {
    return RunRepWith<OltpShop>(opt, seed, lanes, traced, spans_path);
  }
  if (opt.workload == "hot_overwrite") {
    return RunRepWith<HotOverwrite>(opt, seed, lanes, traced, spans_path);
  }
  return RunRepWith<OutageRecovery>(opt, seed, lanes, traced, spans_path);
}

// ---- Output -----------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintTable(const char* title, const std::vector<Metric>& ms) {
  std::printf("%s\n", title);
  for (const auto& m : ms) {
    std::printf("  %-40s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

std::string Json(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& ms) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  for (size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) s += ", ";
    s += "\"" + ms[i].name + "\": {\"value\": " + Num(ms[i].value) +
         ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return s + "}}";
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&](std::string* v) {
      if (i + 1 >= argc) return false;
      *v = argv[++i];
      return true;
    };
    std::string v;
    if (a == "--quick") {
      opt->quick = true;
    } else if (a == "--workload" && next(&v)) {
      opt->workload = v;
    } else if (a == "--seed" && next(&v)) {
      opt->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds" && next(&v)) {
      opt->seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace" && next(&v)) {
      if (v != "0" && v != "1") return false;
      opt->trace = v == "1";
    } else {
      return false;
    }
  }
  return opt->workload == "oltp_shop" || opt->workload == "hot_overwrite" ||
         opt->workload == "outage_recovery";
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: zbbench --workload "
                 "<oltp_shop|hot_overwrite|outage_recovery> --seed <n> "
                 "--seconds <s> --trace <0|1> [--quick]\n");
    return 2;
  }
  zb::SetLogLevel(zb::LogLevel::kError);
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  const unsigned lanes = std::min(kComputeThreads, hardware);
  std::printf("workload=%s seed=%" PRIu64 " compute_threads=%u "
              "hardware_lanes=%u payload_compress_ratio=%.4f\n",
              opt.workload.c_str(), opt.seed, lanes, hardware,
              PayloadPool(opt.seed).CompressRatio());

  // Keep freed memory in the process: large blocks come from the heap and
  // are never returned to the OS, so after the first rep every rep reuses
  // memory the first one faulted in, instead of each rep's share of page
  // faults depending on the rep count.
  mallopt(M_MMAP_THRESHOLD, 1 << 30);
  mallopt(M_TRIM_THRESHOLD, INT_MAX);
  ReferenceNs();  // Builds the kernel's buffers outside any rep.

  // A warm-up rep first: it faults in the memory later reps reuse, and its
  // peak RSS is the run's footprint. Its simulated results and checks
  // count; its host costs do not. Then untraced reps until their measured
  // windows cover --seconds (at least three, so setup_s is a median); a
  // traced run alternates two untraced and two traced reps instead. Host
  // time per write and foreground latency are pooled over the reps of a
  // kind, each rep scaled by its reference-kernel time (kReferenceKernelNs).
  std::vector<RepResult> reps, traced;
  const std::string spans = ".bench_out/spans-" + opt.workload + "-" +
                            std::to_string(opt.seed) + ".tsv";
  if (opt.trace) std::filesystem::create_directories(".bench_out");
  auto log_rep = [](const char* kind, const RepResult& r) {
    std::fprintf(stderr,
                 "%s rep: setup %.3f s, window %.3f s, reference kernel "
                 "%.3f ms, fg op p99 %.3f us\n",
                 kind, r.setup_s, r.window_s, r.ref_ns / 1e6,
                 Percentile(r.fg_ns, 99) / 1e3);
  };
  const RepResult warmup = RunRep(opt, opt.seed, lanes, false);
  const double peak_rss = PeakRssMib();
  log_rep("warm-up", warmup);
  double measured = 0;
  const size_t min_reps = opt.trace ? 2 : opt.quick ? 1 : 3;
  while (reps.size() < min_reps ||
         (!opt.trace && measured < opt.seconds && reps.size() < 50)) {
    reps.push_back(RunRep(opt, opt.seed, lanes, false));
    measured += reps.back().window_s;
    log_rep("untraced", reps.back());
    if (opt.trace && traced.size() < min_reps) {
      traced.push_back(RunRep(opt, opt.seed, lanes, true, spans));
      log_rep("traced", traced.back());
    }
  }
  const RepResult& r0 = warmup;
  bool correct = true;
  uint64_t attempted = warmup.attempted, failed = warmup.failed;
  for (const auto* set : {&reps, &traced}) {
    for (const auto& r : *set) {
      attempted += r.attempted;
      failed += r.failed;
    }
  }
  bool repeats_match = true;
  for (const auto& r : reps) repeats_match &= r.fingerprint == r0.fingerprint;
  auto scale = [](const RepResult& r) { return kReferenceKernelNs / r.ref_ns; };
  auto pooled_ns_per_write = [&](const std::vector<RepResult>& set,
                                 bool scaled) {
    double ns = 0, writes = 0;
    for (const auto& r : set) {
      ns += r.window_s * 1e9 * (scaled ? scale(r) : 1.0);
      writes += double(r.business_writes);
    }
    return Ratio(ns, writes);
  };
  std::vector<double> fg, fg_raw, setups, setups_raw, references;
  for (const auto& r : reps) {
    for (double ns : r.fg_ns) fg.push_back(ns * scale(r));
    fg_raw.insert(fg_raw.end(), r.fg_ns.begin(), r.fg_ns.end());
    setups.push_back(r.setup_s * scale(r));
    setups_raw.push_back(r.setup_s);
    references.push_back(r.ref_ns / 1e6);
  }
  const double host_ns = pooled_ns_per_write(reps, true);

  std::vector<Metric> e2e = {
      {"host_ns_per_write", "ns", host_ns},
      {"fg_op_us_p50", "us", Percentile(fg, 50) / 1e3},
      {"fg_op_us_p99", "us", Percentile(fg, 99) / 1e3},
      {"rpo_ms_p50", "ms", Percentile(r0.rpo_ms, 50)},
      {"rpo_ms_p99", "ms", Percentile(r0.rpo_ms, 99)},
      {"wan_bytes_per_write_byte", "ratio", r0.wan_ratio},
      {"catchup_ms_p50", "ms", Percentile(r0.catchup_ms, 50)},
      {"catchup_ms_max", "ms",
       r0.catchup_ms.empty()
           ? 0
           : *std::max_element(r0.catchup_ms.begin(), r0.catchup_ms.end())},
      {"setup_s", "s", Median(setups)},
      {"peak_rss_mib", "MiB", peak_rss},
  };
  PrintTable("end-to-end (untraced; host costs pooled over reps, scaled):",
             e2e);
  PrintTable(
      "host costs before scaling:",
      {{"host_ns_per_write", "ns", pooled_ns_per_write(reps, false)},
       {"fg_op_us_p50", "us", Percentile(fg_raw, 50) / 1e3},
       {"fg_op_us_p99", "us", Percentile(fg_raw, 99) / 1e3},
       {"setup_s", "s", Median(setups_raw)},
       {"reference_kernel_ms (median of reps)", "ms", Median(references)}});
  std::printf("  samples: fg_ops=%zu rpo=%zu catchup=%zu reps=%zu "
              "business_writes/rep=%" PRIu64 " business_bytes/rep=%" PRIu64
              "\n",
              fg.size(), r0.rpo_ms.size(), r0.catchup_ms.size(), reps.size(),
              r0.business_writes, r0.business_bytes);

  if (!opt.trace) {
    if (!repeats_match) {
      correct = false;
      std::fprintf(stderr, "FAILED: simulated results differ between reps\n");
    }
    std::printf("  %-40s %18.6f ratio (failed=%" PRIu64 " attempted=%" PRIu64
                ")\n",
                "failed_op_share", Ratio(double(failed), double(attempted)),
                failed, attempted);
    correct = correct && failed == 0;
    std::printf("%s\n", Json(correct, attempted, failed, e2e).c_str());
    return 0;
  }

  // ---- Traced run: determinism self-check, then per-layer metrics ----
  const unsigned other_lanes = lanes == 1 ? std::min(2u, hardware) : 1;
  RepResult lane_rep = RunRep(opt, opt.seed, other_lanes, false);
  Options other = opt;
  other.quick = true;
  RepResult seed_a = RunRep(other, opt.seed, lanes, false);
  RepResult seed_b = RunRep(other, opt.seed + 1, lanes, false);
  for (const RepResult* r : {&lane_rep, &seed_a, &seed_b}) {
    attempted += r->attempted;
    failed += r->failed;
  }
  auto determinism = [&](const std::string& what, bool ok) {
    std::printf("  determinism %-44s %s\n", what.c_str(), ok ? "ok" : "FAILED");
    correct = correct && ok;
  };
  bool traced_match = true;
  double mismatches = 0;
  for (const auto& r : traced) {
    traced_match &= r.fingerprint == r0.fingerprint;
    mismatches += Get(r.timed, "trace.replay_mismatches");
  }
  std::printf("self-check:\n");
  determinism("repeats of one seed", repeats_match);
  determinism("traced vs untraced", traced_match);
  determinism(std::to_string(lanes) + " vs " + std::to_string(other_lanes) +
                  " lanes",
              lane_rep.fingerprint == r0.fingerprint);
  determinism("seed change differs", seed_a.fingerprint != seed_b.fingerprint);
  determinism("codec replay frames", mismatches == 0);
  correct = correct && failed == 0;

  // Layer counts are simulated (identical in every rep); layer times are
  // the mean over the traced reps.
  std::map<std::string, double> all = r0.counts;
  for (const auto& r : traced) {
    for (const auto& [name, v] : r.timed) {
      all[name] += v / double(traced.size());
    }
  }
  std::vector<double> copies;
  for (const auto& r : reps) copies.push_back(r.initial_copy_s);
  all["setup.initial_copy_s"] = Median(copies);
  all["trace.overhead_share"] =
      Ratio(pooled_ns_per_write(traced, true), host_ns) - 1;

  // Per-layer metrics (see e2ebench/README.md for what each should move).
  const std::vector<std::pair<const char*, const char*>> layer = {
      {"db.bytes_written_per_txn", "bytes"},
      {"db.checkpoints", "count"},
      {"storage.write_ns_p50", "ns"},
      {"journal.appends", "count"},
      {"journal.peak_used_bytes", "bytes"},
      {"journal.overflows", "count"},
      {"journal.fold_share", "ratio"},
      {"replication.ship_ns_per_batch", "ns"},
      {"replication.apply_ns_per_record", "ns"},
      {"replication.ack_ns_per_batch", "ns"},
      {"replication.records_per_batch", "count"},
      {"replication.bytes_per_batch", "bytes"},
      {"replication.ack_timeouts", "count"},
      {"replication.suspends", "count"},
      {"replication.checksum_rejects", "count"},
      {"replication.resync_blocks", "count"},
      {"replication.blocks_per_extent", "count"},
      {"replication.resync_wire_bytes_per_block", "bytes"},
      {"replication.auto_resync_attempts", "count"},
      {"sched.dispatches", "count"},
      {"sched.wakeups", "count"},
      {"sched.heartbeats", "count"},
      {"sched.starved_turns", "count"},
      {"sched.idle_dispatch_ns", "ns"},
      {"scrub.blocks_scanned", "count"},
      {"wire.encode_ns_per_kib", "ns"},
      {"wire.decode_ns_per_kib", "ns"},
      {"codec.compress_ns_per_kib", "ns"},
      {"codec.decompress_ns_per_kib", "ns"},
      {"crc.ns_per_kib", "ns"},
      {"wire.compress_ratio", "ratio"},
      {"sim.events_per_write", "count"},
      {"sim.other_event_ns", "ns"},
      {"link.fwd_busy_share", "ratio"},
      {"link.messages", "count"},
      {"link.dropped", "count"},
      {"exec.sections", "count"},
      {"exec.inline_sections", "count"},
      {"exec.tasks", "count"},
      {"exec.steals", "count"},
      {"snapshot.preserved_blocks", "count"},
      {"setup.initial_copy_blocks", "count"},
      {"setup.initial_copy_s", "s"},
      {"trace.overhead_share", "ratio"},
  };
  // Layers that only some workloads exercise; printed, not in the JSON.
  const std::vector<std::pair<const char*, const char*>> extra = {
      {"db.commit_self_ns", "ns"},
      {"replication.resync_ns_per_block", "ns"},
      {"replication.failback_ns_per_block", "ns"},
      {"scrub.ns_per_block", "ns"},
      {"snapshot.verify_ms", "ms"},
      {"setup.configure_sim_ms", "ms"},
      {"trace.spans", "count"},
  };
  std::vector<Metric> per_layer, printed;
  for (const auto& [name, unit] : layer) {
    per_layer.push_back({name, unit, Get(all, name)});
  }
  for (const auto& [name, unit] : extra) {
    printed.push_back({name, unit, Get(all, name)});
  }
  PrintTable("per-layer (traced rep):", per_layer);
  PrintTable("per-layer, workload-specific (traced rep):", printed);
  std::printf("  spans written to %s\n", spans.c_str());
  std::printf("  %-40s %18.6f ratio (failed=%" PRIu64 " attempted=%" PRIu64
              ")\n",
              "failed_op_share", Ratio(double(failed), double(attempted)),
              failed, attempted);
  std::printf("%s\n", Json(correct, attempted, failed, per_layer).c_str());
  return 0;
}

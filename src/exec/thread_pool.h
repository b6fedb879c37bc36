#ifndef ZEROBAK_EXEC_THREAD_POOL_H_
#define ZEROBAK_EXEC_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace zerobak::exec {

// A fixed-size compute pool for offloading pure data-parallel work from
// the single-threaded discrete-event simulator without giving up
// determinism. Its one client is bulk-frame capture
// (replication::wire::EncodeExtents): the extent reads and chunk
// compression of resync and giveback frames. Journal batches are too
// small to win from a fan-out and stay inline.
//
// The contract that keeps the simulation bit-reproducible:
//
//   * Every parallel section is bracketed inside ONE simulator event: the
//     caller fans work out with ParallelFor and blocks until the join
//     barrier, so no sim-visible state changes while workers run and no
//     work outlives the event that spawned it.
//   * Workers compute into disjoint, pre-assigned output slots; the caller
//     merges results in canonical index order after the join. Scheduling
//     (which lane ran which block, steals, queue depths) can vary run to
//     run, but outputs are a pure function of the inputs.
//   * Sim-visible decisions (formats, sizes, thresholds) must never depend
//     on lanes(); the pool only changes *when* bytes get computed, not
//     which bytes.
//
// Topology: `lanes` is the total number of compute lanes INCLUDING the
// calling (simulator) thread, so lanes=1 means no worker threads and every
// ParallelFor runs inline — the legacy serial path, byte-for-byte. Each
// lane owns a sharded task deque; blocks are dealt round-robin at submit,
// a lane pops its own shard front-first and steals from other shards
// back-first when idle. The caller participates in draining its section,
// then parks on the section's join barrier until stragglers finish.
//
// Nested sections (a worker's block calling ParallelFor) run inline on the
// worker — the pool never deadlocks on itself.
class ThreadPool {
 public:
  // Host-side execution counters, aggregated since construction. These
  // describe scheduling on the machine running the simulation, NOT
  // simulated behavior: steals and queue depths legitimately differ
  // between runs and between lane counts. Anything comparing runs for
  // determinism must exclude them (the engine exports them under the
  // "exec." metric prefix for exactly that reason).
  struct Stats {
    uint64_t sections = 0;         // ParallelFor calls that fanned out.
    uint64_t inline_sections = 0;  // Ran inline (lanes=1, tiny n, nested).
    uint64_t tasks = 0;            // Blocks enqueued across all sections.
    uint64_t steals = 0;           // Blocks taken from a foreign shard.
    uint64_t max_queue_depth = 0;  // Deepest any shard ever got.
  };

  // Spawns lanes-1 worker threads. lanes==0 is treated as 1.
  explicit ThreadPool(unsigned lanes);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned lanes() const { return lanes_; }

  // Runs body(begin, end) over [0, n) split into blocks of at most `grain`
  // indices, in parallel across the pool, and returns only when every
  // block has completed (the join barrier). body must be safe to run
  // concurrently against itself on disjoint ranges and must not throw.
  // Runs inline when the section is too small to be worth fanning out,
  // when lanes()==1, or when called from inside a pool worker.
  void ParallelFor(size_t n, size_t grain,
                   const std::function<void(size_t begin, size_t end)>& body);

  Stats stats() const;

  // max(1, std::thread::hardware_concurrency()) — the default lane count
  // when a caller asks for "auto".
  static unsigned HardwareLanes();

 private:
  struct Job;
  struct Task {
    Job* job = nullptr;
    size_t begin = 0;
    size_t end = 0;
  };
  struct Shard {
    std::mutex mu;
    std::deque<Task> queue;
  };

  void WorkerLoop(unsigned self);
  // Pops one task (own shard front, else steal a foreign back) and runs
  // it. Returns false when every shard was empty.
  bool TryRunOne(unsigned self);
  void RunTask(const Task& task);

  const unsigned lanes_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::thread> workers_;

  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  std::atomic<uint64_t> ready_{0};  // Enqueued-but-unclaimed tasks.
  bool stop_ = false;               // Guarded by wake_mu_.

  std::atomic<uint64_t> sections_{0};
  std::atomic<uint64_t> inline_sections_{0};
  std::atomic<uint64_t> tasks_{0};
  std::atomic<uint64_t> steals_{0};
  std::atomic<uint64_t> max_queue_depth_{0};
};

}  // namespace zerobak::exec

#endif  // ZEROBAK_EXEC_THREAD_POOL_H_

#ifndef ZEROBAK_EXEC_THREAD_POOL_H_
#define ZEROBAK_EXEC_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace zerobak::exec {

// A fixed-size compute pool that offloads pure data-parallel work from the
// single-threaded simulator without giving up determinism. Its one client
// is bulk-frame capture (replication::wire::EncodeExtents). A section runs
// inside ONE simulator event, its blocks write disjoint output slots, and
// nothing sim-visible depends on lanes(): the pool changes *when* bytes
// get computed, not which bytes. `lanes` counts the calling thread, so
// lanes=1 means no worker threads. One section runs at a time: the caller
// publishes it, claims blocks from its shared cursor like any worker, and
// returns once the cursor is spent and no worker still holds it. Callers on
// different threads take turns; a ParallelFor inside a block runs inline.
class ThreadPool {
 public:
  // Host-side counters, counted by the calling thread. They differ between
  // lane counts, so determinism checks skip their "exec." metrics.
  struct Stats {
    uint64_t sections = 0;         // ParallelFor calls that fanned out.
    uint64_t inline_sections = 0;  // Ran inline (lanes=1, tiny n, nested).
    uint64_t tasks = 0;            // Blocks across fanned-out sections.
  };

  // Spawns lanes-1 worker threads. lanes==0 is treated as 1.
  explicit ThreadPool(unsigned lanes);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  unsigned lanes() const { return lanes_; }

  // Runs body(begin, end) over [0, n) in blocks of at most `grain` indices
  // and returns once every block has completed, its writes visible. body
  // must not throw. Runs inline for one block, lanes()==1, or nesting.
  void ParallelFor(size_t n, size_t grain,
                   const std::function<void(size_t begin, size_t end)>& body);

  Stats stats() const {
    return {sections_.load(), inline_sections_.load(), tasks_.load()};
  }

  // max(1, hardware_concurrency()): the lane count a caller gets for "auto".
  static unsigned HardwareLanes();

 private:
  struct Job;
  void WorkerLoop();
  const unsigned lanes_;
  std::mutex section_mu_;  // Held by a caller for its whole section.

  std::mutex wake_mu_;  // Guards the four fields below.
  std::condition_variable wake_cv_;  // Workers: a new section, or stop.
  std::condition_variable done_cv_;  // Caller: the last holder let go.
  Job* job_ = nullptr;               // The section in flight, if any.
  uint64_t generation_ = 0;          // Bumped per published section.
  unsigned holders_ = 0;             // Workers inside *job_.
  bool stop_ = false;

  std::atomic<uint64_t> sections_{0};
  std::atomic<uint64_t> inline_sections_{0};
  std::atomic<uint64_t> tasks_{0};
  std::vector<std::thread> workers_;  // After everything they use.
};

}  // namespace zerobak::exec

#endif  // ZEROBAK_EXEC_THREAD_POOL_H_

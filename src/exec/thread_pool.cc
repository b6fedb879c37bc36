#include "exec/thread_pool.h"

#include <algorithm>

namespace zerobak::exec {

// Set while a thread runs blocks, so a nested ParallelFor runs inline
// instead of waiting on the section it is part of.
static thread_local bool t_inside_pool_worker = false;

// One section, on the caller's stack. Workers touch it only while counted
// in holders_, which the caller drains before returning.
struct ThreadPool::Job {
  const std::function<void(size_t, size_t)>& body;
  const size_t n, grain, blocks;
  std::atomic<size_t> next{0};  // The shared cursor: next unclaimed block.
  void RunBlocks() {
    for (size_t b; (b = next.fetch_add(1)) < blocks;) {
      body(b * grain, std::min(n, (b + 1) * grain));
    }
  }
};

ThreadPool::ThreadPool(unsigned lanes) : lanes_(lanes == 0 ? 1 : lanes) {
  for (unsigned i = 1; i < lanes_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  std::unique_lock<std::mutex> lock(wake_mu_);
  stop_ = true;
  lock.unlock();
  wake_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

unsigned ThreadPool::HardwareLanes() {
  return std::max(1u, std::thread::hardware_concurrency());
}

void ThreadPool::ParallelFor(
    size_t n, size_t grain,
    const std::function<void(size_t, size_t)>& body) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  const size_t blocks = (n + grain - 1) / grain;
  if (lanes_ == 1 || blocks <= 1 || t_inside_pool_worker) {
    inline_sections_.fetch_add(1, std::memory_order_relaxed);
    body(0, n);
    return;
  }
  sections_.fetch_add(1, std::memory_order_relaxed);
  tasks_.fetch_add(blocks, std::memory_order_relaxed);

  std::lock_guard<std::mutex> section(section_mu_);
  Job job{body, n, grain, blocks};
  std::unique_lock<std::mutex> lock(wake_mu_);
  job_ = &job;
  ++generation_;
  lock.unlock();
  wake_cv_.notify_all();
  t_inside_pool_worker = true;
  job.RunBlocks();
  t_inside_pool_worker = false;
  // The cursor is spent: every block is done or runs on a holder. Retract
  // the job once no holder is left, under the lock a late worker needs to
  // take it. The mutex hand-off also publishes the workers' writes.
  lock.lock();
  done_cv_.wait(lock, [this] { return holders_ == 0; });
  job_ = nullptr;
}

void ThreadPool::WorkerLoop() {
  t_inside_pool_worker = true;
  uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(wake_mu_);
  for (;;) {
    wake_cv_.wait(lock, [this, &seen] {
      return stop_ || (job_ != nullptr && generation_ != seen);
    });
    if (stop_) return;  // Sections join before ~ThreadPool runs.
    seen = generation_;
    Job* job = job_;
    ++holders_;
    lock.unlock();
    job->RunBlocks();
    lock.lock();
    if (--holders_ == 0) done_cv_.notify_one();
  }
}

}  // namespace zerobak::exec

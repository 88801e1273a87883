//===- harness/ThreadPool.h - Fixed-size worker pool ------------*- C++ -*-===//
///
/// \file
/// A small fixed-size thread pool in the LLVM style: std::thread workers
/// draining a locked deque, a condition variable for arrival, and a
/// second one so wait() can block until every submitted task has retired.
/// No external dependencies; used by the experiment driver to run
/// independent simulation cells concurrently.
///
//===----------------------------------------------------------------------===//

#ifndef SPF_HARNESS_THREADPOOL_H
#define SPF_HARNESS_THREADPOOL_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace spf {
namespace harness {

/// A fixed-size pool of worker threads executing queued tasks in FIFO
/// submission order (start order; completion order is unspecified).
class ThreadPool {
public:
  /// Spawns \p ThreadCount workers. A count of 0 is clamped to 1.
  explicit ThreadPool(unsigned ThreadCount);

  /// Waits for all queued work, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Enqueues \p Task for execution on some worker. A task that throws
  /// does not kill the worker or wedge wait(): the exception is swallowed
  /// (counted in uncaughtExceptions()) and the pool keeps running —
  /// callers that care about failures must catch inside the task.
  void async(std::function<void()> Task);

  /// Blocks until every task submitted so far has finished.
  void wait();

  unsigned threadCount() const {
    return static_cast<unsigned>(Workers.size());
  }

  /// Number of tasks whose exceptions escaped into the pool.
  uint64_t uncaughtExceptions() const {
    return UncaughtExceptions.load(std::memory_order_relaxed);
  }

private:
  void workerLoop();
  void retireTask();

  std::vector<std::thread> Workers;
  std::deque<std::function<void()>> Tasks;
  std::mutex QueueLock;
  std::condition_variable QueueCondition;      ///< Task arrival / shutdown.
  std::condition_variable CompletionCondition; ///< Queue drained.
  unsigned ActiveTasks = 0;
  bool Shutdown = false;
  std::atomic<uint64_t> UncaughtExceptions{0};
};

/// Largest accepted worker count (SPF_JOBS, --jobs): more threads than
/// this is a typo, not a configuration.
inline constexpr unsigned MaxJobs = 1024;

/// The worker count the harness should use: SPF_JOBS when set (an
/// integer in [1, MaxJobs]; anything else exits 2, see support/Env.h),
/// otherwise std::thread::hardware_concurrency() (clamped to >= 1).
unsigned defaultJobs();

} // namespace harness
} // namespace spf

#endif // SPF_HARNESS_THREADPOOL_H

//===- harness/ThreadPool.cpp ---------------------------------------------===//

#include "harness/ThreadPool.h"

#include "support/Env.h"

using namespace spf;
using namespace spf::harness;

ThreadPool::ThreadPool(unsigned ThreadCount) {
  if (ThreadCount == 0)
    ThreadCount = 1;
  Workers.reserve(ThreadCount);
  for (unsigned I = 0; I != ThreadCount; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  wait();
  {
    std::lock_guard<std::mutex> Lock(QueueLock);
    Shutdown = true;
  }
  QueueCondition.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void ThreadPool::async(std::function<void()> Task) {
  {
    std::lock_guard<std::mutex> Lock(QueueLock);
    Tasks.push_back(std::move(Task));
  }
  QueueCondition.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> Lock(QueueLock);
  CompletionCondition.wait(
      Lock, [this] { return Tasks.empty() && ActiveTasks == 0; });
}

namespace {

/// Retires one task on destruction — on the normal path *and* when the
/// task throws. Without this, an escaping exception would leak the
/// ActiveTasks increment and wait() would block forever.
template <typename Fn> struct TaskCompletion {
  Fn F;
  ~TaskCompletion() { F(); }
};
template <typename Fn> TaskCompletion(Fn) -> TaskCompletion<Fn>;

} // namespace

void ThreadPool::retireTask() {
  std::lock_guard<std::mutex> Lock(QueueLock);
  --ActiveTasks;
  if (Tasks.empty() && ActiveTasks == 0)
    CompletionCondition.notify_all();
}

void ThreadPool::workerLoop() {
  for (;;) {
    std::function<void()> Task;
    {
      std::unique_lock<std::mutex> Lock(QueueLock);
      QueueCondition.wait(Lock,
                          [this] { return Shutdown || !Tasks.empty(); });
      if (Tasks.empty())
        return; // Shutdown with a drained queue.
      Task = std::move(Tasks.front());
      Tasks.pop_front();
      ++ActiveTasks;
    }
    TaskCompletion Completion{[this] { retireTask(); }};
    try {
      Task();
    } catch (...) {
      // A throwing task must not take the worker (and with it the whole
      // pool) down; record it and move on to the next task.
      UncaughtExceptions.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

unsigned harness::defaultJobs() {
  if (uint64_t Jobs = support::envU64("SPF_JOBS", 0, 1, MaxJobs))
    return static_cast<unsigned>(Jobs);
  unsigned HW = std::thread::hardware_concurrency();
  return HW ? HW : 1;
}

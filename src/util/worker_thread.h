#pragma once

#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>

namespace mmlib::util {

/// Single background thread executing submitted tasks strictly in FIFO
/// order, one at a time.
///
/// This is the house primitive for overlapping slow side work (batch
/// prefetching) with the main thread: serial execution means the side
/// work keeps exactly the order the main thread submitted it in, so any
/// order-sensitive state the tasks touch sees the same sequence as a
/// synchronous run. Tasks should catch
/// inside the task and stash errors for the submitter; as a safety net, an
/// exception that does escape a task is captured (first one wins, later
/// tasks still run) and rethrown from the next Drain(). An exception still
/// pending when the WorkerThread is destroyed is logged to stderr and
/// aborts the process — a background failure is never silently dropped.
///
/// The thread is lazily started on first Submit and joined on destruction
/// after finishing all queued tasks.
class WorkerThread {
 public:
  WorkerThread() = default;
  ~WorkerThread();

  WorkerThread(const WorkerThread&) = delete;
  WorkerThread& operator=(const WorkerThread&) = delete;

  /// Enqueues a task. Tasks run on the worker thread in submission order.
  void Submit(std::function<void()> task);

  /// Blocks until every task submitted so far has finished. Establishes a
  /// happens-before edge from all task effects to the caller. Rethrows the
  /// first exception that escaped a task since the last Drain (the pending
  /// slot is cleared first, so the WorkerThread remains usable).
  void Drain();

  /// Tasks that have finished executing (monotonic).
  uint64_t completed() const;

 private:
  void RunLoop();

  mutable std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> queue_;
  std::thread thread_;
  bool started_ = false;
  bool stopping_ = false;
  bool busy_ = false;
  uint64_t completed_ = 0;
  std::exception_ptr pending_;  // first exception that escaped a task
};

}  // namespace mmlib::util

#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace mmlib::util {

/// Fixed-size worker pool with a deterministic `ParallelFor`.
///
/// Determinism contract (DESIGN.md "Threading model"): `ParallelFor`
/// partitions `[0, total)` into chunks whose boundaries depend only on
/// `total` and `grain` — never on the worker count or on scheduling order.
/// Chunks must write disjoint outputs; reductions accumulate into per-chunk
/// scratch that the caller combines in chunk-index order after ParallelFor
/// returns. Under that discipline every result is bit-identical whether the
/// pool runs 1 thread or 16, which is what keeps the per-layer traces
/// (`core::TraceRecorder`) of Fig. 13 replays equal across machines with
/// different core counts.
///
/// The pool size is fixed at construction; the process-wide default pool
/// (`Global()`) sizes itself from the MMLIB_THREADS environment variable,
/// falling back to the hardware thread count.
class ThreadPool {
 public:
  /// `thread_count` is the total number of threads that execute chunks,
  /// including the calling thread: the pool spawns `thread_count - 1`
  /// workers. 0 is treated as 1 (fully serial, no workers).
  explicit ThreadPool(size_t thread_count);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total threads that participate in ParallelFor (workers + caller).
  size_t thread_count() const { return workers_.size() + 1; }

  /// Chunk body: processes `[begin, end)`; `chunk_index` identifies the
  /// chunk for per-chunk scratch/seeding. Must not touch another chunk's
  /// output.
  using ChunkFn = std::function<void(int64_t begin, int64_t end,
                                     size_t chunk_index)>;

  /// Runs `fn` over `[0, total)` in chunks of `grain` elements (the last
  /// chunk may be short). Chunk boundaries are a pure function of `total`
  /// and `grain`. Blocks until every chunk has completed; if any chunk body
  /// throws, the exception from the lowest-indexed failing chunk is
  /// rethrown here (remaining chunks still run). Nested calls from inside a
  /// chunk body execute inline on the calling thread.
  void ParallelFor(int64_t total, int64_t grain, const ChunkFn& fn);

  /// Lazily constructed process-wide pool; size from MMLIB_THREADS.
  /// Never destroyed (workers must outlive static teardown).
  static ThreadPool* Global();

  /// Thread count Global() would use: MMLIB_THREADS if set and valid,
  /// otherwise the hardware thread count.
  static size_t DefaultThreadCount();

  /// Parses a MMLIB_THREADS-style value. nullptr, empty, or non-numeric
  /// values yield `fallback`; 0 yields 1; results clamp to [1, 1024].
  static size_t ParseThreadCount(const char* value, size_t fallback);

 private:
  struct Job;

  void WorkerLoop();
  static void RunChunks(Job* job);

  std::mutex mutex_;
  std::condition_variable work_cv_;  // workers: new job or shutdown
  std::condition_variable done_cv_;  // caller: all chunks finished
  std::shared_ptr<Job> job_;         // active job, null when idle
  uint64_t job_generation_ = 0;
  bool shutdown_ = false;
  std::mutex submit_mutex_;  // serializes concurrent ParallelFor callers
  std::vector<std::thread> workers_;
};

/// Number of chunks ParallelFor creates for (total, grain): grain <= 0 is
/// treated as 1. Use to size per-chunk scratch buffers.
inline int64_t NumChunks(int64_t total, int64_t grain) {
  if (total <= 0) {
    return 0;
  }
  if (grain <= 0) {
    grain = 1;
  }
  return (total + grain - 1) / grain;
}

/// Grain producing at most `max_chunks` chunks over `total` — a function of
/// the problem size only, so chunk boundaries (and therefore any fixed-order
/// reduction over them) stay independent of the thread count.
inline int64_t GrainForMaxChunks(int64_t total, int64_t max_chunks) {
  if (total <= 0 || max_chunks <= 0) {
    return 1;
  }
  return (total + max_chunks - 1) / max_chunks;
}

/// ParallelFor on `pool`, or on the global pool when `pool` is null.
void ParallelFor(ThreadPool* pool, int64_t total, int64_t grain,
                 const ThreadPool::ChunkFn& fn);

}  // namespace mmlib::util

#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "util/scratch_pool.h"

namespace mmlib::util {
namespace {

TEST(ThreadPoolTest, RunsEveryElementExactlyOnce) {
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    ThreadPool pool(threads);
    constexpr int64_t kTotal = 1000;
    std::vector<int> counts(kTotal, 0);
    pool.ParallelFor(kTotal, /*grain=*/7,
                     [&](int64_t begin, int64_t end, size_t /*chunk*/) {
                       for (int64_t i = begin; i < end; ++i) {
                         ++counts[static_cast<size_t>(i)];
                       }
                     });
    for (int64_t i = 0; i < kTotal; ++i) {
      EXPECT_EQ(counts[static_cast<size_t>(i)], 1) << "i=" << i;
    }
  }
}

TEST(ThreadPoolTest, ZeroTotalRunsNothing) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.ParallelFor(0, 8, [&](int64_t, int64_t, size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolTest, ChunkBoundariesIndependentOfThreadCount) {
  // The determinism contract: chunk decomposition is a pure function of
  // (total, grain), never of the pool size.
  using Chunk = std::tuple<int64_t, int64_t, size_t>;
  auto decompose = [](size_t threads, int64_t total, int64_t grain) {
    ThreadPool pool(threads);
    std::mutex mu;
    std::set<Chunk> chunks;
    pool.ParallelFor(total, grain,
                     [&](int64_t begin, int64_t end, size_t index) {
                       std::lock_guard<std::mutex> lock(mu);
                       chunks.insert({begin, end, index});
                     });
    return chunks;
  };
  for (int64_t total : {1, 5, 64, 1000}) {
    for (int64_t grain : {1, 3, 64, 2000}) {
      const std::set<Chunk> reference = decompose(1, total, grain);
      EXPECT_EQ(static_cast<int64_t>(reference.size()),
                NumChunks(total, grain));
      EXPECT_EQ(decompose(2, total, grain), reference)
          << "total=" << total << " grain=" << grain;
      EXPECT_EQ(decompose(8, total, grain), reference)
          << "total=" << total << " grain=" << grain;
    }
  }
}

TEST(ThreadPoolTest, ParallelSumMatchesSerialSum) {
  constexpr int64_t kTotal = 4096;
  std::vector<int64_t> values(kTotal);
  std::iota(values.begin(), values.end(), 1);

  ThreadPool pool(4);
  const int64_t grain = GrainForMaxChunks(kTotal, 16);
  const size_t num_chunks = static_cast<size_t>(NumChunks(kTotal, grain));
  std::vector<int64_t> partial(num_chunks, 0);
  pool.ParallelFor(kTotal, grain,
                   [&](int64_t begin, int64_t end, size_t chunk) {
                     for (int64_t i = begin; i < end; ++i) {
                       partial[chunk] += values[static_cast<size_t>(i)];
                     }
                   });
  int64_t sum = 0;
  for (size_t c = 0; c < num_chunks; ++c) {
    sum += partial[c];
  }
  EXPECT_EQ(sum, kTotal * (kTotal + 1) / 2);
}

TEST(ThreadPoolTest, PropagatesLowestChunkException) {
  ThreadPool pool(4);
  try {
    pool.ParallelFor(64, /*grain=*/8,
                     [&](int64_t /*begin*/, int64_t /*end*/, size_t chunk) {
                       throw std::runtime_error("chunk " +
                                                std::to_string(chunk));
                     });
    FAIL() << "ParallelFor did not rethrow";
  } catch (const std::runtime_error& e) {
    // Every chunk throws; the lowest-indexed failure is reported, so the
    // error is deterministic too.
    EXPECT_STREQ(e.what(), "chunk 0");
  }
}

TEST(ThreadPoolTest, UsableAfterException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelFor(16, 1,
                                [](int64_t, int64_t, size_t) {
                                  throw std::runtime_error("boom");
                                }),
               std::runtime_error);

  // The pool must have fully drained the failed job and accept new work.
  std::atomic<int64_t> visited{0};
  pool.ParallelFor(100, 10, [&](int64_t begin, int64_t end, size_t) {
    visited += end - begin;
  });
  EXPECT_EQ(visited.load(), 100);
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  ThreadPool pool(4);
  std::atomic<int64_t> inner_total{0};
  pool.ParallelFor(8, 1, [&](int64_t, int64_t, size_t) {
    // A nested call from inside a chunk body must not deadlock; it runs
    // inline on the calling thread.
    pool.ParallelFor(10, 2, [&](int64_t begin, int64_t end, size_t) {
      inner_total += end - begin;
    });
  });
  EXPECT_EQ(inner_total.load(), 8 * 10);
}

TEST(ThreadPoolTest, ParseThreadCount) {
  EXPECT_EQ(ThreadPool::ParseThreadCount(nullptr, 3), 3u);
  EXPECT_EQ(ThreadPool::ParseThreadCount("", 3), 3u);
  EXPECT_EQ(ThreadPool::ParseThreadCount("abc", 3), 3u);
  EXPECT_EQ(ThreadPool::ParseThreadCount("4x", 3), 3u);
  EXPECT_EQ(ThreadPool::ParseThreadCount("0", 3), 1u);
  EXPECT_EQ(ThreadPool::ParseThreadCount("1", 3), 1u);
  EXPECT_EQ(ThreadPool::ParseThreadCount("16", 3), 16u);
  EXPECT_EQ(ThreadPool::ParseThreadCount("99999", 3), 1024u);
}

TEST(ThreadPoolTest, ZeroThreadsBehavesAsSerial) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 1u);
  std::vector<int> counts(50, 0);
  pool.ParallelFor(50, 5, [&](int64_t begin, int64_t end, size_t) {
    for (int64_t i = begin; i < end; ++i) {
      ++counts[static_cast<size_t>(i)];
    }
  });
  for (int c : counts) {
    EXPECT_EQ(c, 1);
  }
}

TEST(ThreadPoolTest, GrainHelpers) {
  EXPECT_EQ(NumChunks(0, 4), 0);
  EXPECT_EQ(NumChunks(10, 0), 10);
  EXPECT_EQ(NumChunks(10, 3), 4);
  EXPECT_EQ(NumChunks(12, 3), 4);
  EXPECT_EQ(GrainForMaxChunks(0, 8), 1);
  EXPECT_EQ(GrainForMaxChunks(100, 8), 13);
  EXPECT_LE(NumChunks(100, GrainForMaxChunks(100, 8)), 8);
  // Small totals produce fewer chunks than the cap, never empty ones.
  EXPECT_EQ(GrainForMaxChunks(3, 8), 1);
  EXPECT_EQ(NumChunks(3, GrainForMaxChunks(3, 8)), 3);
}

TEST(ScratchPoolTest, ConcurrentAcquireReleaseKeepsInvariants) {
  // Hammer one pool from every pool thread with mixed sizes under a small
  // cap; TSan validates the locking, the assertions the accounting.
  ScratchPool scratch(/*max_retained_bytes=*/8 * 1024 * sizeof(float));
  ThreadPool pool(8);
  pool.ParallelFor(
      256, 1, [&](int64_t begin, int64_t end, size_t chunk_index) {
        for (int64_t i = begin; i < end; ++i) {
          ScratchPool::Lease lease =
              scratch.Acquire(static_cast<size_t>(i % 7 + 1) * 1024);
          lease.data()[0] = static_cast<float>(chunk_index);
          lease.data()[lease.size() - 1] = 1.0f;
        }
      });
  EXPECT_LE(scratch.retained_bytes(), 8 * 1024 * sizeof(float));
  EXPECT_GT(scratch.reused_acquires(), 0u);
  EXPECT_GE(scratch.allocated_buffers(), 1u);
}

TEST(ThreadPoolTest, GlobalPoolIsReusable) {
  ThreadPool* pool = ThreadPool::Global();
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(ThreadPool::Global(), pool);
  std::atomic<int64_t> visited{0};
  // Null pool routes to the global pool.
  ParallelFor(nullptr, 32, 4, [&](int64_t begin, int64_t end, size_t) {
    visited += end - begin;
  });
  EXPECT_EQ(visited.load(), 32);
}

}  // namespace
}  // namespace mmlib::util

/// Reproduces paper Figure 2: the serial and the parallel method compute
/// similar but different floating-point results for the same dot product.
/// Exits 1 unless all 12 configurations differ, and unless the thread
/// pool's deterministic chunking gives the same bits at every pool size.
#include <cinttypes>
#include <cstdio>

#include "bench/bench_common.h"
#include "tensor/tensor.h"
#include "util/random.h"
#include "util/thread_pool.h"

using namespace mmlib;

namespace {

/// Dot product on a thread pool under the deterministic-chunking contract:
/// fixed chunk boundaries (a pure function of n), per-chunk partial sums,
/// fixed-order reduction. Unlike DotParallel's scheduler-order association,
/// the result cannot depend on the pool size.
float DotPoolDeterministic(const float* a, const float* b, size_t n,
                           util::ThreadPool* pool) {
  const int64_t total = static_cast<int64_t>(n);
  const int64_t grain = util::GrainForMaxChunks(total, 32);
  const size_t num_chunks = static_cast<size_t>(util::NumChunks(total, grain));
  std::vector<float> partial(num_chunks, 0.0f);
  pool->ParallelFor(total, grain,
                    [&](int64_t begin, int64_t end, size_t chunk) {
                      partial[chunk] = DotSerial(a + begin, b + begin,
                                                 static_cast<size_t>(end - begin));
                    });
  float sum = 0.0f;
  for (size_t c = 0; c < num_chunks; ++c) {
    sum += partial[c];
  }
  return sum;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Figure 2", "Serial vs parallel dot-product results",
      "Same input vectors; the parallel method computes per-chunk partial\n"
      "sums and combines them, changing the floating-point association\n"
      "order (paper Section 2.3, Floating-point Arithmetic).");

  TablePrinter table({"n", "chunks", "serial", "parallel", "bit-identical",
                      "|diff|"});
  int differing = 0;
  int total = 0;
  for (size_t n : {1024, 4096, 16384, 65536}) {
    for (size_t chunks : {2, 8, 32}) {
      Rng rng(n + chunks);
      std::vector<float> a(n);
      std::vector<float> b(n);
      for (size_t i = 0; i < n; ++i) {
        a[i] = rng.NextUniform(-10.0f, 10.0f);
        b[i] = rng.NextUniform(-10.0f, 10.0f);
      }
      const float serial = DotSerial(a.data(), b.data(), n);
      const float parallel = DotParallel(a.data(), b.data(), n, chunks);
      char sbuf[32];
      char pbuf[32];
      char dbuf[32];
      std::snprintf(sbuf, sizeof(sbuf), "%.6f", serial);
      std::snprintf(pbuf, sizeof(pbuf), "%.6f", parallel);
      std::snprintf(dbuf, sizeof(dbuf), "%.3g",
                    std::abs(serial - parallel));
      table.AddRow({std::to_string(n), std::to_string(chunks), sbuf, pbuf,
                    serial == parallel ? "yes" : "no", dbuf});
      ++total;
      if (serial != parallel) {
        ++differing;
      }
    }
  }
  table.Print(std::cout);
  std::printf(
      "\n%d of %d configurations produce a different float result under the\n"
      "parallel association order — reproducing inference requires\n"
      "deterministic, fixed-order reductions (paper Section 2.4).\n",
      differing, total);

  // Counterpart: the thread pool's deterministic chunking keeps the result
  // bit-identical at every pool size — parallelism without the Figure 2
  // divergence.
  TablePrinter pool_table({"n", "pool threads", "result", "== 1-thread"});
  int pool_mismatches = 0;
  for (size_t n : {1024, 16384, 65536}) {
    Rng rng(n);
    std::vector<float> a(n);
    std::vector<float> b(n);
    for (size_t i = 0; i < n; ++i) {
      a[i] = rng.NextUniform(-10.0f, 10.0f);
      b[i] = rng.NextUniform(-10.0f, 10.0f);
    }
    util::ThreadPool serial(1);
    const float reference = DotPoolDeterministic(a.data(), b.data(), n,
                                                 &serial);
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      util::ThreadPool pool(threads);
      const float result = DotPoolDeterministic(a.data(), b.data(), n, &pool);
      char rbuf[32];
      std::snprintf(rbuf, sizeof(rbuf), "%.6f", result);
      pool_table.AddRow({std::to_string(n), std::to_string(threads), rbuf,
                         result == reference ? "yes" : "NO"});
      if (result != reference) {
        ++pool_mismatches;
      }
    }
  }
  std::printf("\n");
  pool_table.Print(std::cout);

  bench::Gate gate;
  gate.Check("serial and parallel results differ in all 12 configurations",
             differing == 12 && total == 12,
             std::to_string(differing) + " of " + std::to_string(total));
  gate.Check("deterministic chunking gives equal bits at every pool size",
             pool_mismatches == 0,
             std::to_string(pool_mismatches) + " mismatches");
  return gate.Report("claim check");
}

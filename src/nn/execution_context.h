#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "util/random.h"
#include "util/scratch_pool.h"
#include "util/thread_pool.h"

namespace mmlib::nn {

/// Phase timing accumulators (seconds), mirroring the categories of paper
/// Figure 13: loading data, forward pass, backward pass.
struct PhaseTimes {
  double data_load_seconds = 0;
  double forward_seconds = 0;
  double backward_seconds = 0;

  double TotalSeconds() const {
    return data_load_seconds + forward_seconds + backward_seconds;
  }
};

/// Execution configuration and per-run state for forward/backward passes.
///
/// Determinism model (paper Sections 2.3 and 4.5): both modes run the same
/// kernel plans. With `deterministic` set, every reduction runs in an order
/// fixed by the shape, so results are bit-identical at any pool size. With
/// it unset, the plans' GEMMs split their reductions (split-K) at points
/// drawn from scheduler(), a generator seeded from `scheduler_seed` that
/// models the scheduling nondeterminism of a parallel device: runs with
/// different scheduler seeds produce slightly different floating-point
/// results, while one seed reproduces its result at every pool size.
class ExecutionContext {
 public:
  /// Creates a deterministic context; `seed` drives intentional randomness
  /// (dropout masks, augmentation) so runs with equal seeds are identical.
  static ExecutionContext Deterministic(uint64_t seed) {
    ExecutionContext ctx(/*deterministic=*/true, seed, /*scheduler_seed=*/0);
    return ctx;
  }

  /// Creates a non-deterministic context; `scheduler_seed` stands in for the
  /// uncontrolled thread scheduling of a real parallel device (pass e.g. a
  /// wall-clock derived value).
  static ExecutionContext NonDeterministic(uint64_t seed,
                                           uint64_t scheduler_seed) {
    return ExecutionContext(/*deterministic=*/false, seed, scheduler_seed);
  }

  /// True while training (dropout active, batch-norm uses batch statistics).
  bool training() const { return training_; }
  void set_training(bool training) { training_ = training; }

  /// PRNG for intentional randomness; reproducible across runs when seeded
  /// identically.
  Rng* rng() { return &rng_; }

  /// Thread pool kernels shard their work on; defaults to the process-wide
  /// pool. With deterministic chunking (see util/thread_pool.h) results are
  /// bit-identical for every pool size, so the pool choice is pure
  /// performance configuration.
  util::ThreadPool* pool() const {
    return pool_ != nullptr ? pool_ : util::ThreadPool::Global();
  }
  void set_pool(util::ThreadPool* pool) { pool_ = pool; }

  /// Split-K scheduler the kernel plans draw their reduction blocks from
  /// (kernels::DrawKc): null when deterministic, otherwise seeded from
  /// `scheduler_seed`. Plans draw on the launching thread only.
  Rng* scheduler() { return deterministic_ ? nullptr : &scheduler_; }

  PhaseTimes* times() { return &times_; }
  const PhaseTimes& times() const { return times_; }

  /// Per-context scratch pool for step-scoped float temporaries outside the
  /// kernel plans (loss scratch, reduction staging). Lazily created and
  /// shared across copies of the context, so repeated training steps reuse
  /// the same buffers — the train loop stays malloc-free after warm-up.
  util::ScratchPool* scratch_pool() {
    if (scratch_ == nullptr) {
      scratch_ = std::make_shared<util::ScratchPool>();
    }
    return scratch_.get();
  }

 private:
  ExecutionContext(bool deterministic, uint64_t seed, uint64_t scheduler_seed)
      : deterministic_(deterministic),
        rng_(seed),
        scheduler_(scheduler_seed) {}

  bool deterministic_;
  bool training_ = true;
  Rng rng_;
  Rng scheduler_;
  util::ThreadPool* pool_ = nullptr;
  PhaseTimes times_;
  std::shared_ptr<util::ScratchPool> scratch_;
};

}  // namespace mmlib::nn


#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "simnet/network.h"

namespace perfbench {

/// The benchmark's one wall clock: steady_clock in nanoseconds.
inline uint64_t SteadyNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One recorded interval. Wall and virtual (simnet) time are separate
/// fields and are never added together.
struct Span {
  std::string name;
  uint64_t id = 0;
  /// Id of the span that was open when this one began; 0 for a root.
  uint64_t parent = 0;
  uint64_t wall_start_ns = 0;
  uint64_t wall_end_ns = 0;
  uint64_t virtual_start_ns = 0;
  uint64_t virtual_end_ns = 0;

  uint64_t WallNs() const { return wall_end_ns - wall_start_ns; }
  uint64_t VirtualNs() const { return virtual_end_ns - virtual_start_ns; }
};

/// In-memory span recorder. Spans nest by call order on the recording
/// thread: a span's parent is the innermost span still open when it
/// begins. Nothing is written until ChromeTraceJson() is called, so
/// recording costs two clock reads and a vector append per span.
class Tracer {
 public:
  /// `network` supplies the virtual clock; null records virtual time 0.
  explicit Tracer(const mmlib::simnet::Network* network);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span and returns its id (ids start at 1).
  uint64_t Begin(std::string name);
  /// Closes span `id`. Closing a span that is not the innermost open one
  /// (or is not open) is counted in misnested() instead of failing.
  void End(uint64_t id);

  /// Spans closed out of nesting order; 0 in a well-formed trace.
  uint64_t misnested() const { return misnested_; }

  /// Every span recorded so far; spans()[id - 1] is span `id`.
  const std::vector<Span>& spans() const { return spans_; }

  /// Chrome trace-event JSON ("X" events, microsecond timestamps relative
  /// to the tracer's creation). Each event's args carry span_id,
  /// parent_id, wall_start_ns, wall_ns, virtual_start_ns and virtual_ns.
  std::string ChromeTraceJson() const;

 private:
  uint64_t WallNow() const;
  uint64_t VirtualNow() const;

  const mmlib::simnet::Network* network_;
  uint64_t wall_origin_ns_;
  std::mutex mutex_;
  std::vector<Span> spans_;      // guarded by mutex_
  std::vector<uint64_t> open_;   // guarded by mutex_; innermost last
  uint64_t misnested_ = 0;       // guarded by mutex_
};

/// RAII span; does nothing when `tracer` is null.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->Begin(std::move(name)) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->End(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  uint64_t id_;
};

/// Wall ns of span `id` not covered by any of its direct children (the
/// union of the children's intervals, clipped to the parent, is
/// subtracted, so overlapping children are not counted twice).
uint64_t SelfWallNs(const std::vector<Span>& spans, uint64_t id);

/// Sum of the wall ns of the direct children of span `id` whose name
/// starts with `prefix`.
uint64_t ChildWallNs(const std::vector<Span>& spans, uint64_t id,
                     const std::string& prefix);

}  // namespace perfbench

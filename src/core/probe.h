#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataloader.h"
#include "hash/sha256.h"
#include "nn/model.h"
#include "util/bytes.h"
#include "util/result.h"

/// The per-layer trace (DESIGN.md "Correctness tooling"): the paper's
/// probing tool (Section 2.4) is built on it, and comparing the traces of
/// two training runs checks that a provenance replay reproduces the
/// original (Figure 13).
namespace mmlib::core {

/// One captured tensor: the digest of a layer's forward output or backward
/// input gradient.
struct TraceEvent {
  enum class Pass : uint8_t { kForward, kBackward };
  Pass pass = Pass::kForward;
  std::string layer_name;
  Digest digest;
};

/// The layer-wise trace of one execution: its events in execution order and
/// the loss. Traces can be serialized, moved across machines and compared,
/// which verifies model reproducibility across machines.
struct LayerTrace {
  std::vector<TraceEvent> events;
  float loss = 0.0f;

  Bytes Serialize() const;
  static Result<LayerTrace> Deserialize(const Bytes& data);

  /// Merkle root over the event digests: a compact fingerprint of the whole
  /// execution. Fails on an empty trace.
  Result<Digest> Root() const;
};

/// A position at which two traces differ.
struct TraceMismatch {
  size_t index = 0;  ///< Event position in execution order.
  TraceEvent::Pass pass = TraceEvent::Pass::kForward;
  std::string layer_name;
};

/// Outcome of comparing two traces event by event.
struct TraceComparison {
  bool equal = false;  ///< No mismatching event and equal loss.
  std::vector<TraceMismatch> mismatches;

  /// Names the first divergence, e.g. "forward event #2 (fc2) diverged, 3
  /// of 6 events differ"; empty when the traces are equal.
  std::string FirstDivergence() const;
};

/// Compares two traces position by position. An event present in only one
/// trace is a mismatch at its position.
TraceComparison CompareTraces(const LayerTrace& expected,
                              const LayerTrace& actual);

/// The ActivationObserver that builds traces: while alive, it appends every
/// forward output and backward input gradient of `model` to `trace`. The
/// model's previous observer is restored on destruction.
class TraceRecorder : public nn::ActivationObserver {
 public:
  TraceRecorder(nn::Model* model, LayerTrace* trace);
  ~TraceRecorder() override;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  void OnForward(const std::string& layer_name, const Tensor& output) override;
  void OnBackward(const std::string& layer_name,
                  const Tensor& grad_input) override;

 private:
  nn::Model* model_;
  LayerTrace* trace_;
  nn::ActivationObserver* previous_;
};

/// The probing tool (inspired by Riach's TensorFlow determinism probe):
/// executes one forward and backward pass of `model` on `batch` under a
/// softmax cross-entropy loss and returns its trace.
Result<LayerTrace> ProbeModel(nn::Model* model, const data::Batch& batch,
                              nn::ExecutionContext* ctx);

/// Probes the model twice with identically seeded training contexts and
/// compares the traces: whether, and at which layer, inference and training
/// diverge. Non-deterministic runs get different scheduler seeds, modeling
/// two runs on an uncontrolled parallel device.
Result<TraceComparison> CheckReproducibility(nn::Model* model,
                                             const data::Batch& batch,
                                             bool deterministic,
                                             uint64_t seed);

}  // namespace mmlib::core

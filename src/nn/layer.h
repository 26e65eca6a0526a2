#pragma once

#include <memory>
#include <string>
#include <vector>

#include "hash/sha256.h"
#include "nn/execution_context.h"
#include "tensor/tensor.h"
#include "util/result.h"

namespace mmlib::nn {

/// A named parameter or buffer of a layer. Parameters (trainable=true by
/// default) receive gradients; buffers (e.g. batch-norm running statistics)
/// do not but are part of the model state and are saved/recovered with it.
struct Param {
  std::string name;
  Tensor value;
  Tensor grad;       // same shape as value; zero when unused
  bool trainable = true;
  bool is_buffer = false;
};

/// Base class of all neural-network layers.
///
/// A layer transforms one or more input tensors into one output tensor and,
/// for training, maps the output gradient back to input gradients while
/// accumulating parameter gradients. Layers cache whatever they need from
/// Forward for use in the subsequent Backward (single-use, not reentrant).
class Layer {
 public:
  explicit Layer(std::string name) : name_(std::move(name)) {}
  virtual ~Layer() = default;

  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  const std::string& name() const { return name_; }

  /// Stable type tag, e.g. "conv2d"; used in architecture fingerprints.
  virtual std::string_view type() const = 0;

  /// Number of inputs this layer consumes (1 for most; >=2 for Add/Concat).
  virtual size_t arity() const { return 1; }

  /// Computes the layer output.
  virtual Result<Tensor> Forward(const std::vector<const Tensor*>& inputs,
                                 ExecutionContext* ctx) = 0;

  /// Computes input gradients from the output gradient; must be called after
  /// Forward. Parameter gradients accumulate into Param::grad.
  virtual Result<std::vector<Tensor>> Backward(const Tensor& grad_output,
                                               ExecutionContext* ctx) = 0;

  /// Parameters and buffers, in a stable order.
  std::vector<Param>& params() { return params_; }
  const std::vector<Param>& params() const { return params_; }

  /// Total trainable parameter element count.
  int64_t TrainableParamCount() const;

  /// Total element count including buffers.
  int64_t TotalParamCount() const;

  /// Marks all (non-buffer) parameters trainable or frozen.
  void SetTrainable(bool trainable);

  /// True if any parameter of this layer is trainable.
  bool HasTrainableParams() const;

  /// Zeroes all parameter gradients.
  void ZeroGrad();

  /// SHA-256 over all parameter and buffer values of this layer, in order.
  /// This is the per-layer hash used as Merkle-tree leaf (paper Section 3.2).
  Digest ParamHash() const;

  /// ParamHash() with the per-parameter content digests supplied by the
  /// caller (params()[i].value.ContentHash(), in order). Lets Model hash
  /// parameter tensors in parallel with byte-weighted chunking while the
  /// leaf digest stays byte-identical to ParamHash().
  Digest ParamHashWith(const std::vector<Digest>& param_digests) const;

  /// Serializes all parameter and buffer values (not gradients).
  void SerializeParams(BytesWriter* writer) const;
  /// Bytes SerializeParams writes.
  size_t SerializedParamsSize() const;

  /// Restores parameter and buffer values; shapes must match.
  Status DeserializeParams(BytesReader* reader);

 protected:
  /// Registers a parameter tensor; returns its index.
  size_t AddParam(std::string name, Tensor value, bool trainable = true,
                  bool is_buffer = false);

  std::string name_;
  std::vector<Param> params_;
};

}  // namespace mmlib::nn


#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "hash/merkle_tree.h"
#include "nn/layer.h"

namespace mmlib::nn {

/// Receives per-layer activations and gradients during Forward/Backward.
/// Implemented by the reproducibility probing tool (paper Section 2.4).
class ActivationObserver {
 public:
  virtual ~ActivationObserver() = default;
  virtual void OnForward(const std::string& layer_name,
                         const Tensor& output) = 0;
  virtual void OnBackward(const std::string& layer_name,
                          const Tensor& grad_input) = 0;
};

/// Per-layer parameter hash, in layer order.
struct LayerHash {
  std::string layer_name;
  Digest digest;
};

/// A neural network as a DAG of layers, executed in insertion (topological)
/// order. Node inputs reference earlier nodes or the model input.
///
/// The Model is the unit the mmlib save/recover approaches operate on: it
/// exposes the layer-granular state (paper: "the model's internal data
/// structure that maps each layer to its parameters"), per-layer hashes for
/// the PUA's Merkle tree, and an architecture fingerprint standing in for
/// the model code.
class Model {
 public:
  /// Sentinel node id referring to the model input tensor.
  static constexpr int64_t kInputNode = -1;

  explicit Model(std::string architecture_name)
      : architecture_name_(std::move(architecture_name)) {}

  Model(const Model&) = delete;
  Model& operator=(const Model&) = delete;
  Model(Model&&) = default;
  Model& operator=(Model&&) = default;

  /// Adds a node consuming `inputs` (ids of earlier nodes or kInputNode);
  /// returns the new node id. The last added node is the model output.
  int64_t AddNode(std::unique_ptr<Layer> layer, std::vector<int64_t> inputs);

  /// Convenience for sequential sections: consumes the previous node (or the
  /// model input when the model is empty).
  int64_t AddSequential(std::unique_ptr<Layer> layer);

  const std::string& architecture_name() const { return architecture_name_; }
  size_t node_count() const { return nodes_.size(); }
  Layer* layer(size_t i) { return nodes_[i].layer.get(); }
  const Layer* layer(size_t i) const { return nodes_[i].layer.get(); }

  /// Runs the network; keeps a copy of `input` and every node's output for
  /// Backward. The model is the only owner of these activations: layers
  /// keep no copy of their inputs.
  Result<Tensor> Forward(const Tensor& input, ExecutionContext* ctx);

  /// Backpropagates from the model output; returns the gradient w.r.t. the
  /// model input. Each layer's Backward is handed the same input tensors
  /// its Forward read. Parameter gradients accumulate in the layers.
  Result<Tensor> Backward(const Tensor& grad_output, ExecutionContext* ctx);

  void ZeroGrad();

  /// Total trainable parameter element count (paper Table 2 "#Params").
  int64_t TrainableParamCount() const;
  /// Total element count including frozen parameters and buffers.
  int64_t TotalParamCount() const;
  /// Bytes of a full parameter snapshot (Table 2 "Size").
  size_t ParamByteSize() const;

  /// Marks all layers trainable/frozen.
  void SetTrainableAll(bool trainable);
  /// Marks layers whose name matches `predicate` trainable, all others
  /// frozen. Returns the number of layers left trainable.
  size_t SetTrainableWhere(
      const std::function<bool(const Layer&)>& predicate);

  /// Per-layer parameter hashes in layer order (Merkle tree leaves).
  std::vector<LayerHash> LayerHashes() const;

  /// Merkle tree over the layer hashes (paper Figure 4). Layer leaves are
  /// hashed in parallel on `pool` (the process-wide pool when null); each
  /// leaf is an independent hash written to its own slot, so the tree is
  /// identical for every pool size.
  Result<MerkleTree> BuildMerkleTree(util::ThreadPool* pool = nullptr) const;

  /// SHA-256 over all parameters and buffers; two models with equal
  /// architecture and equal ParamsHash are equal in the paper's sense.
  Digest ParamsHash() const;

  /// Hash of the architecture: layer names, types, arities, parameter
  /// shapes, and graph edges. Stands in for "the model code" — two models
  /// with the same fingerprint can exchange parameter snapshots.
  Digest ArchitectureFingerprint() const;

  /// Serializes all parameters and buffers layer by layer.
  Bytes SerializeParams() const;
  /// Restores a snapshot produced by SerializeParams; architecture must
  /// match.
  Status LoadParams(const Bytes& data);

  /// Writes the gradients of every trainable parameter into `out`
  /// (resized), concatenated in layer/parameter order — the fixed
  /// traversal the data-parallel all-reduce reduces over. Buffers and
  /// frozen parameters are skipped; they are never synchronized.
  void FlattenTrainableGrads(std::vector<float>* out) const;
  /// Writes `flat` (produced by FlattenTrainableGrads, possibly reduced)
  /// back into the trainable parameters' gradients. InvalidArgument when
  /// the element count does not match the current trainable set.
  Status LoadTrainableGrads(const std::vector<float>& flat);

  /// Serializes only the given layers (by node index), with names — the
  /// PUA's "parameter update" payload.
  Bytes SerializeLayerSubset(const std::vector<size_t>& layer_indices) const;
  /// Merges a subset snapshot into this model (layers found in the snapshot
  /// are overwritten, everything else is kept — paper Section 3.2 recovery).
  Status MergeLayerSubset(const Bytes& data);

  /// Index of the node whose layer is named `name`, or error.
  Result<size_t> FindLayerIndex(const std::string& name) const;

  /// Observer receiving activations/gradients; may be nullptr.
  void set_observer(ActivationObserver* observer) { observer_ = observer; }
  ActivationObserver* observer() const { return observer_; }

 private:
  struct Node {
    std::unique_ptr<Layer> layer;
    std::vector<int64_t> inputs;
  };

  /// The tensors `node` reads: earlier nodes' activations or input_.
  std::vector<const Tensor*> NodeInputs(const Node& node) const;

  std::string architecture_name_;
  std::vector<Node> nodes_;
  std::vector<Tensor> activations_;  // per node, valid after Forward
  Tensor input_;  // copy of the model input; the caller owns the batch
  ActivationObserver* observer_ = nullptr;
};

}  // namespace mmlib::nn


#include "nn/model.h"

#include <algorithm>

#include "check/check.h"
#include "util/thread_pool.h"

namespace mmlib::nn {

int64_t Model::AddNode(std::unique_ptr<Layer> layer,
                       std::vector<int64_t> inputs) {
  MMLIB_CHECK(layer != nullptr) << "AddNode with null layer";
  for (int64_t id : inputs) {
    MMLIB_CHECK(id == kInputNode ||
                (id >= 0 && id < static_cast<int64_t>(nodes_.size())))
        << "AddNode input id " << id << " does not reference an earlier node";
  }
  nodes_.push_back(Node{std::move(layer), std::move(inputs)});
  return static_cast<int64_t>(nodes_.size()) - 1;
}

int64_t Model::AddSequential(std::unique_ptr<Layer> layer) {
  const int64_t prev =
      nodes_.empty() ? kInputNode : static_cast<int64_t>(nodes_.size()) - 1;
  return AddNode(std::move(layer), {prev});
}

std::vector<const Tensor*> Model::NodeInputs(const Node& node) const {
  std::vector<const Tensor*> inputs;
  inputs.reserve(node.inputs.size());
  for (int64_t id : node.inputs) {
    inputs.push_back(id == kInputNode ? &input_ : &activations_[id]);
  }
  return inputs;
}

Result<Tensor> Model::Forward(const Tensor& input, ExecutionContext* ctx) {
  if (nodes_.empty()) {
    return Status::FailedPrecondition("model has no layers");
  }
  input_ = input;
  activations_.assign(nodes_.size(), Tensor());
  for (size_t i = 0; i < nodes_.size(); ++i) {
    Node& node = nodes_[i];
    auto result = node.layer->Forward(NodeInputs(node), ctx);
    if (!result.ok()) {
      return result.status().WithContext("forward of node " +
                                         node.layer->name());
    }
    activations_[i] = std::move(result).value();
    if (observer_ != nullptr) {
      observer_->OnForward(node.layer->name(), activations_[i]);
    }
  }
  return activations_.back();
}

Result<Tensor> Model::Backward(const Tensor& grad_output,
                               ExecutionContext* ctx) {
  if (activations_.size() != nodes_.size()) {
    return Status::FailedPrecondition("Backward called before Forward");
  }
  // Accumulated output-gradients per node plus one slot for the model input.
  std::vector<Tensor> node_grads(nodes_.size());
  Tensor input_grad(input_.shape());
  node_grads.back() = grad_output;

  for (size_t i = nodes_.size(); i-- > 0;) {
    Node& node = nodes_[i];
    if (node_grads[i].numel() == 0) {
      // Node output is unused (cannot happen in well-formed graphs where
      // every node feeds the output); skip.
      continue;
    }
    auto result = node.layer->Backward(NodeInputs(node), node_grads[i], ctx);
    if (!result.ok()) {
      return result.status().WithContext("backward of node " +
                                         node.layer->name());
    }
    std::vector<Tensor> input_grads = std::move(result).value();
    if (input_grads.size() != node.inputs.size()) {
      return Status::Internal("node " + node.layer->name() +
                              " returned wrong number of input gradients");
    }
    for (size_t k = 0; k < node.inputs.size(); ++k) {
      const int64_t id = node.inputs[k];
      Tensor& slot = id == kInputNode ? input_grad : node_grads[id];
      if (slot.numel() == 0) {
        slot = std::move(input_grads[k]);
      } else {
        slot.AddInPlace(input_grads[k]);
      }
    }
    if (observer_ != nullptr) {
      // Report the gradient flowing to the node's first input.
      const int64_t id = node.inputs.empty() ? kInputNode : node.inputs[0];
      const Tensor& g = id == kInputNode ? input_grad : node_grads[id];
      observer_->OnBackward(node.layer->name(), g);
    }
  }
  return input_grad;
}

void Model::ZeroGrad() {
  for (Node& node : nodes_) {
    node.layer->ZeroGrad();
  }
}

int64_t Model::TrainableParamCount() const {
  int64_t count = 0;
  for (const Node& node : nodes_) {
    count += node.layer->TrainableParamCount();
  }
  return count;
}

int64_t Model::TotalParamCount() const {
  int64_t count = 0;
  for (const Node& node : nodes_) {
    count += node.layer->TotalParamCount();
  }
  return count;
}

void Model::FlattenTrainableGrads(std::vector<float>* out) const {
  out->resize(static_cast<size_t>(TrainableParamCount()));
  size_t offset = 0;
  for (const Node& node : nodes_) {
    for (const Param& param : node.layer->params()) {
      if (!param.trainable || param.is_buffer) {
        continue;
      }
      const size_t count = static_cast<size_t>(param.grad.numel());
      std::copy(param.grad.data(), param.grad.data() + count,
                out->data() + offset);
      offset += count;
    }
  }
}

Status Model::LoadTrainableGrads(const std::vector<float>& flat) {
  if (flat.size() != static_cast<size_t>(TrainableParamCount())) {
    return Status::InvalidArgument(
        "gradient vector has " + std::to_string(flat.size()) +
        " elements; the model's trainable set has " +
        std::to_string(TrainableParamCount()));
  }
  size_t offset = 0;
  for (Node& node : nodes_) {
    for (Param& param : node.layer->params()) {
      if (!param.trainable || param.is_buffer) {
        continue;
      }
      const size_t count = static_cast<size_t>(param.grad.numel());
      std::copy(flat.data() + offset, flat.data() + offset + count,
                param.grad.data());
      offset += count;
    }
  }
  return Status::OK();
}

size_t Model::ParamByteSize() const {
  return static_cast<size_t>(TotalParamCount()) * sizeof(float);
}

void Model::SetTrainableAll(bool trainable) {
  for (Node& node : nodes_) {
    node.layer->SetTrainable(trainable);
  }
}

size_t Model::SetTrainableWhere(
    const std::function<bool(const Layer&)>& predicate) {
  size_t trainable_layers = 0;
  for (Node& node : nodes_) {
    const bool trainable = predicate(*node.layer);
    node.layer->SetTrainable(trainable);
    if (trainable && node.layer->HasTrainableParams()) {
      ++trainable_layers;
    }
  }
  return trainable_layers;
}

std::vector<LayerHash> Model::LayerHashes() const {
  std::vector<LayerHash> hashes;
  hashes.reserve(nodes_.size());
  for (const Node& node : nodes_) {
    hashes.push_back(LayerHash{node.layer->name(), node.layer->ParamHash()});
  }
  return hashes;
}

Result<MerkleTree> Model::BuildMerkleTree(util::ThreadPool* pool) const {
  if (pool == nullptr) {
    pool = util::ThreadPool::Global();
  }

  // Per-node hashing parallelizes badly: one huge layer (fc weights, a wide
  // conv) dominates its chunk and the build runs at the speed of the
  // largest layer. Instead, hash individual parameter tensors as work
  // items, with chunk boundaries placed by parameter byte size so every
  // chunk carries a near-equal share of the bytes. The boundaries are a
  // pure function of the model's shapes (never the thread count), and leaf
  // digests are assembled from the same per-tensor content hashes
  // ParamHash() uses, so the tree root is identical to the serial build.
  struct Item {
    size_t node;
    size_t param;
  };
  std::vector<Item> items;
  std::vector<uint64_t> prefix_bytes;  // prefix_bytes[i] = bytes before item i
  uint64_t total_bytes = 0;
  for (size_t n = 0; n < nodes_.size(); ++n) {
    const std::vector<Param>& params = nodes_[n].layer->params();
    for (size_t p = 0; p < params.size(); ++p) {
      items.push_back(Item{n, p});
      prefix_bytes.push_back(total_bytes);
      total_bytes +=
          static_cast<uint64_t>(params[p].value.numel()) * sizeof(float);
    }
  }

  // Chunk c covers the items whose prefix byte offset falls in the c-th
  // equal slice of the total byte range.
  constexpr uint64_t kMaxHashChunks = 64;
  const uint64_t num_chunks =
      std::max<uint64_t>(1, std::min<uint64_t>(kMaxHashChunks, items.size()));
  std::vector<size_t> chunk_begin(num_chunks + 1, items.size());
  chunk_begin[0] = 0;
  for (size_t i = 0, c = 0; i < items.size(); ++i) {
    const uint64_t slice =
        total_bytes == 0
            ? i * num_chunks / items.size()
            : std::min<uint64_t>(num_chunks - 1,
                                 prefix_bytes[i] * num_chunks / total_bytes);
    while (c < slice) {
      chunk_begin[++c] = i;
    }
  }

  std::vector<std::vector<Digest>> digests(nodes_.size());
  for (size_t n = 0; n < nodes_.size(); ++n) {
    digests[n].resize(nodes_[n].layer->params().size());
  }
  util::ParallelFor(
      pool, static_cast<int64_t>(num_chunks), /*grain=*/1,
      [&](int64_t begin, int64_t end, size_t /*chunk_index*/) {
        for (int64_t c = begin; c < end; ++c) {
          for (size_t i = chunk_begin[static_cast<size_t>(c)];
               i < chunk_begin[static_cast<size_t>(c) + 1]; ++i) {
            const Item& item = items[i];
            digests[item.node][item.param] =
                nodes_[item.node].layer->params()[item.param].value
                    .ContentHash();
          }
        }
      });

  std::vector<Digest> leaves(nodes_.size());
  for (size_t n = 0; n < nodes_.size(); ++n) {
    leaves[n] = nodes_[n].layer->ParamHashWith(digests[n]);
  }
  return MerkleTree::Build(std::move(leaves));
}

Digest Model::ParamsHash() const {
  Sha256 hasher;
  for (const Node& node : nodes_) {
    const Digest d = node.layer->ParamHash();
    hasher.Update(d.bytes.data(), d.bytes.size());
  }
  return hasher.Finish();
}

Digest Model::ArchitectureFingerprint() const {
  Sha256 hasher;
  hasher.Update(architecture_name_);
  for (const Node& node : nodes_) {
    hasher.Update(node.layer->name());
    hasher.Update(node.layer->type());
    BytesWriter writer;
    writer.WriteU64(node.inputs.size());
    for (int64_t id : node.inputs) {
      writer.WriteI64(id);
    }
    for (const Param& p : node.layer->params()) {
      writer.WriteString(p.name);
      writer.WriteU64(p.value.shape().rank());
      for (int64_t d : p.value.shape().dims()) {
        writer.WriteI64(d);
      }
    }
    hasher.Update(writer.bytes());
  }
  return hasher.Finish();
}

namespace {

/// Bytes a snapshot spends on one layer: its name and its parameters.
size_t SerializedLayerSize(const Layer& layer) {
  return 8 + layer.name().size() + layer.SerializedParamsSize();
}

}  // namespace

Bytes Model::SerializeParams() const {
  size_t size = 8;
  for (const Node& node : nodes_) {
    size += SerializedLayerSize(*node.layer);
  }
  BytesWriter writer;
  writer.Reserve(size);
  writer.WriteU64(nodes_.size());
  for (const Node& node : nodes_) {
    writer.WriteString(node.layer->name());
    node.layer->SerializeParams(&writer);
  }
  return writer.TakeBytes();
}

Status Model::LoadParams(const Bytes& data) {
  BytesReader reader(data);
  MMLIB_ASSIGN_OR_RETURN(uint64_t count, reader.ReadU64());
  if (count != nodes_.size()) {
    return Status::Corruption("model snapshot layer count mismatch: " +
                              std::to_string(count) + " vs " +
                              std::to_string(nodes_.size()));
  }
  for (Node& node : nodes_) {
    MMLIB_ASSIGN_OR_RETURN(std::string name, reader.ReadString());
    if (name != node.layer->name()) {
      return Status::Corruption("model snapshot layer order mismatch: " +
                                name + " vs " + node.layer->name());
    }
    MMLIB_RETURN_IF_ERROR(node.layer->DeserializeParams(&reader));
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes after model snapshot");
  }
  return Status::OK();
}

Bytes Model::SerializeLayerSubset(
    const std::vector<size_t>& layer_indices) const {
  size_t size = 8;
  for (size_t i : layer_indices) {
    MMLIB_CHECK_LT(i, nodes_.size()) << "SerializeLayerSubset: bad node index";
    size += SerializedLayerSize(*nodes_[i].layer);
  }
  BytesWriter writer;
  writer.Reserve(size);
  writer.WriteU64(layer_indices.size());
  for (size_t i : layer_indices) {
    writer.WriteString(nodes_[i].layer->name());
    nodes_[i].layer->SerializeParams(&writer);
  }
  return writer.TakeBytes();
}

Status Model::MergeLayerSubset(const Bytes& data) {
  BytesReader reader(data);
  MMLIB_ASSIGN_OR_RETURN(uint64_t count, reader.ReadU64());
  for (uint64_t k = 0; k < count; ++k) {
    MMLIB_ASSIGN_OR_RETURN(std::string name, reader.ReadString());
    MMLIB_ASSIGN_OR_RETURN(size_t index, FindLayerIndex(name));
    MMLIB_RETURN_IF_ERROR(nodes_[index].layer->DeserializeParams(&reader));
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes after layer subset");
  }
  return Status::OK();
}

Result<size_t> Model::FindLayerIndex(const std::string& name) const {
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].layer->name() == name) {
      return i;
    }
  }
  return Status::NotFound("no layer named " + name);
}

}  // namespace mmlib::nn

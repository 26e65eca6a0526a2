#include "nn/optimizer.h"

#include "kernels/sgd.h"

namespace mmlib::nn {

SgdOptimizer::SgdOptimizer(Model* model, SgdOptions options)
    : model_(model), options_(options) {
  RebuildSlots();
}

void SgdOptimizer::RebuildSlots() {
  slots_.clear();
  for (size_t i = 0; i < model_->node_count(); ++i) {
    Layer* layer = model_->layer(i);
    for (size_t p = 0; p < layer->params().size(); ++p) {
      const Param& param = layer->params()[p];
      if (param.trainable && !param.is_buffer) {
        slots_.push_back(Slot{i, p, Tensor(param.value.shape())});
      }
    }
  }
}

void SgdOptimizer::Step() {
  for (Slot& slot : slots_) {
    Param& param = model_->layer(slot.node_index)->params()[slot.param_index];
    if (!param.trainable) {
      continue;
    }
    kernels::SgdStep(param.value.data(), param.grad.data(),
                     slot.velocity.data(), param.value.numel(),
                     options_.learning_rate, options_.momentum,
                     options_.weight_decay);
  }
}

Bytes SgdOptimizer::SerializeState() const {
  BytesWriter writer;
  writer.WriteF32(options_.learning_rate);
  writer.WriteF32(options_.momentum);
  writer.WriteF32(options_.weight_decay);
  // Without momentum SGD is stateless: the velocity buffers stay zero and
  // are never read, so they are omitted from the state file.
  const bool has_velocity = options_.momentum != 0.0f;
  writer.WriteU8(has_velocity ? 1 : 0);
  writer.WriteU64(slots_.size());
  for (const Slot& slot : slots_) {
    const Layer* layer = model_->layer(slot.node_index);
    writer.WriteString(layer->name());
    writer.WriteString(layer->params()[slot.param_index].name);
    if (has_velocity) {
      slot.velocity.SerializeTo(&writer);
    }
  }
  return writer.TakeBytes();
}

Status SgdOptimizer::LoadState(const Bytes& data) {
  BytesReader reader(data);
  MMLIB_ASSIGN_OR_RETURN(options_.learning_rate, reader.ReadF32());
  MMLIB_ASSIGN_OR_RETURN(options_.momentum, reader.ReadF32());
  MMLIB_ASSIGN_OR_RETURN(options_.weight_decay, reader.ReadF32());
  MMLIB_ASSIGN_OR_RETURN(uint8_t has_velocity, reader.ReadU8());
  MMLIB_ASSIGN_OR_RETURN(uint64_t count, reader.ReadU64());
  if (count != slots_.size()) {
    return Status::Corruption("optimizer state slot count mismatch: " +
                              std::to_string(count) + " vs " +
                              std::to_string(slots_.size()));
  }
  for (Slot& slot : slots_) {
    const Layer* layer = model_->layer(slot.node_index);
    MMLIB_ASSIGN_OR_RETURN(std::string layer_name, reader.ReadString());
    MMLIB_ASSIGN_OR_RETURN(std::string param_name, reader.ReadString());
    if (layer_name != layer->name() ||
        param_name != layer->params()[slot.param_index].name) {
      return Status::Corruption("optimizer state does not match model: " +
                                layer_name + "." + param_name);
    }
    if (has_velocity != 0) {
      MMLIB_ASSIGN_OR_RETURN(Tensor velocity, Tensor::Deserialize(&reader));
      if (velocity.shape() != slot.velocity.shape()) {
        return Status::Corruption("optimizer velocity shape mismatch for " +
                                  layer_name + "." + param_name);
      }
      slot.velocity = std::move(velocity);
    } else {
      slot.velocity.Fill(0.0f);
    }
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes after optimizer state");
  }
  return Status::OK();
}

}  // namespace mmlib::nn

#include "nn/layer.h"

#include "kernels/sgd.h"

namespace mmlib::nn {

int64_t Layer::TrainableParamCount() const {
  int64_t count = 0;
  for (const Param& p : params_) {
    if (p.trainable && !p.is_buffer) {
      count += p.value.numel();
    }
  }
  return count;
}

int64_t Layer::TotalParamCount() const {
  int64_t count = 0;
  for (const Param& p : params_) {
    count += p.value.numel();
  }
  return count;
}

void Layer::SetTrainable(bool trainable) {
  for (Param& p : params_) {
    if (!p.is_buffer) {
      p.trainable = trainable;
    }
  }
}

bool Layer::HasTrainableParams() const {
  for (const Param& p : params_) {
    if (p.trainable && !p.is_buffer) {
      return true;
    }
  }
  return false;
}

void Layer::ZeroGrad() {
  for (Param& p : params_) {
    kernels::ZeroFill(p.grad.data(), p.grad.numel());
  }
}

Digest Layer::ParamHash() const {
  std::vector<Digest> digests;
  digests.reserve(params_.size());
  for (const Param& p : params_) {
    digests.push_back(p.value.ContentHash());
  }
  return ParamHashWith(digests);
}

Digest Layer::ParamHashWith(const std::vector<Digest>& param_digests) const {
  Sha256 hasher;
  for (size_t i = 0; i < params_.size(); ++i) {
    hasher.Update(params_[i].name);
    const Digest& d = param_digests[i];
    hasher.Update(d.bytes.data(), d.bytes.size());
  }
  return hasher.Finish();
}

void Layer::SerializeParams(BytesWriter* writer) const {
  writer->WriteU64(params_.size());
  for (const Param& p : params_) {
    writer->WriteString(p.name);
    p.value.SerializeTo(writer);
  }
}

size_t Layer::SerializedParamsSize() const {
  size_t size = 8;
  for (const Param& p : params_) {
    size += 8 + p.name.size() + p.value.SerializedSize();
  }
  return size;
}

Status Layer::DeserializeParams(BytesReader* reader) {
  MMLIB_ASSIGN_OR_RETURN(uint64_t count, reader->ReadU64());
  if (count != params_.size()) {
    return Status::Corruption("layer " + name_ + ": parameter count mismatch");
  }
  for (Param& p : params_) {
    MMLIB_ASSIGN_OR_RETURN(std::string name, reader->ReadString());
    if (name != p.name) {
      return Status::Corruption("layer " + name_ + ": expected parameter " +
                                p.name + ", found " + name);
    }
    MMLIB_ASSIGN_OR_RETURN(Tensor value, Tensor::Deserialize(reader));
    if (value.shape() != p.value.shape()) {
      return Status::Corruption("layer " + name_ + ": parameter " + p.name +
                                " shape mismatch");
    }
    p.value = std::move(value);
  }
  return Status::OK();
}

size_t Layer::AddParam(std::string name, Tensor value, bool trainable,
                       bool is_buffer) {
  Param p;
  p.name = std::move(name);
  p.grad = Tensor(value.shape());
  p.value = std::move(value);
  p.trainable = trainable && !is_buffer;
  p.is_buffer = is_buffer;
  params_.push_back(std::move(p));
  return params_.size() - 1;
}

}  // namespace mmlib::nn

#include "core/probe.h"

#include <algorithm>
#include <utility>

#include "hash/merkle_tree.h"
#include "nn/loss.h"

namespace mmlib::core {

Bytes LayerTrace::Serialize() const {
  BytesWriter writer;
  writer.WriteF32(loss);
  writer.WriteU64(events.size());
  for (const TraceEvent& event : events) {
    writer.WriteU8(static_cast<uint8_t>(event.pass));
    writer.WriteString(event.layer_name);
    writer.WriteRaw(event.digest.bytes.data(), event.digest.bytes.size());
  }
  return writer.TakeBytes();
}

Result<LayerTrace> LayerTrace::Deserialize(const Bytes& data) {
  BytesReader reader(data);
  LayerTrace trace;
  MMLIB_ASSIGN_OR_RETURN(trace.loss, reader.ReadF32());
  MMLIB_ASSIGN_OR_RETURN(uint64_t count, reader.ReadU64());
  // No reserve: a corrupt count fails at the first missing event instead
  // of allocating for it.
  for (uint64_t i = 0; i < count; ++i) {
    TraceEvent& event = trace.events.emplace_back();
    MMLIB_ASSIGN_OR_RETURN(uint8_t pass, reader.ReadU8());
    if (pass > static_cast<uint8_t>(TraceEvent::Pass::kBackward)) {
      return Status::Corruption("layer trace event has an unknown pass");
    }
    event.pass = static_cast<TraceEvent::Pass>(pass);
    MMLIB_ASSIGN_OR_RETURN(event.layer_name, reader.ReadString());
    MMLIB_RETURN_IF_ERROR(
        reader.ReadRaw(event.digest.bytes.data(), event.digest.bytes.size()));
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes after layer trace");
  }
  return trace;
}

Result<Digest> LayerTrace::Root() const {
  std::vector<Digest> leaves;
  leaves.reserve(events.size());
  for (const TraceEvent& event : events) {
    leaves.push_back(event.digest);
  }
  MMLIB_ASSIGN_OR_RETURN(MerkleTree tree, MerkleTree::Build(std::move(leaves)));
  return tree.root();
}

std::string TraceComparison::FirstDivergence() const {
  if (equal) {
    return "";
  }
  if (mismatches.empty()) {
    return "loss diverged";
  }
  const TraceMismatch& first = mismatches.front();
  return std::string(first.pass == TraceEvent::Pass::kForward ? "forward"
                                                              : "backward") +
         " event #" + std::to_string(first.index) + " (" + first.layer_name +
         ") diverged, " + std::to_string(mismatches.size()) +
         " events differ";
}

TraceComparison CompareTraces(const LayerTrace& expected,
                              const LayerTrace& actual) {
  TraceComparison comparison;
  const std::vector<TraceEvent>& lhs = expected.events;
  const std::vector<TraceEvent>& rhs = actual.events;
  for (size_t i = 0; i < std::max(lhs.size(), rhs.size()); ++i) {
    if (i < lhs.size() && i < rhs.size() && lhs[i].pass == rhs[i].pass &&
        lhs[i].layer_name == rhs[i].layer_name &&
        lhs[i].digest == rhs[i].digest) {
      continue;
    }
    const TraceEvent& named = i < rhs.size() ? rhs[i] : lhs[i];
    comparison.mismatches.push_back(
        TraceMismatch{i, named.pass, named.layer_name});
  }
  comparison.equal =
      comparison.mismatches.empty() && expected.loss == actual.loss;
  return comparison;
}

TraceRecorder::TraceRecorder(nn::Model* model, LayerTrace* trace)
    : model_(model), trace_(trace), previous_(model->observer()) {
  model_->set_observer(this);
}

TraceRecorder::~TraceRecorder() { model_->set_observer(previous_); }

void TraceRecorder::OnForward(const std::string& layer_name,
                              const Tensor& output) {
  trace_->events.push_back(TraceEvent{TraceEvent::Pass::kForward, layer_name,
                                      output.ContentHash()});
}

void TraceRecorder::OnBackward(const std::string& layer_name,
                               const Tensor& grad_input) {
  trace_->events.push_back(TraceEvent{TraceEvent::Pass::kBackward, layer_name,
                                      grad_input.ContentHash()});
}

Result<LayerTrace> ProbeModel(nn::Model* model, const data::Batch& batch,
                              nn::ExecutionContext* ctx) {
  LayerTrace trace;
  TraceRecorder recorder(model, &trace);
  model->ZeroGrad();
  MMLIB_ASSIGN_OR_RETURN(Tensor logits, model->Forward(batch.images, ctx));
  MMLIB_ASSIGN_OR_RETURN(nn::LossResult loss,
                         nn::SoftmaxCrossEntropy(logits, batch.labels));
  trace.loss = loss.loss;
  MMLIB_RETURN_IF_ERROR(model->Backward(loss.grad_logits, ctx).status());
  return trace;
}

Result<TraceComparison> CheckReproducibility(nn::Model* model,
                                             const data::Batch& batch,
                                             bool deterministic,
                                             uint64_t seed) {
  auto probe = [&](uint64_t scheduler_seed) {
    nn::ExecutionContext ctx =
        deterministic
            ? nn::ExecutionContext::Deterministic(seed)
            : nn::ExecutionContext::NonDeterministic(seed, scheduler_seed);
    ctx.set_training(true);
    return ProbeModel(model, batch, &ctx);
  };
  MMLIB_ASSIGN_OR_RETURN(LayerTrace first, probe(101));
  MMLIB_ASSIGN_OR_RETURN(LayerTrace second, probe(202));
  return CompareTraces(first, second);
}

}  // namespace mmlib::core
